"""Computable substrate of hyperkahler period-domain geometry.

Exact quadratic-lattice arithmetic, period-domain geometry with twistor-conic
chaining, wall-and-chamber arrangements, Lefschetz-generated Lie algebras on
cohomology rings, and Cech gluing over finite abelian groups.
"""

from .cech import (
    Cochain,
    FiniteAbelianGroup,
    Nerve,
    coboundary,
    cohomology,
    is_cocycle,
    octahedron_nerve,
    solve_coboundary,
)
from .config import DEFAULT_TOL, RunConfig, Tolerances
from .errors import (
    DomainError,
    HardLefschetzError,
    HkgeomError,
    InternalInconsistencyError,
    NumericalError,
)
from .irrational import (
    is_fully_irrational,
    picard_trivial,
    rational_closure,
)
from .lattice import (
    QuadLattice,
    Reflection,
    WallForm,
    direct_sum,
    dual_value,
    e8_lattice,
    hyperbolic_plane,
    in_o_sharp,
    is_negative_form,
    k3_lattice,
    kernel_signature,
    rank_one,
    reflection,
    reflection_matrix,
    rescale,
    signature,
    spinor_norm_sign,
    standard_lattice,
)
from .llv import (
    CohomologyRing,
    GradedOperator,
    LieClosure,
    deligne_generator,
    fujiki_constant,
    full_llv_closure,
    grading_h,
    hodge_decompose,
    k3_ring,
    lefschetz_e,
    lefschetz_f,
    lie_closure,
    so5_closure,
)
from .period import (
    OrientedTwoPlane,
    PeriodPoint,
    PositiveThreePlane,
    TwistorChain,
    chain_connect,
    conic_contains,
    conic_point,
    orient_three_plane,
    period_point,
    plane_to_point,
    point_to_plane,
    positive_cone_contains,
    sample_irrational_line,
    sample_period_point,
    twistor_plane,
    verify_chain,
)
from .walls import (
    MajorantForm,
    WallSet,
    enumerate_walls_near,
    in_u_eps,
    kahler_chamber_contains,
    majorant,
    relevant_walls,
    wall_avoidance,
)

__version__ = "0.1.0"
