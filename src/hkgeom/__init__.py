"""Computable substrate of hyperkahler period-domain geometry.

Exact quadratic-lattice arithmetic, period-domain geometry with twistor-conic
chaining, wall-and-chamber arrangements, Lefschetz-generated Lie algebras on
cohomology rings, and Cech gluing over finite abelian groups.

The public names below are loaded on first access (PEP 562), so that
``import hkgeom.<module>`` loads that module and its own imports only: the
exact layers (lattice, exactlin, cech) never import numpy.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "cech": (
            "Cochain", "FiniteAbelianGroup", "Nerve", "coboundary", "cohomology", "is_cocycle",
            "octahedron_nerve", "solve_coboundary"
        ),
        "config": ("DEFAULT_TOL", "RunConfig", "Tolerances"),
        "errors": (
            "DomainError", "HardLefschetzError", "HkgeomError", "InternalInconsistencyError",
            "NumericalError"
        ),
        "irrational": ("is_fully_irrational", "picard_trivial", "rational_closure"),
        "lattice": (
            "QuadLattice", "Reflection", "WallForm", "direct_sum", "dual_value", "e8_lattice",
            "hyperbolic_plane", "in_o_sharp", "is_negative_form", "k3_lattice", "kernel_signature",
            "rank_one", "reflection", "reflection_matrix", "rescale", "signature",
            "spinor_norm_sign", "standard_lattice"
        ),
        "llv": (
            "CohomologyRing", "GradedOperator", "LieClosure", "deligne_generator",
            "fujiki_constant", "full_llv_closure", "grading_h", "hodge_decompose", "k3_ring",
            "lefschetz_e", "lefschetz_f", "lie_closure", "so5_closure"
        ),
        "period": (
            "OrientedTwoPlane", "PeriodPoint", "PositiveThreePlane", "TwistorChain",
            "chain_connect", "conic_contains", "conic_point", "orient_three_plane", "period_point",
            "plane_to_point", "point_to_plane", "positive_cone_contains", "sample_irrational_line",
            "sample_period_point", "twistor_plane", "verify_chain"
        ),
        "walls": (
            "MajorantForm", "WallSet", "enumerate_walls_near", "in_u_eps",
            "kahler_chamber_contains", "majorant", "relevant_walls", "wall_avoidance"
        ),
    }.items()
    for name in names
}

# submodules that ``hkgeom.<name>`` reaches without importing them first
_MODULES = {*_EXPORTS.values(), "exactlin"}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
