"""The two intake rules: float vectors (period.float_rows) and seeds and counts (exactlin.integer).

Every public parameter that takes a float vector, a seed or a count either
accepts a value or refuses it with a DomainError that names the parameter;
no numpy error escapes, and no answer is computed on a NaN.
"""

import math

import numpy as np
import pytest

from hkgeom import exactlin as ex
from hkgeom import irrational as irr
from hkgeom import lattice as lat
from hkgeom import llv
from hkgeom import period as per
from hkgeom import walls as wl
from hkgeom.errors import DomainError, HkgeomError

U3 = lat.standard_lattice("U3")
DIAG = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
Z = per.period_point(U3, DIAG[0], DIAG[1])
PLANE = per.orient_three_plane(U3, DIAG)
RING = llv.k3_ring()
NAN, INF = math.nan, math.inf
# entries of 1e300 overflow q(v) in floats: numpy warns, and the call still answers or refuses
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# the hostile calls that escaped the error contract or answered on a NaN, and the refusal each now meets
LEAKS = {
    "sample_period_point-negative-seed": (lambda: per.sample_period_point(U3, -1), "seed must be a non-negative"),
    "sample_period_point-fractional-seed": (lambda: per.sample_period_point(U3, 1.5), "seed must be an integer"),
    "sample_irrational_line-negative-seed": (
        lambda: per.sample_irrational_line(Z, seed=-1),
        "seed must be a non-negative",
    ),
    "fujiki_constant-negative-seed": (lambda: llv.fujiki_constant(RING, seed=-1), "seed must be a non-negative"),
    "fujiki_constant-zero-samples": (lambda: llv.fujiki_constant(RING, samples=0), "samples must be an integer >= 1"),
    "positive_cone_contains-short-c": (lambda: per.positive_cone_contains(Z, [1]), "c must have length 6"),
    "twistor_plane-short-ell": (lambda: per.twistor_plane(Z, [1]), "ell must have length 6"),
    "orthonormal_pair-short-pair": (lambda: per.orthonormal_pair(U3, [1, 0], [0, 1]), "a and b must have length 6"),
    "orient_three_plane-short-rows": (
        lambda: per.orient_three_plane(U3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "vectors must have length 6",
    ),
    "orient_three_plane-nan-rows": (
        lambda: per.orient_three_plane(U3, [[NAN] * 6] * 3),
        "vectors must have finite coordinates",
    ),
    "kahler_chamber_contains-short-kappa": (
        lambda: wl.kahler_chamber_contains(Z, wl.WallSet(U3, ()), [1, 2]),
        "kappa must have length 6",
    ),
    "is_fully_irrational-nan": (lambda: irr.is_fully_irrational([[NAN, 1.0]]), "vectors must have finite coordinates"),
    "is_fully_irrational-inf": (
        lambda: irr.is_fully_irrational([[INF, 1.0, 2.0]]),
        "vectors must have finite coordinates",
    ),
    "twistor_plane-inf-ell": (lambda: per.twistor_plane(Z, [INF] * 6), "ell must have finite coordinates"),
    "period_point-nan-re": (lambda: per.period_point(U3, [NAN] * 6, [0] * 6), "re and im must have finite coordinates"),
    "positive_cone_contains-nan-c": (
        lambda: per.positive_cone_contains(Z, [NAN] * 6),
        "c must have finite coordinates",
    ),
    "in_u_eps-nan-v": (lambda: wl.in_u_eps(U3, DIAG, [NAN] * 6, 0.5), "v must have finite coordinates"),
    "conic_point-nan-u": (lambda: per.conic_point(PLANE, [NAN] * 6), "u must have finite coordinates"),
}


@pytest.mark.parametrize("case", list(LEAKS))
def test_hostile_call_is_a_domain_error_naming_the_argument(case):
    call, message = LEAKS[case]
    with pytest.raises(DomainError, match=message):
        call()


def test_detect_mode_reports_on_an_entry_of_1e300():
    # N w_j overflowed to inf before the division by the scale
    report = irr.rational_closure_detect([[1e300, 1.0, 2.0]])
    assert (report.ambient_dim, report.span_dim, report.mode) == (3, 1, "detect")


def _hostile_vectors(n):
    """Wrong lengths, NaN, +-inf and entries of 1e300, for a parameter that takes a vector of length n."""
    base = [1.0] * n
    return [
        base[:-1],
        base + [1.0],
        [],
        [NAN] + base[1:],
        [INF] + base[1:],
        [-INF] + base[1:],
        [1e300] * n,
        [1e300, -1e300] * (n // 2),
        [1e300] + base[1:],
    ]


# a call per public float-vector parameter with x there: (call, vector length, the name its refusals give)
VECTOR_PARAMS = {
    "period_point re": (lambda x: per.period_point(U3, x, DIAG[1]), 6, "re and im"),
    "period_point im": (lambda x: per.period_point(U3, DIAG[0], x), 6, "re and im"),
    "orthonormal_pair a": (lambda x: per.orthonormal_pair(U3, x, DIAG[1]), 6, "a and b"),
    "orthonormal_pair b": (lambda x: per.orthonormal_pair(U3, DIAG[0], x), 6, "a and b"),
    "oriented_two_plane b": (lambda x: per.oriented_two_plane(U3, DIAG[0], x), 6, "a and b"),
    "orient_three_plane vectors": (lambda x: per.orient_three_plane(U3, [DIAG[0], DIAG[1], x]), 6, "vectors"),
    "positive_cone_contains c": (lambda x: per.positive_cone_contains(Z, x), 6, "c"),
    "twistor_plane ell": (lambda x: per.twistor_plane(Z, x), 6, "ell"),
    "conic_point u": (lambda x: per.conic_point(PLANE, x), 6, "u"),
    "lefschetz_e eta": (lambda x: llv.lefschetz_e(RING, x), 22, "eta"),
    "lefschetz_f eta": (lambda x: llv.lefschetz_f(RING, x), 22, "eta"),
    "in_u_eps span": (lambda x: wl.in_u_eps(U3, [DIAG[0], DIAG[1], x], [1, -1, 0, 0, 0, 0], 0.5), 6, "span"),
    "in_u_eps v": (lambda x: wl.in_u_eps(U3, DIAG, x, 0.5), 6, "v"),
    "kahler_chamber_contains kappa": (lambda x: wl.kahler_chamber_contains(Z, wl.WallSet(U3, ()), x), 6, "kappa"),
    "MajorantForm.value v": (lambda x: wl.majorant(U3, DIAG).value(x), 6, "v"),
    "rational_closure_detect vectors": (lambda x: irr.rational_closure_detect([x, DIAG[0]]), 6, "vectors"),
    "rational_closure vectors": (lambda x: irr.rational_closure([DIAG[0], x], mode="detect"), 6, "vectors"),
    "is_fully_irrational vectors": (lambda x: irr.is_fully_irrational([DIAG[0], x]), 6, "vectors"),
}


def _returns_or_raises_hkgeom_error(call, x):
    try:
        out = call(x)
    except HkgeomError:
        return
    for a in (getattr(out, name, None) for name in ("re", "im", "frame", "matrix")):
        assert a is None or np.isfinite(a).all(), out


@pytest.mark.parametrize("param", list(VECTOR_PARAMS))
def test_float_vector_parameters_take_hostile_vectors(param):
    call, n, name = VECTOR_PARAMS[param]
    for x in _hostile_vectors(n):
        _returns_or_raises_hkgeom_error(call, x)
    # a wrong length or a NaN is refused by name, before anything is computed on it
    for x, what in (([1.0] * (n + 1), "length|share"), ([NAN] * n, "finite coordinates")):
        with pytest.raises(DomainError, match=f"^{name} must (have|share) .*({what})"):
            call(x)


# a call per public seed or count parameter: (call, least accepted value)
INTEGER_PARAMS = {
    "sample_period_point seed": (lambda k: per.sample_period_point(U3, k), 0),
    "sample_irrational_line seed": (lambda k: per.sample_irrational_line(Z, seed=k), 0),
    "fujiki_constant seed": (lambda k: llv.fujiki_constant(RING, samples=4, seed=k), 0),
    "fujiki_constant samples": (lambda k: llv.fujiki_constant(RING, samples=k), 1),
    "picard_trivial height": (lambda k: irr.picard_trivial(Z, height=k), 0),
    "is_fully_irrational height": (lambda k: irr.is_fully_irrational([DIAG[0]], height=k), 1),
    "rational_closure_detect height": (lambda k: irr.rational_closure_detect([DIAG[0]], height=k), 1),
}


@pytest.mark.parametrize("param", list(INTEGER_PARAMS))
def test_seed_and_count_parameters_refuse_bools_fractions_and_values_below_range(param):
    call, least = INTEGER_PARAMS[param]
    for k in (least - 1, -(10**30), True, False, 1.5, 2.0, np.float64(3.0), "3"):
        with pytest.raises(DomainError):
            call(k)
    call(np.int64(least + 2))  # numpy integers are integers


def test_float_rule_keeps_float_arrays_and_the_integer_rule_converts_numpy_ints():
    a = np.arange(6.0)
    assert per.float_rows([a], "a", 6)[0] is a
    assert per.float_rows([[1, 2], [3, 4]], "rows", None)[1].dtype == float
    with pytest.raises(DomainError, match="rows must have float coordinates"):
        per.float_rows([[1, "x"]], "rows", None)
    with pytest.raises(DomainError, match="rows must share one nonzero length"):
        per.float_rows([[[1.0]]], "rows", None)
    value = ex.integer(np.int64(7), "seed", 0)
    assert value == 7 and type(value) is int
    with pytest.raises(DomainError, match="seed must be an integer, got True"):
        ex.integer(True, "seed", 0)
