"""The three intake rules: float vectors (period.float_rows), seeds and counts (exactlin.integer)
and exact vectors (exactlin.exact_rows).

Every public parameter that takes a float vector, a seed, a count or an
exact vector either accepts a value or refuses it with a DomainError that
names the parameter; no numpy error or TypeError escapes, no answer is
computed on a NaN, and none on an exact vector of the wrong length.
"""

import json
import math
from fractions import Fraction

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


def _diagonal_with(value):
    """The identity on the K3 ring's basis, of degree shift 0, with ``value`` as its first diagonal entry."""
    m = np.eye(RING.dim)
    m[0, 0] = value
    return m


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
    # a NaN on the diagonal was stored, and lie_closure with it and an e returned dimension 2 at residual 0.0
    "GradedOperator-nan-matrix": (
        lambda: llv.GradedOperator(RING, _diagonal_with(NAN), 0),
        "matrix rows must have finite coordinates",
    ),
    "GradedOperator-inf-matrix": (
        lambda: llv.GradedOperator(RING, _diagonal_with(INF), 0),
        "matrix rows must have finite coordinates",
    ),
    "GradedOperator-string-matrix": (
        lambda: llv.GradedOperator(RING, "abc", 0),
        "matrix rows must have float coordinates",
    ),
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


# -- exact vectors ------------------------------------------------------------

WALL = [1, -1, 0, 0, 0, 0]  # a negative form on U3: q^vee = -2
SWAP = [[int(j == (i ^ 1)) for j in range(6)] for i in range(6)]  # e_i <-> f_i, an isometry of U3
MAJORANT = wl.majorant(U3, DIAG)

# a call per public exact-vector parameter with x there: (call, the name its refusals give)
EXACT_PARAMS = {
    "bform u": (lambda x: U3.bform(x, DIAG[0]), "u and v"),
    "bform v": (lambda x: U3.bform(DIAG[0], x), "u and v"),
    "q v": (lambda x: U3.q(x), "v"),
    "dual_value coords": (lambda x: lat.dual_value(U3, x), "coords"),
    "kernel_signature coords": (lambda x: lat.kernel_signature(U3, x), "coords"),
    "is_negative_form coords": (lambda x: lat.is_negative_form(U3, x), "coords"),
    "reflection_matrix v": (lambda x: lat.reflection_matrix(U3, x), "v"),
    "WallForm coords": (lambda x: lat.WallForm(U3, x), "coords"),
    "WallForm call v": (lambda x: lat.WallForm(U3, WALL)(x), "v"),
    "MajorantForm.value v": (lambda x: MAJORANT.value(x), "v"),
    "majorant span": (lambda x: wl.majorant(U3, [DIAG[0], DIAG[1], x]), "span rows"),
    "spinor_norm_sign g": (lambda x: lat.spinor_norm_sign(U3, [x, *SWAP[1:]]), "g rows"),
    "rational_closure_exact vectors": (lambda x: irr.rational_closure_exact([DIAG[0], x]), "vectors"),
    "QuadLattice.from_rows rows": (lambda x: lat.QuadLattice.from_rows([x, *U3.gram[1:]]), "gram"),
}


def _hostile_exact(n):
    """A row one entry short and one long, no entries, a scalar, None, a float, NaN, "x", and NaN and "x" as entries."""
    base = [1] * n
    return [base[:-1], base + [1], [], 3, None, 1.5, NAN, "x", [NAN] + base[1:], ["x"] + base[1:]]


@pytest.mark.parametrize("param", list(EXACT_PARAMS))
def test_exact_vector_parameters_refuse_hostile_vectors_by_name(param):
    call, name = EXACT_PARAMS[param]
    for x in _hostile_exact(6):
        with pytest.raises(DomainError, match=f"^{name} must"):
            call(x)
    if param != "MajorantForm.value v":  # the value of a float vector is a float
        with pytest.raises(DomainError, match=f"^{name} must have exact entries: exact arithmetic rejects floats"):
            call([0.5] + [1] * 5)


# the hostile calls that leaked a TypeError, and the refusal each now meets
EXACT_LEAKS = {
    "bform-scalars": (lambda: U3.bform(3, 3), "u and v must have 6 coordinates"),
    "bform-none": (lambda: U3.bform(None, None), "u and v must have 6 coordinates"),
    "dual_value-scalar": (lambda: lat.dual_value(U3, 3), "coords must have 6 coordinates"),
    "is_negative_form-scalar": (lambda: lat.is_negative_form(U3, 3), "coords must have 6 coordinates"),
    "majorant-flat-span": (lambda: wl.majorant(U3, [1, 2, 3]), "span rows must have 6 coordinates"),
    "enumerate_walls_near-string-d": (lambda: wl.enumerate_walls_near(U3, DIAG, "-2", 2), "d must be an integer"),
    "spinor_norm_sign-scalar": (lambda: lat.spinor_norm_sign(U3, 3), "g rows must have 6 coordinates"),
    "spinor_norm_sign-none-rows": (lambda: lat.spinor_norm_sign(U3, [None] * 6), "g rows must have 6 coordinates"),
    "rational_closure_exact-flat": (lambda: irr.rational_closure_exact([1, 2]), "vectors must be a list of rows"),
    "WallForm-scalar": (lambda: lat.WallForm(U3, 3), "coords must have 6 coordinates"),
    "WallSet.from_coords-scalar": (lambda: wl.WallSet.from_coords(U3, [3]), "coords must have 6 coordinates"),
    "from_rows-scalar": (lambda: lat.QuadLattice.from_rows(3), "gram must be a list of rows"),
}

# the calls that answered where they should refuse, and the refusal each now meets
EXACT_WRONG_ANSWERS = {
    "value-short": (lambda: MAJORANT.value([1]), "v must have length 6"),
    "value-long": (lambda: MAJORANT.value([1] * 7), "v must have length 6"),
    "WallForm-call-short": (lambda: lat.WallForm(U3, WALL)([1]), "v must have 6 coordinates"),
    "WallForm-call-long": (lambda: lat.WallForm(U3, WALL)([1] * 7), "v must have 6 coordinates"),
    "enumerate_walls_near-float-d": (lambda: wl.enumerate_walls_near(U3, DIAG, -2.5, 2), "d must be an integer"),
    "enumerate_walls_near-fraction-d": (
        lambda: wl.enumerate_walls_near(U3, DIAG, Fraction(-5, 2), 2),
        "d must be an integer",
    ),
    "brute_force_walls-float-d": (lambda: wl.brute_force_walls(U3, DIAG, -2.5, 2, 1), "d must be an integer"),
    "brute_force_walls-fraction-d": (
        lambda: wl.brute_force_walls(U3, DIAG, Fraction(-5, 2), 2, 1),
        "d must be an integer",
    ),
    "enumerate_walls_near-integral-float-d": (lambda: wl.enumerate_walls_near(U3, DIAG, -2.0, 2), "d must be an integer"),
    "rational_closure_exact-empty-row": (lambda: irr.rational_closure_exact([[]]), "vectors must be a list of rows"),
    "rank_one-fraction": (lambda: lat.rank_one(1.5), "k must be an integer"),
    "rescale-bool": (lambda: lat.rescale(U3, True), "s must be an integer"),
}


@pytest.mark.parametrize("case", list(EXACT_LEAKS) + list(EXACT_WRONG_ANSWERS))
def test_hostile_exact_call_is_a_domain_error_naming_the_argument(case):
    call, message = {**EXACT_LEAKS, **EXACT_WRONG_ANSWERS}[case]
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


def test_numpy_integers_are_exact_everywhere():
    # a numpy-int vector is valued exactly, and a numpy-int span gives the majorant of the int span
    value = MAJORANT.value(np.ones(6, dtype=np.int64))
    assert value == 6 and isinstance(value, Fraction)
    assert wl.majorant(U3, np.array(DIAG)) == MAJORANT
    assert lat.rank_one(np.int64(-2)) == lat.rank_one(-2)
    assert wl.enumerate_walls_near(U3, DIAG, np.int64(-2), 2) == wl.enumerate_walls_near(U3, DIAG, -2, 2)


def test_exact_rule_keeps_int_rows_and_normalises_every_other_spelling():
    ints = [1, -2, 3]
    [out] = ex.exact_rows([ints], "v", 3)
    assert out is ints
    [out] = ex.exact_rows([(True, np.int64(4), Fraction(6, 3), "1/2", "-3")], "v", 5)
    assert out == [1, 4, 2, Fraction(1, 2), -3]
    assert [type(x) for x in out] == [int, int, int, Fraction, int]
    assert ex.exact_rows([], "span rows", 6) == []  # with a length, the count of rows is the caller's
    with pytest.raises(DomainError, match="^vectors must be a list of rows"):
        ex.exact_rows([], "vectors", None)
    # a float in an exact field is refused by the field's name
    with pytest.raises(DomainError, match="^coords must have exact entries: exact arithmetic rejects floats"):
        ex.exact_rows([[1, 0.5]], "coords", 2)


def test_cli_exact_closure_refuses_an_empty_row(tmp_path, capsys):
    from hkgeom.cli import main

    for vectors in ([[]], [[1, 0.5]]):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"vectors": vectors}))
        assert main(["irrational", "closure", "-i", str(job)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["message"].startswith("vectors must"), error
