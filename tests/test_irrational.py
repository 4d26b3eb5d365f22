import itertools
import tracemalloc
import types

import numpy as np
import pytest
import sympy

from hkgeom import irrational as irr
from hkgeom import lattice as lat
from hkgeom import period as per
from hkgeom.errors import DomainError

U3 = lat.standard_lattice("U3")


def test_exact_closure_single_rational_vector():
    rep = irr.rational_closure([[1, 2, 3]], mode="exact")
    assert rep.closure_dim == 1
    assert rep.ambient_dim == 3
    assert len(rep.relations) == 2
    for delta in rep.relations:
        assert sum(d * w for d, w in zip(delta, [1, 2, 3])) == 0


def test_exact_closure_matches_sympy_rank_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        vecs = [[int(x) for x in rng.integers(-5, 6, size=6)] for _ in range(k)]
        if all(not any(v) for v in vecs):
            continue
        rep = irr.rational_closure(vecs, mode="exact")
        assert rep.closure_dim == sympy.Matrix(vecs).rank()
        for delta in rep.relations:
            for v in vecs:
                assert sum(d * w for d, w in zip(delta, v)) == 0


def test_exact_closure_rejects_empty():
    with pytest.raises(DomainError):
        irr.rational_closure([], mode="exact")


def test_detect_sqrt2_line():
    w = np.zeros(6)
    w[0], w[1] = 1.0, np.sqrt(2.0)
    rep = irr.rational_closure([w], mode="detect", height=100, tol=1e-9)
    # all coordinate forms e_i, i >= 3 are found; nothing ties 1 and sqrt(2)
    assert rep.closure_dim == 2
    assert len(rep.relations) == 4
    for delta in rep.relations:
        assert delta[0] == 0 and delta[1] == 0


def test_detect_planted_relation():
    rng = np.random.default_rng(5)
    w = np.array([1.0, 3.0, -2.0, 0.0, 0.0, 0.0]) + 1e-12 * rng.standard_normal(6)
    rep = irr.rational_closure([w], mode="detect", height=100, tol=1e-9)
    # the plant (3, -1, 0, ...) or an equivalent is recovered
    assert any(d[0] != 0 or d[1] != 0 or d[2] != 0 for d in rep.relations)
    for delta in rep.relations:
        assert abs(sum(d * x for d, x in zip(delta, w))) < 1e-9


def test_relation_searches_refuse_ragged_and_empty_vectors():
    with pytest.raises(DomainError, match="share one nonzero length"):
        irr.is_fully_irrational([[1.0, 2.0], [3.0]])
    with pytest.raises(DomainError, match="share one nonzero length"):
        irr.rational_closure_detect([[]])
    with pytest.raises(DomainError, match="empty input"):
        irr.is_fully_irrational([])


def test_fully_irrational_verdicts():
    # a rational 3-plane in U3 is not fully irrational; witness delivered
    vecs = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
    verdict = irr.is_fully_irrational([np.array(v, dtype=float) for v in vecs])
    assert not verdict.fully_irrational
    assert verdict.witness is not None
    delta = np.array(verdict.witness, dtype=float)
    for v in vecs:
        assert abs(delta @ np.array(v, dtype=float)) < 1e-9
    # the full space is deterministically fully irrational
    full = irr.is_fully_irrational([row for row in np.eye(6)])
    assert full.fully_irrational and full.deterministic


def test_fully_irrational_random_planes():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(20):
        vecs = rng.uniform(-1, 1, size=(2, 6))
        verdict = irr.is_fully_irrational(list(vecs), height=100, tol=1e-9)
        hits += verdict.fully_irrational
    assert hits == 20


def test_fully_irrational_ranks_once_and_agrees_with_detect_mode(monkeypatch):
    # one rank per call, then detect mode's first relation as the witness, on planted,
    # rational, generic and full-rank inputs
    rng = np.random.default_rng(40)
    inputs = []
    for _ in range(6):
        plant = rng.integers(-3, 4, size=(rng.integers(1, 3), 6)).astype(float)
        inputs.append(list(plant + 1e-12 * rng.standard_normal(plant.shape)))
        inputs.append(list(rng.uniform(-1, 1, size=(rng.integers(1, 4), rng.integers(3, 8)))))
    inputs.append(list(rng.standard_normal((5, 5))))
    ranks = []
    matrix_rank = np.linalg.matrix_rank

    def counted_rank(a):
        ranks.append(a)
        return matrix_rank(a)

    monkeypatch.setattr(irr.np.linalg, "matrix_rank", counted_rank)
    verdicts = set()
    for vecs in inputs:
        ranks.clear()
        verdict = irr.is_fully_irrational(vecs, height=100, tol=1e-9)
        assert len(ranks) == 1
        verdicts.add((verdict.fully_irrational, verdict.deterministic))
        if not verdict.deterministic:
            relations = irr.rational_closure_detect(vecs, height=100, tol=1e-9).relations
            assert verdict.witness == (relations[0] if relations else None)
            assert verdict.fully_irrational == (not relations)
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_picard_rational_plane_has_witness():
    z = per.period_point(
        U3,
        np.array([1, 1, 0, 0, 0, 0], dtype=float),
        np.array([0, 0, 1, 1, 0, 0], dtype=float),
    )
    verdict = irr.picard_trivial(z, height=2, tol=1e-9)
    assert not verdict.trivial_up_to_height
    v = np.array(verdict.witness, dtype=float)
    assert abs(per.bform(U3, v, z.re)) < 1e-9
    assert abs(per.bform(U3, v, z.im)) < 1e-9
    assert max(abs(x) for x in verdict.witness) <= 2


def test_picard_height_zero_vacuous():
    z = per.sample_period_point(U3, 1)
    verdict = irr.picard_trivial(z, height=0)
    assert verdict.trivial_up_to_height
    assert verdict.method == "vacuous"


def test_picard_irrational_plane_trivial():
    for seed in (3, 9):
        z = per.sample_period_point(U3, seed)
        verdict = irr.picard_trivial(z, height=10, tol=1e-9)
        assert verdict.trivial_up_to_height
        assert verdict.method == "lll"  # 21^6 vectors are past the box-scan budget


def test_picard_lll_matches_exhaustive_on_rational_plane():
    # the box scan that picard_trivial runs at height 2 and the LLL kernel
    # behind its large-box path agree on a plane whose Picard lattice is
    # span(e1 - f1, e2 - f2, e3, f3)
    z = per.period_point(
        U3,
        np.array([1, 1, 0, 0, 0, 0], dtype=float),
        np.array([0, 0, 1, 1, 0, 0], dtype=float),
    )
    box = irr.picard_trivial(z, height=2, tol=1e-9)
    assert box.method == "exhaustive"
    assert not box.trivial_up_to_height
    g = per.gram_float(U3)
    found = irr._lll_relations([g @ z.re, g @ z.im], 2, 1e-9)
    assert found
    picard = [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    for v in [box.witness, *found]:
        assert max(abs(x) for x in v) <= 2
        assert sympy.Matrix([*picard, list(v)]).rank() == 4


def _point_loop_witness(z, height, tol):
    """The first box point in itertools.product order orthogonal to the plane, one dot product at a time."""
    g = per.gram_float(z.lattice)
    pa, pb = g @ z.re, g @ z.im
    for tup in itertools.product(range(-height, height + 1), repeat=z.lattice.rank):
        v = np.array(tup, dtype=float)
        if any(tup) and abs(float(v @ pa)) < tol and abs(float(v @ pb)) < tol:
            return tup
    return None


def test_picard_box_scan_matches_point_loop(monkeypatch):
    # blocks of 97 points, so witnesses fall inside later, unaligned blocks
    monkeypatch.setattr(irr, "_BOX_BLOCK", 97)
    g = per.gram_float(U3)
    points = [per.sample_period_point(U3, seed) for seed in (1, 2)]
    for seed, root in enumerate([(1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 1, 0), (1, -1, 1, 0, 0, 0)]):
        z = per.sample_period_point(U3, seed)
        v = np.array(root, dtype=float)  # q(v) = -2: moving along v into v-perp keeps the plane positive
        a, b = (x + 0.5 * float(x @ g @ v) * v for x in (z.re, z.im))
        points.append(per.period_point(U3, *per.orthonormal_pair(U3, a, b)))
    witnesses = 0
    for z in points:
        for height in (1, 2):
            verdict = irr.picard_trivial(z, height=height, tol=1e-9)
            assert verdict.method == "exhaustive"
            assert verdict.witness == _point_loop_witness(z, height, 1e-9)
            assert verdict.trivial_up_to_height == (verdict.witness is None)
            witnesses += verdict.witness is not None
    assert witnesses == 6


def _planted_point(rng, rank, planted):
    """A stand-in period point on a diagonal lattice whose plane is orthogonal to ``planted`` (None: generic)."""
    diag = [int(x) for x in rng.choice([-2, -1, 1, 2], size=rank)]
    L = lat.QuadLattice.from_rows([[diag[i] * (i == j) for j in range(rank)] for i in range(rank)])
    pa, pb = rng.standard_normal(rank), rng.standard_normal(rank)
    if planted is not None:
        v = np.array(planted, dtype=float)
        pa, pb = (p - (p @ v) / (v @ v) * v for p in (pa, pb))
    return types.SimpleNamespace(lattice=L, re=pa / diag, im=pb / diag)


@pytest.mark.parametrize("block", [7, 97])
def test_picard_box_scan_matches_point_loop_on_planted_planes(block, monkeypatch):
    # blocks of 7 points leave a one-coordinate suffix table and many prefix
    # steps; rank 1 has no prefix; some witnesses have a zero prefix, so they
    # share their step with the skipped zero vector, and some lie past the first step
    monkeypatch.setattr(irr, "_BOX_BLOCK", block)
    rng = np.random.default_rng(block)
    found = late = 0
    for rank in range(1, 8):
        for height in (1, 2, 3):
            if (2 * height + 1) ** rank > 4000:
                continue
            box = [int(x) for x in rng.integers(-height, height + 1, size=rank)]
            box[-1] = box[-1] or height
            tail = [0] * (rank - 1) + [int(rng.integers(1, height + 1))]
            for planted in (None, box, tail):
                z = _planted_point(rng, rank, planted)
                verdict = irr.picard_trivial(z, height=height, tol=1e-9)
                assert verdict.method == "exhaustive"
                assert verdict.witness == _point_loop_witness(z, height, 1e-9)
                assert verdict.trivial_up_to_height == (verdict.witness is None)
                if verdict.witness is not None:
                    found += 1
                    flat = np.ravel_multi_index([x + height for x in verdict.witness], (2 * height + 1,) * rank)
                    late += int(flat) >= block
    assert found == 32 and late >= 10  # every planted plane, no generic one


def test_picard_full_height_5_scan_memory_stays_small():
    # 11^6 = 1,771,561 box points, no witness: the partial-sum tables and one step's comparisons are all it holds
    z = per.sample_period_point(U3, 3)
    tracemalloc.start()
    try:
        verdict = irr.picard_trivial(z, height=5, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == irr.PicardVerdict(True, None, "exhaustive")
    assert peak < 4 * 10**6


def test_picard_rejects_non_positive_tolerance():
    z = per.sample_period_point(U3, 1)
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(DomainError):
            irr.picard_trivial(z, height=100, tol=tol)
