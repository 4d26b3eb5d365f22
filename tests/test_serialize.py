from fractions import Fraction

import numpy as np
import pytest

from hkgeom import cech, lattice, llv, serialize as ser
from hkgeom.errors import DomainError


def test_scalar_round_trip():
    assert ser.encode_scalar(Fraction(3, 4)) == "3/4"
    assert ser.encode_scalar(Fraction(8, 4)) == 2
    assert ser.decode_scalar("3/4") == Fraction(3, 4)
    assert ser.decode_scalar(5) == 5
    assert ser.decode_scalar(0.5) == 0.5
    with pytest.raises(DomainError):
        ser.decode_scalar(True)


def test_encode_scalar_takes_numpy_scalars():
    # the float kernels hand numpy scalars to the encoder
    for x, expected, kind in (
        (np.int64(3), 3, int),
        (np.uint8(7), 7, int),
        (np.float32(0.5), 0.5, float),
        (np.float64(-1.25), -1.25, float),
    ):
        out = ser.encode_scalar(x)
        assert type(out) is kind and out == expected
    for bad in (np.bool_(True), np.complex128(1j), "1/2"):
        with pytest.raises(DomainError):
            ser.encode_scalar(bad)


def test_strict_decoders_refuse_instead_of_truncating():
    assert ser.decode_int(-3, "square") == -3
    for bad in (True, -2.5, 2.0, "2"):
        with pytest.raises(DomainError):
            ser.decode_int(bad, "square")
    for bad in (5, "1,2", {"x": 1}):
        with pytest.raises(DomainError):
            ser.decode_vector(bad)
    assert ser.decode_float_vector([1, "1/2", 0.25]) == [1.0, 0.5, 0.25]


def test_lattice_round_trip():
    for L in (lattice.hyperbolic_plane(), lattice.k3_lattice()):
        obj = ser.encode_lattice(L)
        assert ser.decode_lattice(obj) == L
    assert ser.decode_lattice("K3") == lattice.k3_lattice()
    with pytest.raises(DomainError):
        ser.decode_lattice({"rank": 3, "gram": [[2]]})


def test_ring_round_trip():
    ring = llv.k3_ring()
    obj = ser.encode_ring(ring)
    back = ser.decode_ring(obj)
    assert back == ring
    assert ser.decode_ring("k3") == ring


def test_nerve_and_cochain_round_trip():
    nerve = cech.octahedron_nerve()
    obj = ser.encode_nerve(nerve)
    assert ser.decode_nerve(obj) == nerve
    group = cech.FiniteAbelianGroup((2, 3))
    faces = nerve.simplices_of_dim(2)
    c = cech.Cochain.from_dict(nerve, group, 2, {faces[0]: (1, 2), faces[3]: (0, 1)})
    obj = ser.encode_cochain(c)
    assert ser.decode_cochain(nerve, group, obj) == c


def test_wallset_decode_with_signs():
    U3 = lattice.standard_lattice("U3")
    entries = [
        {"coords": [1, -1, 0, 0, 0, 0], "sign": -1},
        [0, 0, -1, 1, 0, 0],
    ]
    ws = ser.decode_wallset(U3, entries)
    assert ws.walls[0].coords == (-1, 1, 0, 0, 0, 0)
    assert ws.walls[1].coords == (0, 0, -1, 1, 0, 0)
    with pytest.raises(DomainError):
        ser.decode_wallset(U3, [{"coords": [1, -1, 0, 0, 0, 0], "sign": 2}])
