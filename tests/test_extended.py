"""Extended fan data: kernel bases, pushforwards, effective classes."""

import dataclasses
from fractions import Fraction as F

import pytest

from orbimirror.extended import (LatticeNotGeneratedError, build_extended,
                                 keff_enumerate)
from orbimirror.families import f2_fan, p1_orbifold, p2_fan, wpn_fan
from orbimirror.fan import InvalidFanError, StackyFan


def test_p112_extended_shape():
    ext = build_extended(wpn_fan(2))
    assert (ext.m, ext.m_prime, ext.r, ext.r_prime) == (3, 4, 1, 2)
    assert len(ext.extra) == 1 and ext.extra[0].nu == (0, 1)
    # nef basis: the resolution curve class and the exceptional class
    assert ext.basis == ((1, 1, 2, 0), (0, 0, 1, 1))


def test_f2_extended_shape():
    ext = build_extended(f2_fan())
    assert (ext.m, ext.m_prime, ext.r, ext.r_prime) == (4, 4, 2, 2)
    assert ext.extra == ()
    assert set(ext.basis) == {(1, 1, 0, -2), (0, 0, 1, 1)}


def test_p2_extended_shape():
    ext = build_extended(p2_fan())
    assert (ext.r, ext.r_prime) == (1, 1)
    assert ext.basis == ((1, 1, 1),)


def test_extra_expansion_over_base_rays():
    ext = build_extended(wpn_fan(2))
    # nu = (0,1) = (1/2)(1,0) + (1/2)(-1,2) over the rays of its cone
    (t,) = ext.t_extra
    vec = tuple(sum(F(c) * F(v[i]) for c, v in zip(t, ext.fan.stacky_vectors))
                for i in range(2))
    assert vec == (F(0), F(1))


def test_dtilde_pushforward():
    ext = build_extended(wpn_fan(2))
    # pushing the exceptional class forward kills it: d~_2 = 0 in the
    # coarse kernel, while d~_1 maps to the generator with weight 1/2
    assert len(ext.dtilde) == ext.r_prime - ext.r
    (d2,) = ext.dtilde
    assert d2 == (F(1, 2),)


def test_lattice_not_generated():
    # terminal quotient fan: all rays lie in the index-two sublattice of
    # even coordinate sum and every Box element has age 3/2, so nothing
    # with age <= 1 is available to generate the missing lattice vector
    rays = ((1, 1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, -1),
            (0, 1, 1), (0, -1, -1))
    cones = ((0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5))
    fan = StackyFan.make(3, rays, cones)
    with pytest.raises(LatticeNotGeneratedError):
        build_extended(fan)


def test_keff_p2():
    ext = build_extended(p2_fan())
    els = keff_enumerate(ext, 3)
    deltas = sorted(el.delta for el in els)
    assert deltas == [(F(0),), (F(1),), (F(2),), (F(3),)]
    for el in els:
        assert el.pairings == (el.delta[0],) * 3
        assert el.zweight == 3 * el.delta[0]
        assert el.nu == (0, 0)


def test_keff_p112_twisted_sectors():
    ext = build_extended(wpn_fan(2))
    els = keff_enumerate(ext, 2)
    by_delta = {el.delta: el for el in els}
    # the half-integer directions carry the twisted sector
    half = by_delta[(F(1, 2), F(0))]
    assert half.nu == (0, 1)
    assert half.weight == F(1, 2)
    assert by_delta[(F(-1, 2), F(1))].nu == (0, 1)
    # integer points are untwisted
    assert by_delta[(F(0), F(1))].nu == (0, 0)
    assert by_delta[(F(1), F(0))].nu == (0, 0)
    # weights never exceed the bound and delta determines the pairings
    for el in els:
        assert el.weight <= 2
        assert el.pairings == tuple(ext.pairing(j, el.delta)
                                    for j in range(ext.m_prime))


def test_keff_football_fractional():
    ext = build_extended(p1_orbifold(3, 5))
    els = keff_enumerate(ext, 1)
    weights = {el.weight for el in els}
    # both orbifold points contribute fractional directions
    assert any(w.denominator == 3 for w in weights)
    assert any(w.denominator == 5 for w in weights)


def test_keff_bound_monotone():
    ext = build_extended(f2_fan())
    small = {el.delta for el in keff_enumerate(ext, 2)}
    large = {el.delta for el in keff_enumerate(ext, 4)}
    assert small < large


def test_keff_sector_outside_box_raises():
    # a class whose twisted sector is missing from the Box is an input
    # fault, reported as InvalidFanError
    ext = dataclasses.replace(build_extended(wpn_fan(2)), box=())
    with pytest.raises(InvalidFanError, match="is not a Box element"):
        keff_enumerate(ext, 4)
