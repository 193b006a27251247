"""Exact arithmetic: F_2[U,V] elements, Laurent polynomials, torus knot
Alexander polynomials."""

import itertools

import pytest

from cfkzero.algebra import (
    LaurentPoly,
    Mode,
    ModeMismatchError,
    RingElem,
    alexander_torus,
)


def mono(a, b, mode=Mode.FULL):
    return RingElem.monomial(a, b, mode)


U = mono(1, 0)
V = mono(0, 1)


def test_char_two_cancellation():
    assert not U + U
    assert U + V == RingElem.from_terms([(1, 0), (0, 1)], Mode.FULL)
    assert (U + V) + V == U


def test_mode_mismatch_raises():
    with pytest.raises(ModeMismatchError):
        U + mono(1, 0, Mode.UVZERO)
    with pytest.raises(ModeMismatchError):
        U * mono(1, 0, Mode.UVZERO)


def test_multiplication():
    assert U * V == mono(1, 1)
    assert mono(1, 0, Mode.UVZERO) * mono(0, 1, Mode.UVZERO) == RingElem.zero(Mode.UVZERO)
    assert mono(2, 0) * mono(3, 0) == mono(5, 0)
    assert not U * RingElem.zero(Mode.FULL)


def test_quotient_multiplication_agrees_with_full():
    # UVZERO multiplication = FULL multiplication followed by killing mixed terms
    monomials = [(a, b) for a in range(3) for b in range(3)]
    for t1, t2 in itertools.product(monomials, repeat=2):
        full = RingElem.from_terms([t1], Mode.FULL) * RingElem.from_terms([t2], Mode.FULL)
        quo = (
            RingElem.from_terms([t1], Mode.UVZERO)
            * RingElem.from_terms([t2], Mode.UVZERO)
        )
        assert full.to_quotient() == quo


def test_ring_str():
    elem = RingElem.from_terms([(2, 0), (0, 3), (0, 0)], Mode.FULL)
    assert str(elem) == "1 + V^3 + U^2"
    assert str(mono(1, 2)) == "U^1 V^2"
    assert str(RingElem.zero(Mode.FULL)) == "0"


def naive_convolution(p, q):
    """Independent product oracle for Laurent polynomials."""
    out = {}
    for e1, c1 in p.as_dict().items():
        for e2, c2 in q.as_dict().items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly.from_dict(out)


def test_laurent_product_examples():
    t = LaurentPoly.t_power
    p = t(1) - t(0)
    q = t(-1) - t(0)
    assert p * q == LaurentPoly.from_dict({1: -1, 0: 2, -1: -1})
    trefoil = LaurentPoly.from_dict({1: 1, 0: -1, -1: 1})
    assert trefoil * LaurentPoly.one() == trefoil
    square = trefoil * trefoil
    assert square == LaurentPoly.from_dict({2: 1, 1: -2, 0: 3, -1: -2, -2: 1})
    assert square == naive_convolution(trefoil, trefoil)


def test_alexander_trefoil():
    assert alexander_torus(2, 3) == LaurentPoly.from_dict({1: 1, 0: -1, -1: 1})


def test_alexander_t45_matches_printed_polynomial():
    # the printed trailing term is read as t^-6, forced by the symmetry
    want = LaurentPoly.from_dict({6: 1, 5: -1, 2: 1, 0: -1, -2: 1, -5: -1, -6: 1})
    assert alexander_torus(4, 5) == want
    assert want.serialize() == "1*t^6 -1*t^5 1*t^2 -1*t^0 1*t^-2 -1*t^-5 1*t^-6"


def test_alexander_t27():
    want = LaurentPoly.from_dict({3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1})
    assert alexander_torus(2, 7) == want


def test_alexander_mirror_invariance():
    assert alexander_torus(2, -3) == alexander_torus(2, 3)
    assert alexander_torus(3, -4) == alexander_torus(3, 4)


def test_alexander_rejects_bad_parameters():
    with pytest.raises(ValueError):
        alexander_torus(2, 4)
    with pytest.raises(ValueError):
        alexander_torus(1, 5)
    with pytest.raises(ValueError):
        alexander_torus(3, 0)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6), (3, 8)])
def test_alexander_normal_form_properties(p, q):
    delta = alexander_torus(p, q)
    genus = (p - 1) * (q - 1) // 2
    assert delta.is_symmetric
    assert delta.max_exp == genus
    coeffs = [c for _, c in reversed(delta.coeffs)]
    assert coeffs[0] == 1 and coeffs[-1] == 1
    assert all(c1 * c2 == -1 for c1, c2 in zip(coeffs, coeffs[1:]))
    # multiplication oracle: the division really inverted the product
    t = LaurentPoly.t_power
    numerator = (t(p * q) - t(0)) * (t(1) - t(0))
    denominator = (t(p) - t(0)) * (t(q) - t(0))
    assert naive_convolution(delta.shift(genus), denominator) == numerator


def test_unknot_alexander():
    assert alexander_torus(2, 1) == LaurentPoly.one()
