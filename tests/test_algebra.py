"""Exact arithmetic: monomials over F_2[U,V] and its quotient, the one
rule that adds them, and torus knot Alexander polynomials as
{exponent: coefficient} dicts."""

import itertools

import pytest

from cfkzero.algebra import ONE, Mode, _times, alexander_torus
from cfkzero.complexes import InvalidComplexError, _add_mono

U, V = (1, 0), (0, 1)


def test_char_two_cancellation():
    # an empty entry takes a monomial, and an equal one cancels it
    entries = {}
    _add_mono(entries, (0, 1), U)
    assert entries == {(0, 1): U}
    _add_mono(entries, 2, V)
    _add_mono(entries, (0, 1), U)
    assert entries == {2: V}
    _add_mono(entries, 2, V)
    assert entries == {}


def test_adding_a_different_monomial_to_an_entry_raises():
    entries = {(3, 1): U}
    message = r"entry \(3, 1\) mixes degrees U\^1V\^0 and U\^0V\^1"
    with pytest.raises(InvalidComplexError, match=message):
        _add_mono(entries, (3, 1), V)
    assert entries == {(3, 1): U}


def test_multiplication():
    assert _times(U, V, Mode.FULL) == (1, 1)
    assert _times(U, V, Mode.UVZERO) is None
    assert _times((2, 0), (3, 0), Mode.UVZERO) == (5, 0)
    assert _times(U, ONE, Mode.UVZERO) == U


def test_quotient_multiplication_agrees_with_full():
    # over either ring the product adds exponents, commutes and has ONE as
    # its identity, and over UVZERO exactly the mixed products die, on
    # every pair of monomials of degree <= 2 in each variable
    monomials = [(a, b) for a in range(3) for b in range(3)]
    for x, y in itertools.product(monomials, repeat=2):
        full = (x[0] + y[0], x[1] + y[1])
        mixed = full[0] > 0 and full[1] > 0
        assert _times(x, y, Mode.FULL) == full
        assert _times(x, y, Mode.UVZERO) == (None if mixed else full)
        for mode in Mode:
            assert _times(x, y, mode) == _times(y, x, mode)
            dies = mode is Mode.UVZERO and x[0] > 0 and x[1] > 0
            assert _times(x, ONE, mode) == _times(ONE, x, mode) == (None if dies else x)


def naive_convolution(p, q):
    """Independent product oracle for Laurent polynomials given as
    {exponent: coefficient}; zero coefficients are dropped."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_alexander_trefoil():
    assert alexander_torus(2, 3) == {1: 1, 0: -1, -1: 1}


def test_alexander_t45_matches_printed_polynomial():
    # the printed trailing term is read as t^-6, forced by the symmetry
    want = {6: 1, 5: -1, 2: 1, 0: -1, -2: 1, -5: -1, -6: 1}
    assert alexander_torus(4, 5) == want


def test_alexander_t27():
    want = {3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1}
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
    assert all(c and delta.get(-e) == c for e, c in delta.items())  # symmetric
    assert max(delta) == genus
    coeffs = [delta[e] for e in sorted(delta, reverse=True)]
    assert coeffs[0] == 1 and coeffs[-1] == 1
    assert all(c1 * c2 == -1 for c1, c2 in zip(coeffs, coeffs[1:]))
    # multiplication oracle: the division really inverted the product
    numerator = naive_convolution({p * q: 1, 0: -1}, {1: 1, 0: -1})
    denominator = naive_convolution({p: 1, 0: -1}, {q: 1, 0: -1})
    shifted = {e + genus: c for e, c in delta.items()}
    assert naive_convolution(shifted, denominator) == numerator


def test_unknot_alexander():
    assert alexander_torus(2, 1) == alexander_torus(3, -1) == {0: 1}
