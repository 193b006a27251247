"""Exact arithmetic: sums of monomials over F_2[U,V] and its quotient,
torus knot Alexander polynomials as {exponent: coefficient} dicts."""

import itertools
from collections import Counter

import pytest

from cfkzero.algebra import (
    ONE,
    Mode,
    alexander_torus,
    swap_uv,
    times,
)

U = frozenset({(1, 0)})
V = frozenset({(0, 1)})


def test_char_two_cancellation():
    assert not U ^ U
    assert U ^ V == frozenset({(1, 0), (0, 1)})
    assert (U ^ V) ^ V == U
    # (U + V)^2 = U^2 + V^2: the two cross terms cancel, over either ring
    for mode in Mode:
        assert times(U ^ V, U ^ V, mode) == frozenset({(2, 0), (0, 2)})


def test_multiplication():
    assert times(U, V, Mode.FULL) == frozenset({(1, 1)})
    assert times(U, V, Mode.UVZERO) == frozenset()
    assert times(frozenset({(2, 0)}), frozenset({(3, 0)}), Mode.FULL) == frozenset({(5, 0)})
    assert times(U, ONE, Mode.UVZERO) == U
    assert not times(U, frozenset(), Mode.FULL)


def full_product(x, y):
    """Independent product oracle over F_2[U,V]: count each monomial of the
    expansion and keep those that occur an odd number of times."""
    counts = Counter((a1 + a2, b1 + b2) for a1, b1 in x for a2, b2 in y)
    return frozenset(mono for mono, n in counts.items() if n % 2)


def test_quotient_multiplication_agrees_with_full():
    # over UVZERO the product is the FULL product with its mixed terms
    # dropped, on every sum of up to two monomials of degree <= 2 in each
    # variable
    monomials = [(a, b) for a in range(3) for b in range(3)]
    sums = [frozenset(c) for n in range(3) for c in itertools.combinations(monomials, n)]
    for x, y in itertools.product(sums, repeat=2):
        full = times(x, y, Mode.FULL)
        assert full == full_product(x, y) == times(y, x, Mode.FULL)
        assert times(x, y, Mode.UVZERO) == frozenset((a, b) for a, b in full if not (a and b))
        # the U <-> V swap is a ring automorphism and an involution
        assert times(swap_uv(x), swap_uv(y), Mode.FULL) == swap_uv(full)
        assert swap_uv(swap_uv(x)) == x
    assert swap_uv(frozenset({(1, 2), (3, 0)})) == frozenset({(2, 1), (0, 3)})


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
