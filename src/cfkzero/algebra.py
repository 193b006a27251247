"""Exact arithmetic for F_2[U,V], its quotient F_2[U,V]/(UV), and the
Alexander polynomials of torus knots.

A monomial U^a V^b is the exponent pair (a, b), and a ring element is a
frozenset of monomials: coefficients live in the field of two elements, so
a term is either present or absent and addition is the symmetric
difference ``^``.  A mode flag picks the ring: FULL means the polynomial
ring F_2[U,V], UVZERO the quotient by the ideal (UV), in which every mixed
monomial is zero.  The mode is not stored in the elements; each complex
carries one and passes it to ``times``.

The Alexander polynomial of a torus knot, a Laurent polynomial in t with
integer coefficients, is a plain dict {exponent: coefficient}; evaluation
does not read it, it is the oracle for the semigroup staircase.
"""

from __future__ import annotations

import enum
import heapq
from math import gcd

QUOTE_WIDTH = 80  # the longest input an error message quotes whole


class Mode(enum.Enum):
    """Which ring the coefficients live in."""

    FULL = "full"
    UVZERO = "uvzero"


Poly = frozenset[tuple[int, int]]  # a sum of monomials U^a V^b, as pairs (a, b)
ONE: Poly = frozenset({(0, 0)})


def times(x: Poly, y: Poly, mode: Mode) -> Poly:
    """The product of two sums of monomials; a repeated monomial cancels
    (char 2), and over UVZERO a mixed one dies."""
    quotient = mode is Mode.UVZERO
    out: set[tuple[int, int]] = set()
    for a1, b1 in x:
        for a2, b2 in y:
            a, b = a1 + a2, b1 + b2
            if not (quotient and a and b):
                out ^= {(a, b)}
    return frozenset(out)


def swap_uv(x: Poly) -> Poly:
    """Exchange U and V in every monomial, as skew-equivariant maps do."""
    return frozenset((b, a) for a, b in x)


def _clip(text: str, pos: int = 0) -> str:
    """`text` whole up to QUOTE_WIDTH characters, else the characters within
    QUOTE_WIDTH // 2 of `pos`, marked with … where they are cut."""
    if len(text) <= QUOTE_WIDTH:
        return text
    start, end = max(0, pos - QUOTE_WIDTH // 2), pos + QUOTE_WIDTH // 2
    return "…" * (start > 0) + text[start:end] + "…" * (end < len(text))


def _check_torus(p: int, q: int) -> None:
    """Raise ValueError unless (p, q) names a torus knot: p >= 2, q nonzero,
    coprime."""
    if p < 2:
        raise ValueError(f"torus knot needs p >= 2, got {_clip(str(p))}")
    if q == 0:
        raise ValueError("torus parameter q must be nonzero")
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({_clip(str(p))}, {_clip(str(q))})")


def alexander_torus(p: int, q: int) -> dict[int, int]:
    """Symmetrized Alexander polynomial of the (p, q) torus knot, as its
    nonzero coefficients {exponent: coefficient}.

    Divides (t^{pq} - 1)(t - 1) exactly by (t^p - 1)(t^q - 1) for q > 0 and
    recenters exponents so that Delta(t) = Delta(1/t) with positive leading
    coefficient.  For q < 0 the result equals the one for |q|, since the
    Alexander polynomial does not see mirroring.  The long division keeps
    its remainder sparse and takes the top exponent off a heap, so its cost
    follows the number of terms, not the degree p|q|.
    """
    _check_torus(p, q)
    qa = abs(q)
    if qa == 1:
        return {0: 1}
    # (t^{pq} - 1)(t - 1), and the divisor (t^p - 1)(t^q - 1) less its
    # leading t^{p+q}: p, |q| >= 2 are coprime, so no two exponents meet
    rem = {p * qa + 1: 1, p * qa: -1, 1: -1, 0: 1}
    tail, lead = {p: -1, qa: -1, 0: 1}, p + qa
    tops = sorted(-e for e in rem)  # a sorted list is a heap
    quo: dict[int, int] = {}
    while tops:
        top = -heapq.heappop(tops)
        c = rem.pop(top)
        if not c:
            continue
        if top < lead:
            raise ArithmeticError(f"torus Alexander division left a remainder for ({p}, {q})")
        quo[top - lead] = c
        for e, dc in tail.items():
            e += top - lead
            if e not in rem:
                heapq.heappush(tops, -e)
            rem[e] = rem.get(e, 0) - c * dc
    genus = (p - 1) * (qa - 1) // 2
    out = {e - genus: c for e, c in quo.items()}
    if any(out.get(-e) != c for e, c in out.items()) or out.get(genus) != 1:
        raise ArithmeticError(f"torus Alexander normal form failed for ({p}, {q})")
    return out
