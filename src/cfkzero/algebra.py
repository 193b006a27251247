"""Exact arithmetic for F_2[U,V], its quotient F_2[U,V]/(UV), and integer
Laurent polynomials.

A monomial U^a V^b is the exponent pair (a, b), and a ring element is a
frozenset of monomials: coefficients live in the field of two elements, so
a term is either present or absent and addition is the symmetric
difference ``^``.  A mode flag picks the ring: FULL means the polynomial
ring F_2[U,V], UVZERO the quotient by the ideal (UV), in which every mixed
monomial is zero.  The mode is not stored in the elements; each complex
carries one and passes it to ``times``.

Laurent polynomials in a single variable t with integer coefficients are used
for Alexander polynomials of torus knots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Mapping

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


@dataclass(frozen=True)
class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable t.

    Stored as a sorted tuple of (exponent, coefficient) pairs with all
    coefficients nonzero; the zero polynomial is the empty tuple.
    """

    coeffs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "LaurentPoly":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    @classmethod
    def t_power(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls.from_dict({exp: coeff})

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = self.as_dict()
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, exp: int) -> int:
        for e, c in self.coeffs:
            if e == exp:
                return c
        return 0

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self.coeffs[-1][0]

    @property
    def is_symmetric(self) -> bool:
        """True iff coeff(k) == coeff(-k) for all k."""
        d = self.as_dict()
        return all(d.get(-e, 0) == c for e, c in self.coeffs)

    def serialize(self) -> str:
        """Sorted 'coeff*t^exp' term list, highest exponent first."""
        if not self.coeffs:
            return "0"
        return " ".join(f"{c}*t^{e}" for e, c in reversed(self.coeffs))

    def __str__(self) -> str:
        return self.serialize()


def _poly_divmod(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division by a monic-leading-term polynomial, over the integers."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead_exp = den.max_exp
    lead_coeff = den.coeff(lead_exp)
    rem = num.as_dict()
    quo: dict[int, int] = {}
    while rem:
        top = max(e for e, c in rem.items() if c != 0)
        if top < lead_exp:
            break
        c = rem[top]
        if c % lead_coeff != 0:
            break
        factor = c // lead_coeff
        quo[top - lead_exp] = quo.get(top - lead_exp, 0) + factor
        for e, dc in den.coeffs:
            rem[e + top - lead_exp] = rem.get(e + top - lead_exp, 0) - factor * dc
        rem = {e: c for e, c in rem.items() if c != 0}
    return LaurentPoly.from_dict(quo), LaurentPoly.from_dict(rem)


def _check_torus(p: int, q: int) -> None:
    """Raise ValueError unless (p, q) names a torus knot: p >= 2, q nonzero,
    coprime."""
    if p < 2:
        raise ValueError(f"torus knot needs p >= 2, got {_clip(str(p))}")
    if q == 0:
        raise ValueError("torus parameter q must be nonzero")
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({_clip(str(p))}, {_clip(str(q))})")


def alexander_torus(p: int, q: int) -> LaurentPoly:
    """Symmetrized Alexander polynomial of the (p, q) torus knot.

    Expands (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) for q > 0 and recenters
    exponents so that Delta(t) = Delta(1/t) with positive leading coefficient.
    For q < 0 the result equals the one for |q|, since the Alexander polynomial
    does not see mirroring.
    """
    _check_torus(p, q)
    qa = abs(q)
    if qa == 1:
        return LaurentPoly.one()
    num = (LaurentPoly.t_power(p * qa) - LaurentPoly.one()) * (
        LaurentPoly.t_power(1) - LaurentPoly.one()
    )
    den = (LaurentPoly.t_power(p) - LaurentPoly.one()) * (
        LaurentPoly.t_power(qa) - LaurentPoly.one()
    )
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise ArithmeticError(f"torus Alexander division left a remainder for ({p}, {q})")
    genus = (p - 1) * (qa - 1) // 2
    out = quo.shift(-genus)
    if not out.is_symmetric or out.coeff(genus) != 1:
        raise ArithmeticError(f"torus Alexander normal form failed for ({p}, {q})")
    return out
