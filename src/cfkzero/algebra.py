"""Exact arithmetic for F_2[U,V], its quotient F_2[U,V]/(UV), and integer
Laurent polynomials.

Ring elements are finite sums of monomials U^a V^b with coefficients in the
field of two elements, so a term is either present or absent.  Every element
carries a mode flag: FULL means the polynomial ring F_2[U,V], UVZERO means
the quotient by the ideal (UV), in which every mixed monomial is zero.

Laurent polynomials in a single variable t with integer coefficients are used
for Alexander polynomials of torus knots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping


class Mode(enum.Enum):
    """Which ring the coefficients live in."""

    FULL = "full"
    UVZERO = "uvzero"


class ModeMismatchError(ValueError):
    """Raised when combining elements of F_2[U,V] with elements of the quotient."""


def _clean_terms(terms: Iterable[tuple[int, int]], mode: Mode) -> frozenset[tuple[int, int]]:
    out = set()
    for a, b in terms:
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in monomial U^{a} V^{b}")
        if mode is Mode.UVZERO and a > 0 and b > 0:
            continue
        # char 2: a repeated monomial cancels
        if (a, b) in out:
            out.remove((a, b))
        else:
            out.add((a, b))
    return frozenset(out)


@dataclass(frozen=True)
class RingElem:
    """An element of F_2[U,V] or F_2[U,V]/(UV).

    ``terms`` is the set of monomials (upow, vpow) present with coefficient 1.
    The zero element has an empty term set.
    """

    terms: frozenset[tuple[int, int]]
    mode: Mode

    @classmethod
    def zero(cls, mode: Mode) -> "RingElem":
        return cls(frozenset(), mode)

    @classmethod
    def one(cls, mode: Mode) -> "RingElem":
        return cls(frozenset({(0, 0)}), mode)

    @classmethod
    def monomial(cls, upow: int, vpow: int, mode: Mode) -> "RingElem":
        return cls(_clean_terms([(upow, vpow)], mode), mode)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]], mode: Mode) -> "RingElem":
        return cls(_clean_terms(terms, mode), mode)

    def _require_same_mode(self, other: "RingElem") -> None:
        if self.mode is not other.mode:
            raise ModeMismatchError(f"cannot combine {self.mode.value} with {other.mode.value}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._require_same_mode(other)
        return RingElem(self.terms ^ other.terms, self.mode)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._require_same_mode(other)
        if len(self.terms) == 1 and len(other.terms) == 1:
            # one clean monomial times another needs no cleaning
            ((a1, b1),), ((a2, b2),) = self.terms, other.terms
            if self.mode is Mode.UVZERO and a1 + a2 > 0 and b1 + b2 > 0:
                return RingElem(frozenset(), self.mode)
            return RingElem(frozenset({(a1 + a2, b1 + b2)}), self.mode)
        prods = [(a1 + a2, b1 + b2) for a1, b1 in self.terms for a2, b2 in other.terms]
        return RingElem(_clean_terms(prods, self.mode), self.mode)

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_unit(self) -> bool:
        return self.terms == frozenset({(0, 0)})

    def sole_term(self) -> tuple[int, int]:
        """The unique monomial of a one-term element."""
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        return next(iter(self.terms))

    def swap_uv(self) -> "RingElem":
        """Exchange U and V in every monomial (used by skew-equivariant maps)."""
        # swapping keeps a clean term set clean, over either ring
        return RingElem(frozenset((b, a) for a, b in self.terms), self.mode)

    def to_quotient(self) -> "RingElem":
        """Image in F_2[U,V]/(UV): mixed monomials are deleted."""
        return RingElem.from_terms(self.terms, Mode.UVZERO)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, b in sorted(self.terms):
            if a == 0 and b == 0:
                parts.append("1")
            elif b == 0:
                parts.append(f"U^{a}")
            elif a == 0:
                parts.append(f"V^{b}")
            else:
                parts.append(f"U^{a} V^{b}")
        return " + ".join(parts)


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
        raise ValueError(f"torus knot needs p >= 2, got {p}")
    if q == 0:
        raise ValueError("torus parameter q must be nonzero")
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({p}, {q})")


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
