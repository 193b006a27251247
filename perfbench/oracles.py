"""Independent reference computations for checking cfkzero's outputs.

Nothing here imports cfkzero.  The formulas come from the literature, not
from the program's own derivations:

* the Alexander polynomial of T(p,q) from the semigroup <p,q>:
  Delta(t) = (1 - t) * sum_{s in S} t^s, centred to be symmetric;
* the staircase of an L-space knot read off its Alexander polynomial;
* Hedden--Hom: the (2,q)-cable of an L-space knot K is again an L-space
  knot exactly when q >= 4g(K) - 1, and its Alexander polynomial is
  Delta_K(t^2) * Delta_{T(2,q)}(t);
* genus of torus knots, sums and cables, tau of torus knots and sums, and
  Hom's cabling formula for tau;
* the three-regime rule for C2(q1;K) # T(2,q2) against C2(q2;K) # T(2,q1).

Expressions are nested tuples: ("U",), ("T", p, q), ("M", e) for the mirror,
("S", a, b) for the connected sum and ("C2", q, e) for the (2,q)-cable.
"""

from __future__ import annotations

from math import gcd

Poly = dict[int, int]  # exponent -> nonzero integer coefficient


# -- expressions ------------------------------------------------------------


def torus(p: int, q: int) -> tuple:
    return ("T", p, q)


def mirror(e: tuple) -> tuple:
    return ("M", e)


def csum(*parts: tuple) -> tuple:
    """Left-grouped connected sum, the way the grammar reads a # b # c."""
    out = parts[0]
    for part in parts[1:]:
        out = ("S", out, part)
    return out


def cable(q: int, e: tuple) -> tuple:
    return ("C2", q, e)


def render(e: tuple) -> str:
    """The expression in cfkzero's grammar; a sum on the right of '#' or
    under a mirror is parenthesised, so the grouping survives parsing."""
    kind = e[0]
    if kind == "U":
        return "U"
    if kind == "T":
        return f"T({e[1]},{e[2]})"
    if kind == "C2":
        return f"C2({e[1]};{render(e[2])})"
    if kind == "M":
        inner = render(e[1])
        return f"-({inner})" if e[1][0] == "S" else f"-{inner}"
    left, right = render(e[1]), render(e[2])
    if e[2][0] == "S":
        right = f"({right})"
    return f"{left} # {right}"


# -- Laurent polynomials ------------------------------------------------------


def _clean(poly: Poly) -> Poly:
    return {k: v for k, v in poly.items() if v}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return _clean(out)


def poly_substitute_square(a: Poly) -> Poly:
    """Delta(t) -> Delta(t^2)."""
    return {2 * e: c for e, c in a.items()}


def torus_alexander(p: int, q: int) -> Poly:
    """Symmetrised Alexander polynomial of T(p,q) from the semigroup <p,q>.

    Every integer from the conductor c = (p-1)(|q|-1) on lies in the
    semigroup, so (1 - t) sum_{s in S} t^s = sum_{s in S, s < c}
    (t^s - t^{s+1}) + t^c; dividing by t^(c/2) centres it.  Mirroring does
    not change the polynomial, so only |q| matters.
    """
    q = abs(q)
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a torus knot")
    conductor = (p - 1) * (q - 1)
    members = {a * p + b * q for a in range(q + 1) for b in range(p + 1)}
    poly: Poly = {conductor: 1}
    for s in sorted(x for x in members if x < conductor):
        poly[s] = poly.get(s, 0) + 1
        poly[s + 1] = poly.get(s + 1, 0) - 1
    half = conductor // 2
    return {e - half: c for e, c in _clean(poly).items()}


def staircase_of(poly: Poly) -> tuple[int, ...]:
    """Staircase of an L-space knot with Alexander polynomial ``poly``.

    The coefficients, read from the top exponent down, must alternate
    +1, -1, ..., +1.  With exponents a_0 > a_1 > ... > a_2m the staircase is
    (a_0 - a_1, -(a_1 - a_2), a_2 - a_3, ...).
    """
    exps = sorted(poly, reverse=True)
    if len(exps) % 2 == 0:
        raise ValueError("an L-space polynomial has an odd number of terms")
    for i, e in enumerate(exps):
        if poly[e] != (1 if i % 2 == 0 else -1):
            raise ValueError("coefficients do not alternate +1, -1")
    gaps = [exps[i] - exps[i + 1] for i in range(len(exps) - 1)]
    return tuple(g if i % 2 == 0 else -g for i, g in enumerate(gaps))


# -- sequences ----------------------------------------------------------------


def walk(seq: tuple[int, ...]) -> list[int]:
    """Alexander gradings along a gamma_0 sequence.

    Horizontal steps (1st, 3rd, ... entries) move by -entry, vertical steps
    by +entry, and the endpoints are antisymmetric, so the walk starts at
    minus half its total displacement.  The start is tau, the maximum is the
    top Alexander grading.
    """
    deltas = [-e if i % 2 == 0 else e for i, e in enumerate(seq)]
    values = [-sum(deltas) // 2]
    for d in deltas:
        values.append(values[-1] + d)
    return values


def is_symmetric(seq: tuple[int, ...]) -> bool:
    """Reverse-negate symmetry, which every gamma_0 sequence has."""
    return len(seq) % 2 == 0 and tuple(-e for e in reversed(seq)) == tuple(seq)


def negate(seq: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-e for e in seq)


# -- invariants of expressions -------------------------------------------------


def genus(e: tuple) -> int:
    """Seifert genus: (p-1)(|q|-1)/2 for T(p,q), additive under #, unchanged
    by mirroring, 2g(K) + (|q|-1)/2 for the (2,q)-cable."""
    kind = e[0]
    if kind == "U":
        return 0
    if kind == "T":
        return (e[1] - 1) * (abs(e[2]) - 1) // 2
    if kind == "M":
        return genus(e[1])
    if kind == "S":
        return genus(e[1]) + genus(e[2])
    return 2 * genus(e[2]) + (abs(e[1]) - 1) // 2


def is_lspace(e: tuple) -> bool:
    """An L-space knot by construction: a positive torus knot, or a
    (2,q)-cable of one with q >= 4g - 1 (Hedden--Hom), iterated."""
    if e[0] == "T":
        return e[2] > 0 and genus(e) > 0
    if e[0] == "C2":
        return is_lspace(e[2]) and e[1] >= 4 * genus(e[2]) - 1
    return False


def alexander(e: tuple) -> Poly:
    """Alexander polynomial of a torus knot or an iterated (2,q)-cable of one."""
    if e[0] == "T":
        return torus_alexander(e[1], e[2])
    if e[0] == "C2":
        return poly_mul(poly_substitute_square(alexander(e[2])), torus_alexander(2, e[1]))
    raise ValueError(f"no Alexander polynomial oracle for {render(e)}")


def lspace_staircase(e: tuple) -> tuple[int, ...]:
    """gamma_0 of an L-space knot: the staircase of its Alexander polynomial."""
    if not is_lspace(e):
        raise ValueError(f"{render(e)} is not an L-space knot by construction")
    return staircase_of(alexander(e))


def tau(e: tuple) -> int:
    """tau: g for positive torus knots, -g for negative ones, negated by the
    mirror, additive under #, and Hom's formula for (2,q)-cables, which needs
    the companion's epsilon; companions here are L-space knots or the unknot."""
    kind = e[0]
    if kind == "U":
        return 0
    if kind == "T":
        return genus(e) if e[2] > 0 else -genus(e)
    if kind == "M":
        return -tau(e[1])
    if kind == "S":
        return tau(e[1]) + tau(e[2])
    q, inner = e[1], e[2]
    if inner[0] != "U" and not is_lspace(inner):
        raise ValueError(f"no tau oracle for a cable of {render(inner)}")
    if genus(inner) > 0:  # an L-space knot: epsilon = 1
        return 2 * tau(inner) + (q - 1) // 2
    return (q - 1) // 2 if q > 0 else (q + 1) // 2


def regime(q: int, g: int) -> str:
    """Where a cable parameter sits: q > 4g, 0 < q < 4g or q < 0."""
    if q % 2 == 0:
        raise ValueError("cable parameters are odd")
    if q > 4 * g:
        return "above"
    return "middle" if q > 0 else "negative"


def regime_equivalent(q1: int, q2: int, g: int) -> bool:
    """C2(q1;K) # T(2,q2) and C2(q2;K) # T(2,q1) are locally equivalent
    exactly when q1 and q2 sit in the same regime of the genus-g companion."""
    return regime(q1, g) == regime(q2, g)


def cable_difference(q1: int, q2: int) -> tuple[int, ...]:
    """gamma_0 of C2(q1;K) # -C2(q2;K) for q1, q2 in one regime of K: that of
    T(2,q1) # -T(2,q2), which is the staircase of T(2, |q1-q2|+1), mirrored
    when q1 < q2."""
    stair = staircase_of(torus_alexander(2, abs(q1 - q2) + 1))
    return stair if q1 > q2 else negate(stair)


def generator_count(e: tuple) -> int:
    """Generators of the standard complex of a torus knot or iterated cable:
    sequence length plus one.  For the band of a rung only; a cable of a
    genus-g staircase has 4g + |q - 4g| generators."""
    if e[0] == "T":
        return len(torus_alexander(e[1], e[2]))
    if e[0] == "C2":
        g = genus(e[2])
        return 4 * g + abs(e[1] - 4 * g)
    raise ValueError(f"no generator count for {render(e)}")
