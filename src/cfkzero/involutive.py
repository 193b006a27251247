"""The involutive layer: the basic involution on staircases, the formal
derivative endomorphisms, the connected-sum involution with its correction
term, and mechanical verification of the distinguished-basis identities for
sums with a (2, q) torus knot.

The involution swaps the two gradings and conjugates coefficients by the
U <-> V exchange.  On a staircase z_0 ... z_{2n} it is z_i <-> z_{2n-i}; on a
tensor product it is (i1 (x) i2) + (Phi (x) Psi) o (i1 (x) i2), where Phi and
Psi differentiate the differential formally with respect to U and V.  Mod 2
only odd exponents survive differentiation, which is why the coefficient
b U^{b-1} appears exactly for odd b and why the displayed 2b-coefficient
terms vanish.  Every map and basis element here is graded, so each
coefficient is one monomial (a, b) or absent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ONE, Mode, Mono, _times
from .complexes import ChainComplex, Endomorphism, InvalidComplexError, _add_mono
from .knots import ShapeError
from .standard import Seq, extract_gamma0, seq_to_complex, staircase_shaped, validate_seq

Combination = dict[int, Mono]  # generator -> its monomial coefficient


def _coefficient_parity(b: int) -> int:
    # integer coefficients in the basis displays live in the ground field
    return b % 2


def _check_staircase(cx: ChainComplex) -> None:
    """Raise unless the complex is a staircase in path order.

    A staircase has generators z_0 ... z_{2n}, z_i at position i, whose
    differential sends each odd-index generator to a U-power of its
    predecessor plus a V-power of its successor, and nothing else.
    """
    n = len(cx)
    if n % 2 == 0:
        raise ShapeError("a staircase has an odd number of generators")
    for (tgt, src), (a, _) in cx.diff.items():
        if src % 2 == 0 or tgt != (src - 1 if a > 0 else src + 1):
            raise ShapeError(f"arrow {src} -> {tgt} breaks the staircase shape")
    if len(cx.diff) != n - 1:  # every other arrow is one of these n - 1
        raise ShapeError(f"a staircase on {n} generators has {n - 1} arrows, not {len(cx.diff)}")


def basic_involution(cx: ChainComplex) -> Endomorphism:
    """The involution of a staircase: z_i <-> z_{2n-i}, a skew chain map."""
    _check_staircase(cx)
    n = len(cx)
    entries = {(n - 1 - i, i): ONE for i in range(n)}
    iota = Endomorphism(cx, entries, (0, 0), skew=True)
    if not iota.is_chain_map():
        raise InvalidComplexError("basic involution is not a chain map")
    return iota


def phi_psi(cx: ChainComplex) -> tuple[Endomorphism, Endomorphism]:
    """Formal U- and V-derivatives of the differential in the given basis.

    Phi picks out the entries U^a V^b with a odd and divides by U; Psi does
    the same in V.  Both are honest chain maps in characteristic 2.
    """
    phi_entries = {key: (a - 1, b) for key, (a, b) in cx.diff.items() if a % 2}
    psi_entries = {key: (a, b - 1) for key, (a, b) in cx.diff.items() if b % 2}
    phi = Endomorphism(cx, phi_entries, (1, -1), skew=False)
    psi = Endomorphism(cx, psi_entries, (-1, 1), skew=False)
    if not phi.is_chain_map() or not psi.is_chain_map():
        raise InvalidComplexError("derivative endomorphisms failed the chain-map check")
    return phi, psi


def _tensor_endo(
    product: ChainComplex, f: Endomorphism, g: Endomorphism, skew: bool
) -> Endomorphism:
    """f (x) g on product = f.cx (x) g.cx, (i, j) at i * len(g.cx) + j, so
    each pair of entries writes its own key, unless its product dies."""
    width = len(g.cx)
    entries = {
        (t1 * width + t2, s1 * width + s2): mono
        for (t1, s1), e1 in f.entries.items()
        for (t2, s2), e2 in g.entries.items()
        if (mono := _times(e1, e2, product.mode)) is not None
    }
    shift = (f.shift[0] + g.shift[0], f.shift[1] + g.shift[1])
    return Endomorphism(product, entries, shift, skew)


def tensor_involution(iota1: Endomorphism, iota2: Endomorphism) -> tuple[Endomorphism, Endomorphism]:
    """Involution of a connected sum, (i1 (x) i2) + (Phi (x) Psi) o (i1 (x) i2),
    and its exact inverse (i1 (x) i2) + (Psi (x) Phi) o (i1 (x) i2), from the
    involutions of the two factors.  Both act on the tensor product of the
    factors' complexes, i1.cx (x) i2.cx, which is built once.

    The correction term needs Phi of the first factor and Psi of the second;
    it vanishes wherever a factor image has no odd U- resp. V-exponent.
    Conjugating the derivative endomorphisms by the basic involution swaps
    Phi and Psi exactly on staircases, and since the correction squares to
    zero the swapped formula composes with the involution to the identity.
    """
    product = iota1.cx.tensor(iota2.cx)
    base = _tensor_endo(product, iota1, iota2, skew=True)
    phi1, psi1 = phi_psi(iota1.cx)
    phi2, psi2 = phi_psi(iota2.cx)
    iota = base + _tensor_endo(product, phi1, psi2, skew=False).compose(base)
    if not iota.is_chain_map():
        raise InvalidComplexError("tensor involution is not a chain map")
    inverse = base + _tensor_endo(product, psi1, phi2, skew=False).compose(base)
    if not inverse.is_chain_map():
        raise InvalidComplexError("inverse tensor involution is not a chain map")
    return iota, inverse


# -- the distinguished basis for K # T_{2,q} ---------------------------------


Square = tuple[str, int, int, list[Combination], list[Combination]]


def build_xyz_basis(host: Seq, q: int) -> tuple[list[Combination], list[Square]]:
    """The distinguished basis elements for CFK(K # T_{2,q}): the X listing,
    and the squares, each as (letter, i, j, its four elements, the four
    elements of its primed partner).

    The host staircase x_0 ... x_{4n} must have all horizontal steps of
    power one, and q must be an odd integer > 2; with k = (q-1)/2 the torus
    staircase is y_0 ... y_{2k}, and (x_i|y_j) sits at position
    i * (2k + 1) + j of the tensor product.  Y runs over odd i <= 2n-1 and
    odd j <= k', Z over odd i and odd j <= k'-2, where k' is the largest
    odd number not exceeding k; Y comes first, then Z, each in (i, j) order.
    Out-of-range primed and unprimed indices resolve by position along each
    staircase, which implements the stated index substitutions at j = k' = k.
    """
    s = validate_seq(host)
    if q <= 2 or q % 2 == 0:
        raise ShapeError(f"torus summand needs odd q > 2, got {q}")
    if any(abs(a) != 1 for a in s[: len(s) // 2 : 2]):
        raise ShapeError(f"{list(s)} has a horizontal step of magnitude > 1")
    if len(s) % 4:
        raise ShapeError(f"{list(s)} has a length of 2 mod 4")
    if not staircase_shaped(s):
        raise ShapeError(f"{list(s)} is not a staircase")
    n = len(s) // 4
    k = (q - 1) // 2

    def xpos(i: int, primed: bool) -> int:
        pos = 4 * n - i if primed else i
        if not 0 <= pos <= 4 * n:
            raise ShapeError(f"x index {i} (primed={primed}) out of range")
        return pos

    def ypos(j: int, primed: bool) -> int:
        pos = 2 * k - j if primed else j
        if not 0 <= pos <= 2 * k:
            raise ShapeError(f"y index {j} (primed={primed}) out of range")
        return pos

    def gen(i: int, j: int, xp: bool = False, yp: bool = False) -> int:
        return xpos(i, xp) * (2 * k + 1) + ypos(j, yp)

    def combo(*parts: tuple[int, int, int]) -> Combination:
        out: Combination = {}
        for g, a, b in parts:
            _add_mono(out, g, (a, b))
        return out

    # the X path of Eq-style listing: along the host at y_0, across the torus
    # staircase at x_{2n}, and back along the primed host at y'_0
    x_path = [gen(i, 0) for i in range(0, 2 * n + 1)]
    x_path += [gen(2 * n, j) for j in range(1, k + 1)]
    x_path += [gen(2 * n, j, yp=True) for j in range(k - 1, -1, -1)]
    x_path += [gen(i, 0, xp=True, yp=True) for i in range(2 * n - 1, -1, -1)]
    x_elements = [{g: ONE} for g in x_path]

    def square(i: int, j: int, d: int, b: int, xp: bool, yp: bool) -> list[Combination]:
        """One square at (i, j), stepping by d along the torus staircase;
        its vertical power V^{b-1} reads U^{b-1} on the primed x side, where
        the first element gains that power at (i+1, j-d) for odd b.  For Z
        (d = -1) that generator is y_{j+1}: the printed y_{j-1} cannot
        carry the right Alexander grading."""

        def at(di: int, dj: int, a: int = 0, c: int = 0) -> tuple[int, int, int]:
            return gen(i + di, j + dj, xp, yp), a, c

        power = (b - 1, 0) if xp else (0, b - 1)
        first = [at(0, 0)]
        if xp and _coefficient_parity(b):
            first.append(at(1, -d, *power))
        return [
            combo(*first),
            combo(at(-1, 0), at(0, -d)),
            combo(at(0, d), at(1, 0, *power)),
            combo(at(-1, d), at(1, -d, *power)),
        ]

    def vertical_power(i: int) -> int:
        # power of the V-arrow out of x_i in the host staircase: b_{(i+1)/2}
        return abs(s[2 * ((i + 1) // 2) - 1])

    k_odd = k if k % 2 else k - 1
    squares: list[Square] = []
    for letter, d, last in (("Y", 1, k_odd), ("Z", -1, k_odd - 2)):
        for i in range(1, 2 * n, 2):
            b = vertical_power(i)
            for j in range(1, last + 1, 2):
                # Y is unprimed on both staircases and Z on x only; the
                # partner flips both primes
                pair = square(i, j, d, b, False, d < 0), square(i, j, d, b, True, d > 0)
                squares.append((letter, i, j, *pair))
    return x_elements, squares


@dataclass(frozen=True)
class Check:
    """One named check with its verdict: a lemma identity, or a criterion
    of the verification suite."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAILED"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{tail}"


def _unit_pivot_rank(elements: list[Combination]) -> int:
    """Number of elements certified independent-with-unit-leading-terms.

    Gaussian elimination restricted to unit pivots: enough to certify that
    the family extends to a free-module basis when it clears every column.
    """
    cols = [dict(e) for e in elements]
    used_rows: set[int] = set()
    rank = 0
    for col in cols:
        pivot = None
        for g in sorted(col):
            if g not in used_rows and col[g] == ONE:
                pivot = g
                break
        if pivot is None:
            continue
        used_rows.add(pivot)
        rank += 1
        for other in cols:
            if other is col or pivot not in other:
                continue
            # col[pivot] is ONE, so the pivot entry of other cancels itself
            factor = other[pivot]
            for g, e in col.items():
                _add_mono(other, g, _times(factor, e, Mode.FULL))
    return rank


def verify_lemma_43_44(host: Seq, q: int) -> tuple[Check, ...]:
    """Check, by exact matrix computation, the distinguished-basis identities
    for K # T_{2,q}: the X path is a subcomplex carrying the inserted-run
    sequence and the involution reverses it, each Y and Z square maps onto
    its primed partner entry by entry, and the whole family (X, then the
    squares, then their partners) is part of a basis (a full basis when k is
    odd).  There are five checks on the whole family and eight per square.

    The forward equations use the involution itself; the return equations on
    the primed partners are images under its exact inverse, whose correction
    term carries the derivative endomorphisms in the opposite order.  The
    coefficient 2b_i on the return image of the first Y'-element collapses to
    zero mod 2, so that image is the bare generator combination.
    """
    x_elements, squares = build_xyz_basis(host, q)
    k = (q - 1) // 2
    host_iota = basic_involution(seq_to_complex(host, Mode.FULL))
    torus_seq = validate_seq([1, -1] * k)
    torus_iota = basic_involution(seq_to_complex(torus_seq, Mode.FULL))
    iota, iota_inv = tensor_involution(host_iota, torus_iota)
    product = iota.cx

    checks: list[Check] = []
    round_trip = iota.compose(iota_inv)
    identity = all(
        key[0] == key[1] and elem == ONE for key, elem in round_trip.entries.items()
    ) and len(round_trip.entries) == len(product)
    checks.append(Check("involution composes with its inverse to the identity", identity))

    # (a) X is a subcomplex realizing the naive insertion sequence
    x_gens = [next(iter(e)) for e in x_elements]
    where = {g: pos for pos, g in enumerate(x_gens)}  # X re-indexed in listing order
    closed = all(tgt in where for (tgt, src) in product.diff if src in where)
    checks.append(Check("X spans a subcomplex", closed))
    expected = validate_seq(host[: len(host) // 2] + (1, -1) * k + host[len(host) // 2 :])
    # an arrow leaving X gets the target len(X), which ChainComplex rejects
    sub_diff = {
        (where.get(t, len(where)), where[s]): elem
        for (t, s), elem in product.diff.items()
        if s in where
    }
    try:
        sub = ChainComplex(
            [product.gr_u[g] for g in x_gens], [product.gr_v[g] for g in x_gens], sub_diff, Mode.FULL
        ).require_valid()
        x_seq = extract_gamma0(sub.quotient_uv())
        seq_ok = x_seq == expected
        detail = "" if seq_ok else f"got {list(x_seq)}, wanted {list(expected)}"
    except Exception as exc:  # structural failure is a reportable failure
        seq_ok, detail = False, str(exc)
    checks.append(Check("X carries the inserted-run sequence", seq_ok, detail))

    # (b) the involution acts on X as the basic involution (reversal)
    size = len(x_elements)
    reversal = all(
        iota.apply(x_elements[idx]) == x_elements[size - 1 - idx]
        for idx in range(size)
    )
    checks.append(Check("involution reverses the X listing", reversal))

    # (c) each square maps onto its primed partner entry by entry: forward
    # under the involution, return under its exact inverse, with the 2b = 0
    # collapse on the first Y' element
    for letter, i, j, square, partner in squares:
        for m in range(4):
            ok = iota.apply(square[m]) == partner[m]
            checks.append(Check(f"iota({letter}[{i},{j}][{m}]) = {letter}'[{i},{j}][{m}]", ok))
        for m in range(4):
            ok = iota_inv.apply(partner[m]) == square[m]
            name = f"iota^-1({letter}'[{i},{j}][{m}]) = {letter}[{i},{j}][{m}]"
            if m == 0 and letter == "Y":
                name += " (2b coefficient collapses)"
            checks.append(Check(name, ok))

    # (d) the family is unimodular: unit-pivot elimination certifies it is
    # part of a basis, and for odd k a complete one
    elements = x_elements + [e for sq in squares for e in sq[3]] + [e for sq in squares for e in sq[4]]
    rank = _unit_pivot_rank(elements)
    ok = rank == len(elements)
    if k % 2 == 1:
        ok = ok and len(elements) == len(product)
        name = "family is a full basis"
    else:
        name = "family is part of a basis"
    checks.append(Check(name, ok, f"rank {rank} of {len(elements)}, module rank {len(product)}"))
    return tuple(checks)
