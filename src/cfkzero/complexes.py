"""Finitely generated free bigraded chain complexes over F_2[U,V] and its
UV = 0 quotient.

Conventions, fixed once for the whole package:

* U has bidegree (-2, 0) and V has (0, -2); the differential drops both
  gradings by 1.  Concretely, an arrow src -> tgt with coefficient U^a V^b
  satisfies  grU(tgt) - 2a = grU(src) - 1  and  grV(tgt) - 2b = grV(src) - 1.
* The Alexander grading of a generator is A = (grU - grV) / 2, which the
  differential preserves.
* Every complex names its generators by position, 0 ... n-1, and the
  generator (i, j) of a tensor product is the integer i * n2 + j, where n2
  is the size of the second factor.

Every complex and every map here is graded, so each entry of a differential
or an endomorphism is one monomial U^a V^b, the pair (a, b), or absent.
Entries add by one rule, ``_add_mono``; the search matrix inlines it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .algebra import Mode, Mono, _times


class InvalidComplexError(ValueError):
    """A chain complex failed validation."""


class KnotlikeError(ValueError):
    """A complex does not have the homological shape of a knot complex."""


def _add_mono(entries: dict, key: Hashable, mono: Mono) -> None:
    """Add `mono` to the entry at `key`: an empty entry takes it, an equal one
    cancels (char 2), and a different one, which no graded map makes, raises."""
    cur = entries.get(key)
    if cur is None:
        entries[key] = mono
    elif cur == mono:
        del entries[key]
    else:
        raise InvalidComplexError(
            f"entry {key} mixes degrees U^{cur[0]}V^{cur[1]} and U^{mono[0]}V^{mono[1]}"
        )


@dataclass(frozen=True)
class ComplexViolation:
    kind: str  # "parity", "grading" or "dsquared"
    witness: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.witness}"


def _violation(
    cols: Sequence[Mapping[int, tuple[int, int]]],
    gr_u: Sequence[int],
    gr_v: Sequence[int],
    mode: Mode,
) -> ComplexViolation | None:
    """The first failure of a complex on generators 0 ... len(gr_u)-1 with
    single-monomial entries, `cols[g]` mapping the targets of g's arrows to
    their entries: the parity of every generator, the grading of every
    arrow, then d^2 = 0, where mixed monomials die over UV = 0 and stay
    over the full ring."""
    for g, (gu, gv) in enumerate(zip(gr_u, gr_v)):
        if (gu - gv) % 2 != 0:
            return ComplexViolation("parity", f"generator {g} grades ({gu},{gv})")
    for src, col in enumerate(cols):
        for tgt, (a, b) in col.items():
            if gr_u[tgt] - 2 * a != gr_u[src] - 1 or gr_v[tgt] - 2 * b != gr_v[src] - 1:
                return ComplexViolation("grading", f"{src} -> {tgt} : U^{a} V^{b}")
    quotient = mode is Mode.UVZERO
    for src, col in enumerate(cols):
        square: set[tuple[int, int, int]] = set()  # (target, U power, V power), odd counts
        for mid, (a1, b1) in col.items():
            for tgt, (a2, b2) in cols[mid].items():
                a, b = a1 + a2, b1 + b2
                if quotient and a > 0 and b > 0:
                    continue  # dies in the quotient
                term = (tgt, a, b)
                if term in square:
                    square.remove(term)
                else:
                    square.add(term)
        if square:
            tgt, a, b = min(square)
            return ComplexViolation("dsquared", f"d^2({src}) hits {tgt} with U^{a} V^{b}")
    return None


class ChainComplex:
    """A free bigraded complex on the generators 0 ... n-1 with a sparse
    differential.

    The gradings of generator g are ``gr_u[g]`` and ``gr_v[g]``, and ``diff``
    maps (target, source) to the monomial (U power, V power) of the arrow,
    so the column of a generator g lists the arrows of the boundary of g.
    Over UVZERO a mixed monomial is zero, and the constructor drops it.
    """

    def __init__(
        self,
        gr_u: Sequence[int],
        gr_v: Sequence[int],
        diff: Mapping[tuple[int, int], tuple[int, int]],
        mode: Mode,
    ):
        if len(gr_u) != len(gr_v):
            raise InvalidComplexError(f"{len(gr_u)} U-gradings but {len(gr_v)} V-gradings")
        self.gr_u, self.gr_v = list(gr_u), list(gr_v)
        self.mode = mode
        size = len(self.gr_u)
        quotient = mode is Mode.UVZERO
        clean: dict[tuple[int, int], tuple[int, int]] = {}
        for (tgt, src), (a, b) in diff.items():
            if not (0 <= tgt < size and 0 <= src < size):
                raise InvalidComplexError(f"arrow {src} -> {tgt} leaves the generators 0 ... {size - 1}")
            if a < 0 or b < 0:
                raise InvalidComplexError(f"negative exponent in monomial U^{a} V^{b}")
            if not (quotient and a and b):
                clean[(tgt, src)] = (a, b)
        self.diff = clean

    # -- basic access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gr_u)

    def alexander(self, g: int) -> int:
        """The Alexander grading (grU - grV) / 2 of generator g."""
        twice = self.gr_u[g] - self.gr_v[g]
        if twice % 2 != 0:
            raise InvalidComplexError(f"generator {g} has non-integral Alexander grading")
        return twice // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (
            self.gr_u == other.gr_u
            and self.gr_v == other.gr_v
            and self.diff == other.diff
            and self.mode is other.mode
        )

    # -- validation ---------------------------------------------------------

    def validate(self) -> ComplexViolation | None:
        """Check the parity of every generator, the grading of every arrow
        and d^2 = 0; report the first failure."""
        return _violation(self._cols, self.gr_u, self.gr_v, self.mode)

    @functools.cached_property
    def _cols(self) -> list[dict[int, tuple[int, int]]]:
        """The differential by source, built once, as ``diff`` never changes:
        entry g maps the targets of g's arrows to their entries.  validate,
        extract_gamma0 and Endomorphism.is_chain_map read it."""
        cols: list[dict[int, tuple[int, int]]] = [{} for _ in self.gr_u]
        for (tgt, src), mono in self.diff.items():
            cols[src][tgt] = mono
        return cols

    def require_valid(self) -> "ChainComplex":
        violation = self.validate()
        if violation is not None:
            raise InvalidComplexError(str(violation))
        return self

    # -- constructions ------------------------------------------------------

    def tensor(self, other: "ChainComplex") -> "ChainComplex":
        """Tensor product over the ground ring, with (i, j) as the generator
        i * len(other) + j; gradings add, no signs in char 2.  An arrow of
        the first factor changes i and one of the second keeps it, so no
        entry is written twice."""
        if self.mode is not other.mode:
            raise InvalidComplexError("tensor factors must share a coefficient mode")
        width = len(other)
        gr_u = [x + y for x in self.gr_u for y in other.gr_u]
        gr_v = [x + y for x in self.gr_v for y in other.gr_v]
        diff = {
            (t * width + j, s * width + j): mono
            for (t, s), mono in self.diff.items()
            for j in range(width)
        }
        for (t, s), mono in other.diff.items():
            for i in range(0, len(gr_u), width):
                diff[(i + t, i + s)] = mono
        return ChainComplex(gr_u, gr_v, diff, self.mode)

    def dual(self) -> "ChainComplex":
        """Mirror with reversed orientation: transpose the differential and
        negate both gradings.  Applying it twice gives back the original."""
        diff = {(s, t): e for (t, s), e in self.diff.items()}
        return ChainComplex(
            [-g for g in self.gr_u], [-g for g in self.gr_v], diff, self.mode
        )

    def quotient_uv(self) -> "ChainComplex":
        """Pass to F_2[U,V]/(UV): every mixed monomial in the differential
        dies as the constructor drops it.  Idempotent: a complex already
        over the quotient is returned unchanged."""
        if self.mode is Mode.UVZERO:
            return self
        return ChainComplex(self.gr_u, self.gr_v, self.diff, Mode.UVZERO)

    # -- homology -----------------------------------------------------------

    def vertical_homology(self) -> tuple[int, tuple[int, ...]]:
        """Set V = 0 and take homology over F_2[U].

        Returns (Alexander grading of the free generator, ascending torsion
        orders).  The complex must be knot-like: the free part has rank one.
        """
        if self.mode is not Mode.UVZERO:
            raise InvalidComplexError("vertical homology expects a UV = 0 complex")
        mat = _MonoMatrix(len(self))
        for (tgt, src), (a, b) in self.diff.items():
            if b == 0:
                if a == 0:
                    raise InvalidComplexError("vertical homology needs a complex without unit arrows")
                mat.add(tgt, src, a, 0)
        torsion: list[int] = []
        survivors = set(range(len(self)))
        while True:
            best = min(((a, src, tgt) for (tgt, src), (a, _) in mat.items()), default=None)
            if best is None:
                break
            k, src, tgt = best
            mat.cancel(tgt, src, divide_u=k)
            torsion.append(k)
            survivors.discard(src)
            survivors.discard(tgt)
        if len(survivors) != 1:
            raise KnotlikeError(
                f"free part of vertical homology has rank {len(survivors)}, expected 1"
            )
        return self.alexander(next(iter(survivors))), tuple(sorted(torsion))


class _MonoMatrix:
    """Sparse differential over F_2[U,V]/(UV) on the generators
    0 ... size-1, with single-monomial entries, for cancellations.

    Graded complexes only ever have one monomial per entry, and every graded
    operation preserves that, so entries are bare (upow, vpow) pairs.  Adding
    a monomial to an equal one cancels (char 2), a mixed one dies, and adding
    a different one to an occupied slot would break the grading and raises.

    ``rows[g]`` maps the sources of the arrows into g to their entries and
    ``cols[g]`` the targets of the arrows out of g.  The matrix keeps the
    set of generators meeting more than one arrow of some type and
    direction, and a running XOR hash of the entries ``add`` has put in or
    taken out: the XOR of the hashes of the current entries and of the
    entries it was built with, 0 as built.  So the basis search can find
    conflicts and compare the states of one search cheaply.
    """

    def __init__(self, size: int):
        self.rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(size)]
        self.cols: list[dict[int, tuple[int, int]]] = [{} for _ in range(size)]
        self.zhash = 0
        self.count = 0
        # per generator: [H-in, V-in, H-out, V-out] arrow counts
        self.degrees = [[0, 0, 0, 0] for _ in range(size)]
        self.conflicted: set[int] = set()

    def items(self) -> Iterable[tuple[tuple[int, int], tuple[int, int]]]:
        for tgt, row in enumerate(self.rows):
            for src, mono in row.items():
                yield (tgt, src), mono

    def add(self, tgt: int, src: int, a: int, b: int) -> None:
        """Add U^a V^b to the entry src -> tgt by ``_add_mono``'s rule,
        inlined for the search, after a mixed monomial dies.  The hash,
        the entry count, the arrow counts and the conflict set follow each
        change."""
        if a > 0 and b > 0:
            return
        mono = (a, b)
        row = self.rows[tgt]
        cur = row.get(src)
        if cur is None:
            row[src] = mono
            self.cols[src][tgt] = mono
            step = 1
        elif cur == mono:
            del row[src]
            del self.cols[src][tgt]
            step = -1
        else:
            raise InvalidComplexError(
                f"entry {src} -> {tgt} mixes degrees U^{cur[0]}V^{cur[1]} and U^{a}V^{b}"
            )
        self.zhash ^= hash((tgt, src, mono))
        self.count += step
        kind = 0 if a > 0 else 1
        for gen, slot in ((tgt, kind), (src, 2 + kind)):
            counts = self.degrees[gen]
            counts[slot] += step
            if counts[slot] > 1:
                self.conflicted.add(gen)
            elif gen in self.conflicted and max(counts) < 2:
                self.conflicted.discard(gen)

    def cancel(self, tgt: int, src: int, divide_u: int) -> None:
        """Remove the pair (tgt, src) along the arrow between them, adding the
        zig-zag corrections d(w -> tgt) * d(src -> z) / U^divide_u."""
        ins = [(w, m) for w, m in self.rows[tgt].items() if w != src]
        outs = [(z, m) for z, m in self.cols[src].items() if z != tgt]
        self.drop_gen(tgt)
        self.drop_gen(src)
        for w, (a1, b1) in ins:
            for z, (a2, b2) in outs:
                a = a1 + a2 - divide_u
                if a < 0:
                    raise InvalidComplexError("cancellation pivot was not minimal")
                self.add(z, w, a, b1 + b2)

    def drop_gen(self, gen: int) -> None:
        for src, (a, b) in list(self.rows[gen].items()):
            self.add(gen, src, a, b)  # adding an entry again removes it
        for tgt, (a, b) in list(self.cols[gen].items()):
            self.add(tgt, gen, a, b)


@dataclass
class Endomorphism:
    """A graded matrix over a complex's generators, keyed by (target, source)
    positions, each entry one monomial (a, b) multiplied in the complex's
    ring; an absent key is zero, and entries add by ``_add_mono``.

    ``shift`` declares the bidegree; when ``skew`` is set the map exchanges
    the two gradings and conjugates coefficients by the U <-> V swap, which is
    how the involution acts.
    """

    cx: ChainComplex
    entries: dict[tuple[int, int], Mono] = field(default_factory=dict)
    shift: tuple[int, int] = (0, 0)
    skew: bool = False

    @functools.cached_property
    def _by_source(self) -> dict[int, list[tuple[int, Mono]]]:
        """The entries indexed by source, as (target, monomial) pairs."""
        by_src: dict[int, list[tuple[int, Mono]]] = {}
        for (tgt, src), mono in self.entries.items():
            by_src.setdefault(src, []).append((tgt, mono))
        return by_src

    def twist(self, mono: Mono) -> Mono:
        return (mono[1], mono[0]) if self.skew else mono

    def apply(self, combo: Mapping[int, Mono]) -> dict[int, Mono]:
        """Apply to a combination of generators with monomial coefficients;
        the result holds no zero coefficient."""
        out: dict[int, Mono] = {}
        mode = self.cx.mode
        for src, coeff in combo.items():
            twisted = self.twist(coeff)
            for tgt, mono in self._by_source.get(src, ()):
                term = _times(mono, twisted, mode)
                if term is not None:
                    _add_mono(out, tgt, term)
        return out

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        entries: dict[tuple[int, int], Mono] = {}
        mode = self.cx.mode
        for (mid, src), inner in other.entries.items():
            twisted = self.twist(inner)
            for tgt, outer in self._by_source.get(mid, ()):
                term = _times(outer, twisted, mode)
                if term is not None:
                    _add_mono(entries, (tgt, src), term)
        os = other.shift[::-1] if self.skew else other.shift
        shift = (self.shift[0] + os[0], self.shift[1] + os[1])
        return Endomorphism(self.cx, entries, shift, self.skew != other.skew)

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        if self.skew != other.skew or self.shift != other.shift:
            raise ValueError("can only add endomorphisms of the same type and shift")
        entries = dict(self.entries)
        for key, mono in other.entries.items():
            _add_mono(entries, key, mono)
        return Endomorphism(self.cx, entries, self.shift, self.skew)

    def is_zero(self) -> bool:
        return not self.entries

    def is_chain_map(self) -> bool:
        """Whether d f + f d = 0, one source s at a time: the monomials of
        (d f)(s) and (f d)(s) are gathered by target with odd counts, a skew
        f swaps U and V in the entries of d it reads, and over UV = 0 a mixed
        monomial dies.  d is read through ChainComplex._cols."""
        cols, mine = self.cx._cols, self._by_source
        quotient = self.cx.mode is Mode.UVZERO
        for src, col in enumerate(cols):
            # (inner monomial, outer column): d after f, then f after d
            pairs = [(inner, cols[mid].items()) for mid, inner in mine.get(src, ())]
            for mid, inner in col.items():
                pairs.append((self.twist(inner), mine.get(mid, ())))
            odd: set[tuple[int, int, int]] = set()
            for (a1, b1), column in pairs:
                for tgt, (a2, b2) in column:
                    a, b = a1 + a2, b1 + b2
                    if quotient and a > 0 and b > 0:
                        continue  # dies in the quotient
                    term = (tgt, a, b)
                    if term in odd:
                        odd.remove(term)
                    else:
                        odd.add(term)
            if odd:
                return False
        return True

    def respects_grading(self) -> bool:
        gr_u, gr_v = self.cx.gr_u, self.cx.gr_v
        du, dv = self.shift
        for (tgt, src), (a, b) in self.entries.items():
            src_u, src_v = (gr_v[src], gr_u[src]) if self.skew else (gr_u[src], gr_v[src])
            if gr_u[tgt] - 2 * a != src_u + du or gr_v[tgt] - 2 * b != src_v + dv:
                return False
        return True


def diff_endomorphism(cx: ChainComplex) -> Endomorphism:
    """The differential itself, as an endomorphism of bidegree (-1, -1)."""
    return Endomorphism(cx, dict(cx.diff), (-1, -1))
