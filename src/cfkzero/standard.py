"""The parameter-sequence calculus for standard complexes.

A standard complex on generators z_0 ... z_n is encoded by a finite sequence
of nonzero integers.  Entries at odd positions (1st, 3rd, ...) describe
horizontal (U-power) arrows, entries at even positions vertical (V-power)
arrows; the magnitude is the arrow power and the sign records the traversal
direction: positive means the walk from z_{i-1} to z_i runs against the
arrow, negative means it runs with the arrow.

The Alexander walk assigns ΔA = -entry to horizontal steps and ΔA = +entry
to vertical steps; endpoint values are antisymmetric, which pins the start
at A = -(walk sum)/2.  That start value is tau, and the walk maximum is the
top Alexander grading of gamma_0.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import Mode, RingElem
from .complexes import ChainComplex, Generator, InvalidComplexError, KnotlikeError, _MonoMatrix

Seq = tuple[int, ...]

SIMPLIFY_PASS_CAP = 10_000  # merge budget floor
MERGES_PER_ARROW = 16  # merge budget per input arrow


class SequenceError(ValueError):
    """A list of integers is not a valid parameter sequence."""


class SimplifyError(ValueError):
    """Basis simplification did not reach a fixpoint within the merge cap."""


def validate_seq(entries: Iterable[int]) -> Seq:
    seq = tuple(map(int, entries))
    if 0 in seq:
        raise SequenceError(f"zero entry in sequence {list(seq)}")
    if len(seq) % 2 != 0:
        raise SequenceError(f"sequence length must be even, got {list(seq)}")
    if tuple(-e for e in reversed(seq)) != seq:
        raise SequenceError(f"sequence {list(seq)} is not reverse-negate symmetric")
    if (sum(seq[1::2]) - sum(seq[0::2])) % 2 != 0:  # the walk sum, sum(_delta_a(seq))
        raise SequenceError(f"sequence {list(seq)} has an odd Alexander walk sum")
    return seq


def _delta_a(seq: Seq) -> list[int]:
    # odd positions horizontal (ΔA = -entry), even positions vertical (+entry)
    return [-e if i % 2 == 0 else e for i, e in enumerate(seq)]


def walk_values(seq: Seq) -> list[int]:
    """Alexander gradings A(z_0), ..., A(z_n) along the sequence."""
    deltas = _delta_a(seq)
    start = -sum(deltas) // 2
    values = [start]
    for d in deltas:
        values.append(values[-1] + d)
    return values


def tau(seq: Sequence[int]) -> int:
    """Alexander value at the start of the gamma_0 walk."""
    s = validate_seq(seq)
    return walk_values(s)[0]


def top_alexander(seq: Sequence[int]) -> int:
    s = validate_seq(seq)
    return max(walk_values(s))


def epsilon(seq: Sequence[int]) -> int:
    """Sign of the first entry; 0 for the unknot class."""
    s = validate_seq(seq)
    if not s:
        return 0
    return 1 if s[0] > 0 else -1


def normalize_seq(seq: Sequence[int]) -> Seq:
    """Canonical representative; the reverse-negate symmetry already fixes it."""
    return validate_seq(seq)


def mirror_seq(seq: Sequence[int]) -> Seq:
    """Sequence of the mirror knot: entrywise negation."""
    return tuple(-e for e in validate_seq(seq))  # negation keeps every check


@dataclass(frozen=True)
class SharpnessReport:
    genus: int
    gamma0_top_a: int

    @property
    def sharp(self) -> bool:
        return self.genus == self.gamma0_top_a


def sharpness(genus: int, seq: Sequence[int]) -> SharpnessReport:
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return SharpnessReport(genus, top_alexander(seq))


def staircase_shaped(seq: Seq) -> bool:
    """True when a validated sequence has the L-space staircase shape: signs
    strictly alternate +, -, +, ..."""
    return all((e > 0) == (i % 2 == 0) for i, e in enumerate(seq))


def seq_to_complex(seq: Sequence[int], mode: Mode = Mode.UVZERO, prefix: str = "z") -> ChainComplex:
    """Build the standard complex of a sequence.

    Step i installs an arrow of power |entry| between z_{i-1} and z_i, aimed
    by the sign convention; gradings follow the Alexander walk with
    grU(z_0) = 0.  Over the full ring only staircase-shaped sequences give a
    complex, so the result is validated either way.
    """
    s = validate_seq(seq)
    a_values = walk_values(s)
    gr_u = [0]
    for i, e in enumerate(s, start=1):
        power = abs(e)
        if i % 2 == 1:  # horizontal
            gr_u.append(gr_u[-1] + (-2 * power + 1 if e > 0 else 2 * power - 1))
        else:  # vertical
            gr_u.append(gr_u[-1] + (1 if e > 0 else -1))
    gens = [
        Generator(f"{prefix}{i}", gu, gu - 2 * a)
        for i, (gu, a) in enumerate(zip(gr_u, a_values))
    ]
    diff: dict[tuple[str, str], RingElem] = {}
    for i, e in enumerate(s, start=1):
        power = abs(e)
        upow, vpow = (power, 0) if i % 2 == 1 else (0, power)
        elem = RingElem.monomial(upow, vpow, mode)
        prev, cur = f"{prefix}{i-1}", f"{prefix}{i}"
        tgt, src = (prev, cur) if e > 0 else (cur, prev)
        diff[(tgt, src)] = elem
    cx = ChainComplex(gens, diff, mode)
    violation = cx.validate()
    if violation is not None:
        raise SequenceError(f"sequence {list(s)} gives no {mode.value} complex: {violation}")
    return cx


# -- basis simplification ---------------------------------------------------


def simplify_basis(cx: ChainComplex) -> ChainComplex:
    """Filtered change of basis until every generator meets at most one
    incoming and one outgoing arrow of each type.

    Conflicts are resolved by merging toward the shorter arrow: two arrows
    U^{k1}, U^{k2} out of one generator (k1 <= k2) are combined by replacing
    the shorter target y1 with y1 + U^{k2-k1} y2, deleting the longer arrow;
    incoming conflicts and vertical arrows mirror this.  The search works on
    integer generator indices and keeps a worklist of conflicted generators
    whose arrows, or whose neighbours' arrows, changed since their candidate
    merges were last scored.  Each popped generator takes its most
    entry-reducing merge.  Once no merge anywhere reduces the entry count,
    the scored neutral and entry-adding merges are tried, fewest new entries
    first, skipping any that return to a state already visited; a dead end
    restarts the search with a reseeded preference order.

    Merges are capped at 16 per input arrow, and at no fewer than 10,000;
    a search that exhausts the cap raises SimplifyError.  A closed component
    whose local system is an indecomposable block of size two or more, such
    as a 2x2 Jordan block, comes out as one loop running twice as long.
    """
    if cx.mode is not Mode.UVZERO:
        raise InvalidComplexError("simplify_basis expects a UV = 0 complex")
    names = cx.ids()
    index = {name: i for i, name in enumerate(names)}
    base = _MonoMatrix(cx.mode)
    for (tgt, src), elem in cx.diff.items():
        a, b = elem.sole_term()
        if a == 0 and b == 0:
            raise InvalidComplexError("simplify_basis expects a reduced complex")
        base.add(index[tgt], index[src], a, b)
    budget = [max(SIMPLIFY_PASS_CAP, MERGES_PER_ARROW * base.count)]
    mat = _simplify_matrix(base, budget)
    diff = {
        (names[tgt], names[src]): RingElem.monomial(a, b, cx.mode)
        for (tgt, src), (a, b) in mat.items()
    }
    return ChainComplex(cx.gens, diff, cx.mode).require_valid()


_SIMPLIFY_ATTEMPTS = 16

Move = tuple[int, int, int, bool]  # kept, absorbed, delta, horizontal


def _simplify_matrix(base: _MonoMatrix, budget: list[int]) -> _MonoMatrix:
    """Search for a conflict-free basis, restarting with a reshuffled
    preference order whenever a search reaches a dead end."""
    for attempt in range(_SIMPLIFY_ATTEMPTS):
        work = base.copy()
        if _search(work, random.Random(attempt) if attempt else None, budget):
            return work
        if budget[0] <= 0:
            break
    raise SimplifyError(
        "no simplified basis within the merge cap and restarts; the input is "
        "not knot-like"
    )


def _search(work: _MonoMatrix, rng: random.Random | None, budget: list[int]) -> bool:
    """Merge until `work` has no conflict; False on a dead end or when the
    budget runs out.

    `scored` caches the candidate merges of every conflicted generator that
    is not queued.  A merge changes only the arrows at the two merged
    generators, at the targets of the absorbed one and at the sources of the
    kept one, and a candidate's score reads only the arrows at its own two
    generators, so re-queueing those generators and their neighbours keeps
    every cached score exact.  Every accepted state joins `seen`; a merge
    reaching a new lowest entry count is accepted without the lookup, since
    no earlier state had so few entries.
    """
    seen = {work.zhash}
    low_water = work.count
    scored: dict[int, list[tuple[int, Move]]] = {}
    queue: list[tuple[float, int]] = []
    queued: set[int] = set()

    def enqueue(gens: Iterable[int]) -> None:
        for g in gens:
            scored.pop(g, None)
            if g in work.conflicted and g not in queued:
                queued.add(g)
                heapq.heappush(queue, (rng.random() if rng else g, g))

    enqueue(sorted(work.conflicted))
    while work.conflicted:
        fallback = not queue
        if fallback:
            # no reducing merge is left: every conflicted generator is scored
            pool: dict[Move, int] = {}
            for gen in sorted(work.conflicted):
                for score, move in scored[gen]:
                    pool.setdefault(move, score)
            candidates = sorted(pool, key=pool.__getitem__)
        else:
            _, gen = heapq.heappop(queue)
            queued.discard(gen)
            if gen not in work.conflicted:
                continue
            scored[gen] = _scored_moves(work, gen, rng)
            candidates = [move for score, move in scored[gen] if score < 0]
        for move in candidates:
            if budget[0] <= 0:
                return False
            budget[0] -= 1
            # a char-2 basis change is an involution, so applying it again
            # undoes a rejected candidate
            _basis_change(work, *move)
            if work.count < low_water or work.zhash not in seen:
                seen.add(work.zhash)
                low_water = min(low_water, work.count)
                enqueue(_affected(work, move[0], move[1]))
                break
            _basis_change(work, *move)
        else:
            if fallback:
                return False
    return True


def _scored_moves(work: _MonoMatrix, gen: int, rng: random.Random | None) -> list[tuple[int, Move]]:
    """The candidate merges at a generator with their scores, most reducing
    first.

    At delta 0 the horizontal and vertical forms of a merge are one basis
    change, so both take the horizontal form, and the fallback pool holds
    it once; otherwise the second would be tried after the first and lead
    straight back to the previous state.
    """
    moves = [
        (kept, absorbed, 0, True) if delta == 0 else (kept, absorbed, delta, horizontal)
        for kept, absorbed, delta, horizontal in _moves_at(work, gen)
    ]
    if rng is not None:
        rng.shuffle(moves)
    return sorted(((_move_score(work, move), move) for move in moves), key=lambda sm: sm[0])


def _affected(work: _MonoMatrix, kept: int, absorbed: int) -> set[int]:
    """Generators whose candidate merges a merge of `absorbed` into `kept`
    may have changed: every generator it touched, and their neighbours."""
    touched = {kept, absorbed, *work.cols.get(absorbed, ()), *work.rows.get(kept, ())}
    out = set(touched)
    for g in touched:
        out.update(work.rows.get(g, ()))
        out.update(work.cols.get(g, ()))
    return out


def _is_type(mono: tuple[int, int], horizontal: bool) -> bool:
    a, b = mono
    return a > 0 if horizontal else b > 0


def _power(mono: tuple[int, int]) -> int:
    return mono[0] or mono[1]


def _moves_at(mat: _MonoMatrix, gen: int) -> list[Move]:
    """Candidate merges for the conflicts at one generator.

    An outgoing conflict merges two targets toward the shorter arrow, an
    incoming one two sources; equal powers allow both orientations.
    """
    moves: list[Move] = []
    for horizontal in (True, False):
        arrows = sorted(
            (_power(m), tgt) for tgt, m in mat.cols.get(gen, {}).items()
            if _is_type(m, horizontal)
        )
        for (k1, y1), (k2, y2) in itertools.combinations(arrows, 2):
            moves.append((y1, y2, k2 - k1, horizontal))
            if k1 == k2:
                moves.append((y2, y1, 0, horizontal))
        arrows = sorted(
            (_power(m), src) for src, m in mat.rows.get(gen, {}).items()
            if _is_type(m, horizontal)
        )
        for (k1, y1), (k2, y2) in itertools.combinations(arrows, 2):
            moves.append((y2, y1, k2 - k1, horizontal))
            if k1 == k2:
                moves.append((y1, y2, 0, horizontal))
    return moves


def _move_score(mat: _MonoMatrix, move: Move) -> int:
    """Net entries created by a merge; cancellations count negative."""
    kept, absorbed, delta, horizontal = move
    a_shift, b_shift = (delta, 0) if horizontal else (0, delta)
    net = 0
    for tgt, (a, b) in mat.cols.get(absorbed, {}).items():
        na, nb = a + a_shift, b + b_shift
        if mat.mode is Mode.UVZERO and na > 0 and nb > 0:
            continue
        net += -1 if mat.entry(tgt, kept) == (na, nb) else 1
    for src, (a, b) in mat.rows.get(kept, {}).items():
        na, nb = a + a_shift, b + b_shift
        if mat.mode is Mode.UVZERO and na > 0 and nb > 0:
            continue
        net += -1 if mat.entry(absorbed, src) == (na, nb) else 1
    return net


def _basis_change(mat: _MonoMatrix, kept: int, absorbed: int, delta: int, horizontal: bool) -> None:
    """Replace the basis element `kept` by kept + X^delta * absorbed.

    The boundary of the new element gains X^delta times the boundary of
    `absorbed`; arrows into `kept` spill onto `absorbed` with the power
    raised by delta.  Mixed monomials die in the quotient, and in a graded
    complex no arrow joins `kept` to `absorbed`, so the two updates commute.
    """
    a_shift, b_shift = (delta, 0) if horizontal else (0, delta)
    for tgt, (a, b) in list(mat.cols.get(absorbed, {}).items()):
        mat.add(tgt, kept, a + a_shift, b + b_shift)
    for src, (a, b) in list(mat.rows.get(kept, {}).items()):
        mat.add(absorbed, src, a + a_shift, b + b_shift)


# -- gamma_0 extraction -----------------------------------------------------


def split_components(cx: ChainComplex) -> tuple[list[list[str]], int]:
    """Split a simplified complex into its alternating paths and cycles.

    Returns (open paths as ordered id lists, number of closed loops).
    """
    incidence: dict[str, dict[str, tuple[str, int, bool]]] = {g.ident: {} for g in cx.gens}
    for (tgt, src), elem in cx.diff.items():
        a, b = elem.sole_term()
        kind = "H" if a > 0 else "V"
        power = a or b
        for here, other, outgoing in ((src, tgt, True), (tgt, src, False)):
            if kind in incidence[here]:
                raise SimplifyError(f"generator {here} meets two {kind} arrows; not simplified")
            incidence[here][kind] = (other, power, outgoing)
    seen: set[str] = set()
    paths: list[list[str]] = []
    loops = 0
    for g in cx.gens:
        if g.ident in seen:
            continue
        component, is_cycle = _walk_component(g.ident, incidence)
        seen.update(component)
        if is_cycle:
            loops += 1
        else:
            paths.append(component)
    return paths, loops


def _walk_component(start: str, incidence: dict[str, dict[str, tuple[str, int, bool]]]):
    # walk back to an endpoint (or all the way around a cycle), then forward
    order = ["H", "V"]
    here, came_by = start, None
    steps = 0
    while True:
        kinds = [k for k in order if k in incidence[here] and k != came_by]
        if not kinds:
            break
        nxt, _, _ = incidence[here][kinds[0]]
        came_by = kinds[0]
        here = nxt
        steps += 1
        if here == start and steps > 1:
            return _collect(start, incidence), True
    return _collect(here, incidence), False


def _collect(start: str, incidence) -> list[str]:
    out = [start]
    came_by = None
    here = start
    while True:
        kinds = [k for k in ("H", "V") if k in incidence[here] and k != came_by]
        if not kinds:
            return out
        nxt, _, _ = incidence[here][kinds[0]]
        if nxt == start:
            return out
        out.append(nxt)
        came_by = kinds[0]
        here = nxt


def extract_gamma0(cx: ChainComplex) -> Seq:
    seq, _ = extract_gamma0_with_loops(cx)
    return seq


def extract_gamma0_with_loops(cx: ChainComplex) -> tuple[Seq, int]:
    """Read the parameter sequence off the unique open path of a simplified
    complex, starting from the endpoint with no vertical arrow; positive
    entries record steps against an arrow, negative ones steps with it."""
    paths, loops = split_components(cx)
    if len(paths) != 1:
        raise KnotlikeError(f"expected one open path, found {len(paths)}")
    path = paths[0]
    incidence: dict[str, dict[str, tuple[str, int, bool]]] = {g.ident: {} for g in cx.gens}
    for (tgt, src), elem in cx.diff.items():
        a, b = elem.sole_term()
        kind = "H" if a > 0 else "V"
        power = a or b
        incidence[src][kind] = (tgt, power, True)
        incidence[tgt][kind] = (src, power, False)
    ends = [path[0], path[-1]] if len(path) > 1 else [path[0]]
    starts = [e for e in ends if "V" not in incidence[e]]
    if not starts:
        raise KnotlikeError("open path has no endpoint free of vertical arrows")
    here = min(starts)
    entries: list[int] = []
    came_by = None
    for _ in range(len(path) - 1):
        kinds = [k for k in ("H", "V") if k in incidence[here] and k != came_by]
        other, power, outgoing = incidence[here][kinds[0]]
        entries.append(-power if outgoing else power)
        came_by = kinds[0]
        here = other
    try:
        return validate_seq(entries), loops
    except SequenceError as exc:
        raise KnotlikeError(f"extracted walk is not a knot sequence: {exc}") from exc
