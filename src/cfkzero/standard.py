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
import operator
from typing import Iterable, Mapping, Sequence

from .algebra import Mode
from .complexes import (
    ChainComplex,
    InvalidComplexError,
    KnotlikeError,
    _MonoMatrix,
    _violation,
)

Seq = tuple[int, ...]

MERGES_PER_ARROW = 16  # merge budget per arrow of the plain product


class SequenceError(ValueError):
    """A list of integers is not a valid parameter sequence."""


class SimplifyError(ValueError):
    """Basis simplification did not reach a fixpoint within the merge cap."""


def validate_seq(entries: Iterable[int]) -> Seq:
    """The entries, read by int(), as a parameter sequence: _checked on
    their tuple.  That is the one check every sequence passes where it is
    made; code that builds its own tuple of ints calls _checked directly."""
    return _checked(tuple(map(int, entries)))


def _checked(seq: Seq) -> Seq:
    """``seq``, a tuple of ints, once it has no zero entry, an even length
    and reverse-negate symmetry, checked in this order; SequenceError names
    the first check it fails.  Symmetry compares the first half with the
    negated, reversed second half: entry i with entry n - 1 - i, up to the
    middle pair.  Each check is one pass in C."""
    if 0 in seq:
        raise SequenceError(f"zero entry in sequence {list(seq)}")
    half, odd = divmod(len(seq), 2)
    if odd:
        raise SequenceError(f"sequence length must be even, got {list(seq)}")
    if any(map(operator.add, seq[:half], reversed(seq))):
        raise SequenceError(f"sequence {list(seq)} is not reverse-negate symmetric")
    # symmetry makes the walk sum even: entries i and n-1-i add -2*seq[i]
    return seq


def _delta_a(seq: Seq) -> list[int]:
    # odd positions horizontal (ΔA = -entry), even positions vertical (+entry)
    deltas = list(seq)
    deltas[0::2] = map(operator.neg, seq[0::2])
    return deltas


def walk_values(seq: Seq) -> list[int]:
    """Alexander gradings A(z_0), ..., A(z_n) along the sequence."""
    deltas = _delta_a(seq)
    return list(itertools.accumulate(deltas, initial=-sum(deltas) // 2))


def _tau_top(seq: Seq) -> tuple[int, int]:
    """tau and the top Alexander grading of a validated sequence: the start
    and the maximum of walk_values(seq), from one pass that keeps no walk."""
    deltas = _delta_a(seq)
    start = -sum(deltas) // 2
    return start, max(itertools.accumulate(deltas, initial=start))


def tau(seq: Sequence[int]) -> int:
    """Alexander value at the start of the gamma_0 walk."""
    s = validate_seq(seq)
    return walk_values(s)[0]


def top_alexander(seq: Sequence[int]) -> int:
    return _tau_top(validate_seq(seq))[1]


def epsilon(seq: Sequence[int]) -> int:
    """Sign of the first entry; 0 for the unknot class."""
    return _epsilon(validate_seq(seq))


def _epsilon(seq: Seq) -> int:
    """epsilon of a validated sequence, not checked again."""
    if not seq:
        return 0
    return 1 if seq[0] > 0 else -1


def mirror_seq(seq: Sequence[int]) -> Seq:
    """Sequence of the mirror knot: entrywise negation."""
    return _negate(validate_seq(seq))


def _negate(seq: Seq) -> Seq:
    """mirror_seq of a validated sequence, not checked again: negation keeps
    every check."""
    return tuple(map(operator.neg, seq))


def staircase_shaped(seq: Seq) -> bool:
    """True when a validated sequence has the L-space staircase shape: signs
    strictly alternate +, -, +, ..."""
    return min(seq[0::2], default=1) > 0 and max(seq[1::2], default=0) <= 0


Arrow = tuple[int, int, int, int]  # target, source, U power, V power


def _standard(s: Seq) -> tuple[list[int], list[int], list[Arrow]]:
    """Gradings (grU, grV) of z_0 ... z_n and the arrows of the standard
    complex of a validated sequence, with z_i as the integer i.

    Step i installs an arrow of power |entry| between z_{i-1} and z_i, aimed
    by the sign convention; gradings follow the Alexander walk with
    grU(z_0) = 0.
    """
    gr_u = [0]
    arrows: list[Arrow] = []
    for i, e in enumerate(s, start=1):
        power = abs(e)
        if i % 2 == 1:  # horizontal
            gr_u.append(gr_u[-1] + (-2 * power + 1 if e > 0 else 2 * power - 1))
            upow, vpow = power, 0
        else:  # vertical
            gr_u.append(gr_u[-1] + (1 if e > 0 else -1))
            upow, vpow = 0, power
        arrows.append((i - 1, i, upow, vpow) if e > 0 else (i, i - 1, upow, vpow))
    gr_v = [gu - 2 * a for gu, a in zip(gr_u, walk_values(s))]
    return gr_u, gr_v, arrows


def seq_to_complex(seq: Sequence[int], mode: Mode = Mode.UVZERO) -> ChainComplex:
    """Build the standard complex of a sequence, with z_i as the generator i.

    Over the full ring only staircase-shaped sequences give a complex, so
    the result is validated either way.
    """
    s = validate_seq(seq)
    gr_u, gr_v, arrows = _standard(s)
    diff = {(tgt, src): (a, b) for tgt, src, a, b in arrows}
    cx = ChainComplex(gr_u, gr_v, diff, mode)
    violation = cx.validate()
    if violation is not None:
        raise SequenceError(f"sequence {list(s)} gives no {mode.value} complex: {violation}")
    return cx


def _product(s1: Seq, s2: Seq) -> tuple[_MonoMatrix, list[int], list[int], int]:
    """The tensor product over UV = 0 of the standard complexes of two
    validated sequences with its unequal squares resolved, as a matrix, the
    gradings (grU, grV) of its generators, and the arrow count of the plain
    product.

    Generator (i, j) is the integer i * (len(s2) + 1) + j, as in
    ChainComplex.tensor.  Each z_i meets at most one horizontal and one
    vertical arrow, so in each direction the plain product is a disjoint
    sum of squares X^a (x) X^b.  For a < b the
    change of basis that merges toward the shorter arrow leaves the two
    X^a arrows and removes the two X^b ones; every term it adds to an arrow
    of the other type carries both U and V, and dies.  So beside each
    generator of one factor, an arrow of the other is kept unless that
    generator's arrow of the same type is strictly shorter; equal powers
    keep all four.  Ids and gradings do not move.  The factors are not
    checked: every d^2 term is mixed and dies, and _standard grades every
    arrow right by construction.
    """
    (u1, v1, arrows1), (u2, v2, arrows2) = _standard(s1), _standard(s2)
    n1, n2 = len(u1), len(u2)
    powers1, powers2 = _arrow_powers(n1, arrows1), _arrow_powers(n2, arrows2)
    arrows = [
        (t * n2 + j, s * n2 + j, (a, b))
        for t, s, a, b in arrows1
        for j, other in enumerate(powers2[b > 0])
        if not 0 < other < a + b
    ]
    arrows += [
        (i * n2 + t, i * n2 + s, (a, b))
        for t, s, a, b in arrows2
        for i, other in enumerate(powers1[b > 0])
        if not 0 < other < a + b
    ]
    gr_u = [x + y for x in u1 for y in u2]
    gr_v = [x + y for x in v1 for y in v2]
    mat = _MonoMatrix.from_arrows(n1 * n2, arrows)
    return mat, gr_u, gr_v, len(arrows1) * n2 + len(arrows2) * n1


def _arrow_powers(size: int, arrows: list[Arrow]) -> tuple[list[int], list[int]]:
    """The power of each generator's horizontal and of its vertical arrow
    in a standard complex, 0 where it has none."""
    powers = ([0] * size, [0] * size)
    for tgt, src, a, b in arrows:
        powers[b > 0][tgt] = powers[b > 0][src] = a + b
    return powers


def _require_valid(mat: _MonoMatrix, gr_u: Sequence[int], gr_v: Sequence[int]) -> None:
    """Raise InvalidComplexError at the first failure of the complex check
    ChainComplex.validate runs, made here on a UV = 0 matrix on integer ids
    and its gradings."""
    violation = _violation(mat.cols, gr_u, gr_v, Mode.UVZERO)
    if violation is not None:
        raise InvalidComplexError(str(violation))


# -- basis simplification ---------------------------------------------------


def _simplify(mat: _MonoMatrix, arrows: int) -> None:
    """Filtered change of basis until every generator meets at most one
    incoming and one outgoing arrow of each type.

    Conflicts are resolved by merging toward the shorter arrow: two arrows
    U^{k1}, U^{k2} out of one generator (k1 <= k2) are combined by replacing
    the shorter target y1 with y1 + U^{k2-k1} y2, deleting the longer arrow;
    incoming conflicts and vertical arrows mirror this.  _search takes the
    most entry-reducing merge at each conflicted generator, and once none
    reduces, neutral and entry-adding ones that reach a state not yet
    visited: fewest new entries first, and among equal ones those of the
    generator scored last, where the last merge made or moved a conflict.
    So the search goes on sliding the arrow it just moved, as arrow sliding
    does (Hanselman-Rasmussen-Watson, arXiv:1604.03466), instead of jumping
    to the lowest-numbered conflict: taken by number, the path would follow
    the operand order of the product, and in one order some valid sums
    would spend the whole cap.  The result does not depend on the path
    taken: gamma_0 and the loop count are invariants of the complex.

    Merges are capped at 16 per arrow of the plain product, `arrows`; a
    search that exhausts the cap raises SimplifyError.  _product resolves
    the unequal squares before the search, and counting the plain product's
    arrows keeps an input's cap from depending on how many it resolved; a
    matrix that is no product passes its own count.  A closed component
    whose local system is an indecomposable block of size two or more, such
    as a 2x2 Jordan block, comes out as one loop running twice as long.
    """
    _search(mat, MERGES_PER_ARROW * arrows)


Move = tuple[int, int, int, bool]  # kept, absorbed, delta, horizontal
_UNSCORED = (-1, 0)  # the stamp and pool entry count of a generator without entries


def _search(work: _MonoMatrix, budget: int) -> None:
    """Merge until `work` has no conflict; SimplifyError once `budget`
    merges have been tried.

    `scored` maps every conflicted generator that is not queued to a stamp,
    counting up as generators are scored, and a count n: its scored
    candidate merges wait in the heap `pool` as n entries (score, -stamp,
    index, generator, move).  So the fallback tries them fewest new entries
    first, then the latest scored generator's first, then in list order;
    the latest scored generators are the ones the last merges changed, so
    the fallback stays where the search last merged (see _simplify).
    A merge changes only the arrows at the two merged generators, at the
    targets of the absorbed one and at the sources of the kept one, and a
    candidate's score reads only the arrows at its own two generators, so
    re-queueing those generators and their neighbours keeps every live
    score exact.  Re-queueing drops the generator from `scored`, which makes
    its entries stale.  A fallback step pops entries in order, drops the
    stale ones, skips a move already tried in this step and afterwards
    pushes back the live ones it popped; once stale entries outnumber live
    ones, the heap is rebuilt from the live ones.  Every accepted state
    joins `seen`; a merge reaching a new lowest entry count is accepted
    without the lookup, since no earlier state had so few entries.  `seen`
    stops neutral merges from undoing each other, so it is cleared, not
    dropped, at a dead end.  A dead end with an empty pool would go round
    again without a merge, never spending the budget, so it raises
    SimplifyError.
    """
    seen = {work.zhash}
    low_water = work.count
    scored: dict[int, tuple[int, int]] = {}  # generator -> (stamp, entries in the pool)
    pool: list[tuple[int, int, int, int, Move]] = []
    live = 0  # pool entries that are not stale
    stamps = itertools.count()
    queue: list[int] = []
    queued: set[int] = set()

    def enqueue(gens: Iterable[int]) -> None:
        nonlocal live
        for g in gens:
            live -= scored.pop(g, _UNSCORED)[1]
            if g in work.conflicted and g not in queued:
                queued.add(g)
                heapq.heappush(queue, g)

    def accepted(move: Move) -> bool:
        nonlocal budget, low_water
        if budget <= 0:
            raise SimplifyError("no simplified basis within the merge cap")
        budget -= 1
        # a char-2 basis change is an involution, so applying it again
        # undoes a rejected candidate
        _basis_change(work, *move)
        if work.count < low_water or work.zhash not in seen:
            seen.add(work.zhash)
            low_water = min(low_water, work.count)
            enqueue(_affected(work, move[0], move[1]))
            return True
        _basis_change(work, *move)
        return False

    enqueue(work.conflicted)
    while work.conflicted:
        if queue:
            gen = heapq.heappop(queue)
            queued.discard(gen)
            if gen not in work.conflicted:
                continue
            moves = _scored_moves(work, gen)
            scored[gen] = _UNSCORED
            for score, move in moves:
                if score >= 0 or accepted(move):
                    break
            if gen in scored:  # no merge was accepted, or none touched gen
                stamp = next(stamps)
                scored[gen] = (stamp, len(moves))
                live += len(moves)
                for index, (score, move) in enumerate(moves):
                    heapq.heappush(pool, (score, -stamp, index, gen, move))
                if len(pool) > 2 * live:  # stale entries outnumber live ones
                    pool[:] = [e for e in pool if scored.get(e[3], _UNSCORED)[0] == -e[1]]
                    heapq.heapify(pool)
            continue
        # no reducing merge is left: every conflicted generator is scored
        popped = []
        tried: set[Move] = set()
        while pool:
            entry = heapq.heappop(pool)
            if scored.get(entry[3], _UNSCORED)[0] != -entry[1]:
                continue
            popped.append(entry)
            if entry[4] not in tried:
                tried.add(entry[4])
                if accepted(entry[4]):
                    break
        else:
            if not popped:  # nothing to try: the bookkeeping is broken
                raise SimplifyError("the basis search reached a dead end with no merge to try")
            seen.clear()  # dead end: forget the visited states
            seen.add(work.zhash)
        for entry in popped:
            if scored.get(entry[3], _UNSCORED)[0] == -entry[1]:
                heapq.heappush(pool, entry)


def _scored_moves(work: _MonoMatrix, gen: int) -> list[tuple[int, Move]]:
    """The candidate merges for the conflicts at a generator with their
    scores, the net entries each creates, most reducing first.

    An outgoing conflict merges two targets toward the shorter arrow, an
    incoming one two sources; equal powers allow both orientations.  At
    delta 0 the horizontal and vertical forms of a merge are one basis
    change, so both take the horizontal form, and the fallback pool holds
    it once; otherwise the second would be tried after the first and lead
    straight back to the previous state.

    Merging `absorbed` into `kept` adds the targets of `absorbed` to those
    of `kept` and the sources of `kept` to those of `absorbed`: an entry
    equal to one already there cancels, any other adds one.  At delta 0
    nothing shifts and nothing dies, and the entries the two generators
    share are the same in both orientations, so they are counted once for
    the pair.
    """
    rows, cols = work.rows, work.cols
    h_in, v_in, h_out, v_out = work.degrees[gen]
    out: list[tuple[int, Move]] = []
    for horizontal, n_out, n_in in ((True, h_out, h_in), (False, v_out, v_in)):
        for n, side, outgoing in ((n_out, cols, True), (n_in, rows, False)):
            if n < 2:
                continue
            if horizontal:
                arrows = sorted([(a, y) for y, (a, b) in side[gen].items() if a])
            else:
                arrows = sorted([(b, y) for y, (a, b) in side[gen].items() if not a])
            for (k1, y1), (k2, y2) in itertools.combinations(arrows, 2):
                if not outgoing:  # of two sources, the longer arrow's is kept
                    y1, y2 = y2, y1
                if k1 == k2:
                    c1, c2, r1, r2 = cols[y1], cols[y2], rows[y1], rows[y2]
                    shared = 0
                    for key, mono in c2.items():
                        if c1.get(key) == mono:
                            shared += 2
                    for key, mono in r2.items():
                        if r1.get(key) == mono:
                            shared += 2
                    out.append((len(c2) + len(r1) - shared, (y1, y2, 0, True)))
                    out.append((len(c1) + len(r2) - shared, (y2, y1, 0, True)))
                else:
                    delta = k2 - k1
                    net = (_shifted_net(cols[y2], cols[y1], delta, horizontal)
                           + _shifted_net(rows[y1], rows[y2], delta, horizontal))
                    out.append((net, (y1, y2, delta, horizontal)))
    out.sort(key=operator.itemgetter(0))
    return out


def _shifted_net(moved: Mapping[int, tuple[int, int]], into: Mapping[int, tuple[int, int]],
                 delta: int, horizontal: bool) -> int:
    """The entries gained when X^delta times the entries `moved` are added
    to the entries `into`, keyed alike, for delta > 0.  An entry of the
    other type becomes mixed and dies, so it is skipped before any shifted
    pair is built."""
    net = 0
    if horizontal:
        for key, (a, b) in moved.items():
            if not b:
                net += -1 if into.get(key) == (a + delta, 0) else 1
    else:
        for key, (a, b) in moved.items():
            if not a:
                net += -1 if into.get(key) == (0, b + delta) else 1
    return net


def _affected(work: _MonoMatrix, kept: int, absorbed: int) -> set[int]:
    """Generators whose candidate merges a merge of `absorbed` into `kept`
    may have changed: every generator it touched, and their neighbours."""
    touched = {kept, absorbed, *work.cols[absorbed], *work.rows[kept]}
    out = set(touched)
    for g in touched:
        out.update(work.rows[g])
        out.update(work.cols[g])
    return out


def _basis_change(mat: _MonoMatrix, kept: int, absorbed: int, delta: int, horizontal: bool) -> None:
    """Replace the basis element `kept` by kept + X^delta * absorbed.

    The boundary of the new element gains X^delta times the boundary of
    `absorbed`; arrows into `kept` spill onto `absorbed` with the power
    raised by delta.  Mixed monomials die in the quotient, and in a graded
    complex no arrow joins `kept` to `absorbed`, so the two updates commute.
    """
    a_shift, b_shift = (delta, 0) if horizontal else (0, delta)
    for tgt, (a, b) in list(mat.cols[absorbed].items()):
        mat.add(tgt, kept, a + a_shift, b + b_shift)
    for src, (a, b) in list(mat.rows[kept].items()):
        mat.add(absorbed, src, a + a_shift, b + b_shift)


# -- gamma_0 extraction -----------------------------------------------------


Cols = Sequence[Mapping[int, tuple[int, int]]]  # per source: target -> (U power, V power)
Path = tuple[list[int], list[int]]  # ids along an open path, and the entry of each step


def _components(cols: Cols) -> tuple[list[int], list[Path], int]:
    """The vertical partner of each generator of a simplified complex on
    generators 0 ... len(cols)-1, `cols[g]` mapping the targets of g's
    arrows to their entries, its open paths as walks (ids, entries) from one
    end, and its number of closed loops.

    The columns are read in place into four flat lists, one int per
    generator each: its horizontal and its vertical partner, the other end
    of that arrow or -1, and the entry of the step along each, negative out
    of the generator and positive into it.  A generator meeting two arrows
    of one type raises SimplifyError.  Each component is walked from its
    first generator, horizontal first, a closed one counted once as a loop.
    An open one is walked once: from its first generator to one end, then
    from that generator the other way to the other end, and the two walks
    are joined into one path from the end the first walk stopped at.
    """
    size = len(cols)
    h_other, v_other = [-1] * size, [-1] * size
    h_step, v_step = [0] * size, [0] * size
    for src, col in enumerate(cols):
        for tgt, (a, b) in col.items():
            if a:
                if h_other[src] >= 0 or h_other[tgt] >= 0:
                    raise _overloaded(src if h_other[src] >= 0 else tgt, "H")
                h_other[src], h_other[tgt] = tgt, src
                h_step[src], h_step[tgt] = -a, a
            else:
                if v_other[src] >= 0 or v_other[tgt] >= 0:
                    raise _overloaded(src if v_other[src] >= 0 else tgt, "V")
                v_other[src], v_other[tgt] = tgt, src
                v_step[src], v_step[tgt] = -b, b
    seen = bytearray(size)
    paths: list[Path] = []
    loops = 0
    for g in range(size):
        if seen[g]:
            continue
        horizontal = h_other[g] >= 0
        ids, entries, closed = _walk(g, horizontal, h_other, v_other, h_step, v_step)
        if closed:
            loops += 1
        else:
            # that walk ended at one end of the path; the rest lies the other way
            rest, rest_entries, _ = _walk(g, not horizontal, h_other, v_other, h_step, v_step)
            ids.reverse()
            ids += rest[1:]
            entries = [-e for e in reversed(entries)] + rest_entries
            paths.append((ids, entries))
        for i in ids:
            seen[i] = 1
    return v_other, paths, loops


def _overloaded(gen: int, kind: str) -> SimplifyError:
    return SimplifyError(f"generator {gen} meets two {kind} arrows; not simplified")


def _walk(start: int, horizontal: bool, h_other: list[int], v_other: list[int],
          h_step: list[int], v_step: list[int]) -> tuple[list[int], list[int], bool]:
    """Follow arrows from `start` on the partner and step lists of
    _components, along an arrow of the type `horizontal` names first and
    then alternating, to an endpoint or around a cycle.

    Returns the ids visited, the sequence entry of each step (positive
    against an arrow, negative with it; a step walked back has the negated
    entry) and whether the walk closed up.
    """
    ids = [start]
    entries: list[int] = []
    here = start
    while True:
        if horizontal:
            there, step = h_other[here], h_step[here]
        else:
            there, step = v_other[here], v_step[here]
        if there < 0:
            return ids, entries, False
        if there == start:
            return ids, entries, True
        ids.append(there)
        entries.append(step)
        here = there
        horizontal = not horizontal


def _gamma0(cols: Cols) -> tuple[Seq, int]:
    """The sequence read off the unique open path of a simplified complex
    given by its columns, as _components reads them, and its number of
    closed loops; see extract_gamma0."""
    vertical, paths, loops = _components(cols)
    if len(paths) != 1:
        raise KnotlikeError(f"expected one open path, found {len(paths)}")
    ids, entries = paths[0]
    starts = [e for e in {ids[0], ids[-1]} if vertical[e] < 0]
    if not starts:
        raise KnotlikeError("open path has no endpoint free of vertical arrows")
    if min(starts) != ids[0]:
        entries = [-e for e in reversed(entries)]  # the same path walked from its other end
    try:
        return _checked(tuple(entries)), loops
    except SequenceError as exc:
        raise KnotlikeError(f"extracted walk is not a knot sequence: {exc}") from exc


def extract_gamma0(cx: ChainComplex) -> Seq:
    """Read the parameter sequence off the unique open path of a simplified
    complex, starting from the endpoint with no vertical arrow; positive
    entries record steps against an arrow, negative ones steps with it.
    The complex is read through its columns, built as ChainComplex.validate
    builds them."""
    return _gamma0(cx._cols())[0]
