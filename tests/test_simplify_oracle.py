"""Differential test of the worklist basis search against the restart search
it replaced.

The previous search (per-component recursion, full rescans before every
merge) is copied below verbatim as a test-only oracle; it goes once the
worklist search has shipped for a release.  Both searches must give the same
gamma_0 and the same loop count: the sequence is an invariant of the complex,
and the loop count is too wherever the closed components split.
"""

from __future__ import annotations

import itertools
import random

import pytest

from cfkzero.algebra import Mode
from cfkzero.complexes import ChainComplex, InvalidComplexError, _MonoMatrix
from cfkzero.knots import Sum, eval_expr, parse_expr, sum_gamma0
from cfkzero.standard import SimplifyError, extract_gamma0_with_loops, seq_to_complex

# -- the previous search, verbatim --------------------------------------------

SIMPLIFY_PASS_CAP = 10_000


def simplify_basis(cx: ChainComplex, pass_cap: int = SIMPLIFY_PASS_CAP) -> ChainComplex:
    """Filtered change of basis until every generator meets at most one
    incoming and one outgoing arrow of each type.

    Conflicts are resolved by merging toward the shorter arrow: two arrows
    U^{k1}, U^{k2} out of one generator (k1 <= k2) are combined by replacing
    the shorter target y1 with y1 + U^{k2-k1} y2, deleting the longer arrow;
    incoming conflicts and vertical arrows mirror this.  Equal-power merges
    work in both directions and can shuffle the other arrow type, so the
    scheduler greedily picks the candidate creating the fewest new entries
    and restarts with a reseeded preference order if the state ever repeats.

    The cap bounds total merges.  A complex whose closed components carry a
    nontrivial local system (an indecomposable band of multiplicity two or
    more) has no basis of the target shape at all, and such inputs fail
    loudly; knot complexes built here never produce them.
    """
    if cx.mode is not Mode.UVZERO:
        raise InvalidComplexError("simplify_basis expects a UV = 0 complex")
    base = _MonoMatrix.from_complex(cx)
    for (tgt, src), (a, b) in base.items():
        if a == 0 and b == 0:
            raise InvalidComplexError("simplify_basis expects a reduced complex")
    budget = [pass_cap]
    mat = _simplify_matrix(base, budget)
    out = ChainComplex(cx.gens, mat.to_diff(cx.mode), cx.mode)
    return out.require_valid()


_SIMPLIFY_ATTEMPTS = 16

Move = tuple[str, str, int, bool]  # kept, absorbed, delta, horizontal


def _simplify_matrix(mat: _MonoMatrix, budget: list[int]) -> _MonoMatrix:
    """Search for a conflict-free basis, one connected component at a time.

    Merges never join arrow-graph components, so each component is searched
    in isolation; whenever cancellations split a component further, the
    search recurses on the pieces.  Within one component the walk never
    revisits a state, and on a dead end it restarts with a reshuffled
    preference order.
    """
    if not mat.conflicted:
        return mat
    parts = _components(mat)
    if len(parts) > 1:
        out = _MonoMatrix(mat.mode)
        for part in sorted(parts, key=lambda p: (len(p), min(p))):
            sub = _simplify_matrix(_restrict(mat, part), budget)
            for (tgt, src), (a, b) in sub.items():
                out.add(tgt, src, a, b)
        return out
    for attempt in range(_SIMPLIFY_ATTEMPTS):
        work = mat.copy()
        rng = random.Random(attempt) if attempt else None
        seen = {work.zhash}
        shrunk = 0
        low_water = work.count
        while budget[0] > 0:
            if not work.conflicted:
                return work
            if work.count < low_water:
                shrunk += low_water - work.count
                low_water = work.count
                # cancellations are what disconnect pieces; checking after a
                # batch of them keeps the component scan off the hot path
                if shrunk >= 16:
                    shrunk = 0
                    if len(_components(work)) > 1:
                        return _simplify_matrix(work, budget)
            if not _step(work, seen, rng, budget):
                break
        if budget[0] <= 0:
            break
    raise SimplifyError(
        "no simplified basis within the merge cap; the input is not knot-like "
        "or a closed component carries a nontrivial local system"
    )


def _step(work: _MonoMatrix, seen: set[int], rng: random.Random | None, budget: list[int]) -> bool:
    """Apply one merge leading to an unseen state; False on a dead end.

    Entry-reducing candidates are taken as soon as they are found; the rest
    are retried in order of the net entries they would create.
    """

    def attempt(move: Move) -> bool:
        # a char-2 basis change is an involution, so a rejected candidate is
        # undone by applying it again
        _basis_change(work, *move)
        budget[0] -= 1
        if work.zhash not in seen:
            seen.add(work.zhash)
            return True
        _basis_change(work, *move)
        return False

    gens = sorted(work.conflicted)
    if rng is not None:
        rng.shuffle(gens)
    deferred: list[tuple[int, int, Move]] = []
    considered: set[Move] = set()
    for gen in gens:
        moves = _moves_at(work, gen)
        if rng is not None:
            rng.shuffle(moves)
        for move in moves:
            if move in considered:
                continue
            considered.add(move)
            score = _move_score(work, move)
            if score <= -1:
                if budget[0] <= 0:
                    return False
                if attempt(move):
                    return True
            else:
                deferred.append((score, len(deferred), move))
    deferred.sort()
    for _, _, move in deferred:
        if budget[0] <= 0:
            return False
        if attempt(move):
            return True
    return False


def _components(mat: _MonoMatrix) -> list[set[str]]:
    """Connected components of the arrow graph (isolated generators omitted)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for (tgt, src), _ in mat.items():
        parent.setdefault(tgt, tgt)
        parent.setdefault(src, src)
        parent[find(tgt)] = find(src)
    parts: dict[str, set[str]] = {}
    for g in parent:
        parts.setdefault(find(g), set()).add(g)
    return list(parts.values())


def _restrict(mat: _MonoMatrix, gens: set[str]) -> _MonoMatrix:
    sub = _MonoMatrix(mat.mode)
    for (tgt, src), (a, b) in mat.items():
        if tgt in gens:
            sub.add(tgt, src, a, b)
    return sub


def _is_type(mono: tuple[int, int], horizontal: bool) -> bool:
    a, b = mono
    return a > 0 if horizontal else b > 0


def _power(mono: tuple[int, int]) -> int:
    return mono[0] or mono[1]


def _moves_at(mat: _MonoMatrix, gen: str) -> list[Move]:
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


def _conflict_moves(mat: _MonoMatrix) -> list[Move]:
    """All candidate merges, for every conflicted generator."""
    moves: list[Move] = []
    for gen in sorted(mat.conflicted):
        moves.extend(_moves_at(mat, gen))
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


def _basis_change(mat: _MonoMatrix, kept: str, absorbed: str, delta: int, horizontal: bool) -> None:
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


# -- the comparison -------------------------------------------------------------


def oracle_sum_gamma0(s1, s2):
    product = seq_to_complex(s1, prefix="l").tensor(seq_to_complex(s2, prefix="r"))
    return extract_gamma0_with_loops(simplify_basis(product.reduce()))


def oracle_eval(expr):
    """(gamma_0, loop count) of an expression, with every sum simplified by
    the oracle search; everything else is the library's evaluation."""
    if isinstance(expr, Sum):
        s1, loops1 = oracle_eval(expr.left)
        s2, loops2 = oracle_eval(expr.right)
        seq, loops = oracle_sum_gamma0(s1, s2)
        return seq, loops1 + loops2 + loops
    result = eval_expr(expr)
    return result.sequence, result.loop_count


def random_seq(rng, max_half, max_mag):
    half = []
    for i in range(rng.randint(1, max_half)):
        e = rng.randint(1, max_mag)
        half.append(e if i % 2 == 0 else rng.choice((-1, 1)) * e)
    seq = half + [-e for e in reversed(half)]
    walk = sum(-e if i % 2 == 0 else e for i, e in enumerate(seq))
    return tuple(seq) if walk % 2 == 0 else None


def test_worklist_search_matches_the_oracle_on_random_sums():
    rng = random.Random(606)
    pairs = 0
    while pairs < 40:
        s1, s2 = random_seq(rng, 5, 4), random_seq(rng, 5, 4)
        if s1 is None or s2 is None or (len(s1) + 1) * (len(s2) + 1) > 150:
            continue
        assert sum_gamma0(s1, s2) == oracle_sum_gamma0(s1, s2), (s1, s2)
        pairs += 1


# 11 < 4g(T(3,4)) = 12 < 13 straddles the regime boundary, so gamma_0 is
# nontrivial, and each grouping sheds a different number of loops
@pytest.mark.parametrize("text", [
    "C2(13;T(3,4)) # -C2(11;T(3,4)) # T(2,11) # -T(2,13)",
    "(C2(13;T(3,4)) # -C2(11;T(3,4))) # (T(2,11) # -T(2,13))",
    "C2(13;T(3,4)) # (-C2(11;T(3,4)) # (T(2,11) # -T(2,13)))",
    "C2(-1;T(2,3)) # -C2(-9;T(2,3))",
])
def test_worklist_search_matches_the_oracle_on_each_grouping(text):
    expr = parse_expr(text)
    result = eval_expr(expr)
    assert (result.sequence, result.loop_count) == oracle_eval(expr)
