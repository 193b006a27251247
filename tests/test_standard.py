"""Parameter sequences: the walk invariants, standard complexes, basis
simplification, and gamma_0 extraction."""

import itertools
import random

import pytest

import cfkzero.knots as knots
import cfkzero.standard as standard
from cfkzero.algebra import Mode
from cfkzero.cli import _random_symmetric_seq, format_seq, invariant_report
from cfkzero.complexes import ChainComplex, KnotlikeError, _MonoMatrix
from cfkzero.knots import eval_expr, parse_expr, sum_gamma0
from cfkzero.standard import (
    SequenceError,
    SimplifyError,
    _components,
    _gamma0,
    _product,
    _require_valid,
    _simplify,
    _standard,
    epsilon,
    extract_gamma0,
    mirror_seq,
    seq_to_complex,
    staircase_shaped,
    tau,
    top_alexander,
    validate_seq,
    walk_values,
)

CABLE_SEQ = (1, -2, -1, 1, -1, 1, 2, -1)


def test_sequence_validation():
    assert validate_seq([1, -1]) == (1, -1)
    assert validate_seq(()) == ()
    with pytest.raises(SequenceError):
        validate_seq([1, 0, 0, -1])
    with pytest.raises(SequenceError):
        validate_seq([1, -1, 1])
    with pytest.raises(SequenceError):
        validate_seq([1, -2])


# -- the sequence primitives against their earlier per-entry forms -------------


def reference_validate_seq(entries):
    seq = tuple(map(int, entries))
    if 0 in seq:
        raise SequenceError(f"zero entry in sequence {list(seq)}")
    if len(seq) % 2 != 0:
        raise SequenceError(f"sequence length must be even, got {list(seq)}")
    if tuple(-e for e in reversed(seq)) != seq:
        raise SequenceError(f"sequence {list(seq)} is not reverse-negate symmetric")
    return seq


def reference_walk_values(seq):
    deltas = [-e if i % 2 == 0 else e for i, e in enumerate(seq)]
    start = -sum(deltas) // 2
    values = [start]
    for d in deltas:
        values.append(values[-1] + d)
    return values


def reference_staircase_shaped(seq):
    return all((e > 0) == (i % 2 == 0) for i, e in enumerate(seq))


def reference_format_seq(seq):
    return "[" + ",".join(str(e) for e in seq) + "]"


def outcome(fn, arg):
    try:
        return "ok", fn(arg)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def random_sequences(rng, count):
    """Symmetric sequences, staircases among them, and the same broken by a
    zero entry, an odd length or a changed entry, plus unstructured lists."""
    out = []
    for _ in range(count):
        if rng.random() < 0.3:
            half = [(1 if i % 2 == 0 else -1) * rng.randint(1, 4) for i in range(rng.randint(0, 6))]
        else:
            half = [rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(rng.randint(0, 6))]
        seq = half + [-e for e in reversed(half)]
        kind = rng.choice(["valid", "zero", "odd", "broken", "raw"])
        if kind == "zero":
            seq.insert(rng.randint(0, len(seq)), 0)
            seq.insert(rng.randint(0, len(seq)), 0)
        elif kind == "odd":
            seq.insert(rng.randint(0, len(seq)), rng.choice([1, -1]) * rng.randint(1, 5))
        elif kind == "broken" and seq:
            seq[rng.randrange(len(seq))] += rng.choice([-2, -1, 1, 2])
        elif kind == "raw":
            seq = [rng.randint(-4, 4) for _ in range(rng.randint(0, 9))]
        out.append(seq)
    return out


def test_sequence_primitives_match_their_per_entry_references():
    rng = random.Random(1307)
    seqs = random_sequences(rng, 3000)
    kinds = set()
    for seq in seqs:
        for container in (list, tuple):
            arg = container(seq)
            got = outcome(validate_seq, arg)
            assert got == outcome(reference_validate_seq, arg), seq
            kinds.add("ok" if got[0] == "ok" else
                      next(k for k in ("zero", "even", "symmetric") if k in got[1]))
            for new, old in ((walk_values, reference_walk_values),
                             (staircase_shaped, reference_staircase_shaped),
                             (format_seq, reference_format_seq)):
                assert outcome(new, arg) == outcome(old, arg), (new.__name__, seq)
        assert outcome(validate_seq, iter(seq)) == outcome(reference_validate_seq, iter(seq))
    # every outcome of validation occurs: valid, zero, odd length, asymmetric
    assert kinds == {"ok", "zero", "even", "symmetric"}
    assert sum(staircase_shaped(s) for s in map(tuple, seqs)) > 100


def test_format_seq_prints_what_joining_the_entries_prints():
    rng = random.Random(3001)
    seqs = [(), (1, -1), (10**6 + 1, -(10**6 + 1)), (-(10**18), 7, -7, 10**18)]
    seqs += [tuple(rng.choice([1, -1]) * rng.randint(1, 10**rng.randint(1, 12))
                   for _ in range(rng.randint(0, 40))) for _ in range(300)]
    for seq in seqs:
        for container in (tuple, list):
            assert format_seq(container(seq)) == "[" + ",".join(map(str, seq)) + "]"


def random_iterated_cable(rng):
    """A (2,q)-cable of depth 1 to 3 over a small torus knot: inner levels in
    the L-space range q >= 4g - 1, the outer one any odd q around 4g."""
    expr = rng.choice([knots.Torus(2, 3), knots.Torus(2, 5), knots.Torus(3, 4), knots.Torus(3, 5)])
    depth = rng.randint(1, 3)
    for level in range(depth):
        g = knots.genus_of(expr)
        low = 4 * g - 1 if level < depth - 1 else -(4 * g + 5)
        expr = knots.Cable2(rng.randrange(low, 4 * g + 10, 2), expr)
    return expr


def test_the_report_reads_tau_and_top_a_off_the_walk():
    rng = random.Random(3002)
    depths = set()
    for _ in range(150):
        expr = random_iterated_cable(rng)
        text = str(expr)
        depths.add(text.count("C2"))
        report = invariant_report(text)
        walk = walk_values(report["gamma0"])
        assert (report["tau"], report["topA"]) == (walk[0], max(walk)), text
    assert depths == {1, 2, 3}


def test_walk_and_tau_and_top():
    assert walk_values((1, -1)) == [1, 0, -1]
    assert tau((1, -1)) == 1
    assert tau((-1, 1)) == -1
    assert tau(CABLE_SEQ) == 1
    assert top_alexander(CABLE_SEQ) == 2
    assert top_alexander((1, -3, 2, -2, 3, -1)) == 6
    assert top_alexander(()) == 0
    # the grading ladder of the (4,5) torus staircase
    assert walk_values((1, -3, 2, -2, 3, -1)) == [6, 5, 2, 0, -2, -5, -6]


def test_epsilon():
    assert epsilon((1, -1)) == 1
    assert epsilon((-1, 1)) == -1
    assert epsilon(()) == 0


def test_sharpness():
    assert invariant_report("T(2,3)")["sharp"]
    assert invariant_report("C2(-1; T(2,3))")["sharp"]
    assert not invariant_report("T(2,3) # -T(2,3)")["sharp"]


def test_trefoil_standard_complex():
    cx = seq_to_complex((1, -1))
    assert len(cx) == 3
    assert list(zip(cx.gr_u, cx.gr_v)) == [(0, -2), (-1, -1), (-2, 0)]
    assert [cx.alexander(g) for g in range(3)] == [1, 0, -1]
    assert cx.diff == {(0, 1): (1, 0), (2, 1): (0, 1)}


def test_unknot_standard_complex():
    cx = seq_to_complex(())
    assert len(cx) == 1 and not cx.diff
    assert cx.alexander(0) == 0


def test_cable_standard_complex():
    cx = seq_to_complex(CABLE_SEQ)
    assert len(cx) == 9
    assert max(map(cx.alexander, range(len(cx)))) == 2
    assert cx.validate() is None


def test_non_staircase_has_no_full_ring_standard_complex():
    # without its diagonal arrows the cable complex is not a complex over
    # F2[U,V]; only the quotient version exists
    with pytest.raises(SequenceError):
        seq_to_complex(CABLE_SEQ, Mode.FULL)


def matrix(arrows):
    size = 1 + max(max(t, s) for t, s, _, _ in arrows)
    mat = _MonoMatrix(size)
    for arrow in arrows:
        mat.add(*arrow)
    return mat


def simplified_product(s1, s2):
    """The product of two standard complexes on integer ids, simplified and
    checked."""
    mat, gr_u, gr_v, plain = _product(s1, s2)
    _simplify(mat, plain)
    _require_valid(mat, gr_u, gr_v)
    return mat


def assert_bookkeeping_matches_entries(mat, size):
    rebuilt = _MonoMatrix.from_arrows(size, [(t, s, mono) for (t, s), mono in mat.items()])
    assert (mat.rows, mat.cols) == (rebuilt.rows, rebuilt.cols)
    assert (mat.zhash, mat.count) == (rebuilt.zhash, rebuilt.count)
    assert (mat.degrees, mat.conflicted) == (rebuilt.degrees, rebuilt.conflicted)


def test_the_kept_hash_counts_and_conflicts_match_the_entries():
    # the search trusts zhash, count, degrees and conflicted, which add()
    # updates one entry at a time; from_arrows rebuilds them from scratch
    rng = random.Random(1414)
    for _ in range(60):
        s1, s2 = _random_symmetric_seq(rng, 4, 3), _random_symmetric_seq(rng, 4, 3)
        mat, gr_u, _, plain = _product(s1, s2)
        assert_bookkeeping_matches_entries(mat, len(gr_u))
        _simplify(mat, plain)
        assert_bookkeeping_matches_entries(mat, len(gr_u))
        assert not mat.conflicted


def reference_scored_moves(work, gen):
    """The scorer in its generic form: every candidate shifts both endpoint
    maps and drops the mixed terms."""
    rows, cols = work.rows, work.cols
    h_in, v_in, h_out, v_out = work.degrees[gen]
    moves = []
    for horizontal, n_out, n_in in ((True, h_out, h_in), (False, v_out, v_in)):
        if n_out > 1:
            arrows = sorted((a or b, y) for y, (a, b) in cols[gen].items() if (a > 0) == horizontal)
            for (k1, y1), (k2, y2) in itertools.combinations(arrows, 2):
                if k1 == k2:
                    moves += ((y1, y2, 0, True), (y2, y1, 0, True))
                else:
                    moves.append((y1, y2, k2 - k1, horizontal))
        if n_in > 1:
            arrows = sorted((a or b, y) for y, (a, b) in rows[gen].items() if (a > 0) == horizontal)
            for (k1, y1), (k2, y2) in itertools.combinations(arrows, 2):
                if k1 == k2:
                    moves += ((y2, y1, 0, True), (y1, y2, 0, True))
                else:
                    moves.append((y2, y1, k2 - k1, horizontal))
    out = []
    for move in moves:
        kept, absorbed, delta, horizontal = move
        da, db = (delta, 0) if horizontal else (0, delta)
        net = 0
        for tgt, (a, b) in cols[absorbed].items():
            a += da
            b += db
            if a and b:
                continue  # dies in the quotient
            net += -1 if rows[tgt].get(kept) == (a, b) else 1
        for src, (a, b) in rows[kept].items():
            a += da
            b += db
            if a and b:
                continue
            net += -1 if cols[src].get(absorbed) == (a, b) else 1
        out.append((net, move))
    out.sort(key=lambda sm: sm[0])
    return out


def test_the_scorer_matches_its_generic_reference():
    # on fresh products and on products a search left partway, every
    # conflicted generator gets the same candidates, scores and order
    rng = random.Random(2323)
    deltas = {"zero": 0, "shifted": 0}
    for _ in range(60):
        s1, s2 = _random_symmetric_seq(rng, 8, 5), _random_symmetric_seq(rng, 8, 5)
        mat, _, _, _ = _product(s1, s2)
        for budget in (None, 10):
            if budget is not None:
                try:
                    standard._search(mat, budget)
                except SimplifyError:
                    pass
            for gen in sorted(mat.conflicted):
                got = standard._scored_moves(mat, gen)
                assert got == reference_scored_moves(mat, gen), (s1, s2, budget, gen)
                for _, move in got:
                    deltas["shifted" if move[2] else "zero"] += 1
    # few conflicts have unequal powers: _product resolves them in squares
    assert deltas["zero"] > 1000 and deltas["shifted"] > 40, deltas


def test_simplify_leaves_staircases_alone():
    _, _, arrows = _standard((1, -3, 2, -2, 3, -1))
    mat = matrix(arrows)
    _simplify(mat, mat.count)
    assert sorted(mat.items()) == sorted(((t, s), (a, b)) for t, s, a, b in arrows)


def test_trefoil_sum_splits_into_path_and_box():
    mat = simplified_product((1, -1), (1, -1))
    _, paths, loops = _components(mat.cols)
    assert len(paths) == 1 and loops == 1
    ids, _ = paths[0]
    assert len(ids) == 5
    assert _gamma0(mat.cols) == ((1, -1, 1, -1), 1)


def test_simplify_reaches_a_fixpoint_on_a_mixed_tensor():
    mat = simplified_product((1, -1, 1, -1), (1, -1, -1, 1, 1, -1))
    assert not mat.conflicted
    _gamma0(mat.cols)  # raises if any generator is overloaded


def test_simplify_keeps_a_jordan_block_local_system_as_one_loop():
    # two boxes p -> q (U), p -> r (V), q -> s (V), r -> s (U), joined by an
    # extra arrow r2 -> s1 (U): a closed component whose local system is a
    # 2x2 Jordan block, so no basis splits it into two 4-generator boxes.
    # Box i holds p, q, r, s as the generators 4i ... 4i + 3.
    arrows = []
    for p in (0, 4):
        q, r, s = p + 1, p + 2, p + 3
        arrows += [(q, p, 1, 0), (r, p, 0, 1), (s, q, 0, 1), (s, r, 1, 0)]
    arrows.append((3, 6, 1, 0))
    mat = matrix(arrows)
    gr_u, gr_v = [0, 1, -1, 0] * 2, [0, -1, 1, 0] * 2
    _require_valid(mat, gr_u, gr_v)
    _simplify(mat, mat.count)
    assert mat.count == 8
    _, paths, loops = _components(mat.cols)
    assert (paths, loops) == ([], 1)


def test_the_merge_cap_holds_inside_a_fallback_step(monkeypatch):
    # C2(3;T(2,3)) # -C2(1;T(2,3)): the search accepts 7 entry-reducing
    # merges, then the first candidate of its first fallback step.  Its
    # fourth fallback step rejects its first candidate (try 12) and accepts
    # the next; it tries 21 merges in 8 fallback steps in all
    s1, s2 = (1, -2, 2, -1), (-1, 2, 1, -1, -2, 1)
    made = []
    change = standard._basis_change

    def counted(mat, *move):
        made.append(move)
        change(mat, *move)

    monkeypatch.setattr(standard, "_basis_change", counted)

    def cap_at(cap):
        monkeypatch.setattr(knots, "_simplify", lambda mat, arrows: standard._search(mat, cap))

    # the cap runs out just before, then just after, the first fallback
    # candidate, and then right after the rejected try inside a fallback
    # step: a rejected try makes two basis changes, the second undoing it
    for cap, changes in ((7, 7), (8, 8), (12, 13)):
        made.clear()
        cap_at(cap)
        with pytest.raises(SimplifyError, match="merge cap"):
            sum_gamma0(s1, s2)
        assert len(made) == changes
    cap_at(20)
    with pytest.raises(SimplifyError, match="merge cap"):
        sum_gamma0(s1, s2)
    cap_at(21)
    assert sum_gamma0(s1, s2) == ((1, -1), 8)


def test_a_dead_end_with_nothing_to_try_raises():
    # bookkeeping that marks a generator conflicted without giving it a
    # candidate merge leaves the queue and the pool empty: the search must
    # stop, not go round without spending its budget
    work = _MonoMatrix.from_arrows(3, [(0, 1, (1, 0)), (2, 1, (0, 1))])
    work.conflicted.add(1)
    with pytest.raises(SimplifyError, match="dead end"):
        standard._search(work, 64)


@pytest.mark.parametrize("text,budget", [
    ("T(2,3) # T(2,3)", 192),  # 16 x 12
    ("-C2(99;T(7,8)) # C2(101;T(7,8))", 316_768),  # 16 x 19,798, not 16 x 17,590
])
def test_the_merge_cap_is_set_on_the_plain_product(monkeypatch, text, budget):
    # the search starts on fewer arrows than the plain product has, and the
    # cap counts the plain product's
    left, right = (eval_expr(parse_expr(part)).sequence for part in text.split(" # "))
    budgets = []

    def record(work, cap):
        budgets.append(cap)
        raise SimplifyError("recorded")

    monkeypatch.setattr(standard, "_search", record)
    with pytest.raises(SimplifyError, match="recorded"):
        sum_gamma0(left, right)
    assert budgets == [budget]


def assert_quotient_is_product(cx, s1, s2):
    """Over UV = 0 a full-ring complex is the integer product of s1 and s2,
    generator for generator."""
    quotient = cx.quotient_uv()
    mat, gr_u, gr_v, _ = _product(s1, s2)
    assert dict(mat.items()) == quotient.diff
    assert (gr_u, gr_v) == (quotient.gr_u, quotient.gr_v)


def test_full_ring_pipeline_through_the_quotient():
    # tensor over F2[U,V], then quotient: the integer sum path's product
    left = seq_to_complex((1, -1), Mode.FULL)
    product = left.tensor(seq_to_complex((1, -1), Mode.FULL))
    assert_quotient_is_product(product, (1, -1), (1, -1))
    assert sum_gamma0((1, -1), (1, -1)) == ((1, -1, 1, -1), 1)


def test_trefoil_against_its_mirror_has_trivial_gamma0():
    left = seq_to_complex((1, -1), Mode.FULL)
    right = seq_to_complex((1, -1), Mode.FULL).dual()
    product = left.tensor(right)
    assert len(product) == 9
    assert_quotient_is_product(product, (1, -1), mirror_seq((1, -1)))
    assert sum_gamma0((1, -1), (-1, 1)) == ((), 2)


def test_extract_gamma0_of_staircase():
    assert extract_gamma0(seq_to_complex((1, -1))) == (1, -1)
    assert extract_gamma0(seq_to_complex((1, -1)).dual()) == (-1, 1)
    assert extract_gamma0(seq_to_complex(())) == ()


def test_extract_rejects_loop_only_complexes():
    # p, q, r, s at 0, 1, 2, 3
    diff = {(1, 0): (1, 0), (2, 0): (0, 1), (3, 1): (0, 1), (3, 2): (1, 0)}
    box = ChainComplex([0, 1, -1, 0], [0, -1, 1, 0], diff, Mode.UVZERO)
    assert box.validate() is None
    with pytest.raises(KnotlikeError):
        extract_gamma0(box)


def test_extract_refuses_a_generator_with_two_arrows_of_one_type():
    product = seq_to_complex((1, -1)).tensor(seq_to_complex((1, -1)))
    with pytest.raises(SimplifyError, match=r"^generator \d+ meets two H arrows; not simplified$"):
        extract_gamma0(product)


def test_extract_refuses_two_open_paths():
    # two trefoil staircases, on 0, 1, 2 and on 3, 4, 5
    diff = {(0, 1): (1, 0), (2, 1): (0, 1), (3, 4): (1, 0), (5, 4): (0, 1)}
    pair = ChainComplex([0, -1, -2] * 2, [-2, -1, 0] * 2, diff, Mode.UVZERO)
    assert pair.validate() is None
    with pytest.raises(KnotlikeError, match=r"^expected one open path, found 2$"):
        extract_gamma0(pair)


def test_extract_refuses_a_path_whose_ends_both_meet_vertical_arrows():
    # one arrow 0 -> 1 of V^1: both ends of the path meet it
    vertical = ChainComplex([0, -1], [0, 1], {(1, 0): (0, 1)}, Mode.UVZERO)
    assert vertical.validate() is None
    with pytest.raises(KnotlikeError, match=r"^open path has no endpoint free of vertical arrows$"):
        extract_gamma0(vertical)


def test_mirror_seq():
    assert mirror_seq((1, -1)) == (-1, 1)
    assert mirror_seq(CABLE_SEQ) == tuple(-e for e in CABLE_SEQ)


def test_tau_matches_vertical_homology():
    for seq in [(1, -1), (-1, 1), CABLE_SEQ, (1, -3, 2, -2, 3, -1), ()]:
        free_a, _ = seq_to_complex(seq).vertical_homology()
        assert tau(seq) == -free_a
    # on a sum, the one check of tau that shares no code with the search
    rng = random.Random(2606)
    halves = [[rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
              for _ in range(120)]
    seqs = [validate_seq(half + [-e for e in reversed(half)]) for half in halves]
    for s1, s2 in zip(seqs[::2], seqs[1::2]):
        free_a, _ = seq_to_complex(s1).tensor(seq_to_complex(s2)).vertical_homology()
        assert free_a == -(tau(s1) + tau(s2)) == -tau(sum_gamma0(s1, s2)[0]), (s1, s2)
