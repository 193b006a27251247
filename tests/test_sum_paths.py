"""The integer sum path against the ChainComplex one.

`knots.sum_gamma0` builds the tensor product of two standard complexes
straight from the sequences on integer ids, with each square of unequal
powers already resolved.  That product must be the one seq_to_complex ->
tensor builds after the merge toward the shorter arrow in each such
square, arrow for arrow and grading for grading, and the integer path's
own check of the simplified product must stay live: the extraction makes
it in its one read of the columns, and must report what the full check
followed by the extraction reported when they were two passes.  The search
and extraction that follow are checked against the recorded table in
test_simplify_oracle.
"""

import random

import pytest

import cfkzero.knots as knots
import cfkzero.standard as standard
from cfkzero.algebra import Mode
from cfkzero.cli import _criterion3_hosts, _random_symmetric_seq
from cfkzero.complexes import (
    ChainComplex,
    Endomorphism,
    InvalidComplexError,
    KnotlikeError,
    _MonoMatrix,
    _violation,
)
from cfkzero.knots import eval_expr, parse_expr, sum_gamma0
from cfkzero.standard import (
    SequenceError,
    _basis_change,
    _checked,
    _gamma0,
    _overloaded,
    _product,
    _require_valid,
    _simplify,
    _walk,
    seq_to_complex,
    validate_seq,
)


def unequal_squares(left, right):
    """The merge toward the shorter arrow in each square X^a (x) X^b of
    left (x) right with a != b, as (kept, absorbed, |a - b|, horizontal):
    of the two arrows out of the square's top corner, the target of the
    shorter one absorbs the target of the longer one."""
    width = len(right)
    for (t1, s1), (a1, b1) in left.diff.items():
        for (t2, s2), (a2, b2) in right.diff.items():
            k1, k2 = a1 + b1, a2 + b2
            if (a1 > 0) != (a2 > 0) or k1 == k2:
                continue
            first, second = t1 * width + s2, s1 * width + t2
            kept, absorbed = (first, second) if k1 < k2 else (second, first)
            yield kept, absorbed, abs(k1 - k2), a1 > 0


def assert_same_product(s1, s2):
    """_product(s1, s2) is ChainComplex.tensor on the two standard
    complexes, generator for generator, after the merge toward the shorter
    arrow in each square of unequal powers; the gradings are equal, and the
    plain count is the tensor's arrow count."""
    mat, gr_u, gr_v, plain = _product(s1, s2)
    left, right = seq_to_complex(s1), seq_to_complex(s2)
    cx = left.tensor(right)
    want = _MonoMatrix(len(cx))
    for (t, s), (a, b) in cx.diff.items():
        want.add(t, s, a, b)
    assert plain == want.count
    for move in unequal_squares(left, right):
        _basis_change(want, *move)
    assert dict(mat.items()) == dict(want.items())
    assert (gr_u, gr_v) == (cx.gr_u, cx.gr_v)


def criterion3_pairs():
    for host in _criterion3_hosts():
        for q in (3, 5, 7):
            torus = (1, -1) * ((q - 1) // 2)
            yield host, torus
            yield host, tuple(-e for e in torus)


def random_pairs(count, seed=2606):
    rng = random.Random(seed)

    def seq():
        half = [rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        return validate_seq(half + [-e for e in reversed(half)])

    return [(seq(), seq()) for _ in range(count)]


TOP_RUNGS = [
    ("C2(33;T(4,5))", "-C2(31;T(4,5))"),
    ("T(7,22)", "-T(6,25)"),
]


def test_both_paths_agree_on_the_criterion3_pairs():
    for s1, s2 in criterion3_pairs():
        assert_same_product(s1, s2)


def test_both_paths_agree_on_random_pairs():
    for s1, s2 in random_pairs(60):
        assert_same_product(s1, s2)
        assert_same_product(s2, s1)


@pytest.mark.parametrize("left,right", TOP_RUNGS)
def test_both_paths_agree_on_the_bench_top_rungs(left, right):
    assert_same_product(eval_expr(parse_expr(left)).sequence, eval_expr(parse_expr(right)).sequence)


def test_the_product_drops_two_arrows_per_unequal_square():
    # steps of one type pair up into squares; unequal powers leave two arrows
    for s1, s2 in random_pairs(60):
        for left, right in ((s1, s2), (s2, s1)):
            mat, gr_u, gr_v, plain = _product(left, right)
            unequal = sum(
                1
                for i, e1 in enumerate(left)
                for j, e2 in enumerate(right)
                if i % 2 == j % 2 and abs(e1) != abs(e2)
            )
            assert plain == len(left) * (len(right) + 1) + len(right) * (len(left) + 1)
            assert mat.count == plain - 2 * unequal, (left, right)
            _require_valid(mat.cols, gr_u, gr_v)  # a complex before any search


def test_the_integer_path_builds_no_complex(monkeypatch):
    s1, s2 = eval_expr(parse_expr("C2(3;T(2,3))")).sequence, eval_expr(parse_expr("-T(3,4)")).sequence
    want = sum_gamma0(s1, s2)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the sum path")

    for cls in (ChainComplex, Endomorphism):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert sum_gamma0(s1, s2) == want


def corrupt_after_search(monkeypatch, damage):
    """Make sum_gamma0's search hand back a matrix that `damage` altered."""
    search = knots._simplify

    def damaged(mat, arrows):
        search(mat, arrows)
        damage(mat)

    monkeypatch.setattr(knots, "_simplify", damaged)


def test_the_integer_check_reports_a_wrong_arrow_power(monkeypatch):
    def bump(mat):
        (tgt, src), (a, b) = next(iter(mat.items()))
        mat.add(tgt, src, a, b)  # adding an equal monomial removes it
        mat.add(tgt, src, a + (a > 0), b + (b > 0))

    corrupt_after_search(monkeypatch, bump)
    with pytest.raises(InvalidComplexError, match="^grading: "):
        sum_gamma0((1, -1), (1, -1))


def test_the_integer_check_reports_a_nonzero_square(monkeypatch):
    _, gr_u, gr_v, _ = _product((1, -1), (1, -1))
    added = []

    def add_a_square(mat):
        # a new U arrow into the source x of a U arrow x -> y keeps the
        # gradings and makes d^2 hit y with a pure U power, which UV = 0 keeps
        for (_, x), (a, _) in list(mat.items()):
            if a == 0:
                continue
            for new in range(len(gr_u)):
                twice = gr_u[x] - gr_u[new] + 1
                if gr_v[x] == gr_v[new] - 1 and twice > 0 and twice % 2 == 0:
                    if mat.rows[x].get(new) is None:
                        mat.add(x, new, twice // 2, 0)
                        added.append((new, x))
                        return

    corrupt_after_search(monkeypatch, add_a_square)
    with pytest.raises(InvalidComplexError, match="^dsquared: "):
        sum_gamma0((1, -1), (1, -1))
    assert added


# -- the check made inside the extraction ------------------------------------


def two_pass_gamma0(cols, gr_u, gr_v):
    """The reference: the full complex check, complexes._violation, then
    the extraction as it read the columns before it made the check."""
    violation = _violation(cols, gr_u, gr_v, Mode.UVZERO)
    if violation is not None:
        raise InvalidComplexError(str(violation))
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
    paths = []
    loops = 0
    for g in range(size):
        if seen[g]:
            continue
        horizontal = h_other[g] >= 0
        ids, entries, closed = _walk(g, horizontal, h_other, v_other, h_step, v_step)
        if closed:
            loops += 1
        else:
            rest, rest_entries, _ = _walk(g, not horizontal, h_other, v_other, h_step, v_step)
            ids.reverse()
            ids += rest[1:]
            entries = [-e for e in reversed(entries)] + rest_entries
            paths.append((ids, entries))
        for i in ids:
            seen[i] = 1
    if len(paths) != 1:
        raise KnotlikeError(f"expected one open path, found {len(paths)}")
    ids, entries = paths[0]
    starts = [e for e in {ids[0], ids[-1]} if v_other[e] < 0]
    if not starts:
        raise KnotlikeError("open path has no endpoint free of vertical arrows")
    if min(starts) != ids[0]:
        entries = [-e for e in reversed(entries)]
    try:
        return _checked(tuple(entries)), loops
    except SequenceError as exc:
        raise KnotlikeError(f"extracted walk is not a knot sequence: {exc}") from exc


def outcome(extract, cols, gr_u, gr_v):
    """What an extraction returns, or the class and message it raises."""
    try:
        return extract(cols, gr_u, gr_v)
    except ValueError as exc:  # every error of the check and the extraction
        return type(exc), str(exc)


def bump_a_power(cols, gr_u, gr_v, rng):
    # one arrow's power raised by one breaks its grading
    arrows = [(src, tgt) for src, col in enumerate(cols) for tgt in col]
    if not arrows:
        return None
    src, tgt = rng.choice(arrows)
    a, b = cols[src][tgt]
    cols[src][tgt] = (a + (a > 0), b + (b > 0))
    return cols, gr_u, gr_v


def add_a_square(cols, gr_u, gr_v, rng):
    # a new U arrow into the source x of a U arrow x -> y keeps the
    # gradings and makes d^2 hit y with a pure U power, which UV = 0 keeps
    xs = [x for x, col in enumerate(cols) if any(a for a, _ in col.values())]
    rng.shuffle(xs)
    for x in xs:
        for new in range(len(gr_u)):
            twice = gr_u[x] - gr_u[new] + 1
            if gr_v[x] == gr_v[new] - 1 and twice > 0 and twice % 2 == 0 and x not in cols[new]:
                cols[new][x] = (twice // 2, 0)
                return cols, gr_u, gr_v
    return None


def add_a_unit_arrow(cols, gr_u, gr_v, rng):
    # a new generator w joined to an old one g by a unit arrow, either way:
    # graded right, it composes with g's other arrows into pure powers
    g = rng.randrange(len(gr_u))
    shift = rng.choice((-1, 1))
    cols = cols + [{}]
    w = len(gr_u)
    gr_u, gr_v = gr_u + [gr_u[g] + shift], gr_v + [gr_v[g] + shift]
    if shift < 0:
        cols[g][w] = (0, 0)
    else:
        cols[w][g] = (0, 0)
    return cols, gr_u, gr_v


def add_a_cancelling_diamond(cols, gr_u, gr_v, rng):
    # four new generators x, m1, m2, y with U arrows x -> m1 -> y and
    # x -> m2 -> y: m1 and m2 each meet an H arrow in and an H arrow out,
    # and the two d^2 terms x -> y cancel, so the full check passes
    x = len(gr_u)
    gu, gv = rng.choice(list(zip(gr_u, gr_v)))
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    cols = cols + [{x + 1: (a, 0), x + 2: (a, 0)}, {x + 3: (b, 0)}, {x + 3: (b, 0)}, {}]
    gr_u = gr_u + [gu, gu - 1 + 2 * a, gu - 1 + 2 * a, gu - 2 + 2 * a + 2 * b]
    gr_v = gr_v + [gv, gv - 1, gv - 1, gv - 2]
    return cols, gr_u, gr_v


DAMAGES = [bump_a_power, add_a_square, add_a_unit_arrow, add_a_cancelling_diamond]


def seeded_products():
    """220 simplified products of seeded random pairs, each with its
    columns and gradings copied as they are and after each damage, keyed by
    the damage (None for the undamaged copy), where the damage applies."""
    rng = random.Random(3232)
    for _ in range(220):
        s1, s2 = _random_symmetric_seq(rng, 4, 3), _random_symmetric_seq(rng, 4, 3)
        mat, gr_u, gr_v, plain = _product(s1, s2)
        _simplify(mat, plain)
        copies = {}
        for damage in (None, *DAMAGES):
            damaged = [dict(col) for col in mat.cols], list(gr_u), list(gr_v)
            if damage is not None:
                damaged = damage(*damaged, rng)
                if damaged is None:
                    continue
            copies[damage] = damaged
        yield s1, s2, mat, gr_u, gr_v, copies


def test_the_one_pass_check_reports_what_the_check_and_extraction_reported():
    # 220 simplified products, as they are and after each damage: the same
    # sequence and loop count, or the same error class and message
    seen = {}
    for s1, s2, mat, gr_u, gr_v, copies in seeded_products():
        got = outcome(_gamma0, mat.cols, gr_u, gr_v)
        assert got == outcome(two_pass_gamma0, mat.cols, gr_u, gr_v), (s1, s2)
        assert got == sum_gamma0(s1, s2)
        for damage, damaged in copies.items():
            got = outcome(_gamma0, *damaged)
            assert got == outcome(two_pass_gamma0, *damaged), (s1, s2, damage)
            kind = got[0].__name__ if isinstance(got[0], type) else "sequence"
            name = damage.__name__ if damage else "none"
            seen[name, kind] = seen.get((name, kind), 0) + 1
    assert seen["none", "sequence"] == 220
    assert seen["bump_a_power", "InvalidComplexError"] > 200
    assert seen["add_a_square", "InvalidComplexError"] > 150
    assert seen["add_a_cancelling_diamond", "SimplifyError"] == 220
    # a unit arrow fails d^2 = 0, overloads a generator or lands on the path
    for kind in ("InvalidComplexError", "SimplifyError", "KnotlikeError"):
        assert seen["add_a_unit_arrow", kind] > 10, kind


def test_the_extraction_walks_each_component_once(monkeypatch):
    # one open path and the loops: a walk each, the path's from its end
    walks = []
    walk = standard._walk

    def counted(start, *rest):
        walks.append(start)
        return walk(start, *rest)

    monkeypatch.setattr(standard, "_walk", counted)
    for s1, s2, mat, gr_u, gr_v, _ in seeded_products():
        walks.clear()
        _, loops = _gamma0(mat.cols, gr_u, gr_v)
        assert len(walks) == len(set(walks)) == loops + 1, (s1, s2)
