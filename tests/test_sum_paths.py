"""The integer sum path against the ChainComplex one.

`knots.sum_gamma0` builds the tensor product of two standard complexes
straight from the sequences on integer ids, with each square of unequal
powers already resolved.  That product must be the one seq_to_complex ->
tensor builds after the merge toward the shorter arrow in each such
square, arrow for arrow and grading for grading, and the integer path's
own check of the simplified product must stay live.  The search and
extraction that follow are checked against the recorded table in
test_simplify_oracle.
"""

import random

import pytest

import cfkzero.knots as knots
from cfkzero.cli import _criterion3_hosts
from cfkzero.complexes import ChainComplex, Endomorphism, InvalidComplexError, _MonoMatrix
from cfkzero.knots import eval_expr, parse_expr, sum_gamma0
from cfkzero.standard import _basis_change, _product, _require_valid, seq_to_complex, validate_seq


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
            _require_valid(mat, gr_u, gr_v)  # a complex before any search


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
