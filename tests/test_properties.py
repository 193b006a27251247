"""Randomized property suites with fixed seeds.

Sequences are sampled symmetric by construction; expressions are sampled
from the supported grammar and rejected when a cable lands outside the
staircase hypothesis, the same policy evaluation itself applies.  Both
samplers are the ones verify-paper's property check (criterion 7) uses,
run here with other seeds.
"""

import random

import pytest

from cfkzero.algebra import alexander_torus
from cfkzero.cli import _random_expr, _random_symmetric_seq, _written_grouping
from cfkzero.complexes import _MonoMatrix
from cfkzero.knots import (
    EvalError,
    Mirror,
    Sum,
    eval_expr,
    staircase_from_alexander,
    sum_gamma0,
)
from cfkzero.standard import (
    _gamma0,
    _product,
    _require_valid,
    _simplify,
    epsilon,
    extract_gamma0,
    seq_to_complex,
    tau,
    top_alexander,
    validate_seq,
)


def sample_gamma0s(rng, count, max_len):
    out = []
    while len(out) < count:
        expr = _random_expr(rng, 2)
        try:
            seq = eval_expr(expr).sequence
        except EvalError:
            continue
        if len(seq) <= max_len:
            out.append((expr, seq))
    return out


def test_round_trip_over_random_sequences():
    rng = random.Random(101)
    for _ in range(200):
        seq = _random_symmetric_seq(rng, max_half=10, max_mag=5)
        assert extract_gamma0(seq_to_complex(seq)) == seq
        assert sum_gamma0(seq, ()) == (seq, 0)


def test_every_construction_yields_a_valid_complex():
    rng = random.Random(202)
    for _ in range(120):
        s1 = _random_symmetric_seq(rng, 4, 3)
        s2 = _random_symmetric_seq(rng, 4, 3)
        left = seq_to_complex(s1)
        right = seq_to_complex(s2)
        product = left.tensor(right)
        assert product.validate() is None
        assert product.dual().validate() is None
        mat, gr_u, gr_v, plain = _product(s1, s2)
        _simplify(mat, plain)
        _require_valid(mat, gr_u, gr_v)


def test_dual_is_involutive_and_negates_the_sequence():
    rng = random.Random(303)
    for _ in range(100):
        seq = _random_symmetric_seq(rng, 6, 4)
        cx = seq_to_complex(seq)
        assert cx.dual().dual() == cx
        mirrored = extract_gamma0(cx.dual())
        assert mirrored == tuple(-e for e in seq)
        assert tau(mirrored) == -tau(seq)
        assert epsilon(mirrored) == -epsilon(seq)


def simplified_gamma0(mat):
    _simplify(mat, mat.count)
    return _gamma0(mat.cols)


def test_extract_is_stable_under_relabeling_and_reduction_order():
    # relabeling the integer ids changes the order the search takes its
    # merges in, but not gamma_0 or the loop count
    rng = random.Random(404)
    for _ in range(40):
        s1 = _random_symmetric_seq(rng, 3, 3)
        s2 = _random_symmetric_seq(rng, 3, 3)
        base, gr_u, _, _ = _product(s1, s2)
        size = len(gr_u)
        arrows = list(base.items())
        reference = simplified_gamma0(base)
        shuffled = list(range(size))
        rng.shuffle(shuffled)
        for label in (shuffled, list(reversed(range(size)))):
            relabeled = _MonoMatrix(size)
            for (tgt, src), (a, b) in arrows:
                relabeled.add(label[tgt], label[src], a, b)
            assert simplified_gamma0(relabeled) == reference


def test_tensor_is_commutative_and_associative_on_gamma0():
    # the class of a sum depends only on the classes of its summands, so
    # each grouping through sum_gamma0 matches the simplified triple product
    rng = random.Random(505)
    for _ in range(25):
        s0, s1, s2 = (_random_symmetric_seq(rng, 2, 2) for _ in range(3))
        assert sum_gamma0(s0, s1)[0] == sum_gamma0(s1, s0)[0]
        triple = seq_to_complex(s0).tensor(seq_to_complex(s1)).tensor(seq_to_complex(s2))
        arrows = [(t, s, mono) for (t, s), mono in triple.diff.items()]
        whole, _ = simplified_gamma0(_MonoMatrix.from_arrows(len(triple), arrows))
        assert sum_gamma0(sum_gamma0(s0, s1)[0], s2)[0] == whole
        assert sum_gamma0(s0, sum_gamma0(s1, s2)[0])[0] == whole


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5)])
def test_lspace_staircases_are_sharp_with_positive_epsilon(p, q):
    seq = staircase_from_alexander(alexander_torus(p, q))
    delta_top = max(alexander_torus(p, q))
    assert top_alexander(seq) == tau(seq) == delta_top
    assert epsilon(seq) == 1


def test_gamma0_of_expressions_is_symmetric_with_bounded_tau():
    rng = random.Random(606)
    for expr, seq in sample_gamma0s(rng, 60, max_len=20):
        validate_seq(seq)  # reverse-negate symmetry and walk closure
        assert abs(tau(seq)) <= top_alexander(seq), str(expr)


def test_sum_with_mirror_vanishes():
    rng = random.Random(707)
    for expr, seq in sample_gamma0s(rng, 25, max_len=14):
        result = eval_expr(Sum((expr, Mirror(expr)))).sequence
        assert result == (), str(expr)
        # eval_expr cancels E against -E; the pipeline must find [] too
        assert _written_grouping(Sum((expr, Mirror(expr))))[0] == (), str(expr)


def test_loop_counts_account_for_all_generators():
    rng = random.Random(808)
    for _ in range(30):
        s1 = _random_symmetric_seq(rng, 3, 3)
        s2 = _random_symmetric_seq(rng, 3, 3)
        seq, loops = sum_gamma0(s1, s2)
        # one odd open path; closed components have an even generator count
        leftover = (len(s1) + 1) * (len(s2) + 1) - (len(seq) + 1)
        assert leftover % 2 == 0
        assert (loops == 0) == (leftover == 0)
        assert leftover >= 4 * loops  # every loop has at least four generators
