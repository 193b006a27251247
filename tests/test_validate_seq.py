"""validate_seq against the earlier, slower form of the same checks, kept
here verbatim as an oracle, and the shared check _checked against the
full reversed-negation comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkzero.standard import SequenceError, _checked, validate_seq


def _delta_a(seq):
    # odd positions horizontal (ΔA = -entry), even positions vertical (+entry)
    return [-e if i % 2 == 0 else e for i, e in enumerate(seq)]


def oracle_validate_seq(entries):
    seq = tuple(int(e) for e in entries)
    if any(e == 0 for e in seq):
        raise SequenceError(f"zero entry in sequence {list(seq)}")
    if len(seq) % 2 != 0:
        raise SequenceError(f"sequence length must be even, got {list(seq)}")
    if tuple(-e for e in reversed(seq)) != seq:
        raise SequenceError(f"sequence {list(seq)} is not reverse-negate symmetric")
    if sum(_delta_a(seq)) % 2 != 0:
        raise SequenceError(f"sequence {list(seq)} has an odd Alexander walk sum")
    return seq


def outcome(fn, entries):
    try:
        return "ok", fn(entries)
    except (SequenceError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


entry = st.integers(-6, 6)  # zeros included
halves = st.lists(entry, max_size=8)


@st.composite
def sequences(draw):
    half = draw(halves)
    seq = half + [-e for e in reversed(half)]
    kind = draw(st.sampled_from(["symmetric", "raw", "broken", "odd", "odd-walk"]))
    if kind == "raw":
        seq = draw(st.lists(entry, max_size=12))
    elif kind == "broken" and seq:
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] += draw(st.integers(1, 3))
    elif kind == "odd":
        seq.insert(len(seq) // 2, draw(entry))
    elif kind == "odd-walk":
        # a symmetric sequence always has an even walk sum, so this one is
        # rejected earlier, as in the oracle
        seq.append(draw(st.integers(1, 3)) * 2 - 1)
    return seq


@settings(max_examples=600, deadline=None)
@given(sequences(), st.sampled_from([list, tuple, iter]))
def test_validate_seq_matches_the_oracle(seq, container):
    assert outcome(validate_seq, container(seq)) == outcome(oracle_validate_seq, container(seq))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(entry, st.booleans(), st.sampled_from(["1", "-1", "x", 1.5])), max_size=6))
def test_validate_seq_converts_entries_like_the_oracle(entries):
    assert outcome(validate_seq, entries) == outcome(oracle_validate_seq, entries)


# -- the shared check ---------------------------------------------------------


def refusal(entries):
    with pytest.raises(SequenceError) as info:
        validate_seq(entries)
    return str(info.value)


def test_validate_seq_refuses_in_order_with_unchanged_messages():
    # a zero entry is named before an odd length and an asymmetry
    assert refusal([1, 0, 2]) == "zero entry in sequence [1, 0, 2]"
    # an odd length before an asymmetry
    assert refusal([1, 2, 3]) == "sequence length must be even, got [1, 2, 3]"
    assert refusal([1, 1]) == "sequence [1, 1] is not reverse-negate symmetric"
    symmetric = [1, -2, 3, -4, 5, -5, 4, -3, 2, -1]
    assert validate_seq(symmetric) == tuple(symmetric)
    # the first, the middle and the last of the five pairs (i, 9 - i), each
    # broken at either end
    for i in (0, 2, 4):
        for j in (i, 9 - i):
            broken = list(symmetric)
            broken[j] *= 2
            assert refusal(broken) == f"sequence {broken} is not reverse-negate symmetric"


wide = st.integers(-(10**12), 10**12)


@st.composite
def int_tuples(draw):
    """Symmetric tuples, the same with one entry changed, and raw ones."""
    half = draw(st.lists(wide.filter(bool), max_size=16))
    seq = half + [-e for e in reversed(half)]
    kind = draw(st.sampled_from(["symmetric", "changed", "raw"]))
    if kind == "changed" and seq:
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] = draw(wide.filter(lambda e: e != seq[i]))
    elif kind == "raw":
        seq = draw(st.lists(wide, max_size=12))
    return tuple(seq)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(int_tuples())
def test_checked_matches_the_full_reversed_negation(seq):
    # the oracle compares the whole reversed negation with the sequence
    assert outcome(_checked, seq) == outcome(oracle_validate_seq, seq)
