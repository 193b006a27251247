"""validate_seq against the earlier, slower form of the same checks, kept
here verbatim as an oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cfkzero.standard import SequenceError, validate_seq


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
