"""Bigraded chain complexes: validation, tensor, dual, quotient, vertical
homology, endomorphisms."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkzero.algebra import ONE, Mode, times
from cfkzero.complexes import (
    ChainComplex,
    Endomorphism,
    InvalidComplexError,
    KnotlikeError,
    diff_endomorphism,
)
from cfkzero.involutive import basic_involution, phi_psi, tensor_involution
from cfkzero.standard import seq_to_complex

CABLE_SEQ = (1, -2, -1, 1, -1, 1, 2, -1)


def full_cable_complex():
    """The 9-generator full-ring complex of the (2,-1)-cable of the trefoil,
    with its four diagonal arrows, transcribed from its figure with the
    generators a..i at the positions 0..8."""
    quotient = seq_to_complex(CABLE_SEQ)
    diff = dict(quotient.diff)
    for tgt, src in [(5, 0), (4, 1), (4, 7), (3, 8)]:
        diff[(tgt, src)] = (1, 1)
    return ChainComplex(quotient.gr_u, quotient.gr_v, diff, Mode.FULL)


def test_staircase_validates():
    cx = seq_to_complex((1, -1))
    assert cx.validate() is None
    assert cx.diff == {(0, 1): (1, 0), (2, 1): (0, 1)}


def test_deleting_an_arrow_keeps_a_complex():
    cx = seq_to_complex((1, -1))
    diff = dict(cx.diff)
    del diff[(2, 1)]
    assert ChainComplex(cx.gr_u, cx.gr_v, diff, cx.mode).validate() is None


def test_cable_complex_needs_its_diagonals():
    full = full_cable_complex()
    assert full.validate() is None
    without = {key: mono for key, mono in full.diff.items() if mono != (1, 1)}
    violation = ChainComplex(full.gr_u, full.gr_v, without, Mode.FULL).validate()
    assert violation is not None and violation.kind == "dsquared"


def violation_kind(cx):
    violation = cx.validate()
    return None if violation is None else violation.kind


def test_validate_reports_odd_parity():
    cx = ChainComplex([0], [1], {}, Mode.UVZERO)
    assert violation_kind(cx) == "parity"
    with pytest.raises(InvalidComplexError):
        cx.alexander(0)


@pytest.mark.parametrize("mode", list(Mode))
def test_validate_reports_an_arrow_of_the_wrong_power(mode):
    cx = seq_to_complex((1, -1), mode)
    diff = {**cx.diff, (0, 1): (2, 0)}
    assert violation_kind(ChainComplex(cx.gr_u, cx.gr_v, diff, mode)) == "grading"


def two_steps(vpow, mode):
    """x -> y by U, then y -> z by U (vpow 0) or V (vpow 1): d^2 x is U^2 z
    or the mixed UV z; x, y, z at 0, 1, 2."""
    diff = {(1, 0): (1, 0), (2, 1): (1 - vpow, vpow)}
    return ChainComplex([0, 1, 2 - 2 * vpow], [0, -1, 2 * vpow - 2], diff, mode)


def test_validate_reports_d_squared_over_both_rings():
    assert violation_kind(two_steps(0, Mode.UVZERO)) == "dsquared"
    assert violation_kind(two_steps(0, Mode.FULL)) == "dsquared"
    # a mixed monomial in d^2 dies only in the quotient
    assert violation_kind(two_steps(1, Mode.UVZERO)) is None
    assert violation_kind(two_steps(1, Mode.FULL)) == "dsquared"


def test_quotient_drops_exactly_the_diagonals():
    full = full_cable_complex()
    quotient = full.quotient_uv()
    assert quotient.validate() is None
    assert quotient == seq_to_complex(CABLE_SEQ)
    assert quotient.quotient_uv() == quotient  # idempotent


def test_quotient_leaves_staircases_alone():
    stair = seq_to_complex((1, -3, 2, -2, 3, -1), Mode.FULL)
    assert stair.quotient_uv().diff == seq_to_complex((1, -3, 2, -2, 3, -1)).diff


def test_quotient_kills_a_mixed_entry():
    diff = {(0, 1): (1, 1)}
    cx = ChainComplex([0, 1], [0, 1], diff, Mode.FULL)
    assert cx.diff == diff
    assert not cx.quotient_uv().diff
    # over the quotient the constructor drops it
    assert not ChainComplex([0, 1], [0, 1], diff, Mode.UVZERO).diff


@pytest.mark.parametrize("mode", list(Mode))
def test_a_negative_exponent_is_rejected(mode):
    with pytest.raises(InvalidComplexError, match="negative exponent in monomial U\\^-1 V\\^0"):
        ChainComplex([0, 1], [0, 1], {(0, 1): (-1, 0)}, mode)


def test_tensor_with_unknot_is_identity():
    cx = seq_to_complex((1, -1))
    unknot = seq_to_complex(())
    product = cx.tensor(unknot)
    assert len(product) == 3
    assert product.diff == {(0, 1): (1, 0), (2, 1): (0, 1)}


def test_tensor_of_trefoils():
    cx = seq_to_complex((1, -1), Mode.FULL)
    product = cx.tensor(cx)
    assert len(product) == 9
    assert product.validate() is None
    assert all(mono != (0, 0) for mono in product.diff.values())  # no unit arrows
    assert max(map(product.alexander, range(9))) == 2


def test_tensor_mode_mismatch():
    with pytest.raises(InvalidComplexError, match="share a coefficient mode"):
        seq_to_complex((1, -1)).tensor(seq_to_complex((1, -1), Mode.FULL))


def test_dual_transposes():
    dual = seq_to_complex((1, -1)).dual()
    assert dual.validate() is None
    # boundary of z0* is U z1*, boundary of z2* is V z1*
    assert dual.diff == {(1, 0): (1, 0), (1, 2): (0, 1)}


def test_dual_is_an_involution():
    cx = seq_to_complex((1, -2, -1, 1, -1, 1, 2, -1))
    assert cx.dual().dual() == cx
    unknot = seq_to_complex(())
    assert unknot.dual().gr_u == [0]


def test_vertical_homology_examples():
    assert seq_to_complex((1, -1)).vertical_homology() == (-1, (1,))
    assert seq_to_complex(()).vertical_homology() == (0, ())
    assert seq_to_complex((1, -1)).dual().vertical_homology() == (1, (1,))


def test_vertical_homology_of_a_tensor():
    product = seq_to_complex((1, -1)).tensor(seq_to_complex((1, -1)))
    assert product.vertical_homology() == (-2, (1, 1, 1, 1))


def test_vertical_homology_rejects_non_knotlike():
    cx = ChainComplex([0, 0], [0, 0], {}, Mode.UVZERO)
    with pytest.raises(KnotlikeError):
        cx.vertical_homology()
    with pytest.raises(InvalidComplexError, match="expects a UV = 0 complex"):
        seq_to_complex((1, -1), Mode.FULL).vertical_homology()


def test_max_alexander():
    for seq, top in [((1, -3, 2, -2, 3, -1), 6), ((), 0)]:
        cx = seq_to_complex(seq)
        assert max(map(cx.alexander, range(len(cx)))) == top


def test_differential_is_a_chain_map_with_declared_shift():
    cx = seq_to_complex((1, -2, -1, 1, -1, 1, 2, -1))
    endo = diff_endomorphism(cx)
    assert endo.shift == (-1, -1)
    assert endo.respects_grading()
    assert endo.is_chain_map()  # d d = 0 restated


@pytest.mark.parametrize("key", [(3, 1), (0, 3), (-1, 1)])
def test_an_arrow_endpoint_outside_the_positions_is_rejected(key):
    cx = seq_to_complex((1, -1))
    diff = {**cx.diff, key: (1, 0)}
    with pytest.raises(InvalidComplexError, match="leaves the generators 0 ... 2"):
        ChainComplex(cx.gr_u, cx.gr_v, diff, Mode.UVZERO)


def test_gradings_of_different_lengths_are_rejected():
    with pytest.raises(InvalidComplexError, match="2 U-gradings but 3 V-gradings"):
        ChainComplex([0, 0], [0, 0, 0], {}, Mode.UVZERO)


def test_the_identity_declared_skew_is_no_chain_map():
    cx = seq_to_complex((1, -1), Mode.FULL)
    identity = {(g, g): ONE for g in range(len(cx))}
    assert Endomorphism(cx, identity).is_chain_map()
    # d(1) = U 0 + V 2, but the swap sends it to V 0 + U 2
    assert not Endomorphism(cx, identity, skew=True).is_chain_map()


@pytest.mark.parametrize("mode", list(Mode))
def test_a_mixed_term_of_d_f_plus_f_d_dies_only_over_the_quotient(mode):
    # 0 <-U- 1 -V-> 2 and f = {0 -> V 0}: d f = 0 and (f d)(1) = UV 0
    cx = seq_to_complex((1, -1), mode)
    f = Endomorphism(cx, {(0, 0): frozenset({(0, 1)})}, (0, -2))
    assert f.is_chain_map() == (mode is Mode.UVZERO)


STAIRCASES = [(1, -1), (1, -2, 2, -1), (2, -1, 1, -2), (1, -1, 1, -1)]


@functools.cache
def real_maps(seqs, mode):
    """The basic involution and Phi, Psi of one staircase; on the product of
    two, the tensor involution, its inverse and the product's Phi, Psi."""
    if len(seqs) == 1:
        cx = seq_to_complex(seqs[0], mode)
        return (basic_involution(cx), *phi_psi(cx))
    left = basic_involution(seq_to_complex(seqs[0], mode))
    right = basic_involution(seq_to_complex(seqs[1], mode))
    iota, inverse = tensor_involution(left, right)
    return (iota, inverse, *phi_psi(iota.cx))


@st.composite
def perturbed_maps(draw):
    """A real map with one entry dropped or one monomial added to an entry."""
    mode = draw(st.sampled_from(list(Mode)))
    seqs = tuple(draw(st.lists(st.sampled_from(STAIRCASES), min_size=1, max_size=2)))
    f = draw(st.sampled_from(real_maps(seqs, mode)))
    entries = dict(f.entries)
    if entries and draw(st.booleans()):
        del entries[draw(st.sampled_from(sorted(entries)))]
    else:
        positions = range(len(f.cx))
        key = (draw(st.sampled_from(positions)), draw(st.sampled_from(positions)))
        # a mixed monomial is zero over the quotient
        mono = times(frozenset({(draw(st.integers(0, 2)), draw(st.integers(0, 2)))}), ONE, mode)
        entries[key] = entries[key] ^ mono if key in entries else mono
    return f, Endomorphism(f.cx, entries, f.shift, f.skew)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(perturbed_maps())
def test_the_chain_map_check_agrees_with_d_f_plus_f_d(maps):
    for f in maps:
        for skew in (False, True):
            g = Endomorphism(f.cx, f.entries, f.shift, skew)
            d = diff_endomorphism(g.cx)
            d_after = g.compose(d)
            assert g.is_chain_map() == (d.compose(g) + d_after).is_zero()
