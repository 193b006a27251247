"""Bigraded chain complexes: validation, tensor, dual, quotient, vertical
homology, endomorphisms."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkzero.algebra import Mode, ModeMismatchError, RingElem
from cfkzero.complexes import (
    ChainComplex,
    Endomorphism,
    Generator,
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
    generators renamed a..i -> z0..z8."""
    quotient = seq_to_complex(CABLE_SEQ)
    gens = quotient.gens
    diff = {
        key: RingElem.from_terms(elem.terms, Mode.FULL)
        for key, elem in quotient.diff.items()
    }
    uv = RingElem.monomial(1, 1, Mode.FULL)
    for tgt, src in [("z5", "z0"), ("z4", "z1"), ("z4", "z7"), ("z3", "z8")]:
        diff[(tgt, src)] = uv
    return ChainComplex(gens, diff, Mode.FULL)


def test_staircase_validates():
    cx = seq_to_complex((1, -1))
    assert cx.validate() is None
    assert cx.diff[("z0", "z1")] == RingElem.monomial(1, 0, Mode.UVZERO)
    assert cx.diff[("z2", "z1")] == RingElem.monomial(0, 1, Mode.UVZERO)


def test_deleting_an_arrow_keeps_a_complex():
    cx = seq_to_complex((1, -1))
    diff = dict(cx.diff)
    del diff[("z2", "z1")]
    assert ChainComplex(cx.gens, diff, cx.mode).validate() is None


def test_cable_complex_needs_its_diagonals():
    full = full_cable_complex()
    assert full.validate() is None
    without = {key: e for key, e in full.diff.items() if not e.sole_term() == (1, 1)}
    violation = ChainComplex(full.gens, without, Mode.FULL).validate()
    assert violation is not None and violation.kind == "dsquared"


def violation_kind(cx):
    violation = cx.validate()
    return None if violation is None else violation.kind


def test_validate_reports_odd_parity():
    assert violation_kind(ChainComplex([Generator("a", 0, 1)], {}, Mode.UVZERO)) == "parity"


@pytest.mark.parametrize("mode", list(Mode))
def test_validate_reports_an_arrow_of_the_wrong_power(mode):
    cx = seq_to_complex((1, -1), mode)
    diff = {**cx.diff, ("z0", "z1"): RingElem.monomial(2, 0, mode)}
    assert violation_kind(ChainComplex(cx.gens, diff, mode)) == "grading"


def test_validate_reports_a_two_term_entry_as_grading():
    cx = seq_to_complex((1, -1), Mode.FULL)
    diff = {**cx.diff, ("z0", "z1"): RingElem.from_terms([(1, 0), (0, 1)], Mode.FULL)}
    assert violation_kind(ChainComplex(cx.gens, diff, Mode.FULL)) == "grading"


def two_steps(vpow, mode):
    """x -> y by U, then y -> z by U (vpow 0) or V (vpow 1): d^2 x is U^2 z
    or the mixed UV z."""
    gens = [Generator("x", 0, 0), Generator("y", 1, -1), Generator("z", 2 - 2 * vpow, 2 * vpow - 2)]
    diff = {
        ("y", "x"): RingElem.monomial(1, 0, mode),
        ("z", "y"): RingElem.monomial(1 - vpow, vpow, mode),
    }
    return ChainComplex(gens, diff, mode)


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
    gens = [Generator("a", 0, 0), Generator("b", 1, 1)]
    diff = {("a", "b"): RingElem.monomial(1, 1, Mode.FULL)}
    cx = ChainComplex(gens, diff, Mode.FULL)
    assert not cx.quotient_uv().diff


def test_tensor_with_unknot_is_identity():
    cx = seq_to_complex((1, -1))
    unknot = seq_to_complex((), prefix="u")
    product = cx.tensor(unknot)
    assert len(product) == 3
    assert sorted(
        (tgt, src, elem.sole_term()) for (tgt, src), elem in product.diff.items()
    ) == [("(z0|u0)", "(z1|u0)", (1, 0)), ("(z2|u0)", "(z1|u0)", (0, 1))]


def test_tensor_of_trefoils():
    cx = seq_to_complex((1, -1), Mode.FULL)
    product = cx.tensor(cx)
    assert len(product) == 9
    assert product.validate() is None
    assert all(e.sole_term() != (0, 0) for e in product.diff.values())  # no unit arrows
    assert max(g.alexander for g in product.gens) == 2


def test_tensor_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        seq_to_complex((1, -1)).tensor(seq_to_complex((1, -1), Mode.FULL))


def test_dual_transposes():
    dual = seq_to_complex((1, -1)).dual()
    assert dual.validate() is None
    # boundary of z0* is U z1*, boundary of z2* is V z1*
    assert dual.diff[("z1", "z0")] == RingElem.monomial(1, 0, Mode.UVZERO)
    assert dual.diff[("z1", "z2")] == RingElem.monomial(0, 1, Mode.UVZERO)


def test_dual_is_an_involution():
    cx = seq_to_complex((1, -2, -1, 1, -1, 1, 2, -1))
    assert cx.dual().dual() == cx
    unknot = seq_to_complex(())
    assert unknot.dual().gens[0].gr_u == 0


def test_vertical_homology_examples():
    assert seq_to_complex((1, -1)).vertical_homology() == (-1, (1,))
    assert seq_to_complex(()).vertical_homology() == (0, ())
    assert seq_to_complex((1, -1)).dual().vertical_homology() == (1, (1,))


def test_vertical_homology_of_a_tensor():
    product = seq_to_complex((1, -1)).tensor(seq_to_complex((1, -1), prefix="w"))
    assert product.vertical_homology() == (-2, (1, 1, 1, 1))


def test_vertical_homology_rejects_non_knotlike():
    gens = [Generator("a", 0, 0), Generator("b", 0, 0)]
    cx = ChainComplex(gens, {}, Mode.UVZERO)
    with pytest.raises(KnotlikeError):
        cx.vertical_homology()


def test_max_alexander():
    assert max(g.alexander for g in seq_to_complex((1, -3, 2, -2, 3, -1)).gens) == 6
    assert max(g.alexander for g in seq_to_complex(()).gens) == 0


def test_differential_is_a_chain_map_with_declared_shift():
    cx = seq_to_complex((1, -2, -1, 1, -1, 1, 2, -1))
    endo = diff_endomorphism(cx)
    assert endo.shift == (-1, -1)
    assert endo.respects_grading()
    assert endo.is_chain_map()  # d d = 0 restated


def test_duplicate_ids_rejected():
    gens = [Generator("a", 0, 0), Generator("a", 0, 0)]
    with pytest.raises(InvalidComplexError):
        ChainComplex(gens, {}, Mode.UVZERO)


def test_the_identity_declared_skew_is_no_chain_map():
    cx = seq_to_complex((1, -1), Mode.FULL)
    identity = {(g, g): RingElem.one(cx.mode) for g in cx.ids()}
    assert Endomorphism(cx, identity).is_chain_map()
    # d(z1) = U z0 + V z2, but the swap sends it to V z0 + U z2
    assert not Endomorphism(cx, identity, skew=True).is_chain_map()


@pytest.mark.parametrize("mode", list(Mode))
def test_a_mixed_term_of_d_f_plus_f_d_dies_only_over_the_quotient(mode):
    # z0 <-U- z1 -V-> z2 and f = {z0 -> V z0}: d f = 0 and (f d)(z1) = UV z0
    cx = seq_to_complex((1, -1), mode)
    f = Endomorphism(cx, {("z0", "z0"): RingElem.monomial(0, 1, mode)}, (0, -2))
    assert f.is_chain_map() == (mode is Mode.UVZERO)


STAIRCASES = [(1, -1), (1, -2, 2, -1), (2, -1, 1, -2), (1, -1, 1, -1)]


@functools.cache
def real_maps(seqs, mode):
    """The basic involution and Phi, Psi of one staircase; on the product of
    two, the tensor involution, its inverse and the product's Phi, Psi."""
    if len(seqs) == 1:
        cx = seq_to_complex(seqs[0], mode)
        return (basic_involution(cx), *phi_psi(cx))
    left = basic_involution(seq_to_complex(seqs[0], mode, prefix="x"))
    right = basic_involution(seq_to_complex(seqs[1], mode, prefix="y"))
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
        ids = f.cx.ids()
        key = (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
        mono = RingElem.monomial(draw(st.integers(0, 2)), draw(st.integers(0, 2)), mode)
        entries[key] = entries[key] + mono if key in entries else mono
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
