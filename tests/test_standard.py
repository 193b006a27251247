"""Parameter sequences: the walk invariants, standard complexes, basis
simplification, and gamma_0 extraction."""

import pytest

import cfkzero.standard as standard
from cfkzero.algebra import Mode, RingElem
from cfkzero.cli import invariant_report
from cfkzero.complexes import ChainComplex, Generator, KnotlikeError
from cfkzero.knots import sum_gamma0
from cfkzero.standard import (
    SequenceError,
    SimplifyError,
    epsilon,
    extract_gamma0,
    extract_gamma0_with_loops,
    mirror_seq,
    seq_to_complex,
    simplify_basis,
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
    assert [g.ident for g in cx.gens] == ["z0", "z1", "z2"]
    assert [(g.gr_u, g.gr_v) for g in cx.gens] == [(0, -2), (-1, -1), (-2, 0)]
    assert [g.alexander for g in cx.gens] == [1, 0, -1]
    assert cx.diff[("z0", "z1")] == RingElem.monomial(1, 0, Mode.UVZERO)
    assert cx.diff[("z2", "z1")] == RingElem.monomial(0, 1, Mode.UVZERO)


def test_unknot_standard_complex():
    cx = seq_to_complex(())
    assert len(cx) == 1 and not cx.diff
    assert cx.gens[0].alexander == 0


def test_cable_standard_complex():
    cx = seq_to_complex(CABLE_SEQ)
    assert len(cx) == 9
    assert max(g.alexander for g in cx.gens) == 2
    assert cx.validate() is None


def test_non_staircase_has_no_full_ring_standard_complex():
    # without its diagonal arrows the cable complex is not a complex over
    # F2[U,V]; only the quotient version exists
    with pytest.raises(SequenceError):
        seq_to_complex(CABLE_SEQ, Mode.FULL)


def test_simplify_leaves_staircases_alone():
    cx = seq_to_complex((1, -3, 2, -2, 3, -1))
    assert simplify_basis(cx) == cx


def test_trefoil_sum_splits_into_path_and_box():
    cx = seq_to_complex((1, -1), prefix="x")
    product = cx.tensor(seq_to_complex((1, -1), prefix="y")).reduce()
    simplified = simplify_basis(product)
    assert simplified.validate() is None
    _, paths, loops = standard._components(*standard._int_arrows(simplified))
    assert len(paths) == 1 and loops == 1
    ids, _ = paths[0]
    assert len(ids) == 5
    seq, loop_count = extract_gamma0_with_loops(simplified)
    assert seq == (1, -1, 1, -1)
    assert loop_count == 1


def test_simplify_reaches_a_fixpoint_on_a_mixed_tensor():
    left = seq_to_complex((1, -1, 1, -1), prefix="x")
    right = seq_to_complex((1, -1, -1, 1, 1, -1), prefix="y")
    simplified = simplify_basis(left.tensor(right).reduce())
    assert simplified.validate() is None
    extract_gamma0_with_loops(simplified)  # raises if any generator is overloaded


def test_simplify_keeps_a_jordan_block_local_system_as_one_loop():
    # two boxes p -> q (U), p -> r (V), q -> s (V), r -> s (U), joined by an
    # extra arrow r2 -> s1 (U): a closed component whose local system is a
    # 2x2 Jordan block, so no basis splits it into two 4-generator boxes
    U, V = RingElem.monomial(1, 0, Mode.UVZERO), RingElem.monomial(0, 1, Mode.UVZERO)
    gens, diff = [], {}
    for i in (1, 2):
        p, q, r, s = (f"{x}{i}" for x in "pqrs")
        gens += [Generator(p, 0, 0), Generator(q, 1, -1), Generator(r, -1, 1), Generator(s, 0, 0)]
        diff.update({(q, p): U, (r, p): V, (s, q): V, (s, r): U})
    diff[("s1", "r2")] = U
    cx = ChainComplex(gens, diff, Mode.UVZERO).require_valid()
    simplified = simplify_basis(cx)
    assert len(simplified.diff) == 8
    _, paths, loops = standard._components(*standard._int_arrows(simplified))
    assert (paths, loops) == ([], 1)


def test_the_merge_cap_holds_inside_a_fallback_step(monkeypatch):
    # C2(3;T(2,3)) # -C2(1;T(2,3)): the search accepts 13 entry-reducing
    # merges, then the first candidate of its first fallback step, and tries
    # 43 merges in all
    s1, s2 = (1, -2, 2, -1), (-1, 2, 1, -1, -2, 1)
    made = []
    change = standard._basis_change

    def counted(mat, *move):
        made.append(move)
        change(mat, *move)

    monkeypatch.setattr(standard, "_basis_change", counted)
    monkeypatch.setattr(standard, "MERGES_PER_ARROW", 0)
    for cap in (13, 14):  # the cap runs out just before, then just after, that candidate
        made.clear()
        monkeypatch.setattr(standard, "SIMPLIFY_PASS_CAP", cap)
        with pytest.raises(SimplifyError, match="merge cap"):
            sum_gamma0(s1, s2)
        assert len(made) == cap  # each try so far was accepted: one basis change
    monkeypatch.setattr(standard, "SIMPLIFY_PASS_CAP", 43)
    assert sum_gamma0(s1, s2) == ((1, -1), 8)


def test_full_ring_pipeline_through_the_quotient():
    # tensor over F2[U,V], then quotient, reduce, simplify, extract
    left = seq_to_complex((1, -1), Mode.FULL, prefix="x")
    product = left.tensor(seq_to_complex((1, -1), Mode.FULL, prefix="y"))
    seq, loops = extract_gamma0_with_loops(
        simplify_basis(product.quotient_uv().reduce())
    )
    assert seq == (1, -1, 1, -1) and loops == 1


def test_trefoil_against_its_mirror_has_trivial_gamma0():
    left = seq_to_complex((1, -1), Mode.FULL, prefix="x")
    right = seq_to_complex((1, -1), Mode.FULL, prefix="y").dual()
    product = left.tensor(right)
    assert len(product) == 9
    seq, loops = extract_gamma0_with_loops(
        simplify_basis(product.quotient_uv().reduce())
    )
    assert seq == () and loops == 2


def test_extract_gamma0_of_staircase():
    assert extract_gamma0(seq_to_complex((1, -1))) == (1, -1)
    assert extract_gamma0(seq_to_complex((1, -1)).dual()) == (-1, 1)
    assert extract_gamma0(seq_to_complex(())) == ()


def test_extract_rejects_loop_only_complexes():
    gens = [
        Generator("p", 0, 0),
        Generator("q", 1, -1),
        Generator("r", -1, 1),
        Generator("s", 0, 0),
    ]
    diff = {
        ("q", "p"): RingElem.monomial(1, 0, Mode.UVZERO),
        ("r", "p"): RingElem.monomial(0, 1, Mode.UVZERO),
        ("s", "q"): RingElem.monomial(0, 1, Mode.UVZERO),
        ("s", "r"): RingElem.monomial(1, 0, Mode.UVZERO),
    }
    box = ChainComplex(gens, diff, Mode.UVZERO)
    assert box.validate() is None
    with pytest.raises(KnotlikeError):
        extract_gamma0(box)


def test_mirror_seq():
    assert mirror_seq((1, -1)) == (-1, 1)
    assert mirror_seq(CABLE_SEQ) == tuple(-e for e in CABLE_SEQ)


def test_tau_matches_vertical_homology():
    for seq in [(1, -1), (-1, 1), CABLE_SEQ, (1, -3, 2, -2, 3, -1), ()]:
        free_a, _ = seq_to_complex(seq).vertical_homology()
        assert tau(seq) == -free_a
