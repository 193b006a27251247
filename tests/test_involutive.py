"""The involutive layer: basic involution, derivative endomorphisms, the
connected-sum involution, and the distinguished-basis verification."""

import pytest

from cfkzero.algebra import ONE, Mode
from cfkzero.cli import _criterion3_hosts
from cfkzero.complexes import ChainComplex, Endomorphism
from cfkzero.involutive import (
    _unit_pivot_rank,
    basic_involution,
    build_xyz_basis,
    phi_psi,
    tensor_involution,
    verify_lemma_43_44,
)
from cfkzero.knots import ShapeError
from cfkzero.standard import seq_to_complex, validate_seq


def staircase(seq):
    return seq_to_complex(seq, Mode.FULL)


def image_of(endo, src):
    return endo.apply({src: ONE})


def unit_image(endo, src):
    image = image_of(endo, src)
    assert len(image) == 1
    ((tgt, elem),) = image.items()
    assert elem == ONE
    return tgt


def test_basic_involution_on_the_trefoil():
    iota = basic_involution(staircase((1, -1)))
    assert unit_image(iota, 0) == 2
    assert unit_image(iota, 1) == 1
    assert unit_image(iota, 2) == 0
    assert iota.respects_grading()


def test_basic_involution_on_t45():
    iota = basic_involution(staircase((1, -3, 2, -2, 3, -1)))
    for i in range(7):
        assert unit_image(iota, i) == 6 - i


def test_basic_involution_on_the_unknot():
    iota = basic_involution(staircase(()))
    assert unit_image(iota, 0) == 0


def test_basic_involution_squares_to_the_identity():
    iota = basic_involution(staircase((1, -2, 2, -1)))
    square = iota.compose(iota)
    assert all(t == s and e == ONE for (t, s), e in square.entries.items())
    assert len(square.entries) == 5


def test_basic_involution_rejects_non_staircases():
    with pytest.raises(ShapeError):
        basic_involution(staircase((1, -1)).dual())
    with pytest.raises(ShapeError):
        basic_involution(seq_to_complex((1, -2, -1, 1, -1, 1, 2, -1)))
    trefoil = staircase((1, -1))
    without = {key: e for key, e in trefoil.diff.items() if key != (2, 1)}
    with pytest.raises(ShapeError, match="has 2 arrows, not 1"):
        basic_involution(ChainComplex(trefoil.gr_u, trefoil.gr_v, without, Mode.FULL))


def test_phi_psi_on_the_trefoil():
    phi, psi = phi_psi(staircase((1, -1)))
    assert unit_image(phi, 1) == 0
    assert unit_image(psi, 1) == 2
    assert not image_of(phi, 0) and not image_of(phi, 2)


def test_phi_psi_on_the_unknot():
    phi, psi = phi_psi(staircase(()))
    assert phi.is_zero() and psi.is_zero()


def test_phi_psi_on_t45():
    phi, _ = phi_psi(staircase((1, -3, 2, -2, 3, -1)))
    assert not image_of(phi, 3)  # the U^2 arrow has even exponent
    assert unit_image(phi, 1) == 0
    assert image_of(phi, 5) == {4: (2, 0)}


def test_phi_psi_anticommutator_is_a_chain_map():
    cx = staircase((1, -2, 2, -1)).tensor(staircase((1, -1)))
    phi, psi = phi_psi(cx)
    anticommutator = phi.compose(psi) + psi.compose(phi)
    assert anticommutator.is_chain_map()


def test_tensor_involution_with_the_unknot_is_the_involution():
    iota, _ = tensor_involution(
        basic_involution(staircase((1, -1))),
        basic_involution(staircase(())),
    )
    # the unknot has one generator, so (x_i, u_0) is i
    assert unit_image(iota, 0) == 2
    assert unit_image(iota, 1) == 1


def test_tensor_involution_of_two_trefoils():
    left = basic_involution(staircase((1, -1)))
    right = basic_involution(staircase((1, -1)))
    iota, _ = tensor_involution(left, right)
    # the correction lands exactly where both factor images carry odd
    # powers; (x_i, y_j) is 3i + j
    image = image_of(iota, 3 * 1 + 1)
    assert image == {3 * 1 + 1: ONE, 3 * 0 + 2: ONE}
    # iota^2 = id + N with N off-diagonal and N^2 = 0
    identity = Endomorphism(
        iota.cx,
        {(g, g): ONE for g in range(len(iota.cx))},
        (0, 0),
        False,
    )
    nilpotent = iota.compose(iota) + identity
    assert nilpotent.entries
    assert all(t != s for (t, s) in nilpotent.entries)
    assert nilpotent.compose(nilpotent).is_zero()


def test_tensor_involution_inverse_is_exact():
    left = basic_involution(staircase((1, -2, 1, -1, 1, -1, 2, -1)))
    right = basic_involution(staircase((1, -1, 1, -1)))
    iota, inverse = tensor_involution(left, right)
    composite = iota.compose(inverse)
    assert all(t == s and e == ONE for (t, s), e in composite.entries.items())
    assert len(composite.entries) == 9 * 5


def test_every_map_of_the_involutive_criterion_respects_its_grading():
    # a graded map has one monomial per entry, the invariant Endomorphism
    # rests on; checked on every map built for the 117 host and q pairs of
    # verify-paper's involutive criterion
    for host in _criterion3_hosts():
        host_cx = staircase(host)
        for q in (3, 5, 7):
            torus_cx = staircase(validate_seq([1, -1] * ((q - 1) // 2)))
            iotas = [basic_involution(host_cx), basic_involution(torus_cx)]
            maps = [*iotas, *phi_psi(host_cx), *phi_psi(torus_cx), *tensor_involution(*iotas)]
            assert all(f.respects_grading() for f in maps), (host, q)


def square_keys(squares):
    return [(letter, i, j) for letter, i, j, _, _ in squares]


def element_count(x_elements, squares):
    return len(x_elements) + sum(len(sq) + len(partner) for *_, sq, partner in squares)


def test_basis_family_counts_q3():
    x_elements, squares = build_xyz_basis((1, -1, 1, -1), 3)
    assert len(x_elements) == 7  # 4n + q - 1 + 1 with n = 1, q = 3
    assert square_keys(squares) == [("Y", 1, 1)]  # no Z square
    # j = k' = k: the substitutions keep every index in range
    assert element_count(x_elements, squares) == 15


def test_basis_family_counts_q5():
    x_elements, squares = build_xyz_basis((1, -1, 1, -1), 5)
    assert square_keys(squares) == [("Y", 1, 1)]  # no Z square
    # independent but not spanning: k is even
    assert element_count(x_elements, squares) == 17


def test_basis_family_counts_q7():
    x_elements, squares = build_xyz_basis((1, -1, 1, -1), 7)
    assert square_keys(squares) == [("Y", 1, 1), ("Y", 1, 3), ("Z", 1, 1)]
    # odd k: a full basis of the 5 x 7 product
    assert element_count(x_elements, squares) == 5 * 7


LEMMA_CASES = [((1, -1, 1, -1), 3), ((1, -1, 1, -1), 5), ((1, -2, 2, -1), 3),
               ((1, -2, 1, -1, 1, -1, 2, -1), 7)]


def test_unit_pivot_rank_eliminates_through_each_pivot():
    # the second element keeps a unit pivot only once the first one's is
    # eliminated from it, and a repeated element is eliminated entirely
    assert _unit_pivot_rank([{0: ONE, 1: ONE}, {0: ONE}]) == 2
    assert _unit_pivot_rank([{0: ONE, 1: ONE}, {0: ONE, 1: ONE}]) == 1
    assert _unit_pivot_rank([{0: ONE, 1: (0, 1)}, {0: (1, 0), 1: (1, 1), 2: (1, 0)}]) == 1
    assert _unit_pivot_rank([{0: (1, 0)}]) == 0


def test_lemma_verification_passes():
    for host, q in LEMMA_CASES:
        checks = verify_lemma_43_44(host, q)
        assert all(c.passed for c in checks), "\n".join(str(c) for c in checks if not c.passed)


def test_lemma_check_counts():
    # five whole-family checks, plus eight per square: a Y square at each
    # odd i <= 2n-1 and odd j <= k', a Z square at each odd j <= k'-2; the
    # last case has n = 2 and k' = 3, so two Y and one Z square per i
    counts = [len(verify_lemma_43_44(host, q)) for host, q in LEMMA_CASES]
    assert counts == [5 + 8, 5 + 8, 5 + 8, 5 + 8 * 2 * 3] == [13, 13, 13, 53]


def test_lemma_report_lines_are_structured():
    text = "\n".join(map(str, verify_lemma_43_44((1, -1, 1, -1), 3)))
    assert "X spans a subcomplex: ok" in text
    assert "involution reverses the X listing: ok" in text
    assert "2b coefficient collapses" in text


def test_lemma_rejects_bad_hosts():
    with pytest.raises(ShapeError):
        verify_lemma_43_44((1, -3, 1, -1, 3, -1), 3)  # length 2 mod 4
    with pytest.raises(ShapeError):
        verify_lemma_43_44((2, -1, 1, -2), 3)  # a horizontal step of power 2
    with pytest.raises(ShapeError):
        verify_lemma_43_44((1, -1, 1, -1), 4)
