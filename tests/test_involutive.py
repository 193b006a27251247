"""The involutive layer: basic involution, derivative endomorphisms, the
connected-sum involution, and the distinguished-basis verification."""

import pytest

from cfkzero.algebra import ONE, Mode
from cfkzero.complexes import ChainComplex, Endomorphism
from cfkzero.involutive import (
    basic_involution,
    build_xyz_basis,
    phi_psi,
    tensor_involution,
    verify_lemma_43_44,
)
from cfkzero.knots import ShapeError
from cfkzero.standard import seq_to_complex


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
    assert image_of(phi, 5) == {4: frozenset({(2, 0)})}


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


def test_basis_family_counts_q3():
    fam = build_xyz_basis((1, -1, 1, -1), 3)
    assert len(fam.x_elements) == 7  # 4n + q - 1 + 1 with n = 1, q = 3
    assert sorted(fam.y) == [(1, 1)]
    assert sorted(fam.y_prime) == [(1, 1)]
    assert not fam.z and not fam.z_prime
    # j = k' = k: the substitutions keep every index in range
    assert len(fam.all_elements()) == 15


def test_basis_family_counts_q5():
    fam = build_xyz_basis((1, -1, 1, -1), 5)
    assert sorted(fam.y) == [(1, 1)]
    assert not fam.z and not fam.z_prime
    assert len(fam.all_elements()) == 17  # independent but not spanning: k is even


def test_basis_family_counts_q7():
    fam = build_xyz_basis((1, -1, 1, -1), 7)
    assert sorted(fam.y) == [(1, 1), (1, 3)]
    assert sorted(fam.z) == [(1, 1)]
    assert len(fam.all_elements()) == 5 * 7  # odd k: a full basis of the 5 x 7 product


def test_lemma_verification_passes():
    for host, q in [((1, -1, 1, -1), 3), ((1, -1, 1, -1), 5), ((1, -2, 2, -1), 3),
                    ((1, -2, 1, -1, 1, -1, 2, -1), 7)]:
        checks = verify_lemma_43_44(host, q)
        assert all(c.passed for c in checks), "\n".join(str(c) for c in checks if not c.passed)


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
