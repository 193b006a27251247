"""Hand-value tests for the benchmark's oracles.

Run with:  python3 -m pytest perfbench/test_oracles.py -q
"""

import oracles as o


def test_torus_alexander_from_semigroup():
    assert o.torus_alexander(2, 3) == {1: 1, 0: -1, -1: 1}
    assert o.torus_alexander(3, 4) == {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}
    # mirroring leaves the polynomial alone
    assert o.torus_alexander(2, -5) == o.torus_alexander(2, 5)
    assert o.torus_alexander(2, 1) == {0: 1}


def test_staircases_of_torus_knots():
    assert o.staircase_of(o.torus_alexander(2, 3)) == (1, -1)
    assert o.staircase_of(o.torus_alexander(2, 7)) == (1, -1, 1, -1, 1, -1)
    assert o.staircase_of(o.torus_alexander(4, 5)) == (1, -3, 2, -2, 3, -1)
    assert o.staircase_of(o.torus_alexander(2, 1)) == ()


def test_staircase_reader_rejects_non_lspace_polynomials():
    for poly in ({1: 1, 0: -3, -1: 1}, {1: 1, -1: 1}):
        try:
            o.staircase_of(poly)
        except ValueError:
            continue
        raise AssertionError(f"{poly} accepted")


def test_hedden_hom_product():
    # the (2,3)-cable of the trefoil shares its polynomial with T(3,4)
    assert o.alexander(o.cable(3, o.torus(2, 3))) == o.torus_alexander(3, 4)
    assert o.lspace_staircase(o.cable(3, o.torus(2, 3))) == (1, -2, 2, -1)
    # the printed (2,27)-cable of T(4,5)
    assert o.lspace_staircase(o.cable(27, o.torus(4, 5))) == (
        1, -7, 1, -1, 1, -5, 1, -1, 1, -1, 1, -3, 1, -1,
        3, -1, 1, -1, 1, -1, 5, -1, 1, -1, 7, -1,
    )


def test_iterated_cable_is_lspace_only_in_range():
    inner = o.cable(3, o.torus(2, 3))  # genus 3
    assert o.is_lspace(o.cable(11, inner))
    assert not o.is_lspace(o.cable(9, inner))
    assert not o.is_lspace(o.cable(-1, o.torus(2, 3)))
    stair = o.lspace_staircase(o.cable(11, inner))
    assert o.walk(stair)[0] == max(o.walk(stair)) == o.genus(o.cable(11, inner)) == 11


def test_genus_and_tau():
    assert o.genus(o.torus(4, 5)) == 6
    assert o.genus(o.cable(27, o.torus(4, 5))) == 25
    assert o.genus(o.csum(o.torus(2, 3), o.mirror(o.torus(3, 4)))) == 4
    assert o.tau(o.csum(o.torus(2, 3), o.mirror(o.torus(3, 4)))) == -2
    assert o.tau(o.torus(2, -5)) == -2
    # Hom: tau(K_{2,q}) = 2 tau(K) + (q-1)/2 when epsilon(K) = 1
    assert o.tau(o.cable(-1, o.torus(2, 3))) == 1
    assert o.tau(o.cable(27, o.torus(4, 5))) == 25
    # the cable of the unknot is T(2,q)
    assert o.tau(o.cable(-5, ("U",))) == o.tau(o.torus(2, -5)) == -2


def test_walk_of_printed_sequences():
    assert o.walk((1, -1)) == [1, 0, -1]
    seq = (1, -2, -1, 1, -1, 1, 2, -1)  # the printed (2,-1)-cable of T(2,3)
    assert o.is_symmetric(seq)
    assert o.walk(seq)[0] == o.tau(o.cable(-1, o.torus(2, 3))) == 1
    assert max(o.walk(seq)) == o.genus(o.cable(-1, o.torus(2, 3))) == 2


def test_regime_rule():
    assert [o.regime(q, 1) for q in (5, 3, 1, -1)] == ["above", "middle", "middle", "negative"]
    assert o.regime_equivalent(5, 7, 1)
    assert o.regime_equivalent(-1, -3, 1)
    assert not o.regime_equivalent(3, 5, 1)
    assert not o.regime_equivalent(1, -3, 1)


def test_cable_difference():
    assert o.cable_difference(27, 25) == (1, -1)
    assert o.cable_difference(25, 27) == (-1, 1)
    assert o.cable_difference(63, 55) == (1, -1) * 4


def test_render_keeps_grouping():
    a, b, c = o.torus(2, 3), o.mirror(o.torus(3, 4)), o.cable(5, o.torus(2, 3))
    assert o.render(o.csum(a, b, c)) == "T(2,3) # -T(3,4) # C2(5;T(2,3))"
    assert o.render(("S", a, ("S", b, c))) == "T(2,3) # (-T(3,4) # C2(5;T(2,3)))"
    assert o.render(o.mirror(o.csum(a, c))) == "-(T(2,3) # C2(5;T(2,3)))"


def test_generator_counts():
    assert o.generator_count(o.torus(5, 6)) == 9
    assert o.generator_count(o.cable(61, o.torus(5, 6))) == 61
    assert o.generator_count(o.cable(-15, o.torus(2, 3))) == 23
