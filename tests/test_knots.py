"""Knot expressions: the parser, the cabling and connected-sum closed forms,
evaluation, and local equivalence."""

import functools
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkzero.knots as knots
import cfkzero.standard as standard
from cfkzero.algebra import alexander_torus
from cfkzero.cli import _written_grouping, main
from cfkzero.knots import (
    MAX_GENERATORS,
    _central_run,
    Cable2,
    EvalError,
    EvalResult,
    Mirror,
    ParseError,
    ShapeError,
    Sum,
    Torus,
    Unknot,
    cable2,
    cable_genus,
    eval_expr,
    genus_of,
    locally_equivalent,
    p_knot,
    parse_expr,
    staircase_from_alexander,
    sum_gamma0,
    sum_with_T2,
    tau_cable_formula,
    torus_generators,
    torus_staircase,
)
from cfkzero.standard import (
    mirror_seq,
    staircase_shaped,
    tau,
    top_alexander,
    validate_seq,
)

T45_CABLE_27 = (1, -7, 1, -1, 1, -5, 1, -1, 1, -1, 1, -3, 1, -1,
                3, -1, 1, -1, 1, -1, 5, -1, 1, -1, 7, -1)


def pipeline(s1, s2):
    return sum_gamma0(s1, s2)[0]


# -- parser -------------------------------------------------------------------


def test_parse_examples_from_the_grammar():
    assert parse_expr("T(2,3)") == Torus(2, 3)
    assert parse_expr(" T( 2 , 3 ) ") == Torus(2, 3)
    assert parse_expr("-T(2,3)") == Mirror(Torus(2, 3))
    assert parse_expr("U") == Unknot()
    assert parse_expr("C2(-1; T(2,3))") == Cable2(-1, Torus(2, 3))
    assert parse_expr("T(2,3) # -T(2,3)") == Sum((Torus(2, 3), Mirror(Torus(2, 3))))
    assert parse_expr("(T(2,3))") == Torus(2, 3)


def test_parse_p_knot_expression():
    text = "C2(5; T(2,3)) # -C2(7; T(2,3)) # T(2,7) # -T(2,5)"
    assert parse_expr(text) == p_knot(Torus(2, 3), 5, 7)


@pytest.mark.parametrize("bad", ["T(2,", "T(2,3) #", "C2(4; T(2,3))", "T(2,3) extra", "W", ""])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_parse_error_at_the_end_of_the_input():
    with pytest.raises(ParseError, match=r"expected an integer at position 4 in 'T\(2,'$"):
        parse_expr("T(2,")


def test_round_trip_through_str():
    for text in ["T(2,3)", "C2(-1; T(2,3))", "C2(5; T(2,3)) # -C2(7; T(2,3)) # T(2,7) # -T(2,5)"]:
        expr = parse_expr(text)
        assert parse_expr(str(expr)) == expr
    t23, t25, t27 = Torus(2, 3), Torus(2, 5), Torus(2, 7)
    assert str(Mirror(Mirror(t23))) == "-(-T(2,3))"
    flat, left, right = Sum((t23, t25, t27)), Sum((Sum((t23, t25)), t27)), Sum((t23, Sum((t25, t27))))
    assert str(flat) == "T(2,3) # T(2,5) # T(2,7)"
    assert str(left) == "(T(2,3) # T(2,5)) # T(2,7)"
    assert str(right) == "T(2,3) # (T(2,5) # T(2,7))"
    for text, expr in [(str(flat), flat), (str(left), left), (str(right), right)]:
        assert parse_expr(text) == expr
    for expr in [Mirror(Mirror(t23)), Mirror(Sum((t23, Mirror(t25))))]:
        assert parse_expr(str(expr)) == expr


@pytest.mark.parametrize("terms", [(), (Torus(2, 3),)])
def test_a_sum_needs_two_terms(terms):
    with pytest.raises(ValueError, match="two or more terms"):
        Sum(terms)


_TORI = st.tuples(st.integers(2, 12), st.integers(-40, 40)).filter(
    lambda pq: pq[1] != 0 and math.gcd(*pq) == 1
).map(lambda pq: Torus(*pq))
_EXPRS = st.recursive(
    st.one_of(st.just(Unknot()), _TORI),
    lambda inner: st.one_of(
        st.builds(Mirror, inner),
        st.lists(inner, min_size=2, max_size=4).map(lambda terms: Sum(tuple(terms))),
        st.builds(Cable2, st.integers(-30, 30).map(lambda q: 2 * q + 1), inner),
    ),
    max_leaves=12,
)


@given(_EXPRS)
def test_str_round_trips_over_random_trees(expr):
    assert parse_expr(str(expr)) == expr


@pytest.mark.parametrize("text", [
    "C2(-1; T(2,3))",
    "T(2,3) # -T(2,3)",
    "T(4,5)",
    "C2(5;T(2,3)) # T(2,7)",
    "C2(7;T(2,3)) # T(2,5)",
    "C2(3;T(2,3)) # T(2,5)",
    "C2(5;T(2,3)) # T(2,3)",
    "U",
    "C2(5; T(2,3)) # -C2(7; T(2,3)) # T(2,7) # -T(2,5)",
])
def test_every_documented_expression_parses_and_evaluates(text):
    eval_expr(parse_expr(text))


# -- staircases ---------------------------------------------------------------


def test_staircase_from_alexander_examples():
    assert staircase_from_alexander(alexander_torus(4, 5)) == (1, -3, 2, -2, 3, -1)
    assert staircase_from_alexander(alexander_torus(2, 3)) == (1, -1)
    assert staircase_from_alexander(alexander_torus(2, 7)) == (1, -1, 1, -1, 1, -1)
    assert staircase_from_alexander(alexander_torus(2, 1)) == ()


def test_torus_staircase_matches_the_alexander_route_on_a_grid():
    # the coprime 2 <= p <= 29, 2 <= |q| <= 80 of genus at most 200 (628
    # pairs, both signs); the Alexander side of the whole grid takes seconds
    pairs = [(p, q) for p in range(2, 30) for q in range(2, 81)
             if math.gcd(p, q) == 1 and (p - 1) * (q - 1) <= 400]
    assert len(pairs) == 628
    for p, q in pairs:
        want = staircase_from_alexander(alexander_torus(p, q))
        assert torus_staircase(p, q) == torus_staircase(p, -q) == want, (p, q)
        assert torus_staircase(q, p) == want, (q, p)


def test_torus_staircase_of_an_unknot_and_bad_parameters():
    for p in range(2, 30):
        assert torus_staircase(p, 1) == torus_staircase(p, -1) == ()
    for p, q in [(2, 4), (1, 5), (3, 0), (0, 3)]:
        with pytest.raises(ValueError):
            torus_staircase(p, q)


def test_torus_staircase_memory_follows_the_generator_count():
    # T(p, p + 1) has 2p - 1 generators but genus p(p - 1)/2, so a cost that
    # followed the genus would need gigabytes here; its staircase is
    # 1, -(p - 1), 2, -(p - 2), ..., p - 1, -1
    p = 50_000
    assert torus_generators(p, p + 1) == 2 * p - 1 <= MAX_GENERATORS
    tracemalloc.start()
    try:
        seq = eval_expr(parse_expr(f"T({p},{p + 1})")).sequence
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert seq[0::2] == tuple(range(1, p))
    assert seq[1::2] == tuple(range(1 - p, 0))


def test_staircase_rejects_non_lspace_polynomials():
    with pytest.raises(ShapeError):
        staircase_from_alexander({1: 1, -1: 1})
    with pytest.raises(ShapeError):
        staircase_from_alexander({1: 1, 0: -2, -1: 1})
    with pytest.raises(ShapeError):
        staircase_from_alexander({1: 1, 0: -1})
    # odd, alternating, but not symmetric: the symmetry check refuses it
    with pytest.raises(ShapeError, match="not symmetric"):
        staircase_from_alexander({2: 1, 0: -1, -1: 1})


# -- cabling ------------------------------------------------------------------


def test_cable_below_reproduces_the_printed_sequence():
    assert cable2((1, -1), -1) == (1, -2, -1, 1, -1, 1, 2, -1)


def test_cable_above_reproduces_the_printed_sequence():
    got = cable2((1, -3, 2, -2, 3, -1), 27)
    assert got == T45_CABLE_27
    assert len(got) == 26
    # middle run of length 27 - 4g - 1 = 2 sits at the centre
    assert got[12:14] == (1, -1)


def cable_alexander(p_seq, q):
    """Independent oracle: for q > 4g the cable is an L-space knot whose
    Alexander polynomial is Delta_K(t^2) Delta_{T(2,q)}(t).  Delta_K is
    rebuilt from the staircase gaps, alternating signs from the top."""
    coeffs = {}
    level = top_alexander(p_seq)
    sign = 1
    coeffs[level] = sign
    for entry in p_seq:
        level -= abs(entry)
        sign = -sign
        coeffs[level] = sign
    product = {}
    for e1, c1 in coeffs.items():
        for e2, c2 in alexander_torus(2, q).items():
            product[2 * e1 + e2] = product.get(2 * e1 + e2, 0) + c1 * c2
    return {e: c for e, c in product.items() if c}


@pytest.mark.parametrize("seq,q", [
    ((1, -1), 5), ((1, -1), 7), ((1, -1, 1, -1), 11), ((1, -2, 2, -1), 13),
])
def test_cable_above_matches_the_alexander_oracle(seq, q):
    genus = top_alexander(seq)
    assert q > 4 * genus
    assert cable2(seq, q) == staircase_from_alexander(cable_alexander(seq, q))


def test_cable_of_the_unknot_is_a_torus_knot():
    assert cable2((), 7) == (1, -1, 1, -1, 1, -1)
    assert cable2((), -5) == (-1, 1, -1, 1)


def test_cable_rejects_bad_input():
    with pytest.raises(ShapeError):
        cable2((1, -1), 4)
    with pytest.raises(ShapeError):
        cable2((1, -2, -1, 1, -1, 1, 2, -1), 5)


# -- connected sum with a torus knot -----------------------------------------


def test_sum_with_t2_plain_insertion():
    assert sum_with_T2((1, -1, 1, -1), 3) == (1, -1, 1, -1, 1, -1)
    assert sum_with_T2((1, -2, 2, -1), 5) == (1, -2, 1, -1, 1, -1, 2, -1)
    assert sum_with_T2((1, -2, 2, -1), -3) == (1, -2, -1, 1, 2, -1)


def test_sum_with_t2_cancels_opposite_runs():
    # T(2,5) # -T(2,3) is locally equivalent to T(2,3): the inserted run eats
    # the host's central run pair for pair
    assert sum_with_T2((1, -1, 1, -1), -3) == (1, -1)
    assert sum_with_T2((1, -1, 1, -1), -5) == ()
    assert sum_with_T2((1, -1, 1, -1), -7) == (-1, 1)
    # the cable of the trefoil against a (2,5) torus knot: runs annihilate
    assert sum_with_T2((1, -2, -1, 1, -1, 1, 2, -1), 5) == (1, -2, 2, -1)
    assert sum_with_T2((1, -2, -1, 1, -1, 1, 2, -1), 3) == (1, -2, -1, 1, 2, -1)


def test_sum_with_t2_agrees_with_the_pipeline():
    grid = [
        ((1, -1, 1, -1), 3, 1), ((1, -1, 1, -1), 3, -1),
        ((1, -2, 2, -1), 5, 1), ((1, -2, 2, -1), 5, -1),
        ((1, -2, -1, 1, -1, 1, 2, -1), 5, 1), ((1, -2, -1, 1, -1, 1, 2, -1), 3, -1),
        ((1, -2, 1, -1, 1, -1, 2, -1), 3, -1),
    ]
    for host, q, sign in grid:
        torus_seq = validate_seq([sign, -sign] * ((q - 1) // 2))
        assert sum_with_T2(host, sign * q) == pipeline(host, torus_seq)


def test_sum_with_t2_shape_errors():
    # hosts of length 2 mod 4 are taken: their central run holds the middle pair
    assert sum_with_T2((1, -1), 3) == pipeline((1, -1), (1, -1))
    assert sum_with_T2((1, -2, -1, 1, 2, -1), 3) == pipeline((1, -2, -1, 1, 2, -1), (1, -1))
    with pytest.raises(ShapeError, match="host domain"):
        sum_with_T2((), 3)
    with pytest.raises(ShapeError):
        sum_with_T2((2, -1, 1, -2), 3)  # horizontal step of power 2
    for q in (2, 1, -1, -2):
        with pytest.raises(ShapeError, match="odd"):
            sum_with_T2((1, -1, 1, -1), q)


def test_sum_with_t2_refuses_a_host_outside_the_domain():
    # unit horizontal steps alone are not enough: the closed form would give
    # (1, 1, -1, 1, -1, -1), the pipeline gives ten entries
    assert pipeline((1, 1, -1, -1), (-1, 1)) == (1, 1, -1, -1, -1, 1, 1, 1, -1, -1)
    with pytest.raises(ShapeError, match="host domain"):
        sum_with_T2((1, 1, -1, -1), -3)
    # a central run of the other orientation after a unit vertical step: the
    # closed form would give (1, -1, 1, -1), the pipeline gives sixteen entries
    assert len(pipeline((1, -1, -1, 1, 1, -1), (1, -1))) == 16
    with pytest.raises(ShapeError, match="host domain"):
        sum_with_T2((1, -1, -1, 1, 1, -1), 3)


def small_symmetric_sequences(max_half):
    """Every nonempty symmetric sequence whose first half has at most
    ``max_half`` entries, each in +-1 ... 3."""
    for n in range(1, max_half + 1):
        for half in itertools.product((1, -1, 2, -2, 3, -3), repeat=n):
            yield validate_seq(half + tuple(-e for e in reversed(half)))


def test_the_central_run_alone_tells_a_t2_class_and_its_signed_pair_count():
    count = 0
    for s in small_symmetric_sequences(4):
        lo, pairs, orientation = _central_run(s)
        t2 = abs(s[0]) == 1 and s == (s[0], -s[0]) * (len(s) // 2)
        assert (lo == 0) == t2, s
        if t2:
            assert pairs * orientation == len(s) // 2 * s[0], s
        count += 1
    assert count == 1554
    assert _central_run(()) == (0, 0, 0)


def looped_central_run(s):
    """_central_run as a Python loop walking back from the middle."""
    m = lo = len(s) // 2
    while lo and abs(s[lo - 1]) == 1 and s[lo - 1] == -s[lo]:
        lo -= 1
    lo = min(lo + lo % 2, m)
    return lo, m - lo, s[lo] if lo < m else 0


def test_the_central_run_ends_where_the_loop_over_the_half_ends():
    count = 0
    for s in small_symmetric_sequences(5):
        assert _central_run(s) == looped_central_run(s), s
        count += 1
    assert count == 9330
    # long runs, whole or behind a non-unit or a repeated sign
    for head in ((), (2, -1), (1, 1), (-1, 3, 1)):
        for k in (1, 2, 999, 1000):
            half = head + (1, -1) * k
            s = validate_seq(half + tuple(-e for e in reversed(half)))
            assert _central_run(s) == looped_central_run(s), (head, k)


def test_a_t2_staircase_is_the_unit_pairs_the_semigroup_reads():
    # T(2, q) is built as (1, -1)^((|q| - 1)/2); T(q, 2) names the same knot
    # and still takes the semigroup route
    for q in range(1, 402, 2):
        want = (1, -1) * ((q - 1) // 2)
        assert torus_staircase(2, q) == torus_staircase(2, -q) == want, q
        if q > 1:
            assert torus_staircase(q, 2) == want, q


def test_the_host_domain_implies_a_nonempty_host_with_unit_horizontal_steps():
    # what sum_with_T2 needs of a host beyond the domain: nothing
    hosts = [s for s in small_symmetric_sequences(5) if knots._t2_host(s) is not None]
    assert len(hosts) == 74 and knots._t2_host(()) is None
    for s in hosts:
        assert all(abs(h) == 1 for h in s[: len(s) // 2 : 2]), s


def test_the_genus_of_a_staircase_is_the_sum_of_its_horizontal_steps():
    staircases = [s for s in small_symmetric_sequences(4) if staircase_shaped(s)]
    assert len(staircases) == 120
    for s in staircases:
        assert sum(s[0::2]) == top_alexander(s), s


def random_t2_host(rng, odd=False):
    """A palindromic host with unit horizontal steps, mostly of one sign
    epsilon with verticals of sign -epsilon, ending in a central unit run of
    either orientation: near both sides of the boundary of the domain.  With
    ``odd`` the first half has odd length, so the host's length is 2 mod 4:
    it ends on a middle horizontal step that mostly extends the run."""
    eps = rng.choice((1, -1))
    half = []
    for _ in range(rng.randint(0, 4)):
        h = eps if rng.random() < 0.8 else -eps
        v = (-eps if rng.random() < 0.8 else eps) * rng.randint(1, 3)
        half += [h, v]
    run = rng.choice((1, -1))
    half += [run, -run] * rng.randint(0, 3)
    if odd:
        half.append(run * (1 if rng.random() < 0.8 else 2))
    return validate_seq(half + [-e for e in reversed(half)])


def accepted_and_refused(rng, odd):
    """Fold 600 random hosts (of length 2 mod 4 with ``odd``) with a random
    T(2, q), require every accepted fold to equal the pipeline, and return
    the counts of accepted and refused hosts."""
    accepted = refused = 0
    for _ in range(600):
        host = random_t2_host(rng, odd)
        assert len(host) % 4 == 2 * odd
        q, sign = rng.choice((3, 5, 7, 9)), rng.choice((1, -1))
        try:
            closed = sum_with_T2(host, sign * q)
        except ShapeError:
            refused += 1
            continue
        accepted += 1
        assert closed == pipeline(host, (sign, -sign) * ((q - 1) // 2)), (host, q, sign)
    return accepted, refused


def test_sum_with_t2_agrees_with_the_pipeline_on_every_accepted_host():
    accepted, refused = accepted_and_refused(random.Random(2201), odd=False)
    assert accepted > 200 and refused > 100


def test_sum_with_t2_agrees_with_the_pipeline_on_every_accepted_host_of_length_2_mod_4():
    accepted, refused = accepted_and_refused(random.Random(2602), odd=True)
    assert accepted > 200 and refused > 100


# -- formulas -----------------------------------------------------------------


def test_tau_cable_formula():
    assert tau_cable_formula(1, 1, 2, -1) == 1
    assert tau_cable_formula(0, 0, 2, 7) == 3
    assert tau_cable_formula(0, 0, 2, -3) == -1
    assert tau_cable_formula(1, -1, 2, 3) == 4
    assert tau_cable_formula(-1, -1, 2, -3) == -3
    assert tau_cable_formula(-2, -1, 3, 5) == 0


def test_tau_cable_formula_for_epsilon_minus_one_through_the_mirror():
    # C2(q; -K) = -C2(-q; K), and -K has epsilon -1 when K is a staircase
    cases = 0
    for p, q0 in [(2, 3), (2, 5), (2, 7), (3, 4), (4, 5)]:
        s = staircase_from_alexander(alexander_torus(p, q0))
        g = top_alexander(s)
        for q in range(-15, 16, 2):
            got = tau(mirror_seq(cable2(s, -q)))
            assert got == tau_cable_formula(-tau(s), -1, 2, q), (p, q0, q)
            cases += 1
    assert cases == 80


def test_tau_cable_formula_rejects_a_bad_epsilon():
    with pytest.raises(ValueError):
        tau_cable_formula(1, 2, 2, 3)
    with pytest.raises(ValueError):
        tau_cable_formula(1, 1, 1, 3)


def test_cable_genus():
    assert cable_genus(1, 2, -1) == 2
    assert cable_genus(6, 2, 27) == 25
    assert cable_genus(0, 2, 7) == 3
    with pytest.raises(ValueError):
        cable_genus(1, 2, 0)
    with pytest.raises(ValueError):
        cable_genus(1, 1, 3)


def test_cable_genus_is_half_the_entry_sum_of_the_cable_sequence():
    assert sum(abs(e) for e in T45_CABLE_27) // 2 == cable_genus(6, 2, 27)


# -- evaluation ---------------------------------------------------------------


def test_eval_examples():
    assert eval_expr(Torus(2, 3)).sequence == (1, -1)
    assert eval_expr(Sum((Torus(2, 3), Mirror(Torus(2, 3))))).sequence == ()
    assert eval_expr(Cable2(-1, Torus(2, 3))).sequence == (1, -2, -1, 1, -1, 1, 2, -1)
    assert eval_expr(Torus(2, -3)).sequence == (-1, 1)
    assert eval_expr(Unknot()).sequence == ()


def test_torus_generators_counts_the_built_staircase():
    pairs = [(p, q) for p in range(2, 14) for q in range(p + 1, 45) if math.gcd(p, q) == 1]
    assert len(pairs) == 272
    for p, q in pairs:
        built = len(eval_expr(Torus(p, q)).sequence) + 1
        assert torus_generators(p, q) == torus_generators(p, -q) == built, (p, q)
    assert torus_generators(2000, 2001) == 3999


def test_eval_reports_loops():
    # T(2,3) # T(2,3) folds by the closed form and sheds none; this builds
    # one product
    result = eval_expr(Sum((Torus(3, 4), Torus(3, 4))))
    assert result.sequence == (1, -2, 1, -2, 2, -1, 2, -1)
    assert result.loop_count == 4


def test_eval_cable_requires_a_staircase():
    with pytest.raises(EvalError):
        eval_expr(Cable2(3, Cable2(-1, Torus(2, 3))))


def test_eval_iterated_cable():
    inner = Cable2(7, Torus(2, 3))  # q = 7 > 4g = 4 keeps an L-space staircase
    seq = eval_expr(inner).sequence
    assert seq == (1, -3, 1, -1, 3, -1)
    outer = eval_expr(Cable2(5, inner))
    assert top_alexander(outer.sequence) == cable_genus(top_alexander(seq), 2, 5)


def test_locally_equivalent_examples():
    assert locally_equivalent(Sum((Torus(2, 3), Mirror(Torus(2, 3)))), Unknot())
    K = Torus(2, 3)
    lhs = Sum((Cable2(5, K), Torus(2, 7)))
    rhs = Sum((Cable2(7, K), Torus(2, 5)))
    assert locally_equivalent(lhs, rhs)
    lhs = Sum((Cable2(3, K), Torus(2, 5)))
    rhs = Sum((Cable2(5, K), Torus(2, 3)))
    assert not locally_equivalent(lhs, rhs)


def plain(expr):
    """gamma_0 by the sum pipeline at every written '#'."""
    return _written_grouping(expr)[0]


def test_gamma0_of_cancels_a_summand_only_against_its_mirror():
    K = Cable2(5, Torus(3, 4))
    assert eval_expr(Sum((Sum((K, Torus(2, 3))), Mirror(K)))).sequence == (1, -1)
    assert eval_expr(Mirror(Sum((Mirror(K), Sum((Unknot(), K)))))).sequence == ()
    twice = Sum((Torus(3, 4), Torus(3, 4)))
    assert eval_expr(twice).sequence == plain(twice) == (1, -2, 1, -2, 2, -1, 2, -1)


def count_searches(monkeypatch):
    """Make every call of knots._sum_gamma0 append to the returned list."""
    built = []
    real = knots._sum_gamma0

    def counted(s1, s2):
        built.append(1)
        return real(s1, s2)

    monkeypatch.setattr(knots, "_sum_gamma0", counted)
    return built


@pytest.mark.parametrize("text,products", [
    ("T(2,21) # -T(2,21)", 0),  # cancelled
    ("C2(5;T(2,3)) # T(2,9)", 0),  # folded into a cable host
    ("T(2,5) # C2(5;T(2,3))", 0),  # the T(2,q) summand waits for its host
    ("T(2,5) # T(2,3)", 0),  # (1,-1,1,-1) is a host
    ("T(2,3) # T(2,3)", 0),  # so is (1,-1), of length 2 mod 4
    ("C2(11;T(2,3)) # T(2,5)", 0),  # a cable host of length 2 mod 4
    # (1,-3,2,-2,3,-1) has a middle horizontal step of 2 and no central run:
    # outside the domain, so T(2,3) joins it through the pipeline
    ("T(4,5) # T(2,3)", 1),
    # T(2,5) folds into the cable host before -T(3,4) joins it: one product
    ("C2(5;T(2,3)) # -T(3,4) # T(2,5)", 1),
    # the pair count 2 + 5 joins the host (1,-3,2,-2,3,-1), outside the
    # domain, as T(2,15) by one product
    ("T(2,5) # T(2,11) # T(4,5)", 1),
    # the cable difference is the one product; both T(2,q) summands fold
    ("C2(7;T(2,3)) # -C2(5;T(2,3)) # T(2,5) # -T(2,7)", 1),
])
def test_gamma0_of_builds_a_product_only_where_no_closed_form_applies(monkeypatch, text, products):
    built = count_searches(monkeypatch)
    expr = parse_expr(text)
    got = eval_expr(expr).sequence
    assert len(built) == products
    assert got == plain(expr)


@pytest.mark.parametrize("text,searches", [
    ("T(3,4) # -T(5,48)", 1),
    ("T(3,4) # T(5,52)", 1),
    ("C2(3;T(3,4)) # -T(5,6) # -T(5,6)", 2),  # the second product fails
])
def test_a_failed_search_of_the_written_products_runs_once(monkeypatch, capsys, text, searches):
    # a failure of a planned product is final, and nothing is searched
    # again; a budget of 100 merges whatever the size lets the first product
    # of the three-summand sum through and stops its second
    monkeypatch.setattr(knots, "_simplify", lambda mat, arrows: standard._search(mat, 100))
    built = count_searches(monkeypatch)
    assert main(["gamma0", text]) == 2
    assert capsys.readouterr().err == "error: no simplified basis within the merge cap\n"
    assert len(built) == searches


@pytest.mark.parametrize("text,other", [
    ("T(3,4) # -T(5,48)", "-T(5,48) # T(3,4)"),
    ("T(3,4) # T(5,52)", "T(5,52) # T(3,4)"),
    ("C2(3;T(3,4)) # -T(5,6) # -T(5,6)", "-T(5,6) # (C2(3;T(3,4)) # -T(5,6))"),
])
def test_a_sum_that_once_failed_agrees_with_its_swapped_form(capsys, text, other):
    # the basis search once spent its merge cap on the first form of each
    def report(expr):
        assert main(["invariants", expr]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line for line in lines if line.startswith(("gamma0:", "loopCount:"))]

    got = report(text)
    assert len(got) == 2
    assert got == report(other)


@pytest.mark.parametrize("text", [
    "C2(27;T(4,5)) # -C2(25;T(4,5)) # T(2,25) # -T(2,27)",
    "(C2(27;T(4,5)) # -C2(25;T(4,5))) # (T(2,25) # -T(2,27))",
    "C2(27;T(4,5)) # T(2,25) # -C2(25;T(4,5)) # -T(2,27)",
])
def test_the_loop_count_does_not_depend_on_the_grouping(capsys, text):
    # with the pipeline run at every written '#', these shed 346, 322 and
    # 634 loops
    assert main(["invariants", text]) == 0
    out = capsys.readouterr().out
    assert "gamma0: []\n" in out and "loopCount: 140\n" in out


def test_a_t2_pair_count_folds_before_the_product_that_would_exceed_the_limit(monkeypatch, capsys):
    # the cable tensored with T(7,149) would need 102,711 generators; with
    # T(2,199) folded into it first, the cable host has 6 entries, and the
    # one product 3,577 generators
    text = "C2(201;T(2,3)) # -T(2,199) # T(7,149)"
    built = count_searches(monkeypatch)
    assert main(["gamma0", text]) == 0
    seq = capsys.readouterr().out
    assert len(built) == 1
    assert main(["invariants", text]) == 0
    assert f"gamma0: {seq}" in capsys.readouterr().out
    assert len(built) == 2
    assert seq.count(",") + 1 == 680
    assert seq == f"[{','.join(map(str, plain(parse_expr(text))))}]\n"


@pytest.mark.parametrize("text,generators", [
    # the pair count is the whole result: 50 pairs
    ("T(2,51) # T(2,51)", 101),
    # a fold into T(3,4), whose central run is empty: 2 * 2 + 2 * 48 entries
    ("T(3,4) # T(2,49) # T(2,49)", 101),
    # a fold into the cable (1,-2,-1,1,2,-1), lo = 2, of -1 + 49 pairs
    ("C2(1; T(2,3)) # T(2,51) # T(2,49)", 101),
])
def test_a_t2_pair_count_above_the_size_limit_is_refused_before_it_is_built(
    monkeypatch, capsys, text, generators
):
    monkeypatch.setattr(knots, "MAX_GENERATORS", 100)
    folds = []
    monkeypatch.setattr(knots, "_fold_t2", lambda s, lo, c: folds.append(c))
    code, out, err = main(["gamma0", text]), *capsys.readouterr()
    assert (code, out, folds) == (2, "", [])
    assert err == f"error: {text} needs a complex of {generators} generators, more than the limit of 100\n"


@pytest.mark.parametrize("companion", ["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "T(4,5)", "C2(9;T(2,3))"])
def test_a_cable_of_a_mirrored_staircase_meets_the_cabling_formulas(companion):
    # C2(q; -K) = -C2(-q; K); tau by Hom's formula with epsilon(-K) = -1
    K = parse_expr(companion)
    tau_k, genus = -tau(eval_expr(K).sequence), genus_of(K)
    for q in range(-41, 42, 2):
        seq = eval_expr(Cable2(q, Mirror(K))).sequence
        assert tau(seq) == tau_cable_formula(tau_k, -1, 2, q), q
        assert top_alexander(seq) <= cable_genus(genus, 2, q), q


def test_a_cable_of_a_mirror_cancels_the_mirror_of_its_identity(monkeypatch):
    built = count_searches(monkeypatch)
    assert eval_expr(parse_expr("C2(5;-T(2,3)) # C2(-5;T(2,3))")) == EvalResult((), 0)
    assert built == []


# torus knots T(p,q), 2 <= p <= 7 and p < q <= 120, by their staircase's generator count
_TORUS_GENS = {(p, q): torus_generators(p, q)
               for p in range(2, 8) for q in range(p + 1, 121) if math.gcd(p, q) == 1}
_PRODUCT_GENS = 2_000  # keeps each search small


@st.composite
def _torus_pairs(draw):
    """Two signed torus staircases whose product has at most _PRODUCT_GENS
    generators; the smallest staircase, T(2,3)'s, has 3."""
    first = draw(st.sampled_from([k for k, n in _TORUS_GENS.items() if 3 * n <= _PRODUCT_GENS]))
    room = _PRODUCT_GENS // _TORUS_GENS[first]
    second = draw(st.sampled_from([k for k, n in _TORUS_GENS.items() if n <= room]))
    signs = draw(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))
    return tuple(torus_staircase(*k) if sign > 0 else mirror_seq(torus_staircase(*k))
                 for k, sign in zip((first, second), signs))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_torus_pairs())
def test_the_sum_of_two_torus_knots_does_not_depend_on_the_operand_order(pair):
    a, b = pair
    assert sum_gamma0(a, b) == sum_gamma0(b, a)


_PLAN_LEAVES = st.one_of(
    st.just(Unknot()),
    st.sampled_from([3, 5, 7, 9, 11]).map(lambda q: Torus(2, q)),
    st.sampled_from([(3, 4), (3, 5), (4, 5), (3, 7)]).map(lambda pq: Torus(*pq)),
    st.builds(
        Cable2,
        st.sampled_from([-5, -3, -1, 1, 3, 5, 7, 9, 13]),
        st.sampled_from([Torus(2, 3), Torus(2, 5), Torus(3, 4)]),
    ),
)
_PLAN_EXPRS = st.recursive(
    _PLAN_LEAVES,
    lambda inner: st.one_of(st.builds(Mirror, inner), st.builds(lambda a, b: Sum((a, b)), inner, inner)),
    max_leaves=5,
).filter(lambda e: genus_of(e) <= 24)  # keeps every product small


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_PLAN_EXPRS, _PLAN_EXPRS)
def test_gamma0_of_equals_the_pipeline_on_random_sums(e1, e2):
    g1, g2 = eval_expr(e1).sequence, eval_expr(e2).sequence
    assert g1 == plain(e1)
    assert g2 == plain(e2)
    assert locally_equivalent(e1, e2) == (g1 == g2)
    assert locally_equivalent(Sum((e1, e2)), Sum((e2, Mirror(Mirror(e1)))))
    assert eval_expr(Sum((e1, Mirror(Sum((e2, e1)))))).sequence == eval_expr(Mirror(e2)).sequence


def _chain(summands, left=True):
    """The sum of the summands, grouped from the left or from the right."""
    if left:
        return functools.reduce(lambda acc, e: Sum((acc, e)), summands)
    return functools.reduce(lambda acc, e: Sum((e, acc)), reversed(summands))


_SIGNED_LEAVES = st.builds(lambda leaf, mirrored: Mirror(leaf) if mirrored else leaf,
                           _PLAN_LEAVES, st.booleans())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_SIGNED_LEAVES, min_size=2, max_size=4).filter(
    lambda summands: sum(map(genus_of, summands)) <= 24), st.data())
def test_the_evaluation_does_not_depend_on_the_grouping(summands, data):
    # the same signed summands, flat, left-chained, right-chained and with a
    # mirror pulled over a sub-sum, give the same sequence and loop count
    i = data.draw(st.integers(0, len(summands) - 2))
    j = data.draw(st.integers(i + 2, len(summands)))
    negated = [e.inner if isinstance(e, Mirror) else Mirror(e) for e in summands[i:j]]
    pulled = summands[:i] + [Mirror(_chain(negated))] + summands[j:]
    want = eval_expr(Sum(tuple(summands)))
    assert eval_expr(_chain(summands)) == want
    assert eval_expr(_chain(summands, left=False)) == want
    assert eval_expr(_chain(pulled)) == want


def test_p_knot_structure():
    expr = p_knot(Torus(2, 3), 5, 7)
    assert expr == Sum((
        Cable2(5, Torus(2, 3)), Mirror(Cable2(7, Torus(2, 3))), Torus(2, 7), Mirror(Torus(2, 5)),
    ))
    p_knot(Torus(2, 3), 1, 3)  # q = 1 cables and unknotted torus summands work
    with pytest.raises(ValueError):
        p_knot(Torus(2, 3), 3, 3)
    with pytest.raises(ValueError):
        p_knot(Torus(2, 3), 2, 3)


def test_genus_of():
    assert genus_of(Torus(2, 3)) == 1
    assert genus_of(Torus(4, 5)) == 6
    assert genus_of(Cable2(-1, Torus(2, 3))) == 2
    assert genus_of(Sum((Torus(2, 3), Mirror(Torus(2, 3))))) == 2
    assert genus_of(Sum((Torus(2, 3), Torus(3, 4), Mirror(Torus(2, 5))))) == 1 + 3 + 2
    assert genus_of(Unknot()) == 0


def test_tau_additivity_under_eval():
    seq = eval_expr(Sum((Cable2(-1, Torus(2, 3)), Torus(2, 5)))).sequence
    assert tau(seq) == 1 + 2
    assert seq == (1, -2, 2, -1)
