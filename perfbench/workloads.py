"""Seeded operation lists for the four workloads, with their checks.

An operation is one cfkzero CLI command.  Its check reads the printed
output and the exit code and compares them with the oracles in
``oracles.py``, never with a stored copy of an earlier output.  A check
returns None when the output is right and a one-line reason otherwise.

Each workload is a ladder of rungs.  The seed picks the inputs of a rung
from a pool whose generator counts lie in a fixed band, so runs on
different seeds do comparable work.  The top rung of the two sum workloads
is one fixed knot: at that size the basis search costs up to twice as much
for one knot as for another of similar size, and one such operation is a
large share of a round.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Optional

import oracles as o

Check = Callable[[str, int], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check = field(compare=False)
    group: str = ""  # operations of one group must print the same gamma_0


def parse_seq(text: str) -> tuple[int, ...]:
    return tuple(json.loads(text.strip()))


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def gamma0_of_output(argv: tuple[str, ...], stdout: str) -> tuple[int, ...]:
    """The gamma_0 sequence an operation printed (gamma0 or invariants)."""
    if argv[0] == "gamma0":
        return parse_seq(stdout)
    return parse_seq(parse_report(stdout)["gamma0"])


def _fmt(seq) -> str:
    return "[" + ",".join(str(e) for e in seq) + "]"


def _seq_problems(seq: tuple[int, ...], tau: int, top: Optional[int] = None) -> Optional[str]:
    """Shape checks every gamma_0 must pass: symmetry and the walk's start."""
    if not o.is_symmetric(seq):
        return f"{_fmt(seq)} is not reverse-negate symmetric"
    values = o.walk(seq)
    if values[0] != tau:
        return f"walk of {_fmt(seq)} starts at {values[0]}, tau is {tau}"
    if top is not None and max(values) != top:
        return f"walk of {_fmt(seq)} peaks at {max(values)}, want {top}"
    return None


Expect = Optional[Callable[[], tuple[int, ...]]]


def gamma0_op(e: tuple, want: Expect = None, top: bool = False, group: str = "") -> Op:
    """`gamma0 <e>`: the exact sequence when an oracle gives it, otherwise
    symmetry, tau from the walk and, with ``top``, the walk's maximum equal
    to the genus.  Oracles run inside the check, outside set-up and timing."""

    def check(stdout: str, rc: int) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        seq = parse_seq(stdout)
        if want is not None and seq != want():
            return f"gamma0 {_fmt(seq)}, want {_fmt(want())}"
        return _seq_problems(seq, o.tau(e), o.genus(e) if top else None)

    return Op(("gamma0", o.render(e)), check, group)


def invariants_op(e: tuple, want: Expect = None, top: bool = False) -> Op:
    """`invariants <e>`: the report's gamma0 as in gamma0_op; tau and genus
    against the oracles; topA equal to the walk's maximum, within
    |tau| <= topA <= genus, and `sharp` exactly when topA = genus.  With
    ``top``, topA must equal the genus, so `sharp` must be true."""

    def check(stdout: str, rc: int) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        tau, genus = o.tau(e), o.genus(e)
        rep = parse_report(stdout)
        seq = parse_seq(rep["gamma0"])
        if want is not None and seq != want():
            return f"gamma0 {_fmt(seq)}, want {_fmt(want())}"
        problem = _seq_problems(seq, tau, genus if top else None)
        if problem:
            return problem
        got_tau, got_top, got_genus = int(rep["tau"]), int(rep["topA"]), int(rep["genus"])
        if got_tau != tau:
            return f"tau {got_tau}, want {tau}"
        if got_genus != genus:
            return f"genus {got_genus}, want {genus}"
        if got_top != max(o.walk(seq)):
            return f"topA {got_top} is not the walk maximum"
        if not abs(tau) <= got_top <= genus:
            return f"|tau| <= topA <= genus fails: {tau}, {got_top}, {genus}"
        if (rep["sharp"] == "true") != (got_top == genus):
            return f"sharp: {rep['sharp']} with topA {got_top}, genus {genus}"
        return None

    return Op(("invariants", o.render(e)), check)


def equiv_op(k: tuple, q1: int, q2: int) -> Op:
    """`equiv "C2(q1;K) # T(2,q2)" "C2(q2;K) # T(2,q1)"` against the regime rule."""
    def check(stdout: str, rc: int) -> Optional[str]:
        same = o.regime_equivalent(q1, q2, o.genus(k))
        want = "EQUIVALENT" if same else "NOT EQUIVALENT"
        if stdout.strip() != want or rc != (0 if same else 1):
            return f"printed {stdout.strip()!r} with exit {rc}, want {want!r}"
        return None

    left = o.csum(o.cable(q1, k), o.torus(2, q2))
    right = o.csum(o.cable(q2, k), o.torus(2, q1))
    return Op(("equiv", o.render(left), o.render(right)), check)


# -- cancel-sums ----------------------------------------------------------------

SMALL_COMPANIONS = [o.torus(2, 3), o.torus(2, 5), o.torus(3, 4)]
COMPANIONS = SMALL_COMPANIONS + [o.torus(2, 7), o.torus(3, 5), o.torus(4, 5)]


def _odd_in(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if q % 2]


def stratified(rng: random.Random, pool: list, count: int, key: Callable) -> list:
    """One random member from each of ``count`` equal slices of the pool
    sorted by ``key``: every seed gets the same spread of sizes, which keeps
    the medians of different seeds close."""
    pool = sorted(pool, key=key)
    return [rng.choice(pool[i * len(pool) // count:(i + 1) * len(pool) // count])
            for i in range(count)]


def _regime_qs(g: int, which: str, reach: int = 61) -> list[int]:
    """Odd q in one regime of a genus-g companion, at most ``reach`` past
    the regime's boundary."""
    if which == "above":
        return _odd_in(4 * g + 1, 4 * g + reach)
    if which == "middle":
        return _odd_in(1, 4 * g - 1)
    return _odd_in(-reach, -1)


def _cable_difference_gens(item: tuple) -> int:
    k, q1, q2 = item
    return o.generator_count(o.cable(q1, k)) * o.generator_count(o.cable(q2, k))


def cable_difference_pool(lo: int, hi: int) -> list[tuple]:
    """(K, q1, q2) with q1 != q2 in one regime of K and
    gens(C2(q1;K)) * gens(C2(q2;K)) in [lo, hi]."""
    pool = []
    for k in COMPANIONS:
        g = o.genus(k)
        for which in ("above", "middle", "negative"):
            qs = _regime_qs(g, which)
            for q1 in qs:
                for q2 in qs:
                    if q1 != q2 and lo <= _cable_difference_gens((k, q1, q2)) <= hi:
                        pool.append((k, q1, q2))
    return pool


def self_cancel_pool(lo: int, hi: int) -> list[tuple]:
    """Knots K with gens(K)^2 in [lo, hi]: torus knots and (iterated) cables."""
    pool = []
    for p in range(2, 8):
        for q in range(p + 1, 30):
            if gcd(p, q) == 1 and lo <= o.generator_count(o.torus(p, q)) ** 2 <= hi:
                pool.append(o.torus(p, q))
    for k in SMALL_COMPANIONS + [o.torus(2, 7)]:
        g = o.genus(k)
        for q in _odd_in(-(4 * g + 41), 4 * g + 41):
            c = o.cable(q, k)
            if lo <= o.generator_count(c) ** 2 <= hi:
                pool.append(c)
    return pool


def equiv_pool(lo: int, hi: int) -> list[tuple]:
    """(K, q1, q2), q1 != q2, for the small companions and |q| near 4g,
    whose two tensor products have lo to hi generators together."""
    pool = []
    for k in SMALL_COMPANIONS:
        g = o.genus(k)
        qs = _odd_in(-(4 * g + 3), 4 * g + 5)
        pool.extend((k, q1, q2) for q1 in qs for q2 in qs
                    if q1 != q2 and lo <= _equiv_gens((k, q1, q2)) <= hi)
    return pool


def _equiv_gens(item: tuple) -> int:
    """Generators of the two tensor products an equiv call builds."""
    k, q1, q2 = item
    return sum(o.generator_count(o.cable(a, k)) * (abs(b) + 1) for a, b in ((q1, q2), (q2, q1)))


def four_summand(k: tuple, q1: int, q2: int, grouping: int) -> tuple:
    """C2(q1;K) # -C2(q2;K) # T(2,q2) # -T(2,q1) in one of three groupings."""
    a, b = o.cable(q1, k), o.mirror(o.cable(q2, k))
    c, d = o.torus(2, q2), o.mirror(o.torus(2, q1))
    if grouping == 0:
        return o.csum(a, b, c, d)
    if grouping == 1:
        return ("S", ("S", a, b), ("S", c, d))
    return ("S", a, ("S", b, ("S", c, d)))


def cancel_sums(rng: random.Random) -> list[Op]:
    """103 operations: one fixed 1,023-generator cable difference, a rung
    of 20 cable differences near 275 generators that holds the 90th
    percentile, and 82 cheaper sums and equiv calls that hold the median.
    The bands are narrow because, within a band, one knot can cost three
    times as much as another; wide bands let the median move with the
    seed (by 16% between seeds, where these bands give 5%)."""
    ops: list[Op] = []
    # both cables above 4g = 24, so the difference is T(2,3)'s staircase
    top = o.csum(o.cable(33, o.torus(4, 5)), o.mirror(o.cable(31, o.torus(4, 5))))
    ops.append(invariants_op(top, want=lambda: o.cable_difference(33, 31)))
    # cable differences on one side of 4g and 0
    for lo, hi, count in ((250, 300, 20), (150, 200, 20)):
        pool = cable_difference_pool(lo, hi)
        for k, q1, q2 in stratified(rng, pool, count, _cable_difference_gens):
            e = o.csum(o.cable(q1, k), o.mirror(o.cable(q2, k)))
            ops.append(invariants_op(e, want=functools.partial(o.cable_difference, q1, q2)))
    # exact K # -K, written with the mirror on either side
    for k in stratified(rng, self_cancel_pool(144, 225), 20, o.generator_count):
        e = o.csum(k, o.mirror(k)) if rng.random() < 0.5 else o.csum(o.mirror(k), k)
        ops.append(gamma0_op(e, want=tuple))
    # four-summand knots, three groupings each; in one regime they cancel to
    # []. Companion and regimes are fixed per knot, so only q varies.
    plan = (("above", "above"), ("middle", "middle"), ("negative", "negative"), ("above", "middle"))
    for n, (r1, r2) in enumerate(plan):
        k = SMALL_COMPANIONS[n % 2]
        g = o.genus(k)
        q1 = rng.choice(_regime_qs(g, r1, 9))
        q2 = rng.choice([q for q in _regime_qs(g, r2, 9) if q != q1])
        want = tuple if r1 == r2 else None
        for grouping in range(3):
            ops.append(gamma0_op(four_summand(k, q1, q2, grouping), want=want, group=f"p{n}"))
    # equiv on regime pairs
    for k, q1, q2 in stratified(rng, equiv_pool(150, 300), 30, _equiv_gens):
        ops.append(equiv_op(k, q1, q2))
    rng.shuffle(ops)
    return ops


# -- torus-sums -------------------------------------------------------------------


def _torus_pool(max_gens: int) -> list[tuple]:
    out = []
    for p in range(2, 12):
        for q in range(p + 1, 30):
            if gcd(p, q) == 1 and _knot_gens(o.torus(p, q)) <= max_gens:
                out.append(o.torus(p, q))
    return out


@functools.lru_cache(maxsize=None)
def _knot_gens(k: tuple) -> int:
    return o.generator_count(k)


def _torus_gens(knots: tuple) -> int:
    """Largest tensor product a left-grouped sum builds; for three summands
    the second product is bounded by (a + b) c, since gamma_0(A # B) has at
    most a + b generators here."""
    gens = [_knot_gens(k) for k in knots]
    biggest = gens[0] * gens[1]
    if len(gens) == 3:
        biggest = max(biggest, (gens[0] + gens[1]) * gens[2])
    return biggest


def torus_sum_pool(n: int, lo: int, hi: int, least: int) -> list[tuple]:
    """Ordered tuples of n distinct torus knots of at least ``least``
    generators each whose largest tensor product has a generator count in
    [lo, hi].  The floor keeps out sums with a trefoil-sized summand, which
    cost a tenth of a balanced sum of the same size."""
    pool = sorted((k for k in _torus_pool(hi) if _knot_gens(k) >= least), key=_knot_gens)
    pairs = [(a, b) for a in pool for b in pool
             if a != b and _knot_gens(a) * _knot_gens(b) <= hi]
    if n == 2:
        return [p for p in pairs if lo <= _torus_gens(p)]
    out = []
    for a, b in pairs:
        for c in pool:
            if (_knot_gens(a) + _knot_gens(b)) * _knot_gens(c) > hi:
                break
            if c not in (a, b) and lo <= _torus_gens((a, b, c)):
                out.append((a, b, c))
    return out


def _torus_summands(e: tuple) -> list[tuple]:
    if e[0] == "S":
        return _torus_summands(e[1]) + _torus_summands(e[2])
    return [e]


def torus_sum_op(e: tuple) -> Op:
    parts = _torus_summands(e)
    same_sign = len({p[0] for p in parts}) == 1
    return invariants_op(e, top=same_sign)


TORUS_RUNGS = (
    # (signs, band lo, band hi, least generators per summand, count): a
    # heavy rung of 20 that holds the 90th percentile, then 96 cheap sums
    # that hold the median
    ((1, -1), 450, 550, 9, 14),
    ((1, 1), 450, 550, 9, 6),
    ((1, 1), 100, 150, 7, 28),
    ((-1, -1), 100, 150, 7, 10),
    ((1, -1), 100, 150, 7, 38),
    ((1, 1, 1), 100, 150, 5, 10),
    ((1, -1, 1), 100, 150, 5, 10),
)


def torus_sums(rng: random.Random) -> list[Op]:
    # top rung, fixed: 37 x 41 = 1,517 generators, mixed signs
    ops = [torus_sum_op(o.csum(o.torus(7, 22), o.mirror(o.torus(6, 25))))]
    for signs, lo, hi, least, count in TORUS_RUNGS:
        pool = torus_sum_pool(len(signs), lo, hi, least)
        for knots in stratified(rng, pool, count, _torus_gens):
            parts = [k if sign > 0 else o.mirror(k) for k, sign in zip(knots, signs)]
            ops.append(torus_sum_op(o.csum(*parts)))
    rng.shuffle(ops)
    return ops


# -- iterated-cables ------------------------------------------------------------------


def iterated_cable(rng: random.Random) -> tuple:
    """A (2,q)-cable of depth 1 to 3 over a positive torus knot.  Inner
    levels stay in the L-space range q >= 4g - 1; the outer one takes any
    odd q in [-(4g+5), 4g+9]."""
    depth = rng.choice((1, 2, 3))
    k = rng.choice(SMALL_COMPANIONS if depth == 3 else COMPANIONS)
    for _ in range(depth - 1):
        g = o.genus(k)
        k = o.cable(rng.choice(_odd_in(4 * g - 1, 4 * g + 9)), k)
    g = o.genus(k)
    return o.cable(rng.choice(_odd_in(-(4 * g + 5), 4 * g + 9)), k)


ITERATED_OPS = 3000


def iterated_cables(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(ITERATED_OPS):
        e = iterated_cable(rng)
        want = functools.partial(o.lspace_staircase, e) if o.is_lspace(e) else None
        if rng.random() < 0.5:
            ops.append(invariants_op(e, want=want, top=True))
        else:
            ops.append(gamma0_op(e, want=want, top=True))
    return ops


# -- verify-paper -------------------------------------------------------------------

PAPER_CHECKS = (
    "staircase-extraction",
    "cabling-closed-forms",
    "connected-sum-oracle",
    "regime-equivalences",
    "cable-sharpness-and-tau",
    "involutive-identities",
    "property-suites",
)


def verify_paper(rng: random.Random) -> list[Op]:
    """The suite takes no input, so the seed changes nothing here."""

    def check(stdout: str, rc: int) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        passed = {line.split()[1].rstrip(":") for line in stdout.splitlines()
                  if line.startswith("PASS ")}
        missing = set(PAPER_CHECKS) - passed
        return f"checks not passed: {sorted(missing)}" if missing else None

    return [Op(("verify-paper",), check)]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "cancel-sums": cancel_sums,
    "torus-sums": torus_sums,
    "iterated-cables": iterated_cables,
    "verify-paper": verify_paper,
}


def generate(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
