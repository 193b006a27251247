"""Command-line surface: evaluate knot expressions, report invariants,
compare local equivalence classes, draw gamma_0, and re-run the verification
suite for the implemented closed forms.

Subcommands: gamma0, invariants, equiv, svg, verify-paper.  Exit codes:
0 success (or equivalent), 1 check failure (or not equivalent), 2 usage,
parse and evaluation errors, an input above the size limit, and internal
failures of the sum pipeline.  All output is byte-deterministic for a fixed
input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys
import time
from typing import Callable, Sequence

from .algebra import alexander_torus
from .complexes import InvalidComplexError, KnotlikeError
from .involutive import Check, verify_lemma_43_44
from .knots import (
    Cable2,
    EvalError,
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
    torus_staircase,
)
from .standard import (
    SequenceError,
    SimplifyError,
    _epsilon,
    _tau_top,
    mirror_seq,
    seq_to_complex,
    tau,
    top_alexander,
    validate_seq,
    walk_values,
)


def format_seq(seq: Sequence[int]) -> str:
    """The entries as [1,-1]: one C-level format, "%d," per entry."""
    return "[" + ("%d," * len(seq) % tuple(seq))[:-1] + "]"


# -- invariant report ---------------------------------------------------------


def invariant_report(text: str) -> dict:
    """The invariants of an expression as one ordered record, which
    `invariants` prints as lines in this order or as JSON."""
    expr = parse_expr(text)
    result = eval_expr(expr)
    seq = result.sequence  # validated where eval_expr made it
    start, top = _tau_top(seq)
    genus = genus_of(expr)
    return {
        "expr": text.strip(),
        "gamma0": seq,
        "tau": start,
        "epsilon": _epsilon(seq),
        "topA": top,
        "genus": genus,
        "sharp": genus == top,
        "loopCount": result.loop_count,
    }


def _shown(value) -> str:
    """A report value as the text report prints it: [1,-1], true, -1."""
    if isinstance(value, tuple):
        return format_seq(value)
    return str(value).lower() if isinstance(value, bool) else str(value)


# -- svg rendering ------------------------------------------------------------

UNIT = 40
MARGIN = 40
BULGE = UNIT // 2


def render_svg(seq: Sequence[int]) -> str:
    """Draw gamma_0 against a vertical line of pegs at the integer heights in
    [-topA, topA].

    Each entry becomes |entry| unit arcs at the heights the Alexander walk
    visits, bulging right for positive entries and left for negative ones;
    both ends of the curve leave the picture horizontally to the left, and
    the empty sequence is a single horizontal line.  Fixed geometry, one
    vertical unit = 40 px.
    """
    s = validate_seq(seq)
    walk = walk_values(s)
    top = max(walk)
    width = 2 * (MARGIN + BULGE)
    cx = width // 2
    height = (2 * top + 2) * UNIT + 2 * MARGIN

    def y_at(h2: int) -> int:
        # h2 is twice the height, so half-integer anchors stay integral
        return MARGIN + (2 * (top + 1) - h2) * (UNIT // 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<g class="pegs">',
    ]
    for h in range(top, -top - 1, -1):
        parts.append(f'<circle cx="{cx}" cy="{y_at(2 * h)}" r="3" fill="black"/>')
    parts.append("</g>")
    if not s:
        parts.append(
            f'<line class="curve" x1="0" y1="{y_at(1)}" x2="{width}" y2="{y_at(1)}" '
            f'stroke="black" fill="none"/>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    parts.append(
        f'<line class="lead in" x1="0" y1="{y_at(2 * walk[0] + 1)}" '
        f'x2="{cx}" y2="{y_at(2 * walk[0] + 1)}" stroke="black" fill="none"/>'
    )
    radius = UNIT // 2
    for idx, entry in enumerate(s):
        h0, h1 = walk[idx], walk[idx + 1]
        side = "right" if entry > 0 else "left"
        step = 1 if h1 > h0 else -1
        for t in range(abs(h1 - h0)):
            a2 = 2 * (h0 + t * step) + 1
            b2 = a2 + 2 * step
            going_down = step < 0
            sweep = 1 if going_down == (side == "right") else 0
            parts.append(
                f'<path class="arc {side}" d="M {cx} {y_at(a2)} '
                f'A {radius} {radius} 0 0 {sweep} {cx} {y_at(b2)}" '
                f'stroke="black" fill="none"/>'
            )
    parts.append(
        f'<line class="lead out" x1="{cx}" y1="{y_at(2 * walk[-1] + 1)}" '
        f'x2="0" y2="{y_at(2 * walk[-1] + 1)}" stroke="black" fill="none"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- the paper verification suite --------------------------------------------


def _check_staircase_extraction() -> tuple[bool, str]:
    cases = {
        (4, 5): (1, -3, 2, -2, 3, -1),
        (2, 3): (1, -1),
        (2, 7): (1, -1, 1, -1, 1, -1),
    }
    for (p, q), want in cases.items():
        for route, got in (
            ("semigroup", torus_staircase(p, q)),
            ("Alexander", staircase_from_alexander(alexander_torus(p, q))),
        ):
            if got != want:
                return False, f"T({p},{q}) gave {list(got)} by the {route} route"
    return True, "3 staircases"


def _check_cable_closed_forms() -> tuple[bool, str]:
    got = cable2((1, -1), -1)
    if got != (1, -2, -1, 1, -1, 1, 2, -1):
        return False, f"(2,-1)-cable of T(2,3) gave {list(got)}"
    want = (1, -7, 1, -1, 1, -5, 1, -1, 1, -1, 1, -3, 1, -1,
            3, -1, 1, -1, 1, -1, 5, -1, 1, -1, 7, -1)
    got = cable2((1, -3, 2, -2, 3, -1), 27)
    if got != want:
        return False, f"(2,27)-cable of T(4,5) gave {list(got)}"
    return True, "both printed sequences match"


def _criterion3_hosts() -> list[tuple[int, ...]]:
    hosts = []
    for n in (1, 2, 3):
        for bs in itertools.product((-1, -2, -3), repeat=n):
            half: list[int] = []
            for b in bs:
                half += [1, b]
            hosts.append(validate_seq(tuple(half + [-e for e in reversed(half)])))
    return hosts


def _check_sum_oracle() -> tuple[bool, str]:
    count = 0
    for host in _criterion3_hosts():
        for q in (3, 5, 7):
            torus_seq = validate_seq([1, -1] * ((q - 1) // 2))
            for sign in (1, -1):
                other = torus_seq if sign > 0 else tuple(-e for e in torus_seq)
                closed = sum_with_T2(host, sign * q)
                piped, _ = sum_gamma0(host, other)
                if closed != piped:
                    return False, (
                        f"host {list(host)}, q={q}, sign={sign}: closed {list(closed)} "
                        f"!= pipeline {list(piped)}"
                    )
                count += 1
    return True, f"{count} host/summand pairs agree"


def _written_grouping(expr) -> tuple[tuple[int, ...], int]:
    """gamma_0 and the loop count of an expression with the public sum
    pipeline run at every '#' as written, each sum's terms folded from the
    left, and eval_expr below the sums: the reference that the planned
    evaluation is checked against.  It has no size limit of its own."""
    if isinstance(expr, Sum):
        seq, loops = _written_grouping(expr.terms[0])
        for term in expr.terms[1:]:
            s2, l2 = _written_grouping(term)
            seq, shed = sum_gamma0(seq, s2)
            loops += l2 + shed
        return seq, loops
    if isinstance(expr, Mirror):
        seq, loops = _written_grouping(expr.inner)
        return mirror_seq(seq), loops
    result = eval_expr(expr)
    return result.sequence, result.loop_count


def _check_regimes() -> tuple[bool, str]:
    grids = {
        Torus(2, 3): {
            "same": [(5, 7), (5, 9), (1, 3), (-1, -3), (-3, -5)],
            "diff": [(3, 5), (1, 5), (-1, 3), (1, -3)],
            "trivial": [(5, 7), (1, 3), (-1, -3)],
            "nontrivial": [(3, 5), (1, 7)],
            "mixed": [(5, -1), (3, -3), (1, -5)],
        },
        Torus(3, 4): {
            "same": [(13, 15), (1, 11), (3, 7), (-1, -3)],
            "diff": [(11, 13), (1, 13), (-1, 3), (3, -5)],
            "trivial": [(13, 15), (3, 7), (-1, -3)],
            "nontrivial": [(11, 13)],
            "mixed": [(13, -1), (5, -3)],
        },
    }
    # the written grouping runs the sum pipeline at every '#'; eval_expr
    # would answer the T(2,q) summands by the closed form criterion 3 checks
    checks = 0
    for companion, grid in grids.items():
        def side(q1: int, q2: int):
            return Sum((Cable2(q1, companion), Torus(2, q2)))

        for q1, q2 in grid["same"]:
            if _written_grouping(side(q1, q2))[0] != _written_grouping(side(q2, q1))[0]:
                return False, f"{companion} ({q1},{q2}) should be equivalent"
            checks += 1
        for q1, q2 in grid["diff"]:
            if _written_grouping(side(q1, q2))[0] == _written_grouping(side(q2, q1))[0]:
                return False, f"{companion} ({q1},{q2}) should not be equivalent"
            checks += 1
        for q1, q2 in grid["trivial"]:
            got = _written_grouping(p_knot(companion, q1, q2))[0]
            if got != ():
                return False, f"p_knot {companion} ({q1},{q2}) gamma0 {list(got)}"
            checks += 1
        for q1, q2 in grid["nontrivial"]:
            if _written_grouping(p_knot(companion, q1, q2))[0] == ():
                return False, f"p_knot {companion} ({q1},{q2}) should not vanish"
            checks += 1
        for q1, q2 in grid["mixed"]:
            got = tau(_written_grouping(p_knot(companion, q1, q2))[0])
            if got != 1:
                return False, f"p_knot {companion} ({q1},{q2}) tau {got}"
            checks += 1
    return True, f"{checks} regime checks"


def _check_sharpness() -> tuple[bool, str]:
    count = 0
    for p, q0 in [(2, 3), (2, 5), (3, 4), (4, 5)]:
        seq = staircase_from_alexander(alexander_torus(p, q0))
        genus = top_alexander(seq)
        tau_k = tau(seq)
        for q in range(-(4 * genus + 5), 4 * genus + 6, 2):
            cabled = cable2(seq, q)
            if top_alexander(cabled) != cable_genus(genus, 2, q):
                return False, f"T({p},{q0}) q={q}: top A mismatch"
            if tau(cabled) != tau_cable_formula(tau_k, 1, 2, q):
                return False, f"T({p},{q0}) q={q}: tau mismatch"
            count += 1
    return True, f"{count} cables"


def _check_involutive() -> tuple[bool, str]:
    count = 0
    for host in _criterion3_hosts():
        for q in (3, 5, 7):
            bad = [c for c in verify_lemma_43_44(host, q) if not c.passed]
            if bad:
                return False, f"host {list(host)}, q={q}: {bad[0]}"
            count += 1
    return True, f"{count} lemma verifications"


def _random_symmetric_seq(rng: random.Random, max_half: int, max_mag: int) -> tuple[int, ...]:
    n = rng.randint(0, max_half)
    half = [rng.choice([1, -1]) * rng.randint(1, max_mag) for _ in range(n)]
    return validate_seq(tuple(half + [-e for e in reversed(half)]))


_PROPERTY_LEAVES = [
    Unknot(),
    Torus(2, 3),
    Torus(2, 5),
    Torus(2, 7),
    Torus(2, -3),
    Torus(3, 4),
    Torus(3, -4),
    Torus(4, 5),
]


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_PROPERTY_LEAVES)
    roll = rng.random()
    if roll < 0.35:
        return Mirror(_random_expr(rng, depth - 1))
    if roll < 0.75:
        return Sum((_random_expr(rng, depth - 1), _random_expr(rng, depth - 1)))
    return Cable2(rng.choice([-3, -1, 1, 3, 5]), _random_expr(rng, depth - 1))


def _check_properties() -> tuple[bool, str]:
    rng = random.Random(20260808)
    cases = 0
    # constructor validity: standard complexes, tensors, duals stay complexes
    for _ in range(420):
        seq = _random_symmetric_seq(rng, 8, 4)
        cx = seq_to_complex(seq)
        if cx.validate() is not None:
            return False, f"seq_to_complex({list(seq)}) invalid"
        cases += 1
    for _ in range(120):
        s1 = _random_symmetric_seq(rng, 4, 3)
        s2 = _random_symmetric_seq(rng, 4, 3)
        cx = seq_to_complex(s1).tensor(seq_to_complex(s2))
        if cx.validate() is not None or cx.dual().validate() is not None:
            return False, f"tensor of {list(s1)}, {list(s2)} invalid"
        cases += 1
    # round trip: tensoring with the unknot's one generator changes nothing
    for _ in range(420):
        seq = _random_symmetric_seq(rng, 10, 5)
        got = sum_gamma0(seq, ())[0]
        if got != seq:
            return False, f"round-trip of {list(seq)} gave {list(got)}"
        cases += 1
    # gamma_0 of grammar expressions: symmetry and the tau bound, with the
    # sum pipeline run at every '#'
    expressions = []
    while len(expressions) < 60:
        expr = _random_expr(rng, 2)
        try:
            seq = _written_grouping(expr)[0]
        except EvalError:
            continue
        if len(seq) > 16:
            continue
        validate_seq(seq)
        if abs(tau(seq)) > top_alexander(seq):
            return False, f"|tau| > top A for {expr}"
        expressions.append((expr, seq))
        cases += 1
    # vanishing of E # -E through the pipeline: eval_expr would cancel E
    # against -E without a product
    for expr, _ in expressions[:40]:
        got = _written_grouping(Sum((expr, Mirror(expr))))[0]
        if got != ():
            return False, f"gamma0({expr} # mirror) = {list(got)}"
        cases += 1
    return True, f"{cases} randomized cases"


PAPER_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("staircase-extraction", _check_staircase_extraction),
    ("cabling-closed-forms", _check_cable_closed_forms),
    ("connected-sum-oracle", _check_sum_oracle),
    ("regime-equivalences", _check_regimes),
    ("cable-sharpness-and-tau", _check_sharpness),
    ("involutive-identities", _check_involutive),
    ("property-suites", _check_properties),
]


def run_paper_checks() -> list[tuple[Check, float]]:
    """Each check of the suite with the seconds it took."""
    out = []
    for name, fn in PAPER_CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failing check, not a crash of the CLI
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((Check(name, passed, detail), time.perf_counter() - start))
    return out


# -- command dispatch ---------------------------------------------------------


# the start of an expression whose first term is mirrored: '-T(2,3)', '-U',
# '-(T(2,3))', '-C2(3;T(2,3))'
_MIRRORED_EXPR = re.compile(r"-\s*[TUC(]")


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that reads an argument starting with a mirrored
    term as an expression, not as an unknown option.  Its subcommand parsers
    are of the same class, and they refuse an unknown option by name at
    once; argparse would set it aside and report the expression missing."""

    def _parse_optional(self, arg_string):
        if _MIRRORED_EXPR.match(arg_string):
            return None
        option = super()._parse_optional(arg_string)
        if option is not None and self._subparsers is None and not self._get_option_tuples(arg_string):
            self.error(f"unrecognized arguments: {arg_string}")
        return option


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cfkzero",
        description="knot Floer standard complexes and the gamma_0 invariant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma0", help="print the gamma_0 sequence of an expression")
    p_gamma.add_argument("expr")
    p_gamma.add_argument("--json", action="store_true")

    p_inv = sub.add_parser("invariants", help="print the invariant report of an expression")
    p_inv.add_argument("expr")
    p_inv.add_argument("--json", action="store_true")

    p_eq = sub.add_parser("equiv", help="decide local equivalence of two expressions")
    p_eq.add_argument("expr1")
    p_eq.add_argument("expr2")
    p_eq.add_argument("--json", action="store_true")

    p_svg = sub.add_parser("svg", help="render gamma_0 as an SVG immersed-curve diagram")
    p_svg.add_argument("expr")
    p_svg.add_argument("--out", required=True, help="output file path")

    p_verify = sub.add_parser("verify-paper", help="run the closed-form verification suite")
    p_verify.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: building one costs
    more than most calls, and parsing leaves no state in it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gamma0":
            seq = eval_expr(parse_expr(args.expr)).sequence
            if args.json:
                print(json.dumps({"expr": args.expr.strip(), "gamma0": list(seq)}))
            else:
                print(format_seq(seq))
            return 0
        if args.command == "invariants":
            report = invariant_report(args.expr)
            if args.json:
                print(json.dumps(report, sort_keys=True))
            else:
                print("\n".join(f"{key}: {_shown(value)}" for key, value in report.items()))
            return 0
        if args.command == "equiv":
            same = locally_equivalent(parse_expr(args.expr1), parse_expr(args.expr2))
            verdict = "EQUIVALENT" if same else "NOT EQUIVALENT"
            if args.json:
                print(json.dumps({"equivalent": same, "verdict": verdict}))
            else:
                print(verdict)
            return 0 if same else 1
        if args.command == "svg":
            seq = eval_expr(parse_expr(args.expr)).sequence
            document = render_svg(seq)
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(document)
            return 0
        if args.command == "verify-paper":
            timed = run_paper_checks()
            passed = all(check.passed for check, _ in timed)
            if args.json:
                print(json.dumps(
                    {
                        "checks": [
                            {"name": c.name, "passed": c.passed, "detail": c.detail, "seconds": seconds}
                            for c, seconds in timed
                        ],
                        "passed": passed,
                    },
                    sort_keys=True,
                ))
            else:
                for check, _ in timed:
                    status = "PASS" if check.passed else "FAIL"
                    tail = f": {check.detail}" if check.detail else ""
                    print(f"{status} {check.name}{tail}")
            return 0 if passed else 1
    except (
        ParseError, EvalError, ShapeError, SequenceError, OSError,
        # internal failures of the sum pipeline: exit 1 would read as "not equivalent"
        SimplifyError, KnotlikeError, InvalidComplexError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
