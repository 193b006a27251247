"""Command-line behavior: output formats, exit codes, SVG rendering, and the
verification suite plumbing."""

import json
import subprocess
import sys

import pytest

import cfkzero.cli as cli
import cfkzero.knots as knots
import cfkzero.standard as standard
from cfkzero.cli import main, render_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma0_of_the_cable(capsys):
    code, out, _ = run(capsys, "gamma0", "C2(-1; T(2,3))")
    assert code == 0
    assert out == "[1,-2,-1,1,-1,1,2,-1]\n"


def test_gamma0_of_a_slice_sum(capsys):
    code, out, _ = run(capsys, "gamma0", "T(2,3) # -T(2,3)")
    assert code == 0
    assert out == "[]\n"


def test_gamma0_of_t45(capsys):
    code, out, _ = run(capsys, "gamma0", "T(4,5)")
    assert code == 0
    assert out == "[1,-3,2,-2,3,-1]\n"


def test_gamma0_json(capsys):
    code, out, _ = run(capsys, "gamma0", "T(2,3)", "--json")
    assert code == 0
    assert json.loads(out) == {"expr": "T(2,3)", "gamma0": [1, -1]}


@pytest.mark.parametrize("argv,want", [
    (["gamma0", "-T(2,3)"], "[-1,1]\n"),
    (["gamma0", "-U"], "[]\n"),
    (["gamma0", "-(T(2,3))"], "[-1,1]\n"),
    (["gamma0", "-C2(3;T(2,3))"], "[-1,2,-2,1]\n"),
    (["gamma0", "-T(2,3) # T(2,5)"], "[1,-1]\n"),
    (["gamma0", "-T(2,3)", "--json"], '{"expr": "-T(2,3)", "gamma0": [-1, 1]}\n'),
    (["gamma0", "--json", "-T(2,3)"], '{"expr": "-T(2,3)", "gamma0": [-1, 1]}\n'),
    (["invariants", "-T(2,3)"], "expr: -T(2,3)\ngamma0: [-1,1]\ntau: -1\nepsilon: -1\n"
                                "topA: 1\ngenus: 1\nsharp: true\nloopCount: 0\n"),
    (["equiv", "-T(2,3)", "T(2,-3)"], "EQUIVALENT\n"),
    (["equiv", "T(2,-3)", "-T(2,3)", "--json"], '{"equivalent": true, "verdict": "EQUIVALENT"}\n'),
])
def test_an_expression_may_start_with_a_mirror(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("argv,bad", [
    (["gamma0", "-x"], "-x"),
    (["gamma0", "--T(2,3)"], "--T(2,3)"),
    (["gamma0", "-x", "--json"], "-x"),
    (["invariants", "T(2,3)", "--jsn"], "--jsn"),
    (["equiv", "-T(2,3)", "-x"], "-x"),
])
def test_an_unknown_option_is_named(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: unrecognized arguments: {bad}")
    assert "required" not in captured.err and "Traceback" not in captured.err


def test_options_stay_options_beside_a_mirrored_expression(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma0", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cfkzero gamma0 [-h] [--json] expr\n")
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "svg", "-T(2,3)", "--out", str(first)) == (0, "", "")
    assert run(capsys, "svg", "--out", str(second), "-T(2,3)") == (0, "", "")
    assert first.read_text() == second.read_text() == render_svg((-1, 1))


def test_cable_difference_in_both_summand_orders(capsys):
    # both q exceed 4g(T(5,6)) = 40, so the regime rule gives the staircase
    # of T(2,5) whichever summand comes first
    for text in ("C2(61;T(5,6)) # -C2(57;T(5,6))", "-C2(57;T(5,6)) # C2(61;T(5,6))"):
        code, out, _ = run(capsys, "gamma0", text)
        assert code == 0
        assert out == "[1,-1,1,-1]\n"


def test_invariants_of_the_trefoil(capsys):
    code, out, _ = run(capsys, "invariants", "T(2,3)")
    assert code == 0
    assert out.splitlines() == [
        "expr: T(2,3)",
        "gamma0: [1,-1]",
        "tau: 1",
        "epsilon: 1",
        "topA: 1",
        "genus: 1",
        "sharp: true",
        "loopCount: 0",
    ]


def test_invariants_of_the_cable_json(capsys):
    code, out, _ = run(capsys, "invariants", "C2(-1; T(2,3))", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["tau"] == 1
    assert record["topA"] == 2
    assert record["genus"] == 2
    assert record["sharp"] is True


def test_invariants_of_the_unknot(capsys):
    code, out, _ = run(capsys, "invariants", "U", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "expr": "U", "gamma0": [], "tau": 0, "epsilon": 0,
        "topA": 0, "genus": 0, "sharp": True, "loopCount": 0,
    }


def test_equiv_exit_codes(capsys):
    code, out, _ = run(capsys, "equiv", "C2(5;T(2,3)) # T(2,7)", "C2(7;T(2,3)) # T(2,5)")
    assert code == 0 and out == "EQUIVALENT\n"
    code, out, _ = run(capsys, "equiv", "C2(3;T(2,3)) # T(2,5)", "C2(5;T(2,3)) # T(2,3)")
    assert code == 1 and out == "NOT EQUIVALENT\n"
    code, out, _ = run(capsys, "equiv", "U", "T(2,3) # -T(2,3)")
    assert code == 0 and out == "EQUIVALENT\n"


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "gamma0", "T(2,")
    assert code == 2
    assert not out and "error:" in err


def test_eval_error_exit_code(capsys):
    code, _, err = run(capsys, "gamma0", "C2(3; C2(-1; T(2,3)))")
    assert code == 2
    assert "closed form inapplicable" in err


@pytest.mark.parametrize("argv", [
    ["gamma0", "T(2,³)"],  # '³'.isdigit() holds, but int() does not read it
    ["gamma0", "T(2," + "1" * 5000 + ")"],  # above the interpreter's int-string limit
    ["gamma0", "C2(" + "1" * 5000 + ";T(2,3))"],
    ["equiv", "T(2,³)", "T(2,3)"],  # exit 1 would read as NOT EQUIVALENT
    # integers short enough to read, echoed by the checks after parsing
    ["gamma0", "C2(" + "2" * 4000 + ";T(2,3))"],  # an even cable parameter
    ["gamma0", "T(" + "2" * 4000 + ",4)"],  # torus parameters not coprime
    ["gamma0", "T(2," + "1" * 4000 + ")"],  # above the size limit
    # a generator count of more digits than the interpreter prints
    ["gamma0", "T(" + "3" * 3000 + "," + "2" * 3001 + ")"],
    # a long companion, neither a staircase nor the mirror of one
    ["gamma0", "C2(3;" + " # ".join(["-T(2,3)"] * 40 + ["T(3,4)"]) + ")"],
], ids=["superscript-digit", "long-torus-parameter", "long-cable-parameter", "equiv-superscript-digit",
        "even-long-cable-parameter", "long-non-coprime-torus", "long-torus-above-the-limit",
        "unprintable-generator-count", "long-inapplicable-companion"])
def test_an_unreadable_integer_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200  # a long input is quoted as a window


def test_digits_are_those_int_reads(capsys):
    assert run(capsys, "gamma0", "T(2,³)")[2] == "error: expected an integer at position 4 in 'T(2,³)'\n"
    assert run(capsys, "gamma0", "T(2,３)") == (0, "[1,-1]\n", "")


@pytest.mark.parametrize("text,message", [
    ("T(1,3)", "torus knot needs p >= 2, got 1 at position 6 in 'T(1,3)'"),
    ("T(2,0)", "torus parameter q must be nonzero at position 6 in 'T(2,0)'"),
    ("T(4,6)", "torus parameters must be coprime, got (4, 6) at position 6 in 'T(4,6)'"),
])
def test_bad_torus_parameters_are_named(capsys, text, message):
    assert run(capsys, "gamma0", text) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text",
    ["(" * 600 + "T(2,3)" + ")" * 600, "T(2,3) # (" * 599 + "T(2,3)" + ")" * 599],
    ids=["600-parentheses", "600-deep-sum"],
)
def test_deep_nesting_exits_2(capsys, text):
    code, out, err = run(capsys, "gamma0", text)
    assert (code, out, err) == (2, "", "error: expression nested too deeply\n")


@pytest.mark.parametrize(
    "text,want",
    [
        ("(" * 250 + "T(2,3)" + ")" * 250, "[1,-1]\n"),
        ("-(" * 250 + "T(2,3)" + ")" * 250, "[1,-1]\n"),
        (" # ".join(["U"] * 800), "[]\n"),
        # a flat sum has no depth: its length is bounded by the products it needs
        (" # ".join(["T(2,3)"] * 1200), f"[{','.join(['1,-1'] * 1200)}]\n"),
        (" # ".join(["T(3,4) # -T(3,4)"] * 600), "[]\n"),
    ],
    ids=["250-parentheses", "250-mirrors", "800-term-sum", "1200-term-sum", "1200-term-cancelling-sum"],
)
def test_nesting_below_the_interpreter_limit_evaluates(capsys, text, want):
    assert run(capsys, "gamma0", text) == (0, want, "")


def test_a_sum_of_more_summands_than_the_product_limit_exits_2(monkeypatch, capsys):
    # the products of one evaluation share one budget of MAX_GENERATORS
    # generators: T(3,4) written k times builds products of 5, 9, ..., 4k - 3
    # times 5 generators, so k = 100 (99,495 in all) evaluates and k = 101
    # is refused before its last product is built
    built = []
    original = knots._sum_gamma0

    def counted(s1, s2):
        built.append((len(s1) + 1) * (len(s2) + 1))
        return original(s1, s2)

    monkeypatch.setattr(knots, "_sum_gamma0", counted)
    code, out, err = run(capsys, "gamma0", " # ".join(["T(3,4)"] * 101))
    assert (code, out, sum(built)) == (2, "", 99_495)
    assert err.startswith("error: T(3,4) # T(3,4) # ") and err.count("\n") == 1
    assert err.endswith(" needs a complex of 101500 generators, more than the limit of 100000\n")


@pytest.mark.parametrize("text,code", [
    ("T(3,4) # T(3,5)", 0),
    ("T(3,4) # T(3,5) # T(4,5)", 2),
    # the budget counts the products left after cancellation, and T(2,q)
    # summands fold into one pair count without a product
    ("T(3,4) # T(4,5) # -T(4,5) # T(3,5)", 0),
    ("T(3,4) # T(2,3) # T(3,5) # T(2,5)", 0),
])
def test_the_product_limit_counts_the_summands_left_to_tensor(monkeypatch, capsys, text, code):
    # the plans build 35, 35 + 77, 35 and 77 product generators; as
    # written, the last two sums would build 35 + 77 + 35 and 15 + 49 + 65
    monkeypatch.setattr(knots, "MAX_GENERATORS", 100)
    assert run(capsys, "gamma0", text)[0] == code


@pytest.mark.parametrize("text,generators", [
    ("C2(100000001;T(2,3))", 100000001),
    ("C2(399;T(2,3)) # C2(401;T(2,3))", 399 * 401),
    ("T(2,2000001)", 2000001),
])
def test_inputs_above_the_size_limit_exit_2(capsys, text, generators):
    code, out, err = run(capsys, "gamma0", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{generators} generators" in err


def test_a_summand_cancels_its_mirror_before_any_product_is_built(capsys):
    assert run(capsys, "gamma0", "T(2,1001) # -T(2,1001)") == (0, "[]\n", "")
    # invariants evaluates the same plan: no product, so no loop is shed
    code, out, err = run(capsys, "invariants", "T(2,1001) # -T(2,1001)")
    assert (code, err) == (0, "")
    assert "gamma0: []\n" in out and "loopCount: 0\n" in out


def test_a_torus_knot_under_the_size_limit_is_built(capsys):
    # T(p, p + 1) has the staircase 1, -(p - 1), 2, -(p - 2), ..., p - 1, -1
    code, out, err = run(capsys, "gamma0", "T(2000,2001)")
    steps = ",".join(f"{k},{k - 2000}" for k in range(1, 2000))
    assert (code, out, err) == (0, f"[{steps}]\n", "")


def test_a_sum_with_hundreds_of_fallback_steps(capsys):
    # the basis search takes 222 fallback steps in 2,123 tries here
    code, out, _ = run(capsys, "invariants", "C2(61;T(5,6)) # -C2(59;T(5,6))")
    assert code == 0
    assert "gamma0: [1,-1]\n" in out and "loopCount: 859\n" in out


@pytest.mark.parametrize("argv", [
    # no T(2,q) summand, so the sum is a product whatever the plan
    ["gamma0", "T(3,4) # T(3,5)"],
    ["equiv", "T(3,4) # T(3,5)", "T(2,5)"],
])
def test_a_failed_search_exits_2_with_one_line(monkeypatch, capsys, argv):
    monkeypatch.setattr(knots, "_simplify", lambda mat, arrows: standard._search(mat, 0))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: no simplified basis within the merge cap\n"


def test_a_reused_parser_keeps_no_state_between_calls(capsys):
    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    argvs = [
        ["gamma0", "T(2,3)", "--json"],
        ["gamma0", "T(2,3)"],
        ["equiv", "C2(5;T(2,3)) # T(2,7)", "C2(7;T(2,3)) # T(2,5)"],
        ["invariants", "C2(-1;T(2,3))"],
        ["gamma0", "T(2,3)", "--bogus"],
        ["invariants", "T(2,3)", "--json"],
    ]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    parser = cli._parser()
    reused = [call(argv) for argv in argvs]
    assert cli._parser() is parser
    assert reused == fresh
    assert reused[1] == (0, "[1,-1]\n", "")
    assert reused[2][0] == 0 and reused[4][0] == 2


def test_svg_t45_has_six_right_arcs(tmp_path, capsys):
    out_path = tmp_path / "t45.svg"
    code, _, _ = run(capsys, "svg", "T(4,5)", "--out", str(out_path))
    assert code == 0
    document = out_path.read_text()
    assert document.count('class="arc right"') == 6
    assert document.count('class="arc left"') == 6
    assert document.count("<circle") == 13  # pegs at -6 .. 6


def test_svg_unknot_is_a_horizontal_line(tmp_path, capsys):
    out_path = tmp_path / "unknot.svg"
    code, _, _ = run(capsys, "svg", "U", "--out", str(out_path))
    assert code == 0
    document = out_path.read_text()
    assert document.count("<line") == 1
    assert "arc" not in document


def test_svg_cable_matches_walk_heights(tmp_path, capsys):
    out_path = tmp_path / "cable.svg"
    code, _, _ = run(capsys, "svg", "C2(-1;T(2,3))", "--out", str(out_path))
    assert code == 0
    document = out_path.read_text()
    # entries (1,-2,-1,1,-1,1,2,-1): unit arcs split by side
    assert document.count('class="arc right"') == 5
    assert document.count('class="arc left"') == 5


def test_svg_rendering_is_deterministic():
    assert render_svg((1, -1)) == render_svg((1, -1))
    assert render_svg((1, -1)) != render_svg((-1, 1))


def test_verify_paper_runs_and_reports(monkeypatch, capsys):
    # keep the smoke test fast: run two real checks through the dispatcher
    fast = [check for check in cli.PAPER_CHECKS if check[0] in
            ("staircase-extraction", "cabling-closed-forms")]
    monkeypatch.setattr(cli, "PAPER_CHECKS", fast)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS staircase-extraction")
    assert lines[1].startswith("PASS cabling-closed-forms")


def test_verify_paper_json_times_each_check(monkeypatch, capsys):
    fast = [check for check in cli.PAPER_CHECKS if check[0] in
            ("staircase-extraction", "cabling-closed-forms")]
    monkeypatch.setattr(cli, "PAPER_CHECKS", fast)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["staircase-extraction", "cabling-closed-forms"]
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "detail", "seconds"}
        assert check["passed"] is True
        assert isinstance(check["seconds"], float) and check["seconds"] >= 0


def test_verify_paper_detects_a_broken_cabling_formula(monkeypatch, capsys):
    original = cli.cable2

    def skewed(seq, q):
        # middle run off by one pair for long cables
        return original(seq, q + 2 if q > 4 * sum(seq[0::2]) else q)

    monkeypatch.setattr(cli, "cable2", skewed)
    monkeypatch.setattr(cli, "PAPER_CHECKS", [("cabling-closed-forms", cli._check_cable_closed_forms)])
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert out.startswith("FAIL cabling-closed-forms")


def test_verify_paper_detects_an_unreduced_lemma_coefficient(monkeypatch, capsys):
    import cfkzero.involutive as involutive

    monkeypatch.setattr(involutive, "_coefficient_parity", lambda b: 1)
    monkeypatch.setattr(cli, "PAPER_CHECKS", [("involutive-identities", cli._check_involutive)])
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert out.startswith("FAIL involutive-identities")


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cfkzero.cli", "gamma0", "T(2,3)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[1,-1]\n"
