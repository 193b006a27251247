"""Knot expressions and the closed-form sequence transforms.

The expression grammar covers exactly the operations computed with here:
torus knots, mirrors, connected sums, and (2, q)-cables:

    expr := term ('#' term)*
    term := ['-'] atom
    atom := 'T(' int ',' int ')' | 'C2(' int ';' expr ')' | 'U' | '(' expr ')'

A chain of '#' is one node, Sum(terms); a parenthesized sum is one term.

Evaluation produces the gamma_0 parameter sequence of the knot.  Torus
knots read their staircases off the semigroup <p, |q|>, mirrors negate the
sequence, and (2, q)-cables of staircases, or of mirrored staircases by
C2(q; -K) = -C2(-q; K), carry the closed-form sequence transform, verified
elsewhere against the sum pipeline.  Every sequence passes one check,
standard._checked (no zero entry, even length, symmetry), where it is made:
the staircase, the closed forms and the extraction build their own tuples
of ints and call it directly, and validate_seq runs it on outside input;
negation keeps every check.  The closed forms take only what they cannot
compute: cable2 reads the genus off the staircase as the sum of its
horizontal steps, and sum_with_T2 takes the summand as the grammar writes
it, q < 0 being the mirror.  Every expression is evaluated from its signed
summands, the leaves under its sums and mirrors: gamma_0 factors through
the local-equivalence group, so a summand cancels against a copy of its
mirror without a product, the T(2, q) summands, told apart by
_central_run alone, add into one signed pair count that joins a host in
the validated domain of sum_with_T2 by that closed form, and only what
remains is tensored through the sum pipeline (sound because local
equivalence is preserved by tensoring).  That pipeline goes from two
sequences to one on integer generator ids: the product is built as a
matrix straight from the sequences, simplified, checked for gradings and
d^2 = 0, and read back as a sequence, with no ChainComplex in between.
Each generator of a factor meets at most one arrow of each type, so in
each direction the product is a disjoint sum of squares, and a square of
unequal powers is built already resolved into two arrows of the smaller
power: the change of basis that does so adds only terms with both U and V,
which die over UV = 0.  The basis search then starts with only the squares
of equal powers to resolve.  No torus knot, cable, T(2, q) fold or pair
count whose sequence would exceed MAX_GENERATORS generators is built, and
the products of one evaluation share one budget of MAX_GENERATORS
generators.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass

from .algebra import QUOTE_WIDTH, _check_torus, _clip
from .standard import (
    Seq,
    _checked,
    _gamma0,
    _negate,
    _product,
    _require_valid,
    _simplify,
    staircase_shaped,
    validate_seq,
)


MAX_GENERATORS = 100_000  # the largest complex an evaluation may build


class ShapeError(ValueError):
    """An input sequence does not match the shape a transform requires."""


class EvalError(ValueError):
    """A knot expression cannot be evaluated."""


class ParseError(ValueError):
    """A knot expression string does not match the grammar."""


# -- expression trees --------------------------------------------------------


@dataclass(frozen=True)
class Unknot:
    def __str__(self) -> str:
        return "U"


@dataclass(frozen=True)
class Torus:
    p: int
    q: int

    def __post_init__(self) -> None:
        _check_torus(self.p, self.q)

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


@dataclass(frozen=True)
class Mirror:
    inner: "KnotExpr"

    def __str__(self) -> str:
        inner = str(self.inner)
        if isinstance(self.inner, (Sum, Mirror)):
            inner = f"({inner})"  # the grammar reads '-' before an atom only
        return f"-{inner}"


@dataclass(frozen=True)
class Sum:
    terms: tuple["KnotExpr", ...]

    def __post_init__(self) -> None:
        if len(self.terms) < 2:
            raise ValueError(f"a sum needs two or more terms, got {len(self.terms)}")

    def __str__(self) -> str:
        return " # ".join(f"({term})" if isinstance(term, Sum) else str(term) for term in self.terms)


@dataclass(frozen=True)
class Cable2:
    q: int
    inner: "KnotExpr"

    def __post_init__(self) -> None:
        if self.q % 2 == 0:
            raise ValueError(f"(2,q)-cable needs odd q, got {_clip(str(self.q))}")

    def __str__(self) -> str:
        return f"C2({self.q}; {self.inner})"


# typing.Union would enter typing's cache and keep these classes, and with
# them every module of the package, alive after a re-import
KnotExpr = Unknot | Torus | Mirror | Sum | Cable2


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        """The message at the current position, with the input quoted as
        algebra._clip quotes it around the position."""
        return ParseError(f"{message} at position {self.pos} in {_clip(self.text, self.pos)!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        # isdecimal, not isdigit: int() reads no superscript or circled digit
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than the interpreter converts
            self.pos = start
            raise self.error("integer too long") from None

    def expr(self) -> KnotExpr:
        terms = [self.term()]
        while self.peek() == "#":
            self.expect("#")
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> KnotExpr:
        if self.peek() == "-":
            self.expect("-")
            return Mirror(self.atom())
        return self.atom()

    def atom(self) -> KnotExpr:
        ch = self.peek()
        if ch == "(":
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return node
        if self.text.startswith("C2", self.pos):
            self.expect("C2")
            self.expect("(")
            q = self.integer()
            self.expect(";")
            inner = self.expr()
            self.expect(")")
            try:
                return Cable2(q, inner)
            except ValueError as exc:
                raise self.error(str(exc)) from exc
        if ch == "T":
            self.expect("T")
            self.expect("(")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            try:
                return Torus(p, q)
            except ValueError as exc:
                raise self.error(str(exc)) from exc
        if ch == "U":
            self.expect("U")
            return Unknot()
        raise self.error("expected an atom")


def parse_expr(text: str) -> KnotExpr:
    parser = _Parser(text)
    node = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return node


# -- closed-form sequence transforms ----------------------------------------


def staircase_from_alexander(delta: Mapping[int, int]) -> Seq:
    """Staircase sequence of an L-space knot read off its Alexander
    polynomial, given as {exponent: coefficient}.

    With exponents a_0 > a_1 > ... > a_{2m} and coefficients alternating
    +1, -1, ..., +1, the sequence is the consecutive differences with
    alternating signs: (a_0 - a_1, -(a_1 - a_2), a_2 - a_3, ...).
    """
    terms = {e: c for e, c in delta.items() if c}
    if not terms:
        raise ShapeError("zero polynomial is not an L-space Alexander polynomial")
    if any(terms.get(-e) != c for e, c in terms.items()):
        raise ShapeError(f"polynomial {terms} is not symmetric")
    exps = sorted(terms, reverse=True)
    if len(exps) % 2 == 0:
        raise ShapeError(f"polynomial {terms} has an even number of terms")
    if any(terms[e] != (-1) ** i for i, e in enumerate(exps)):
        raise ShapeError(f"polynomial {terms} does not alternate +1/-1")
    entries = list(map(operator.sub, exps, exps[1:]))
    entries[1::2] = map(operator.neg, entries[1::2])
    return validate_seq(entries)


def torus_staircase(p: int, q: int) -> Seq:
    """Staircase sequence of T(p, |q|) read off the semigroup <p, |q|>.

    With (p - 1)(|q| - 1) = r p + s |q| (see _semigroup_split), Lam-Leung
    write Delta(t) = (t^{p|q|} - 1)(t - 1) / ((t^p - 1)(t^{|q|} - 1)) as
    +t^{ip + j|q|} for 0 <= i <= r, 0 <= j <= s, and -t^{ip + j|q| - p|q|}
    for r < i < |q|, s < j < p: one term per generator, with the signs
    alternating in the order of the exponents.  So the staircase is the
    differences of the sorted exponents with every second one negated, at a
    cost proportional to the generator count, not to the genus.  It equals
    staircase_from_alexander(alexander_torus(p, q)), the oracle.
    """
    _check_torus(p, q)
    q = abs(q)
    r, s = _semigroup_split(p, q)
    exps = [i * p + j * q for i in range(r + 1) for j in range(s + 1)]
    exps += [i * p + j * q - p * q for i in range(r + 1, q) for j in range(s + 1, p)]
    exps.sort()
    entries = list(map(operator.sub, exps[1:], exps))
    entries[1::2] = map(operator.neg, entries[1::2])
    return _checked(tuple(entries))


def cable2(seq: Seq, q: int) -> Seq:
    """Sequence of the (2, q)-cable of an L-space knot with staircase ``seq``.

    Each horizontal step a expands to the alternating block 1, -1, ..., 1 of
    length 2a - 1 and each vertical step b to the single entry 2b - 1; a
    middle run of |q - 4g| - 1 alternating entries separates the two mirrored
    halves, running 1, -1, ... when q > 4g and -1, 1, ... when q < 4g, in
    which case the last vertical step doubles to 2b instead.  The genus g is
    the staircase's topA, the sum of its horizontal steps.
    """
    s = validate_seq(seq)
    if not staircase_shaped(s):
        raise ShapeError(f"{list(s)} is not a staircase sequence")
    if q % 2 == 0:
        raise ShapeError(f"cable parameter q must be odd, got {q}")
    return _cable2(s, q)


def _cable2(s: Seq, q: int) -> Seq:
    """cable2 on a validated staircase ``s`` and an odd q, neither checked
    again; the result is validated."""
    genus = sum(s[0::2])  # the staircase's topA
    above = q > 4 * genus  # q = 4g never occurs: q is odd and 4g even
    steps: list[int] = []
    for a, b in zip(s[0::2], s[1::2]):
        steps += (1, -1) * (a - 1)
        steps += (1, 2 * b - 1)
    if steps and not above:
        steps[-1] += 1  # the last vertical step doubles to 2b
    half = tuple(steps)
    sign = 1 if above else -1
    middle = (sign, -sign) * ((abs(q - 4 * genus) - 1) // 2)
    return _checked(half + middle + tuple(map(operator.neg, half[::-1])))


def _central_run(s: Seq) -> tuple[int, int, int]:
    """The central unit run of a validated sequence as (lo, L, o): s[lo:m],
    m = len(s) // 2, is the longest suffix of the first half that starts on
    a horizontal step (lo even) and reads (o, -o, o, ...) with |o| = 1, and
    with its mirror image s[m:len(s) - lo] it holds L = m - lo unit pairs of
    orientation o.  With no run, lo = m and L = o = 0.  For a length of 2
    mod 4 the run holds the middle (H, V) pair, so L is odd.  lo == 0
    exactly when s is +-(1, -1)^k, the gamma_0 of T(2, +-(2k + 1)), or
    empty, and then L o is its signed pair count."""
    m = lo = len(s) // 2
    while lo and abs(s[lo - 1]) == 1 and s[lo - 1] == -s[lo]:
        lo -= 1
    lo = min(lo + lo % 2, m)
    return lo, m - lo, s[lo] if lo < m else 0


def _in_t2_domain(s: Seq) -> bool:
    """Whether a validated sequence lies in the host domain of sum_with_T2.

    With lo, L, o = _central_run(s), let outer be s[:lo], the first half
    without the run, and epsilon the sign of outer[0] (o when outer is
    empty).  The host needs to be nonempty, every horizontal step of outer
    equal to epsilon and every vertical step of outer of sign -epsilon; it
    is refused when a central run of the other orientation (o != epsilon)
    meets a unit vertical step at the end of outer.  A host of length 2 mod
    4 with no run is refused too: its middle horizontal step, the last entry
    of outer, is not a unit.  So every horizontal step of a host's first
    half is a unit.  Every (2, q)-cable of a staircase, and every staircase
    with unit horizontal steps, lies in it.
    """
    if not s:
        return False
    lo, pairs, orientation = _central_run(s)
    outer = s[:lo]
    eps = (1 if outer[0] > 0 else -1) if outer else orientation
    if any(h != eps for h in outer[0::2]) or any(v * eps > 0 for v in outer[1::2]):
        return False
    return not (pairs and orientation != eps and abs(outer[-1]) == 1)


def sum_with_T2(seq: Seq, q: int) -> Seq:
    """Sequence of K # T(2, q) for K in the host domain of _in_t2_domain and
    an odd |q| > 2; q < 0 is the mirror, -T(2, |q|).

    The host's central unit run of L pairs of orientation o (see
    _central_run) and the (|q| - 1)/2 unit pairs of the summand, oriented
    1, -1, ... for q > 0 and -1, 1, ... for q < 0, add as signed pair
    counts: pairs of opposite orientations annihilate one for one, which is
    what makes the two middle runs of a cable and a torus-knot summand
    collapse.  Hosts of either length mod 4 are taken.  Outside the domain
    (unit horizontal steps alone are not enough: (1, 1, -1, -1) with
    -T(2, 3) gives a ten-entry sequence) it raises ShapeError; inside it the
    closed form agrees with the sum pipeline on every host tested.
    """
    s = validate_seq(seq)
    if q % 2 == 0 or abs(q) < 3:
        raise ShapeError(f"torus summand needs odd |q| > 2, got {q}")
    if not _in_t2_domain(s):
        raise ShapeError(f"{list(s)} is outside the host domain of the T(2,q) closed form")
    return _fold_t2(s, q // 2 + (q < 0))  # (q - 1)/2 pairs, or -(|q| - 1)/2


def _fold_t2(s: Seq, c: int) -> Seq:
    """sum_with_T2 for a host ``s`` in the domain and the signed pair count
    ``c`` of the summand, +-(1, -1)^|c|, neither checked again; the result
    is validated.  With lo, L, o = _central_run(s), the run becomes the
    |L o + c| unit pairs of the sign t of L o + c:
    s[:lo] + (t, -t)^|L o + c| + s[len - lo:], of 2 lo + 2 |L o + c|
    entries."""
    lo, pairs, orientation = _central_run(s)
    c += pairs * orientation
    t = 1 if c > 0 else -1
    return _checked(s[:lo] + (t, -t) * abs(c) + s[len(s) - lo :])


def cable_genus(genus: int, p: int, q: int) -> int:
    """Fibered genus of the (p, q)-cable: p g + (p-1)(|q|-1)/2."""
    if p < 2:
        raise ValueError(f"cable needs p >= 2, got {p}")
    if q == 0:
        raise ValueError("cable needs q != 0")
    return p * genus + (p - 1) * (abs(q) - 1) // 2


def tau_cable_formula(tau_k: int, eps_k: int, p: int, q: int) -> int:
    """Tau of the (p, q)-cable from tau and epsilon of the companion."""
    if p < 2:
        raise ValueError(f"cable needs p >= 2, got {p}")
    if eps_k == 1:
        return p * tau_k + (p - 1) * (q - 1) // 2
    if eps_k == 0:
        if q > 0:
            return (p - 1) * (q - 1) // 2
        return (p - 1) * (q + 1) // 2
    if eps_k == -1:  # Hom, the cabling theorem for tau
        return p * tau_k + (p - 1) * (q + 1) // 2
    raise ValueError(f"epsilon must be -1, 0 or 1, got {eps_k}")


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    sequence: Seq
    loop_count: int


def eval_expr(expr: KnotExpr) -> EvalResult:
    """Evaluate an expression to its gamma_0 sequence and loop count.

    Every expression is evaluated from its signed summands (see
    _signed_summands): gamma_0 factors through the local-equivalence group,
    so the plan is the same however a sum is grouped and wherever its
    mirrors stand.  One summand is the result.  Otherwise the summands with
    no central-run prefix (_central_run gives lo == 0: unknots and the
    T(2, q) summands, +-(1, -1)^k) add into one signed pair count c.  Every
    other summand cancels against a remaining copy of its negation (K # -K
    is locally trivial, and the pipeline sees only the standard complexes,
    so this is exact), and the rest are tensored in written order.  c joins
    the running result by the closed form of sum_with_T2 (_fold_t2) as soon
    as that result lies in its host domain; if it never does, c joins last
    as (t, -t)^|c|, t the sign of c, by one product, or is the result when
    nothing else is left.  Every sequence is checked once, by
    standard._checked, where it is made: by torus_staircase, by the cable
    and T(2, q) closed forms and by the sum pipeline's extraction; negation
    keeps every check.  The loop count totals the closed components shed by
    the products built, so it does not depend on the grouping.  A torus
    knot, cable, fold or pair count of more than MAX_GENERATORS generators
    raises EvalError before it is built, and so does a product that would
    take the products of this call past MAX_GENERATORS generators in all;
    a failed product, EvalError or SimplifyError, is final.
    """
    summands = _signed_summands(expr, 1)
    if len(summands) == 1:
        return summands[0]
    loops = sum(summand.loop_count for summand in summands)
    pairs = 0
    kept: list[Seq] = []
    for seq in (summand.sequence for summand in summands):
        lo, run, orientation = _central_run(seq)
        if not lo:  # +-(1, -1)^k or empty
            pairs += run * orientation
            continue
        negation = _negate(seq)
        if negation in kept:
            kept.remove(negation)
        else:
            kept.append(seq)
    result: Seq = ()
    built = 0  # the generators of this call's products
    for seq in kept:
        result, shed, built = _join(expr, result, seq, built)
        loops += shed
        if pairs and _in_t2_domain(result):
            lo, run, orientation = _central_run(result)  # the fold's length
            _check_size(expr, 2 * lo + 2 * abs(run * orientation + pairs) + 1)
            result, pairs = _fold_t2(result, pairs), 0
    if pairs:
        _check_size(expr, 2 * abs(pairs) + 1)
        t = 1 if pairs > 0 else -1
        result, shed, _ = _join(expr, result, (t, -t) * abs(pairs), built)
        loops += shed
    return EvalResult(result, loops)


def _signed_summands(expr: KnotExpr, sign: int) -> list[EvalResult]:
    """The evaluated leaves of ``expr`` in written order, through sums and
    mirrors (see _eval_leaf), each sequence negated under an odd number of
    mirrors."""
    if isinstance(expr, Sum):
        return [summand for term in expr.terms for summand in _signed_summands(term, sign)]
    if isinstance(expr, Mirror):
        return _signed_summands(expr.inner, -sign)
    result = _eval_leaf(expr)
    return [result if sign > 0 else EvalResult(_negate(result.sequence), result.loop_count)]


def _eval_leaf(expr: KnotExpr) -> EvalResult:
    """eval_expr on a leaf.  A torus knot is its semigroup staircase
    (negated for q < 0), and a cable the closed form of a staircase or of the
    mirror of one, C2(q; -K) = -C2(-q; K), read off its operand's shape
    without validating the operand again."""
    if isinstance(expr, Unknot):
        return EvalResult((), 0)
    if isinstance(expr, Torus):
        _check_size(expr, torus_generators(expr.p, expr.q))
        seq = torus_staircase(expr.p, expr.q)
        if expr.q < 0:
            seq = _negate(seq)
        return EvalResult(seq, 0)
    if isinstance(expr, Cable2):
        inner = eval_expr(expr.inner)
        seq, q = inner.sequence, expr.q
        mirrored = not staircase_shaped(seq)
        if mirrored:
            seq, q = _negate(seq), -q  # C2(q; -K) = -C2(-q; K)
            if not staircase_shaped(seq):
                raise EvalError(
                    f"closed form inapplicable: {_clip(str(expr.inner))} is not an L-space staircase"
                )
        # cable2 gives 2a entries per step pair (a, b), then |q - 4g| - 1
        # middle entries, g the sum of the a, then the first part mirrored;
        # plus one generator
        genus = sum(seq[0::2])
        _check_size(expr, 4 * genus + abs(q - 4 * genus))
        cabled = _cable2(seq, q)
        return EvalResult(_negate(cabled) if mirrored else cabled, inner.loop_count)
    raise EvalError(f"unknown expression node {expr!r}")


def _join(expr: KnotExpr, s1: Seq, s2: Seq, built: int) -> tuple[Seq, int, int]:
    """The sum of two validated sequences, the loops it sheds and the
    generators of the products built, by the sum pipeline unless one of them
    is empty; the product is refused, naming ``expr``, if it would take the
    ``built`` generators of the products before it past MAX_GENERATORS."""
    if not s1 or not s2:
        return s1 or s2, 0, built
    built += (len(s1) + 1) * (len(s2) + 1)
    _check_size(expr, built)
    return *_sum_gamma0(s1, s2), built


def torus_generators(p: int, q: int) -> int:
    """The generator count of the staircase of T(p, q), without building it:
    the Alexander polynomial has 2(r + 1)(s + 1) - 1 terms (Lam-Leung), one
    per generator of the staircase."""
    r, s = _semigroup_split(p, abs(q))
    return 2 * (r + 1) * (s + 1) - 1


def _semigroup_split(p: int, q: int) -> tuple[int, int]:
    """The one solution r, s >= 0 of (p - 1)(q - 1) = r p + s q, for coprime
    p >= 2 and q >= 1."""
    s = (pow(q, -1, p) - 1) % p
    r = ((p - 1) * (q - 1) - s * q) // p
    return r, s


def _check_size(expr: KnotExpr, generators: int) -> None:
    if generators > MAX_GENERATORS:
        # a count of more digits than QUOTE_WIDTH is named by its size, and
        # one of more than the interpreter's limit could not be printed
        count = str(generators) if generators < 10**QUOTE_WIDTH else f"over 10^{QUOTE_WIDTH}"
        raise EvalError(
            f"{_clip(str(expr))} needs a complex of {count} generators, "
            f"more than the limit of {MAX_GENERATORS}"
        )


def sum_gamma0(s1: Seq, s2: Seq) -> tuple[Seq, int]:
    """gamma_0 of a connected sum and the number of closed loops its
    simplified tensor product sheds.

    The product of the two standard complexes is built straight from the
    sequences as an integer matrix, generator (i, j) being the integer
    i * (len(s2) + 1) + j, in the basis where every square of unequal
    powers is already two arrows of the smaller power (see _product): that
    change of basis adds only terms with both U and V, which die.  Standard
    complexes have no unit arrows, and neither do their tensor products, so
    it goes straight to basis simplification, with the merge cap of the
    plain product.  The factors are not checked on their own.  The
    simplified product must pass the complex check that
    ChainComplex.validate runs (InvalidComplexError), and the sequence is
    read off its one open path, the extraction reading the simplified
    matrix's columns in place.  Nothing on the way builds a ChainComplex.
    """
    return _sum_gamma0(validate_seq(s1), validate_seq(s2))


def _sum_gamma0(s1: Seq, s2: Seq) -> tuple[Seq, int]:
    """sum_gamma0 on two validated sequences, not checked again."""
    product, gr_u, gr_v, plain = _product(s1, s2)
    _simplify(product, plain)
    _require_valid(product, gr_u, gr_v)
    return _gamma0(product.cols)


def locally_equivalent(e1: KnotExpr, e2: KnotExpr) -> bool:
    """Two expressions are locally equivalent iff their gamma_0 sequences
    agree."""
    return eval_expr(e1).sequence == eval_expr(e2).sequence


def p_knot(companion: KnotExpr, q1: int, q2: int) -> KnotExpr:
    """The four-summand combination  K_{2,q1} # -K_{2,q2} # T_{2,q2} # -T_{2,q1}."""
    if q1 % 2 == 0 or q2 % 2 == 0:
        raise ValueError("cable parameters must be odd")
    if q1 == q2:
        raise ValueError("cable parameters must be distinct")
    return Sum((Cable2(q1, companion), Mirror(Cable2(q2, companion)), Torus(2, q2), Mirror(Torus(2, q1))))


def genus_of(expr: KnotExpr) -> int:
    """Seifert genus, via the torus-knot formula, Schubert additivity under
    connected sum, mirror invariance, and the fibered cable-genus formula."""
    if isinstance(expr, Unknot):
        return 0
    if isinstance(expr, Torus):
        return (expr.p - 1) * (abs(expr.q) - 1) // 2
    if isinstance(expr, Mirror):
        return genus_of(expr.inner)
    if isinstance(expr, Sum):
        return sum(map(genus_of, expr.terms))
    if isinstance(expr, Cable2):
        return cable_genus(genus_of(expr.inner), 2, expr.q)
    raise EvalError(f"unknown expression node {expr!r}")
