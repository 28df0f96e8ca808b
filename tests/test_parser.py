"""Expression grammar: reference inputs, round-trips, error positions."""

import hashlib
import random
from fractions import Fraction

import pytest

from cliffkit.algebra import Multivector
from cliffkit.fields import PolyField
from cliffkit.parser import MAX_NESTING, ParseError, format_field, parse_field, parse_multivector
from cliffkit.sampling import rand_polyfield
from cliffkit.structural import MAX_NUMBER_TEXT


def test_reference_polynomial_parses():
    f = parse_field("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", 3)
    e2 = Multivector.basis_vector(3, 2)
    e3 = Multivector.basis_vector(3, 3)
    want = (
        PolyField.monomial(3, (0, 2, 0), e2)
        + PolyField.monomial(3, (2, 0, 0), -e2)
        + PolyField.monomial(3, (1, 1, 0), e3 * -2)
        + PolyField.monomial(3, (1, 0, 0), Multivector.blade(3, [1, 2], -1))
        + PolyField.monomial(3, (0, 0, 1), Multivector.blade(3, [2, 3]))
    )
    assert f == want


def test_zero_parses_to_zero_field():
    assert parse_field("0", 3).is_zero()


def test_two_term_field():
    f = parse_field("x1*x3*e[1] + x2*e[2]", 3)
    assert f.coefficient((1, 0, 1)) == Multivector.basis_vector(3, 1)
    assert f.coefficient((0, 1, 0)) == Multivector.basis_vector(3, 2)
    assert f.coefficient([0, 0, 0]) == Multivector.zero(3)
    # A multi-index of the wrong length or with a negative entry is refused, not read as a missing monomial.
    for alpha in ((1,), (1, 0, 1, 0), (1, 0, -1)):
        with pytest.raises(ValueError, match="multi-index"):
            f.coefficient(alpha)
    with pytest.raises(ValueError, match=r"multi-index \(1,\) has length 1, expected 2"):
        parse_field("x1*e[1] + 1/2*x2", 2).coefficient((1,))


def test_rational_literals_and_signs():
    f = parse_field("3/5*e[1,2] + -1*e[3]", 3)
    assert f.coefficient((0, 0, 0)) == Multivector.blade(3, [1, 2], Fraction(3, 5)) + Multivector.blade(3, [3], -1)
    assert parse_field("-x1", 2) == -PolyField.variable(2, 1)
    assert parse_field("- 2 * x1", 2) == PolyField.variable(2, 1) * -2


def test_scalar_blade_forms():
    assert parse_field("e[]", 2) == PolyField.scalar_constant(2, 1)
    assert parse_field("7", 2) == PolyField.scalar_constant(2, 7)


def test_powers():
    x1, x2 = PolyField.variable(2, 1), PolyField.variable(2, 2)
    assert parse_field("x1^3", 2) == x1 * x1 * x1
    assert parse_field("(x1 + x2)^2", 2) == (x1 + x2) * (x1 + x2)
    assert parse_field("x1^0", 2) == PolyField.scalar_constant(2, 1)


def test_whitespace_insensitive():
    a = parse_field("x1 * x2 + 3 / 5 * e[ 1 , 2 ]", 2)
    b = parse_field("x1*x2+3/5*e[1,2]", 2)
    assert a == b


def test_division_requires_constant_scalar():
    assert parse_field("x1/2", 2) == PolyField.variable(2, 1) * Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_field("x1/x2", 2)
    with pytest.raises(ParseError):
        parse_field("1/0", 2)
    with pytest.raises(ParseError):
        parse_field("x1/e[1]", 2)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_field("x1 + x7", 3)
    assert exc.value.position == 5
    assert "x7" in str(exc.value)


def test_blade_index_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_field("e[4]", 3)
    assert "out of range" in str(exc.value)
    with pytest.raises(ParseError):
        parse_field("e[2,1]", 3)
    with pytest.raises(ParseError):
        parse_field("e[1,1]", 3)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_field("x1 + ", 2)
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_field("(x1", 2)
    with pytest.raises(ParseError):
        parse_field("x1 x2", 2)
    with pytest.raises(ParseError):
        parse_field("e[1", 2)
    with pytest.raises(ParseError):
        parse_field("x1^x2", 2)
    with pytest.raises(ParseError):
        parse_field("", 2)


@pytest.mark.parametrize("text, m, message, position", [
    ("(x1 + x2", 2, "expected ')'", 8),
    ("e[1 2]", 3, "expected ','", 4),
    ("x1 x2", 2, "unexpected 'x'", 3),
    ("x1 + 2)", 2, "unexpected ')'", 6),
    ("x1 + x2 -", 2, "unexpected end of input", 9),
    ("x1^ ", 2, "expected an integer", 4),
    ("x1*" + "7" * (MAX_NUMBER_TEXT + 1), 2, f"integer has {MAX_NUMBER_TEXT + 1} digits, more than the {MAX_NUMBER_TEXT} allowed", 3),
    ("x1 + x3", 2, "unknown variable x3, dimension is 2", 5),
    ("2*e[1,4]", 3, "blade index 4 out of range 1..3", 2),
    ("e[2,1]", 3, "blade indices must be strictly increasing, got index 1 after 2", 0),
    ("x1/ x2", 2, "divisor must be a nonzero rational constant", 3),
    ("x1 /(1 - 1)", 2, "divisor must be a nonzero rational constant", 4),
    ("(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1), 2, "expression nests too deeply", MAX_NESTING),
    # superscript digits are digits to str.isdigit but not to int()
    ("x\u00b2", 2, "expected an integer", 1),
    ("3\u00b2", 2, "unexpected '\u00b2'", 1),
    ("x1^\u00b2", 2, "expected an integer", 3),
    ("\u00b2", 2, "unexpected '\u00b2'", 0),
], ids=["expected-char", "expected-comma", "unexpected-char", "unexpected-close", "end-of-input", "expected-integer",
        "digit-bound", "unknown-variable", "blade-index", "blade-order", "divisor-variable", "divisor-zero", "nesting",
        "superscript-index", "superscript-after-integer", "superscript-exponent", "superscript-alone"])
def test_each_error_kind_has_one_message_and_offset(text, m, message, position):
    with pytest.raises(ParseError) as exc:
        parse_field(text, m)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_decimal_digits_of_other_scripts_still_parse():
    # ARABIC-INDIC DIGIT ONE and TWO are decimal digits, which int() reads
    assert parse_field("x\u0661^\u0662 + \u0663", 2) == parse_field("x1^2 + 3", 2)


def _nesting_error_position(text, frames):
    """The ParseError position of `text`, parsed `frames` calls below this one."""
    if frames:
        return _nesting_error_position(text, frames - 1)
    with pytest.raises(ParseError, match="nests too deeply") as exc:
        parse_field(text, 2)
    return exc.value.position


@pytest.mark.parametrize("opening", ["(", "-", "+", "-("], ids=["parentheses", "minus", "plus", "mixed"])
def test_nesting_limit_is_a_fixed_position(opening):
    closing = ")" * opening.count("(")
    depth = MAX_NESTING // len(opening)
    assert parse_field(opening * depth + "x1" + closing * depth, 2)
    text = opening * 2000 + "x1" + closing * 2000
    # Every character of `opening` opens one level, so level MAX_NESTING + 1 opens at offset MAX_NESTING.
    assert _nesting_error_position(text, 0) == _nesting_error_position(text, 300) == MAX_NESTING


_HALF = MAX_NESTING // 2


@pytest.mark.parametrize("text, outcome", [
    ("x 1", "x1"),
    ("x\t1", "x1"),
    ("e [ 1 , 2 ]", "e[1,2]"),
    ("x1 ^ 2", "x1^2"),
    ("- -x1", "x1"),
    ("-( -x1)", "x1"),
    ("- ( x1 ) ^ 2", "-x1^2"),
    ("x 3", "unknown variable x3, dimension is 2 (at position 0)"),
    ("e [ 1 , 1 ]", "blade indices must be strictly increasing, got index 1 after 1 (at position 0)"),
    ("x1 ^ -2", "expected an integer (at position 5)"),
    # Each sign and each parenthesis opens one level; level MAX_NESTING + 1 fails where it opens.
    ("-(" * _HALF + "x1" + ")" * _HALF, "x1"),
    ("-(" * _HALF + "-x1" + ")" * _HALF, f"expression nests too deeply (at position {MAX_NESTING})"),
    ("(-" * _HALF + "x1" + ")" * _HALF, "x1"),
    ("(-" * _HALF + "(x1)" + ")" * _HALF, f"expression nests too deeply (at position {MAX_NESTING})"),
    ("-" * (MAX_NESTING - 1) + "(x1)", "-x1"),
    ("-" * MAX_NESTING + "(x1)", f"expression nests too deeply (at position {MAX_NESTING})"),
    ("- " * MAX_NESTING + "x1", "x1"),
    ("- " * (MAX_NESTING + 1) + "x1", f"expression nests too deeply (at position {2 * MAX_NESTING})"),
], ids=["var-space", "var-tab", "blade-spaces", "power-spaces", "double-minus", "minus-paren-minus", "minus-power",
        "var-space-range", "blade-spaces-order", "power-sign", "mixed-limit", "mixed-over", "paren-sign-limit",
        "paren-sign-over", "signs-paren-limit", "signs-paren-over", "spaced-signs-limit", "spaced-signs-over"])
def test_token_boundaries_have_explicit_outcomes(text, outcome):
    """Whitespace between a token's parts, and unary signs mixed with parentheses at the nesting limit."""
    try:
        got = format_field(parse_field(text, 2))
    except ParseError as exc:
        got = str(exc)
    assert got == outcome


def test_format_round_trips_random_fields():
    rng = random.Random(9)
    for m in (1, 2, 3, 4):
        for _ in range(25):
            f = rand_polyfield(rng, m, max_degree=4)
            assert parse_field(format_field(f), m) == f


def test_format_of_zero():
    assert format_field(PolyField.zero(3)) == "0"


def test_serialize_parse_is_identity_on_canonical_forms():
    rng = random.Random(10)
    for _ in range(20):
        f = rand_polyfield(rng, 3, max_degree=3)
        canonical = format_field(f)
        assert format_field(parse_field(canonical, 3)) == canonical


def test_parse_multivector():
    a = parse_multivector("3/5*e[1,2] + -1*e[3]", 3)
    assert a == Multivector.blade(3, [1, 2], Fraction(3, 5)) + Multivector.blade(3, [3], -1)
    with pytest.raises(ParseError):
        parse_multivector("x1*e[1]", 3)
    # canonical order is graded: the grade-1 term prints first
    assert str(a) == "-e[3] + 3/5*e[1,2]"


@pytest.mark.parametrize("prefix", ["x1*", "x1^", "x", "e[", "2 + 3/"])
def test_integer_literal_length_is_bounded_at_its_first_digit(prefix):
    too_long = "9" * (MAX_NUMBER_TEXT + 1)
    with pytest.raises(ParseError, match=f"integer has {MAX_NUMBER_TEXT + 1} digits, more than the {MAX_NUMBER_TEXT} allowed") as exc:
        parse_field(prefix + too_long, 2)
    assert exc.value.position == len(prefix)


def test_integer_literal_of_the_bound_is_accepted():
    digits = "9" * MAX_NUMBER_TEXT
    assert parse_field("x1*" + digits, 2) == PolyField.variable(2, 1) * int(digits)
    power = parse_field("x1^1" + "0" * (MAX_NUMBER_TEXT - 1), 2)
    assert list(power.terms()) == [((10 ** (MAX_NUMBER_TEXT - 1), 0), Multivector.scalar(2, 1))]


# -- pinned outcomes ------------------------------------------------------------------
#
# Every input below parses to the same canonical text, or fails with the same
# message and offset, as long as `PARSE_SHA256` holds.

_MUTATION_CHARS = "x1234567890e[],()+-*/^ y"


def _stream_expression(rng, m):
    """A classify-stream-shaped field: signed summands of a rational
    coefficient, variables, powers, a parenthesized quadratic and a blade."""
    pieces = []
    for n in range(rng.randint(1, 5)):
        blade = sorted(rng.sample(range(1, m + 1), rng.randint(0, min(m, 3))))
        factors = [] if rng.random() < 0.5 else [f"{rng.randint(1, 9)}/{rng.choice((2, 3))}" if rng.random() < 0.5 else str(rng.randint(2, 9))]
        if rng.random() < 0.25:
            i, j = rng.sample(range(1, m + 1), 2)
            factors.append(f"(x{i}^2 - x{j}^2)" if rng.random() < 0.5 else f"(x{i}*x{j})")
        else:
            for _ in range(rng.randint(0, 2)):
                factors.append(f"x{rng.randint(1, m)}" + (f"^{rng.randint(2, 4)}" if rng.random() < 0.3 else ""))
        if blade or rng.random() < 0.1:
            factors.append("e[" + ",".join(map(str, blade)) + "]")
        sign = "-" if rng.random() < 0.4 else ("+" if n else "")
        gap = " " if n and rng.random() < 0.7 else ""
        pieces.append(gap + sign + gap + ("*".join(factors) or "1"))
    return "".join(pieces)


def _mutations(rng, text, count):
    """`count` one-character insertions, deletions and replacements of text each."""
    out = []
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        out.append(text[:at] + rng.choice(_MUTATION_CHARS) + text[at:])
        at = rng.randrange(len(text))
        out.append(text[:at] + text[at + 1:])
        out.append(text[:at] + rng.choice(_MUTATION_CHARS) + text[at + 1:])
    return out


_HAND_CASES = [
    "x1 / 2", "x1/ 2", "x1 /2", "x1 / x2", "x1/ x2", "x1 /x2", "1/0", "1/ 0", "x1/e[1]", "x1/ e[1]",
    "x1/(x2 - x2)", "x1/(x2 - x2 + 3)", "x1/(e[1]*e[1])", "x1/-2", "x1/--2", "x1/2/3", "1/2*3", "6/4*x1",
    "(x1/2 + x1/2)^3", "x1 ^ 2", "x1^ 2", "x1 ^2", "x1^ x2", "x1^-1", "x1^", "0^0", "(x1 - x1)^0", "2^10",
    "e [1]", "e[ 1]", "e[1 ,2]", "e[1, 2]", "e[1,2 ]", "e[ ]", "e [ ]", "e[1 , 2 ]", "e[", "e[1", "e[1,",
    "e[1,]", "e[,1]", "e[0]", "e[01]", "e[3]", "e[2,1]", "e[1,1]", "e", "e1", "x", "x0", "x01", "x3", "xx1",
    "", " ", "-", "+", "()", "(", ")", "x1)", "(x1", "x1 x2", "x1 + ", "x1 +", "* x1", "x1 ** 2", "y",
    "(x1 + x2)^3 - (x1 + x2)^3", "(x1 + e[1,2])*(x1 - e[1,2])", "e[1]*e[2] + e[2]*e[1]", "-(-(x1))",
    "+-+-x1", "x1*0", "0*e[1,2]", "x1 - x1", "3/5*e[1,2] + -1*e[3]", "x1^3*x2^2*e[1,2]/7",
]


def _bound_cases():
    digits, more = "9" * MAX_NUMBER_TEXT, "9" * (MAX_NUMBER_TEXT + 1)
    out = []
    for prefix in ("", "x1*", "x1^1", "x", "e[", "2 + 3/", "x1/"):
        out += [prefix + digits, prefix + more]
    out += ["x1^1" + "0" * (MAX_NUMBER_TEXT - 1), "x1^1" + "0" * MAX_NUMBER_TEXT]
    for opening in ("(", "-", "+", "-("):
        closing = ")" * opening.count("(")
        for levels in (MAX_NESTING, MAX_NESTING + 1):
            depth = levels // len(opening)
            out.append(opening * depth + "x1" + closing * depth)
    out += ["(" * MAX_NESTING + "x1" + ")" * (MAX_NESTING - 1), "-" * (MAX_NESTING + 1)]
    return out


def _parse_corpus():
    """(m, text) pairs: stream-shaped fields for m = 2..5, their one-character mutations, hand cases, bounds."""
    rng = random.Random(1808)
    out = []
    for m in (2, 3, 4, 5):
        for _ in range(40):
            text = _stream_expression(rng, m)
            out += [(m, t) for t in [text] + _mutations(rng, text, 8)]
    out += [(m, t) for m in (2, 3) for t in _HAND_CASES]
    out += [(2, t) for t in _bound_cases()]
    return out


def _outcome(text, m):
    try:
        return format_field(parse_field(text, m))
    except ParseError as exc:
        return f"ParseError: {exc}"


# sha256 of "m, text, outcome" lines over `_parse_corpus`, taken with the PolyField parser.
PARSE_SHA256 = "9365a5f8a8c2ff133d20d1f4b131dd115d0f8a63cf72fe737776c548cc44f5c8"


def test_the_parse_outcomes_are_pinned():
    lines = "\n".join(f"{m}\t{text}\t{_outcome(text, m)}" for m, text in _parse_corpus())
    assert hashlib.sha256(lines.encode()).hexdigest() == PARSE_SHA256
