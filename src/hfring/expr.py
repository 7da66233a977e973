"""Closed-form piece expressions: parsing, printing, evaluation, analysis.

The grammar covers constants, the variable ``x``, the four arithmetic
operators, unary minus, and the functions sin, cos, sqrt, with arbitrary
composition (``sin(1/x)`` and the like).  ``*`` and ``/`` bind tighter
than ``+`` and ``-``; same-precedence operators associate left.

`_parse` is the package's one parser, driven by a grammar table: `parse`
runs it with the piece table, `algebra.parse_operand_expr` with the table of
``+``/``*`` expressions over named operands.

Constants are stored as exact rationals regardless of engine mode; decimal
literals are read with decimal semantics.

`canonical` is a normal form: a polynomial becomes its coefficient form
(`Const` for a constant, `X` for ``x`` itself, else a `Poly` node holding
the ascending, trimmed exact coefficients), a rational function the `Div`
of two coefficient forms in lowest terms with a monic denominator.  Equal
polynomial or rational functions thus have equal nodes, which is what
makes piece equality decidable in rational mode.  A `Poly` prints as the
sum of monomials ``c*(x*x)`` that reparses to it, is evaluated by Horner's
rule, and is returned unchanged by `canonical`; `poly_expr` is its one
constructor.

Evaluation compiles before it computes, and `evaluator` is its one entry
point.  `evaluator(e)` walks the tree once in the current mode and returns
a function of x built from nested closures, with constants and `Poly`
coefficients already converted to the mode's scalars; calling it raises
ExprEvalError where the expression is undefined or, in float mode, not
finite.  A loop that evaluates one expression at many points (sampled
checks, approach sequences, grids) calls `evaluator` once before the
loop: compiling costs about as much as one tree-walking evaluation, and
each later call a fraction of one.  An evaluator keeps the mode it was
compiled in, so it must not outlive a mode switch; `piecewise.Piece`
keeps one per mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import ExprEvalError, ExprSyntaxError
from .scalars import RATIONAL, Scalar, format_scalar, get_mode

FUNCTIONS = ("sin", "cos", "sqrt")


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Fun:
    name: str
    arg: "Expr"


@dataclass(frozen=True)
class Poly:
    """Canonical polynomial of degree >= 1 other than ``x``: ascending exact
    coefficients, highest one nonzero.  Built by `poly_expr` only."""

    coeffs: Tuple[Fraction, ...]


Expr = Union[Const, Var, Poly, Add, Sub, Mul, Div, Neg, Fun]

X = Var()
_COEFF_FORMS = (Const, Var, Poly)  # the canonical nodes of a polynomial


def const(value) -> Const:
    if isinstance(value, float):
        value = Fraction(str(value))
    return Const(Fraction(value))


ZERO = const(0)
ONE = const(1)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

Token = Tuple[str, str, int]  # kind, text, position

# precedences, shared by the parser's table and the printer
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 30
_PREC_ATOM = 100


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _parse(text: str, binary: dict, prefix: dict, functions: Sequence[str], leaf) -> object:
    """Parse ``text`` by operator precedence over explicit stacks, so that
    nesting depth is bounded by memory, not by the recursion limit.

    The grammar is a table: ``binary`` maps an operator token to its
    (precedence, constructor), precedences at least 0 and all operators
    left-associative; ``prefix`` does the same for unary operators, which
    must bind tighter than every binary one; a name in ``functions`` takes a
    parenthesised argument and builds ``Fun(name, arg)``; and
    ``leaf(kind, text, position)`` builds a leaf from any other token,
    returns None where the grammar has no leaf, or raises ExprSyntaxError.
    """
    tokens = tokenize(text)
    operands: list = []
    pending: list = []  # (precedence, constructor, arity); an open group has -1

    def reduce(precedence: int) -> None:
        while pending and pending[-1][0] >= precedence:
            _, build, arity = pending.pop()
            operands[-arity:] = [build(*operands[-arity:])]

    i = 0
    while True:
        # operand position: prefix operators and open groups, then a leaf
        kind, word, at = tokens[i]
        i += 1
        if kind in prefix:
            precedence, build = prefix[kind]
            pending.append((precedence, build, 1))
        elif kind == "(":
            pending.append((-1, None, 1))
        elif kind == "name" and word in functions:
            if tokens[i][0] != "(":
                raise ExprSyntaxError(f"expected '(', found {tokens[i][1]!r}", tokens[i][2])
            i += 1
            pending.append((-1, functools.partial(Fun, word), 1))
        else:
            node = leaf(kind, word, at)
            if node is None:
                raise ExprSyntaxError(f"unexpected token {word!r}", at)
            operands.append(node)
            # operator position: closing parentheses, then a binary operator
            while True:
                kind, word, at = tokens[i]
                i += 1
                if kind in binary:
                    precedence, build = binary[kind]
                    reduce(precedence)
                    pending.append((precedence, build, 2))
                    break
                reduce(0)
                if not pending:
                    if kind == "end":
                        return operands[0]
                    raise ExprSyntaxError(f"trailing input {word!r}", at)
                if kind != ")":
                    raise ExprSyntaxError(f"expected ')', found {word!r}", at)
                _, close, _ = pending.pop()
                if close:  # a function's argument list
                    operands[-1] = close(operands[-1])


def _piece_leaf(kind: str, text: str, at: int) -> Optional[Expr]:
    if kind == "number":
        return Const(Fraction(text))
    if kind == "name" and text != "x":
        raise ExprSyntaxError(f"unknown name {text!r}", at)
    return X if kind == "name" else None


_PIECE_BINARY = {"+": (_PREC_ADD, Add), "-": (_PREC_ADD, Sub),
                 "*": (_PREC_MUL, Mul), "/": (_PREC_MUL, Div)}
_PIECE_PREFIX = {"-": (_PREC_NEG, Neg)}


def parse(text: str) -> Expr:
    """Parse piece-expression text; raises ExprSyntaxError with a position."""
    return _parse(text, _PIECE_BINARY, _PIECE_PREFIX, FUNCTIONS, _piece_leaf)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, Poly):
        # ranked as the Add or Mul tree it prints as
        return _PREC_ADD if sum(1 for c in e.coeffs if c != 0) > 1 else _PREC_MUL
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const):
        # constants may print as fractions ("-7/3"), which reparse as a
        # division; rank them by their printed shape
        text = format_scalar(e.value)
        if "/" in text:
            return _PREC_MUL
        if text.startswith("-"):
            return _PREC_NEG
    return _PREC_ATOM


def to_text(e: Expr) -> str:
    """Render an expression; printing then reparsing recovers the tree
    (up to constant-folding of fraction literals, and up to `canonical`
    for a `Poly`, which reparses as its sum of monomials)."""
    if isinstance(e, Const):
        return format_scalar(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Poly):
        return " + ".join(_monomial_text(c, k) for k, c in enumerate(e.coeffs) if c != 0)
    if isinstance(e, Neg):
        return "-" + _child(e.arg, _PREC_NEG)
    if isinstance(e, Fun):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        # operators associate left, so right children need parens at equal
        # precedence to keep the tree shape under reparsing
        return _child(e.left, _PREC_ADD) + op + _child(e.right, _PREC_ADD + 1)
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        return _child(e.left, _PREC_MUL) + op + _child(e.right, _PREC_MUL + 1)
    raise TypeError(f"not an expression: {e!r}")


def _child(e: Expr, minimum: int) -> str:
    text = to_text(e)
    if _prec(e) < minimum:
        return f"({text})"
    return text


def _monomial_text(c: Fraction, k: int) -> str:
    """``c*x**k`` written as the left-nested product ``c*(x*x*x)``."""
    if k == 0:
        return format_scalar(c)
    power = "*".join("x" * k)
    if c == 1:
        return power
    return format_scalar(c) + "*" + (power if k == 1 else f"({power})")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluator(e: Expr) -> Callable[[Scalar], Scalar]:
    """Compile ``e`` for the current mode into a function of x.

    The tree is walked once: constants and `Poly` coefficients are converted
    to the mode's scalars here, and each node becomes a closure over its
    children's closures.  Rational mode is exact and rejects sin/cos/sqrt
    (transcendental pieces need float mode); in float mode a non-finite
    value raises ExprEvalError.  The result belongs to the mode it was
    compiled in.
    """
    run = _compile(e, get_mode() == RATIONAL)

    def checked(x):
        value = run(x)
        if isinstance(value, float) and not math.isfinite(value):
            raise ExprEvalError(f"non-finite value of {to_text(e)}")
        return value

    return checked


def _identity(x):
    return x


def _compile(e: Expr, exact: bool) -> Callable[[Scalar], Scalar]:
    kind = type(e)
    if kind is Var:
        return _identity
    # a constant beyond the float range raises its OverflowError when
    # evaluated, not when compiled, so errors keep their evaluation order
    if kind is Const:
        try:
            c = e.value if exact else float(e.value)
        except OverflowError:
            return lambda x: float(e.value)
        return lambda x: c
    if kind is Poly:
        try:
            coeffs = e.coeffs if exact else [float(c) for c in e.coeffs]
        except OverflowError:
            return lambda x: poly_eval([float(c) for c in e.coeffs], x)
        return lambda x: poly_eval(coeffs, x)
    if kind is Neg:
        arg = _compile(e.arg, exact)
        return lambda x: -arg(x)
    if kind is Fun:
        return _compile_fun(e, exact)
    if kind in (Add, Sub, Mul, Div):
        left, right = _compile(e.left, exact), _compile(e.right, exact)
        if kind is Add:
            return lambda x: left(x) + right(x)
        if kind is Sub:
            return lambda x: left(x) - right(x)
        if kind is Mul:
            return lambda x: left(x) * right(x)

        def divide(x):
            denom = right(x)
            if denom == 0:
                raise ExprEvalError(f"division by zero in {to_text(e)}")
            return left(x) / denom

        return divide

    def not_an_expression(x):
        raise TypeError(f"not an expression: {e!r}")

    return not_an_expression


_FUNCTION_IMPLS = {"sin": math.sin, "cos": math.cos}


def _compile_fun(e: Fun, exact: bool) -> Callable[[Scalar], Scalar]:
    if exact:
        def refuse(x):
            raise ExprEvalError(
                f"{e.name} requires float mode (rational mode is for polynomial work)"
            )

        return refuse
    arg = _compile(e.arg, exact)
    impl = _FUNCTION_IMPLS.get(e.name, math.sqrt)

    def apply(x):
        value = arg(x)
        try:
            return impl(value)
        except ValueError as exc:
            raise ExprEvalError(f"{e.name} domain error at argument {value!r}") from exc

    return apply


# ---------------------------------------------------------------------------
# Polynomial and rational analysis (always exact)
# ---------------------------------------------------------------------------


def poly_coeffs(e: Expr) -> Optional[List[Fraction]]:
    """Ascending coefficients when the expression is a polynomial in x
    (division allowed by nonzero constants only), else None."""
    reduced = _reduce(e)
    return reduced if isinstance(reduced, list) else None


def _trim(coeffs: List[Fraction]) -> List[Fraction]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def rational_coeffs(e: Expr) -> Optional[Tuple[List[Fraction], List[Fraction]]]:
    """(numerator, denominator) coefficient lists of a rational function in
    lowest terms, the denominator monic; None when the tree contains
    sin/cos/sqrt or divides by the zero polynomial."""
    reduced = _reduce(e)
    if isinstance(reduced, list):
        return reduced, [ONE.value]
    return reduced if isinstance(reduced, tuple) else None


def _pmul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    # each slot starts at its first product, not at zero, and adds in ascending i
    out = [a[0] * cb for cb in b]
    for i, ca in enumerate(a[1:], 1):
        for j, cb in enumerate(b[:-1]):
            out[i + j] += ca * cb
        out.append(ca * b[-1])
    return _trim(out)


def _padd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    out, short = (list(a), b) if len(a) >= len(b) else (list(b), a)
    for i, c in enumerate(short):
        out[i] += c
    return _trim(out)


def classify(e: Expr) -> str:
    """Kind tag: polynomial, rational, or transcendental (any other tree)."""
    reduced = _reduce(e)
    if isinstance(reduced, list):
        return "polynomial"
    return "rational" if isinstance(reduced, tuple) else "transcendental"


def degree(e: Expr) -> Optional[int]:
    coeffs = poly_coeffs(e)
    if coeffs is None:
        return None
    return len(coeffs) - 1


def is_linear(e: Expr) -> bool:
    """Piecewise-linear subclass flag: polynomial of degree <= 1."""
    d = degree(e)
    return d is not None and d <= 1


def linear_coeffs(e: Expr) -> Tuple[Fraction, Fraction]:
    """(slope, intercept) of a linear expression; exact."""
    coeffs = poly_coeffs(e)
    if coeffs is None or len(coeffs) > 2:
        raise ExprEvalError(f"not linear: {to_text(e)}")
    intercept = coeffs[0]
    slope = coeffs[1] if len(coeffs) > 1 else Fraction(0)
    return slope, intercept


def div_denominators(e: Expr):
    """Yield the denominator subtree of every division in the expression."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        yield from div_denominators(e.left)
        yield from div_denominators(e.right)
        if isinstance(e, Div):
            yield e.right
    elif isinstance(e, (Neg, Fun)):
        yield from div_denominators(e.arg)


def _poly_derivative(c: List[Fraction]) -> List[Fraction]:
    return _trim([Fraction(i) * c[i] for i in range(1, len(c))]) if len(c) > 1 else [Fraction(0)]


def _poly_divmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    rem = list(a)
    quot = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(rem) >= len(b) and any(c != 0 for c in rem):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = _trim(rem)
        if rem == [Fraction(0)]:
            break
    return _trim(quot), _trim(rem)


def _poly_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b != [Fraction(0)]:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return a


def poly_eval(coeffs: Sequence, x):
    """Ascending coefficients evaluated at x by Horner's rule."""
    value = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        value = value * x + c
    return value


def _sign_at(coeffs: List[Fraction], x) -> int:
    if x is None:
        return 0
    value = poly_eval(coeffs, x)
    return (value > 0) - (value < 0)


def _sign_at_infinity(coeffs: List[Fraction], positive: bool) -> int:
    lead = coeffs[-1]
    if lead == 0:
        return 0
    sign = (lead > 0) - (lead < 0)
    if not positive and (len(coeffs) - 1) % 2 == 1:
        sign = -sign
    return sign


def _variations(signs: List[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def count_poly_roots_inside(coeffs: List[Fraction], lo, hi) -> int:
    """Distinct real roots of the polynomial strictly inside (lo, hi),
    counted exactly via a Sturm chain; None bounds mean +/- infinity."""
    p = _trim(list(coeffs))
    if len(p) == 1:
        return 0
    square_free, _ = _poly_divmod(p, _poly_gcd(p, _poly_derivative(p)))
    chain = [square_free, _poly_derivative(square_free)]
    while chain[-1] != [Fraction(0)] and len(chain[-1]) > 1:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if rem == [Fraction(0)]:
            break
        chain.append([-c for c in rem])
    if chain[-1] == [Fraction(0)]:
        chain.pop()

    def variations_at(x, positive_inf: bool) -> int:
        if x is None:
            return _variations([_sign_at_infinity(q, positive_inf) for q in chain])
        return _variations([_sign_at(q, x) for q in chain])

    lo_f, hi_f = exact(lo), exact(hi)
    count = variations_at(lo_f, False) - variations_at(hi_f, True)
    if hi_f is not None and _sign_at(square_free, hi_f) == 0:
        count -= 1  # root exactly at the open right end does not count
    return max(0, count)


def exact(x):
    """x as a Fraction, a float read by its shortest repr; None stays None."""
    return Fraction(str(x)) if x is not None and not isinstance(x, Fraction) else x


def poly_nonnegative(coeffs: List[Fraction], lo, hi) -> bool:
    """p >= 0 on the open interval (lo, hi), decided exactly; None bounds
    mean +/- infinity.  p changes sign at its roots of odd multiplicity,
    whose number is the alternating sum of the root counts of p, gcd(p, p'),
    the gcd of that with its own derivative, and so on.  With none, p has
    one sign off its roots: its sign at the first of deg + 1 probes that is
    not a root."""
    p = _trim(list(coeffs))
    odd, sign, member = 0, 1, p
    while len(member) > 1:
        odd += sign * count_poly_roots_inside(member, lo, hi)
        sign, member = -sign, _poly_gcd(member, _poly_derivative(member))
    if odd:
        return False
    # the probes split a finite window [a, b] of the interval evenly
    a = exact(lo) if lo is not None else (exact(hi) if hi is not None else 0) - len(p)
    b = exact(hi) if hi is not None else a + 2 * len(p)
    for k in range(1, len(p) + 1):
        value = poly_eval(p, a + (b - a) * Fraction(k, len(p) + 1))
        if value != 0:
            return value > 0
    return True  # p is identically zero


# ---------------------------------------------------------------------------
# Canonical form and smart constructors
# ---------------------------------------------------------------------------


def canonical(e: Expr) -> Expr:
    """Normal form in one bottom-up pass (`_reduce`): coefficient form for a
    polynomial, the `Div` of coefficient forms in lowest terms with a monic
    denominator for a rational function; elsewhere constant subtrees fold
    and additive/multiplicative identities drop out."""
    if isinstance(e, _COEFF_FORMS):
        return e
    return _node(e, _reduce(e))


def poly_expr(coeffs: Sequence[Fraction]) -> Expr:
    """Canonical node of ascending coefficients: Const, X or Poly."""
    coeffs = _trim(list(coeffs))
    if len(coeffs) == 1:
        return Const(coeffs[0])
    if coeffs == [0, 1]:
        return X
    return Poly(tuple(coeffs))


def _reduce(e: Expr) -> Union[List[Fraction], Tuple[List[Fraction], List[Fraction]], Expr]:
    """The one reduction, under `canonical`, `poly_coeffs`, `rational_coeffs`
    and `classify`, from the leaves up: a polynomial subtree gives its
    ascending coefficients, a rational one its (numerator, denominator) in
    lowest terms with a monic denominator of degree >= 1, and any other its
    canonical node, never a coefficient form (a division by 0 stays `Div`)."""
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Var):
        return [Fraction(0), Fraction(1)]
    if isinstance(e, Poly):
        return list(e.coeffs)
    if isinstance(e, Fun):
        return Fun(e.name, _node(e.arg, _reduce(e.arg)))
    if isinstance(e, Neg):
        arg = _reduce(e.arg)
        if isinstance(arg, list):
            return [-c for c in arg]
        if isinstance(arg, tuple):
            return [-c for c in arg[0]], arg[1]
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if not isinstance(e, (Add, Sub, Mul, Div)):
        raise TypeError(f"not an expression: {e!r}")
    a, b = _reduce(e.left), _reduce(e.right)
    if isinstance(a, list) and isinstance(b, list):
        if isinstance(e, Add):
            return _padd(a, b)
        if isinstance(e, Sub):
            return _padd(a, [-c for c in b])
        if isinstance(e, Mul):
            return _pmul(a, b)
        if len(b) == 1 and b[0] != 0:
            return [c / b[0] for c in a]
        if len(b) > 1:
            return _lowest_terms(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        n1, d1 = a if isinstance(a, tuple) else (a, [ONE.value])
        n2, d2 = b if isinstance(b, tuple) else (b, [ONE.value])
        if isinstance(e, Add):
            return _lowest_terms(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
        if isinstance(e, Sub):
            return _lowest_terms(_padd(_pmul(n1, d2), [-c for c in _pmul(n2, d1)]), _pmul(d1, d2))
        if isinstance(e, Mul):
            return _lowest_terms(_pmul(n1, n2), _pmul(d1, d2))
        if n2 != [0]:
            return _lowest_terms(_pmul(n1, d2), _pmul(d1, n2))
    left, right = _node(e.left, a), _node(e.right, b)
    if isinstance(e, Add):
        if left == ZERO:
            return right
        if right == ZERO:
            return left
        return Add(left, right)
    if isinstance(e, Sub):
        if right == ZERO:
            return left
        return Sub(left, right)
    if isinstance(e, Mul):
        if left == ZERO or right == ZERO:
            return [Fraction(0)]
        if left == ONE:
            return right
        if right == ONE:
            return left
        return Mul(left, right)
    if right == ONE:
        return left
    return Div(left, right)


def _lowest_terms(num: List[Fraction], den: List[Fraction]):
    """num/den (den nonzero) in lowest terms with a monic denominator: a
    coefficient list where that denominator is 1, else the pair."""
    if len(num) > 1 or num[0] == 0:  # a nonzero constant is coprime to den
        common = _poly_gcd(num, den)
        if len(common) > 1:
            num, den = _poly_divmod(num, common)[0], _poly_divmod(den, common)[0]
    if den[-1] != 1:
        num, den = [c / den[-1] for c in num], [c / den[-1] for c in den]
    return num if len(den) == 1 else (num, den)


def _node(e: Expr, reduced) -> Expr:
    """The canonical node of ``e`` from ``_reduce(e)``; a coefficient form
    is its own, and a rational pair becomes the `Div` of coefficient forms."""
    if isinstance(reduced, list):
        return e if isinstance(e, _COEFF_FORMS) else poly_expr(reduced)
    if isinstance(reduced, tuple):
        return Div(poly_expr(reduced[0]), poly_expr(reduced[1]))
    return reduced


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, _COEFF_FORMS) and isinstance(b, _COEFF_FORMS):
        return poly_expr(_padd(poly_coeffs(a), poly_coeffs(b)))  # what canonical gives
    return canonical(Add(a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return canonical(Sub(a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, _COEFF_FORMS) and isinstance(b, _COEFF_FORMS):
        return poly_expr(_pmul(poly_coeffs(a), poly_coeffs(b)))
    return canonical(Mul(a, b))


def negate(a: Expr) -> Expr:
    return canonical(Neg(a))


def exact_equal(a: Expr, b: Expr) -> bool:
    """Decidable equality: canonical structural match, which is equality of
    the functions for polynomial and rational expressions."""
    return canonical(a) == canonical(b)
