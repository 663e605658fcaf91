"""Expression language for coordinate maps.

Grammar (precedence climbing, loosest to tightest):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | '+' unary | power
    power  :=  atom ('^' signed-integer)*        -- exponents fold right
    atom   :=  number | 'pi' | coordinate | fn '(' expr ')' | '(' expr ')'

Coordinates are ``x1 .. xn``; functions are sin, cos, exp, log, sqrt, abs,
tanh.  Positions in error messages are 1-based; end of input counts as one
past the last character.

Expressions are compiled once (``compile``) into a flat post-order
``Tape`` that drops each intermediate right after its use.  ``evaluate``
runs a tape on floats or numpy arrays, or in forward mode on jets
(Griewank-Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 3) with
the same ops.  In forward mode the caller may name the outputs whose
values it reads.  A load, sum, difference, negation or call whose value
reaches an unread output only through +, - and negation (*spare*, as
``compile`` marks it) then computes its partials only (activity analysis,
ibid.); every other step, products, quotients and powers included, computes
its value as before.  Every run raises
DomainError on log of a nonpositive value, division by zero, square root
of a negative, 0 to a negative power, or a constant power too large for a
float, in the order a walk of the trees would meet them.  Integer powers
k >= 2 of arrays and jets are products (``jets.powers``), within a
relative γ_{k-1} of the exact power and the same bits as ``**`` for k = 2;
constant (Python float) bases and exponents below 2 keep ``**``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, powers, value_of

ADD, MUL, UNARY, POW = 1, 2, 3, 4

FUNCTIONS = ("abs", "cos", "exp", "log", "sin", "sqrt", "tanh")

KINK_TOLERANCE = 1e-9


class ParseError(ValueError):
    """Syntax error with a 1-based position and the tokens that were expected."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{hint}")


class UnknownSymbolError(ParseError):
    pass


class ArityError(ParseError):
    pass


class DomainError(ValueError):
    """Evaluation left the function's domain; carries the offending sample."""

    def __init__(self, message: str, sample_index: int | None = None, coords=None):
        self.base_message = message
        self.sample_index = sample_index
        self.coords = coords
        if coords is not None:
            message = f"{message} at point ({', '.join(repr(float(c)) for c in coords)})"
        super().__init__(message)


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class PiConst:
    pass


@dataclass(frozen=True)
class Coord:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?:(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int  # 1-based


def tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


# -- parser -------------------------------------------------------------------

_PREC = {"+": ADD, "-": ADD, "*": MUL, "/": MUL, "^": POW}


class _Parser:
    def __init__(self, text: str, names: dict[str, int] | None):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.names = names

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def end_pos(self) -> int:
        return len(self.text) + 1

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_pos(), (op,))
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, (op,))
        self.i += 1

    def parse(self):
        expr = self.expression(0)
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return expr

    def expression(self, min_prec: int):
        left = self.prefix()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in _PREC:
                return left
            prec = _PREC[tok.text]
            if prec < min_prec:
                return left
            self.i += 1
            if tok.text == "^":
                left = Pow(left, self.exponent_chain())
            else:
                right = self.expression(prec + 1)
                left = Bin(tok.text, left, right)

    def prefix(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text in ("-", "+"):
            self.i += 1
            arg = self.expression(UNARY)
            return Neg(arg) if tok.text == "-" else arg
        return self.atom()

    def exponent_chain(self) -> int:
        values = [self.signed_integer()]
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "^":
                break
            self.i += 1
            values.append(self.signed_integer())
        result = values[-1]
        for v in reversed(values[:-1]):
            if result < 0:
                raise ParseError(
                    "chained exponent folds to a non-integer", self.tokens[self.i - 1].pos
                )
            result = v ** result
        return result

    def signed_integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text in ("-", "+"):
            sign = -1 if tok.text == "-" else 1
            self.i += 1
            tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_pos(), ("integer exponent",))
        if tok.kind != "number" or not tok.text.isdigit():
            raise ParseError(
                f"exponent must be an integer, got {tok.text!r}", tok.pos, ("integer exponent",)
            )
        self.i += 1
        return sign * int(tok.text)

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_pos(), ("expression",))
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "ident":
            return self.identifier(tok)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {tok.text!r}", tok.pos, ("expression",))

    def identifier(self, tok: _Token):
        name = tok.text
        if self.names is not None and name in self.names:
            return Coord(self.names[name], name)
        if name == "pi":
            return PiConst()
        if name in FUNCTIONS:
            nxt = self.peek()
            if nxt is None or nxt.kind != "op" or nxt.text != "(":
                raise ArityError(
                    f"function {name!r} needs an argument list", tok.pos, ("(",)
                )
            self.i += 1
            arg = self.expression(0)
            sep = self.peek()
            if sep is not None and sep.kind == "op" and sep.text == ",":
                raise ArityError(f"function {name!r} takes exactly one argument", sep.pos)
            self.expect_op(")")
            return Call(name, arg)
        m = re.fullmatch(r"x([1-9][0-9]*)", name) if self.names is None else None
        if m:
            return Coord(int(m.group(1)) - 1, name)
        raise UnknownSymbolError(f"unknown symbol {name!r}", tok.pos)


def parse(text: str, names: dict[str, int] | None = None):
    """Parse an expression over the coordinates x1, x2, ...; ``names``, when
    given, maps symbols to environment slots and is then the only set of
    variables, xN included (used for observables over derivative entries)."""
    return _Parser(text, names).parse()


def coordinate_indices(expr) -> set[int]:
    out: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Coord):
            out.add(node.index)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
    return out


# -- evaluation ---------------------------------------------------------------

_UNARY = {
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda v: -np.sin(v)),
    "exp": (np.exp, np.exp),
    "log": (np.log, lambda v: 1.0 / v),
    "sqrt": (np.sqrt, lambda v: 0.5 / np.sqrt(v)),
    "abs": (np.abs, np.sign),
    "tanh": (np.tanh, lambda v: 1.0 - np.tanh(v) ** 2),
}


def _first_bad(mask) -> int | None:
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return None
    return int(np.argmax(mask))


# Each op comes as a pair: the full op, and the partials-only op that a
# spare step runs in jet mode when its output's value is not read.  The
# second is None for constants, which are never spare, and for *, / and ^,
# which run in full: their operands' values are computed anyway, so the
# value they would skip is one product, quotient or power.


def _load(index: int, name: str):
    def load(env, warn):
        if index >= len(env):
            raise DomainError(f"coordinate {name} exceeds domain dimension {len(env)}")
        return env[index]

    return load, lambda env, warn: Jet(None, load(env, warn).partials)


def _div(env, warn, a, b):
    bad = np.equal(value_of(b), 0.0)
    if np.any(bad):
        raise DomainError("division by zero", _first_bad(bad))
    return a / b


_NEG = (lambda env, warn, a: -a, lambda env, warn, a: Jet(None, a.d_neg()))

_BINARY = {
    "+": (lambda env, warn, a, b: a + b, lambda env, warn, a, b: Jet(None, Jet.d_add(a, b))),
    "-": (lambda env, warn, a, b: a - b, lambda env, warn, a, b: Jet(None, Jet.d_sub(a, b))),
    "*": (lambda env, warn, a, b: a * b, None),
    "/": (_div, None),
}


def _power(k: int):
    """Raise to the integer k: arrays by products for k >= 2, as jets do
    (``jets.powers``); Python-float constants, k < 2 and jets go to ``**``."""

    def power(env, warn, base):
        if k < 0:
            bad = np.equal(value_of(base), 0.0)
            if np.any(bad):
                raise DomainError("zero raised to a negative power", _first_bad(bad))
        if k >= 2 and isinstance(base, np.ndarray):
            return powers(base, k)[1]
        try:
            return base ** k
        except OverflowError:  # a constant base is a Python float: numpy gives inf
            raise DomainError(f"constant power {base!r}^{k} overflows a float") from None

    return power, None


def _call(fn: str):
    f, df = _UNARY[fn]

    def check(raw, warn) -> None:
        if fn == "log":
            bad = np.less_equal(raw, 0.0)
            if np.any(bad):
                raise DomainError("log of a nonpositive value", _first_bad(bad))
        elif fn == "sqrt":
            bad = np.less(raw, 0.0)
            if np.any(bad):
                raise DomainError("sqrt of a negative value", _first_bad(bad))
        elif fn == "abs" and warn is not None:
            near = np.less_equal(np.abs(raw), KINK_TOLERANCE)
            if np.any(near):
                count = int(np.sum(near)) if np.asarray(near).ndim else 1
                warn(f"abs evaluated within {KINK_TOLERANCE:g} of its kink ({count} sample(s))")

    def call(env, warn, arg):
        check(value_of(arg), warn)
        if isinstance(arg, Jet):
            return arg.unary(f, df)
        return f(arg)

    def d_call(env, warn, arg):
        check(arg.value, warn)
        return Jet(None, arg.d_unary(df))

    return call, d_call


@dataclass(frozen=True, eq=False)
class Tape:
    """Expressions compiled into one flat op list in post-order.

    ``steps`` holds (op, arity, output): the op pops its ``arity``
    arguments off a stack, so each intermediate is dropped right after its
    one use, and its result is stored as component ``output`` or, when that
    is None, pushed.

    A step is *spare* when its value reaches its component's output only
    through +, - and negation.  Every other step is *read*: its value
    reaches, through sums or directly, an operand of *, /, ^ or a function
    call, whose partials rule and domain check read it.  ``spare`` lists
    (step index, output, partials-only op) for each spare load, sum,
    difference, negation or call that reads a coordinate; constant subtrees
    are never spare, and a spare product, quotient or power runs in full.
    """

    components: tuple
    steps: tuple
    spare: tuple
    _runs: dict = field(default_factory=dict, repr=False)

    def steps_reading(self, reads) -> tuple:
        """``steps`` with the partials-only op in every spare step of an
        output not in ``reads``; built once per set of outputs."""
        reads = frozenset(reads)
        steps = self._runs.get(reads)
        if steps is None:
            out = list(self.steps)
            for i, a, d_op in self.spare:
                if a not in reads:
                    out[i] = (d_op, *out[i][1:])
            steps = self._runs[reads] = tuple(out)
        return steps


def compile(exprs) -> Tape:
    """Compile expressions once into a ``Tape``: one op per node, in the
    order a walk of the trees would evaluate them.  Nothing is evaluated
    here: constants and domain checks run with the tape."""
    exprs = tuple(exprs)
    steps: list = []
    spare: list = []
    output = 0  # the component being compiled; the loop below sets it

    def emit(ops, arity: int, varying: bool, is_spare: bool) -> bool:
        if is_spare and varying and ops[1] is not None:
            spare.append((len(steps), output, ops[1]))
        steps.append((ops[0], arity, None))
        return varying

    def node(expr, is_spare: bool) -> bool:
        """Append the steps of expr; returns whether it reads a coordinate."""
        if isinstance(expr, Num):
            return emit((lambda env, warn, v=expr.value: v, None), 0, False, is_spare)
        if isinstance(expr, PiConst):
            return emit((lambda env, warn: np.pi, None), 0, False, is_spare)
        if isinstance(expr, Coord):
            return emit(_load(expr.index, expr.name), 0, True, is_spare)
        if isinstance(expr, Neg):
            return emit(_NEG, 1, node(expr.arg, is_spare), is_spare)
        if isinstance(expr, Bin):
            summand = is_spare and expr.op in ("+", "-")
            left = node(expr.left, summand)
            right = node(expr.right, summand)
            return emit(_BINARY[expr.op], 2, left or right, is_spare)
        if isinstance(expr, Pow):
            return emit(_power(expr.exponent), 1, node(expr.base, False), is_spare)
        if isinstance(expr, Call):
            return emit(_call(expr.fn), 1, node(expr.arg, False), is_spare)
        raise TypeError(f"not an expression node: {expr!r}")

    for output, expr in enumerate(exprs):
        node(expr, True)
        steps[-1] = (*steps[-1][:2], output)
    return Tape(exprs, tuple(steps), tuple(spare))


def evaluate(tape: Tape, env: list, values: np.ndarray, warn=None, jac: np.ndarray | None = None,
             reads=None):
    """Run a tape over an environment of floats or arrays.

    ``values[a]`` receives output a.  With ``jac`` (m, n, N), sample-last,
    the run is in forward mode on jets seeded at the n coordinates, and
    ``jac[a]`` receives output a's (n, N) partials (zero for a constant
    output).  In forward mode, ``reads``, if given, holds the outputs whose
    values the caller reads: the spare steps of the others compute their
    partials only (``Tape``), and an output whose last step is such a step
    gets a NaN row of ``values``.  Domain checks and warnings run as in a full run,
    as every value they read is computed.  ``warn``, if given, is called
    with a message for soft diagnostics (currently: an abs op evaluated
    within 1e-9 of its kink).
    """
    steps = tape.steps
    if jac is not None:
        env = [Jet.seed(v, i, len(env)) for i, v in enumerate(env)]
        if reads is not None:
            steps = tape.steps_reading(reads)
    stack: list = []
    for op, arity, a in steps:
        if arity == 0:
            out = op(env, warn)
        elif arity == 1:
            out = op(env, warn, stack.pop())
        else:
            right = stack.pop()
            out = op(env, warn, stack.pop(), right)
        if a is None:
            stack.append(out)
        elif isinstance(out, Jet):
            values[a] = np.nan if out.value is None else out.value
            jac[a] = out.partials
        else:
            values[a] = out
            if jac is not None:
                jac[a] = 0.0


# -- printing -----------------------------------------------------------------

_NODE_PREC = {Num: 5, PiConst: 5, Coord: 5, Call: 5, Pow: POW, Neg: UNARY}


def _prec(node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    return _NODE_PREC[type(node)]


def pretty(expr) -> str:
    """Canonical form; pretty . parse is a fixed point on its own output."""
    if isinstance(expr, Num):
        v = expr.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(expr, PiConst):
        return "pi"
    if isinstance(expr, Coord):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.fn}({pretty(expr.arg)})"
    if isinstance(expr, Neg):
        inner = pretty(expr.arg)
        if _prec(expr.arg) < UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Pow):
        base = pretty(expr.base)
        if _prec(expr.base) <= POW:
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Bin):
        lhs = pretty(expr.left)
        if _prec(expr.left) < _PREC[expr.op]:
            lhs = f"({lhs})"
        rhs = pretty(expr.right)
        if _prec(expr.right) < _PREC[expr.op] or (
            _prec(expr.right) == _PREC[expr.op] and expr.op in ("-", "/")
        ):
            rhs = f"({rhs})"
        if expr.op in ("+", "-"):
            return f"{lhs} {expr.op} {rhs}"
        return f"{lhs}{expr.op}{rhs}"
    raise TypeError(f"not an expression node: {expr!r}")
