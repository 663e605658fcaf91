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

Expressions, the group law's float polynomials among them (``bch``), are
compiled (``compile``) into a ``Tape``, and on first use for each domain
dimension and mode into one straight-line Python function of numpy ops:
one line per node in the order a walk of the trees meets them.
``evaluate`` runs the function on numpy arrays; in forward mode
(Griewank-Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 3) each
node also carries the partials of the coordinates it reads, and only
those, with the multiplications by the seed 1.0 left out.  Every value
that no stored result, domain check or partials rule reads is dropped
(activity analysis, ibid.): the frame differential (``differential``)
stores no values, so there an output x3 + 0.2*sin(x1) whose value the
inverse frame does not read evaluates no sine.  Every run raises
DomainError on log of a nonpositive value, division by zero, square root
of a negative, 0 to a negative power, a constant power too large for a
float, or a coordinate beyond the domain, in the order a walk of the
trees would meet them.  Integer powers k >= 2 of arrays are products,
the chain of ``jets.powers`` written out one line per product, so an x^k
that no line reads is dropped like any other line; they are within a
relative γ_{k-1} of the exact power and the same bits as ``**`` for
k = 2.  Constant (Python float) bases and exponents below 2 keep ``**``.

One writer, ``Code``, builds the generated code of these tapes, of the
group laws' sparse products and of the coefficient plans of ``pullback``,
as ``dataclasses`` builds ``__init__``, with the builtin ``compile``.
Constants and functions are bound in the function's namespace by name, so
no input text reaches the code.  Each
line names what it defines and reads; a backward liveness pass keeps the
root lines and every line that defines a name a kept line reads, and each
defined name is deleted after the line of its last use.  The functions
live in one process-wide table, ``_RUNS``, under tagged keys: every tape
of equal trees shares its functions, so a map loaded twice compiles once,
every plan of equal op sequences (constants by their repr) shares its
function, and so does every frame differential (``differential``) of equal
trees, domain dimension and frame patterns, which ``maps.differential_batch``
runs: the tape's values and partials, then the products by the inverse
codomain frame and the domain frame entry by entry, without the terms that
round-to-nearest makes exact (``maps``); it is kept with the entries it
writes as constants, which the plans fold.  The same writer runs the group
laws' products (``product``) on whole lines of a stack of matrices.  Tapes
of equal trees are equal, so a map and algebras reloaded from files find
the functions of the first.
"""

from __future__ import annotations

import builtins
import math
import re
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .jets import powers

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

# (test, message) of the checks that refuse a value with a DomainError
_CHECKS = {
    "/": ("_equal", "division by zero"),
    "^": ("_equal", "zero raised to a negative power"),
    "log": ("_less_equal", "log of a nonpositive value"),
    "sqrt": ("_less", "sqrt of a negative value"),
}

# The partial of a coordinate with respect to itself, and the partial of
# x^0: constants in the generated code, written as these literals.
_SEED = "1.0"
_ZERO = "0.0"
_NAME = re.compile(r"[A-Za-z_]\w*")


def _first_bad(mask) -> int | None:
    if mask.ndim == 0:
        return None
    return int(np.argmax(mask))


def _constant_power(base, k: int):
    try:
        return base ** k
    except OverflowError:  # a constant base is a Python float: numpy gives inf
        raise DomainError(f"constant power {base!r}^{k} overflows a float") from None


def _kink(raw, warn) -> None:
    if warn is None:
        return
    near = np.less_equal(np.abs(raw), KINK_TOLERANCE)
    if np.any(near):
        count = int(np.sum(near)) if np.asarray(near).ndim else 1
        warn(f"abs evaluated within {KINK_TOLERANCE:g} of its kink ({count} sample(s))")


_NAMESPACE = {
    "DomainError": DomainError, "_first_bad": _first_bad, "_constant_power": _constant_power,
    "_kink": _kink, "_isfinite": np.isfinite, "_finite": math.isfinite, "_full": np.full,
    "_equal": np.equal, "_less": np.less, "_less_equal": np.less_equal,
}


@dataclass(frozen=True)
class _Term:
    """A node of the generated code: the name (or literal) of its value and,
    for a node that reads a coordinate, its partials by coordinate (empty
    when only values are computed); None for a constant, a Python float at
    run time."""

    value: str
    partials: dict | None


class _Unreachable(Exception):
    """A coordinate beyond the domain: the code after its raise never runs."""


class Code:
    """The lines of one generated function, and its namespace (module docstring)."""

    def __init__(self, namespace: dict):
        self.namespace = dict(namespace)
        self.base = len(namespace)
        self.lines: list[tuple[str, tuple, tuple, bool]] = []  # text, defines, reads, root

    def bind(self, value) -> str:
        name = f"c{len(self.namespace) - self.base}"
        self.namespace[name] = value
        return name

    def line(self, text: str, defines=(), reads=(), root: bool = False) -> None:
        self.lines.append((text, defines, reads, root))

    def build(self, params: str, head: list, filename: str):
        """``def run(params)`` of ``head`` and the kept lines, and its width:
        the most defined names alive at once, plus one for a line's temporary."""
        live: set = set()
        kept = []
        for text, defines, reads, root in reversed(self.lines):
            if root or live.intersection(defines):
                kept.append((text, defines, reads))
                live.update(reads)
        kept.reverse()
        last = {name: i for i, (_, defines, reads) in enumerate(kept)
                for name in (*defines, *reads)}
        body, alive, width = [], set(), 1
        for i, (text, defines, reads) in enumerate(kept):
            body.append(text)
            alive.update(defines)
            width = max(width, len(alive) + 1)
            done = sorted({name for name in (*defines, *reads)
                           if name in alive and last[name] == i})
            if done:
                body.append(f"del {', '.join(done)}")
                alive.difference_update(done)
        source = f"def run({params}):\n" + "".join(f"    {s}\n" for s in head + body or ["pass"])
        exec(builtins.compile(source, filename, "exec"), self.namespace)
        return self.namespace["run"], width


class _Writer(Code):
    """The code of one tape, domain dimension and mode: one line per op, in
    the order a walk of the trees meets them."""

    def __init__(self, n: int, derivatives: bool):
        super().__init__(_NAMESPACE)
        self.n = n
        self.derivatives = derivatives
        self.coords = [f"x{j}" for j in range(n)]  # the names coordinate j reads

    def emit(self, template: str, *operands: str, root: bool = False) -> str:
        """A new temporary assigned the template filled with the operands:
        names, literals or the products of ``product``."""
        name = f"t{len(self.lines)}"
        self.line(f"{name} = " + template.format(*operands), (name,),
                  tuple(_NAME.findall(" ".join(operands))), root)
        return name

    def times(self, p: str, q: str) -> str:
        """p * q, with the multiplication by the seed left out."""
        return q if p == _SEED else p if q == _SEED else self.emit("{} * {}", p, q)

    @staticmethod
    def product(p: str, q: str) -> str:
        return q if p == _SEED else p if q == _SEED else f"{p} * {q}"

    def check(self, kind: str, value: str) -> None:
        test, message = _CHECKS[kind]
        self.line(f"if (bad := {test}({value}, 0.0)).any(): "
                  f"raise DomainError({message!r}, _first_bad(bad))", reads=(value,), root=True)

    # -- nodes ----------------------------------------------------------------

    def node(self, expr) -> _Term:
        if isinstance(expr, Num):
            return _Term(self.bind(expr.value), None)
        if isinstance(expr, PiConst):
            return _Term(self.bind(np.pi), None)
        if isinstance(expr, Coord):
            if not isinstance(expr.index, int) or expr.index < 0:  # it names a local below
                raise TypeError(f"not a coordinate index: {expr.index!r}")
            if expr.index >= len(self.coords):
                message = f"coordinate {expr.name} exceeds domain dimension {self.n}"
                self.line(f"raise DomainError({self.bind(message)})", root=True)
                raise _Unreachable
            return _Term(self.coords[expr.index], {expr.index: _SEED} if self.derivatives else {})
        if isinstance(expr, Neg):
            return self.neg(self.node(expr.arg))
        if isinstance(expr, Bin):
            if expr.op not in _BINARY:  # the op is written into the code below
                raise TypeError(f"not an expression node: {expr!r}")
            left = self.node(expr.left)
            right = self.node(expr.right)
            if expr.op == "/":
                self.check("/", right.value)
            varying = left.partials is not None or right.partials is not None
            if self.derivatives and varying:
                return _BINARY[expr.op](self, left, right)
            return _Term(self.emit(f"{{}} {expr.op} {{}}", left.value, right.value),
                         {} if varying else None)
        if isinstance(expr, Pow):
            return self.power(self.node(expr.base), expr.exponent)
        if isinstance(expr, Call):
            return self.call(expr.fn, self.node(expr.arg))
        raise TypeError(f"not an expression node: {expr!r}")

    def neg(self, a: _Term) -> _Term:
        parts = a.partials and {j: self.emit("-{}", p) for j, p in a.partials.items()}
        return _Term(self.emit("-{}", a.value), parts)

    # Each rule below is the forward-mode rule of one operator on operands
    # that read a coordinate (jets: Griewank-Walther, *Evaluating
    # Derivatives*, 2nd ed., 2008, ch. 3), in the order and association of
    # the dense reference (``tests/oracles.Jet``): the partial of a
    # coordinate that an operand does not read is left out of every sum,
    # so where the dense partials add ±0.0, or NaN from 0 * inf, these
    # carry only the other terms.  A constant left operand is on the right
    # of the value, as in Python's reflected operators.

    def add(self, a: _Term, b: _Term) -> _Term:
        if b.partials is None:
            return _Term(self.emit("{} + {}", a.value, b.value), a.partials)
        if a.partials is None:
            return _Term(self.emit("{} + {}", b.value, a.value), b.partials)
        parts = dict(a.partials)
        for j, q in b.partials.items():
            parts[j] = self.emit("{} + {}", parts[j], q) if j in parts else q
        return _Term(self.emit("{} + {}", a.value, b.value), dict(sorted(parts.items())))

    def sub(self, a: _Term, b: _Term) -> _Term:
        value = self.emit("{} - {}", a.value, b.value)
        if b.partials is None:
            return _Term(value, a.partials)
        parts = dict(a.partials or {})
        for j, q in b.partials.items():
            parts[j] = self.emit("{} - {}", parts[j], q) if j in parts else self.emit("-{}", q)
        return _Term(value, dict(sorted(parts.items())))

    def mul(self, a: _Term, b: _Term) -> _Term:
        if b.partials is None:
            return _Term(self.emit("{} * {}", a.value, b.value),
                         {j: self.times(p, b.value) for j, p in a.partials.items()})
        if a.partials is None:
            return _Term(self.emit("{} * {}", b.value, a.value),
                         {j: self.times(q, a.value) for j, q in b.partials.items()})
        parts = {}
        for j in sorted(a.partials.keys() | b.partials.keys()):
            p, q = a.partials.get(j), b.partials.get(j)
            if q is None:
                parts[j] = self.times(p, b.value)
            elif p is None:
                parts[j] = self.times(q, a.value)
            else:
                parts[j] = self.emit("{} + {}", self.product(p, b.value), self.product(q, a.value))
        return _Term(self.emit("{} * {}", a.value, b.value), parts)

    def div(self, a: _Term, b: _Term) -> _Term:
        value = self.emit("{} / {}", a.value, b.value)
        if b.partials is None:
            return _Term(value, {j: self.emit("{} / {}", p, b.value) for j, p in a.partials.items()})
        inv = self.emit("1.0 / {}", b.value)
        if a.partials is None:
            scale = self.emit("{} * {} * {}", a.value, inv, inv)
            return _Term(value, {j: self.emit("-{}", scale) if q == _SEED
                                 else self.emit("-{} * {}", q, scale)
                                 for j, q in b.partials.items()})
        ratio = self.emit("{} * {}", a.value, inv)
        parts = {}
        for j in sorted(a.partials.keys() | b.partials.keys()):
            p, q = a.partials.get(j), b.partials.get(j)
            if q is None:
                parts[j] = self.times(p, inv)
            elif p is None:
                parts[j] = self.emit("-({}) * {}", self.product(q, ratio), inv)
            else:
                parts[j] = self.emit("({} - {}) * {}", p, self.product(q, ratio), inv)
        return _Term(value, parts)

    def power(self, a: _Term, k: int) -> _Term:
        """Integer powers k >= 2 of arrays are the products of ``jets.powers``,
        one line each; constants, and k < 2, keep ``**``."""
        if k < 0:
            self.check("^", a.value)
        exponent = self.bind(k)
        if a.partials is None:  # it raises on overflow: a check, always run
            return _Term(self.emit("_constant_power({}, {})", a.value, exponent, root=True), None)
        if k >= 2:
            below, value = powers(a.value, k, lambda p, q: self.emit("{} * {}", p, q))
            if not self.derivatives:
                return _Term(value, {})
            slope = self.emit("{} * {}", exponent, below)
        else:
            value = self.emit("{} ** {}", a.value, exponent)
            if not self.derivatives:
                return _Term(value, {})
            if k == 0:
                return _Term(value, dict.fromkeys(a.partials, _ZERO))
            slope = self.emit("{} * {} ** {}", exponent, a.value, self.bind(k - 1))
        return _Term(value, {j: self.times(slope, p) for j, p in a.partials.items()})

    def call(self, fn: str, a: _Term) -> _Term:
        if fn in _CHECKS:
            self.check(fn, a.value)
        elif fn == "abs":
            self.line(f"_kink({a.value}, warn)", reads=(a.value,), root=True)
        f, df = _UNARY[fn]
        value = self.emit("{}({})", self.bind(f), a.value)
        if not a.partials:
            return _Term(value, a.partials)
        slope = self.emit("{}({})", self.bind(df), a.value)
        parts = {j: self.times(slope, p) for j, p in a.partials.items()}
        masked = [j for j, p in a.partials.items() if p != _SEED]
        if masked:  # an exact 0 partial of the argument stays 0, not inf * 0 = NaN
            fixes = "; ".join(f"{parts[j]}[({a.partials[j]} == 0.0) & ~_isfinite({slope})] = 0.0"
                              for j in masked)
            self.line(f"if not _isfinite({slope}).all(): {fixes}",
                      tuple(parts[j] for j in masked),
                      (slope, *(parts[j] for j in masked), *(a.partials[j] for j in masked)))
        return _Term(value, parts)

    # -- outputs --------------------------------------------------------------

    def store(self, a: int, term: _Term) -> None:
        self.line(f"values[{a}] = {term.value}", reads=(term.value,), root=True)
        if not self.derivatives:
            return
        if not term.partials:
            self.line(f"jac[{a}] = 0.0", root=True)
            return
        for j in range(self.n):
            p = term.partials.get(j, _ZERO)
            self.line(f"jac[{a}, {j}] = {p}", reads=(p,), root=True)

_BINARY = {"+": _Writer.add, "-": _Writer.sub, "*": _Writer.mul, "/": _Writer.div}


def _generate(exprs: tuple, n: int, derivatives: bool):
    """The function run(env, values, jac, warn) of a tape (``Tape``)."""
    writer = _Writer(n, derivatives)
    try:
        for a, expr in enumerate(exprs):
            writer.store(a, writer.node(expr))
    except _Unreachable:
        pass
    return writer.build("env, values, jac, warn", _unpack(n), "<dsl tape>")[0]


def _unpack(n: int) -> list:
    """The head line that names the n coordinates of ``env``."""
    return [f"{', '.join(f'x{j}' for j in range(n))}, = env"] if n else []


@dataclass(eq=False)
class _Entry:
    """An entry of a frame product as ``_Differential`` writes it.  ``name``
    is the literal, bound constant or temporary that holds it, None for an
    exact zero not computed yet; ``value`` its float where it is a constant;
    ``zero``, for an exact zero whose sign the data set, the op and the
    operands that compute it; ``plus`` is True where it is never -0.0."""

    name: str | None
    value: float | None = None
    zero: tuple | None = None
    plus: bool = False

    @property
    def exact_zero(self) -> bool:
        return self.zero is not None or self.value == 0.0


class _Differential(_Writer):
    """The code of a tape's frame differential L(F(x)) @ J_F(x) @ R(x): the
    values and partials of the tape, then the product by L, the inverse
    codomain frame, and the product by R, the domain frame, entry by entry
    (``differential``), or of a group law's product (``product``)."""

    def __init__(self, n: int):
        super().__init__(n, True)
        self.tests: dict[str, str] = {}  # frame entry -> its finiteness test

    def constant(self, name: str) -> float | None:
        """The float that ``name`` holds where it is a constant: the seed,
        +0.0 or a bound float; None for a temporary."""
        value = float(name) if name in (_SEED, _ZERO) else self.namespace.get(name)
        return value if isinstance(value, float) else None

    def stack_entry(self, p: str) -> _Entry:
        """A partial of the tape: the seed, +0.0, a bound constant or a temporary."""
        value = self.constant(p)
        if value is None:
            return _Entry(p)
        return _Entry(p, value, plus=not (value == 0.0 and math.copysign(1.0, value) < 0))

    def array(self, term: _Term) -> str:
        """The name of a value as an array: a constant is broadcast to one."""
        if term.partials is not None:
            return term.value
        return self.emit("_full(jac.shape[2], {})", term.value)

    def entries(self, exprs, coords: list) -> list:
        """The names of a frame's entry trees evaluated over the named coordinates."""
        saved = self.coords
        self.coords, self.derivatives = coords, False
        names = [self.array(self.node(expr)) for expr in exprs]
        self.coords, self.derivatives = saved, True
        return names

    def name(self, e: _Entry) -> str:
        """The name that holds e, computing an exact zero the first time it is read."""
        if e.name is None:
            op, a, b = e.zero
            e.name = (self.masked(self.name(a), b) if op == "*"
                      else self.emit("{} + {}", self.name(a), self.name(b)))
        return e.name

    def masked(self, s: str, v: str) -> str:
        """s * v under the products' exact-zero rule: 0.0 where s is exactly
        0 and v is not finite, tested once per v (v . v is finite or not)."""
        t = self.emit("{} * {}", s, v)
        if v not in self.tests:
            self.tests[v] = self.emit("_finite({}.dot({}))", v, v)
        test = self.tests[v]
        self.line(f"if not {test}: {t}[({s} == 0.0) & ~_isfinite({v})] = 0.0", (t,),
                  tuple(_NAME.findall(f"{t} {s} {test} {v}")))
        return t

    def term(self, s: _Entry, v: str | None) -> _Entry:
        """The stack entry s times the frame entry named v (None: the constant 1)."""
        if v is None:
            return s
        if s.exact_zero:  # a zero of the data's sign, never NaN: the exact-zero rule
            return _Entry(None, zero=("*", s, v))
        if s.value == 1.0:
            return _Entry(v, plus=True)  # a frame entry is a sum 0.0 + ...
        if s.value is not None:  # a nonzero constant: the rule masks nothing
            return _Entry(self.emit("{} * {}", s.name, v))
        return _Entry(self.masked(s.name, v))

    def accumulate(self, a: _Entry, b: _Entry) -> _Entry:
        """a + b, where an exact zero added to what is never -0.0 adds nothing."""
        if b.exact_zero and a.plus:
            return a
        if a.exact_zero and b.plus:
            return b
        if a.exact_zero and b.exact_zero:
            return _Entry(None, zero=("+", a, b))
        return _Entry(self.emit("{} + {}", self.name(a), self.name(b)), plus=a.plus or b.plus)

    def frame_product(self, lines: tuple, entries: list, stack: list, left: bool) -> list:
        """L @ stack (``left``, ``lines`` the rows of L's pattern) or stack @ R
        (``lines`` the columns of R's pattern), for frame entries named
        ``entries``: each entry of the result adds its terms in k order."""
        def entry(pairs):
            return reduce(self.accumulate, (self.term(s, None if e is None else entries[e])
                                            for s, e in pairs))
        if left:
            return [[entry((stack[k][b], e) for k, e in terms) for b in range(len(stack[0]))]
                    for terms in lines]
        return [[entry((row[k], e) for k, e in terms) for terms in lines] for row in stack]


def _generate_differential(exprs: tuple, n: int, inverse: tuple, frame: tuple):
    """The function run(env, jac, warn) of ``differential`` and the entries
    it writes as constants; ``inverse`` is the rows and entry trees of L,
    ``frame`` the columns and trees of R."""
    writer = _Differential(n)
    constants: dict[tuple[int, int], float] = {}
    try:
        terms = [writer.node(expr) for expr in exprs]
    except _Unreachable:
        terms = None
    if terms is not None:
        stack = [[writer.stack_entry((t.partials or {}).get(j, _ZERO)) for j in range(n)]
                 for t in terms]
        rows, trees = inverse
        left = writer.entries(trees, [writer.array(t) for t in terms])
        stack = writer.frame_product(rows, left, stack, left=True)
        cols, trees = frame
        stack = writer.frame_product(cols, writer.entries(trees, writer.coords), stack, left=False)
        for a, row in enumerate(stack):
            for j, e in enumerate(row):
                name = writer.name(e)
                writer.line(f"jac[{a}, {j}] = {name}", reads=tuple(_NAME.findall(name)), root=True)
                if (value := writer.constant(name)) is not None:
                    constants[a, j] = value
    return writer.build("env, jac, warn", _unpack(n), "<dsl differential>")[0], constants


def _generate_product(lines: tuple, trees: tuple, n: int, left: bool):
    """The function run(env, stack) of ``product``: ``lines`` are the rows
    (``left``) or the columns of P's pattern, ``trees`` its entry trees."""
    writer = _Differential(n)  # every entry tree of P reads a coordinate: none is broadcast
    view = "stack[{}]" if left else "stack[:, {}]"
    given = [_Entry(writer.emit(view, str(k))) for k in range(len(lines))]
    stack = [[g] for g in given] if left else [given]
    done = [e for row in writer.frame_product(lines, writer.entries(trees, writer.coords),
                                              stack, left) for e in row]
    # an identity line stays; a bare stack line is copied, as a later write may overwrite it
    written = [(i, writer.emit("{}.copy()", e.name) if e in given else e.name)
               for i, e in enumerate(done) if e is not given[i]]
    for i, name in written:  # every line is computed before the first is written
        writer.line(f"{view.format(i)} = {name}", reads=(name,), root=True)
    writer.line("return stack", root=True)
    return writer.build("env, stack", _unpack(n), "<dsl product>")[0]


def _signature(exprs: tuple) -> tuple:
    """The trees in prefix order, one entry per node, with each number by
    its repr: unlike ==, it tells 0.0 from -0.0.  Refuses what is not an
    expression node."""
    out = []
    stack = list(reversed(exprs))
    while stack:
        node = stack.pop()
        if isinstance(node, (Coord, PiConst)):
            out.append(node)
        elif isinstance(node, Num):
            out.append(("num", repr(node.value)))
        elif isinstance(node, Bin):
            out.append(("bin", node.op))
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            out.append(("neg",))
            stack.append(node.arg)
        elif isinstance(node, Call):
            out.append(("call", node.fn))
            stack.append(node.arg)
        elif isinstance(node, Pow):
            out.append(("pow", repr(node.exponent)))
            stack.append(node.base)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return tuple(out)


# ("tape", signature) -> the functions of every tape of equal trees; ("rows",
# key) -> the function and width of a coefficient plan (``pullback``);
# ("differential", tape, n, rows, tape, cols, tape) -> the frame
# differential of a map's tape and the entries it writes as constants
# (``differential``); ("product", tape, n, lines, left) -> a product by a
# group law's polynomial matrix (``product``).
_RUNS: dict[tuple, object] = {}


@dataclass(frozen=True, eq=False)
class Tape:
    """Expressions to be compiled into straight-line code.

    ``run`` generates, on first use for each domain dimension and mode
    (values, or values and first partials), one Python function of numpy
    ops and caches it in ``_runs``, which every tape of equal expression
    trees shares.
    """

    components: tuple
    _runs: dict = field(default_factory=dict, repr=False)

    # tapes of equal trees share ``_runs`` (``compile``), and are equal
    def __eq__(self, other):
        return isinstance(other, Tape) and self._runs is other._runs

    def __hash__(self):
        return id(self._runs)

    def run(self, n: int, derivatives: bool):
        run = self._runs.get((n, derivatives))
        if run is None:
            run = self._runs[n, derivatives] = _generate(self.components, n, derivatives)
        return run


def compile(exprs) -> Tape:
    """A ``Tape`` of the expressions, sharing its compiled functions with
    every tape of equal trees.  Nothing is evaluated here, nor generated:
    constants, domain checks and the code run with the tape.  Raises
    TypeError on what is not an expression node."""
    exprs = tuple(exprs)
    return Tape(exprs, _RUNS.setdefault(("tape", _signature(exprs)), {}))


def differential(tape: Tape, n: int, inverse, frame):
    """``(run, constants)``: the function run(env, jac, warn) that writes
    into ``jac`` (m, n, N) the frame differential L(F(x)) @ J_F(x) @ R(x)
    of the tape's outputs F at the n coordinate arrays of ``env``, with L
    and R the polynomial matrices of the sparsity patterns ``inverse`` and
    ``frame`` (``bch.SparsePattern``: L by its rows, R by its columns), and
    the entries (a, j) -> float that it writes as a constant, a literal or a
    bound float, the same at every point.  Domain checks and warnings run
    as in ``evaluate`` with partials.  Both are generated once for equal
    trees, n and patterns, and kept in ``_RUNS``.
    """
    key = ("differential", tape, n, inverse.rows, inverse.tape, frame.cols, frame.tape)
    got = _RUNS.get(key)
    if got is None:
        got = _RUNS[key] = _generate_differential(
            tape.components, n, (inverse.rows, inverse.tape.components),
            (frame.cols, frame.tape.components))
    return got


def _unchanged(env, stack):
    return stack


def product(pattern, nvars: int, left: bool):
    """The function run(env, stack) that writes P(env) @ stack (``left``) or
    stack @ P(env) over a sample-last stack of matrices (n, b, N) or
    (a, n, N), and returns it, for the polynomial matrix P of ``pattern``
    (``bch.SparsePattern``) at the ``nvars`` coordinate arrays of ``env``.
    Each line of the result adds its terms in k order, skipping P's zeros
    and its multiplications by 1, and a term of an exactly 0 stack entry
    and a non-finite entry of P is 0.0, not 0 * inf = NaN, as in
    ``differential``.  Every line is computed from the unmodified stack
    before any is written, and an identity line of P is left as it is.  An
    identity P returns before any lookup; any other is generated once for
    equal patterns, ``nvars`` and sides (``_RUNS``)."""
    if not pattern.tape.components:
        return _unchanged
    lines = pattern.rows if left else pattern.cols
    key = ("product", pattern.tape, nvars, lines, left)
    got = _RUNS.get(key)
    if got is None:
        got = _RUNS[key] = _generate_product(lines, pattern.tape.components, nvars, left)
    return got


def evaluate(tape: Tape, env: list, values: np.ndarray, warn=None, jac: np.ndarray | None = None):
    """Run a tape over an environment of numpy arrays, one per coordinate.

    ``values[a]`` receives output a.  With ``jac`` (m, n, N), sample-last,
    the run also computes first partials in forward mode, and ``jac[a, j]``
    receives output a's partial with respect to coordinate j: exactly +0.0
    where the output does not read x_j, or reads it only under ^0.
    Domain checks and warnings run in the order a walk of the trees meets
    them.  ``warn``, if given, is called with a
    message for soft diagnostics (currently: an abs op evaluated within
    1e-9 of its kink).
    """
    tape.run(len(env), jac is not None)(env, values, jac, warn)


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
