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

Expressions are compiled (``compile``) into a ``Tape``, and on first use
for each domain dimension, mode and set of outputs read, into one
straight-line Python function of numpy ops: one line per node in the
order a walk of the trees meets them.  ``evaluate`` runs the function on
numpy arrays; in forward mode (Griewank-Walther, *Evaluating Derivatives*,
2nd ed., 2008, ch. 3) each node also carries the partials of the
coordinates it reads, and only those, with the multiplications by the
seed 1.0 left out.  The caller may name the outputs whose values it
reads; every value that no stored output, domain check or partials rule
reads is then dropped (activity analysis, ibid.), so an unread output
x3 + 0.2*sin(x1) evaluates no sine.  Every run raises
DomainError on log of a nonpositive value, division by zero, square root
of a negative, 0 to a negative power, a constant power too large for a
float, or a coordinate beyond the domain, in the order a walk of the
trees would meet them.  Integer powers k >= 2 of arrays are products
(``jets.powers``), within a relative γ_{k-1} of the exact power and the
same bits as ``**`` for k = 2; constant (Python float) bases and
exponents below 2 keep ``**``.

One writer, ``Code``, builds the generated code of these tapes and of the
coefficient plans of ``pullback``, as ``dataclasses`` builds ``__init__``,
with the builtin ``compile``.  Constants and functions are bound in the
function's namespace by name, so no input text reaches the code.  Each
line names what it defines and reads; a backward liveness pass keeps the
root lines and every line that defines a name a kept line reads, and each
defined name is deleted after the line of its last use.  The functions
live in one process-wide table, ``_RUNS``, under tagged keys: every tape
of equal trees shares its functions, so a map loaded twice compiles once,
and every plan of equal recipes and pattern shares its function.
"""

from __future__ import annotations

import builtins
import re
from dataclasses import dataclass, field

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
    "DomainError": DomainError, "_first_bad": _first_bad, "_powers": powers,
    "_constant_power": _constant_power, "_kink": _kink, "_isfinite": np.isfinite,
    "_equal": np.equal, "_less": np.less, "_less_equal": np.less_equal, "_nan": np.nan,
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
    """The code of one tape, domain dimension, mode and set of outputs read:
    one line per op, in the order a walk of the trees meets them."""

    def __init__(self, n: int, derivatives: bool, reads: frozenset):
        super().__init__(_NAMESPACE)
        self.n = n
        self.derivatives = derivatives
        self.reads = reads

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
            if expr.index >= self.n:
                message = f"coordinate {expr.name} exceeds domain dimension {self.n}"
                self.line(f"raise DomainError({self.bind(message)})", root=True)
                raise _Unreachable
            return _Term(f"x{expr.index}", {expr.index: _SEED} if self.derivatives else {})
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
        """Integer powers k >= 2 of arrays are products (``jets.powers``);
        constants, and k < 2, keep ``**``."""
        if k < 0:
            self.check("^", a.value)
        exponent = self.bind(k)
        if a.partials is None:  # it raises on overflow: a check, always run
            return _Term(self.emit("_constant_power({}, {})", a.value, exponent, root=True), None)
        if not self.derivatives:
            template = "_powers({}, {})[1]" if k >= 2 else "{} ** {}"
            return _Term(self.emit(template, a.value, exponent), {})
        if k >= 2:
            below, value = f"t{len(self.lines)}", f"t{len(self.lines)}v"
            self.line(f"{below}, {value} = _powers({a.value}, {exponent})", (below, value),
                      (a.value,))
            slope = self.emit("{} * {}", exponent, below)
        else:
            value = self.emit("{} ** {}", a.value, exponent)
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
        if a in self.reads:
            self.line(f"values[{a}] = {term.value}", reads=(term.value,), root=True)
        else:
            self.line(f"values[{a}] = _nan", root=True)
        if not self.derivatives:
            return
        if not term.partials:
            self.line(f"jac[{a}] = 0.0", root=True)
            return
        for j in range(self.n):
            p = term.partials.get(j, _ZERO)
            self.line(f"jac[{a}, {j}] = {p}", reads=(p,), root=True)

_BINARY = {"+": _Writer.add, "-": _Writer.sub, "*": _Writer.mul, "/": _Writer.div}


def _generate(exprs: tuple, n: int, derivatives: bool, reads: frozenset):
    """The function run(env, values, jac, warn) of a tape (``Tape``)."""
    writer = _Writer(n, derivatives, reads)
    try:
        for a, expr in enumerate(exprs):
            writer.store(a, writer.node(expr))
    except _Unreachable:
        pass
    head = [f"{', '.join(f'x{j}' for j in range(n))}, = env"] if n else []
    return writer.build("env, values, jac, warn", head, "<dsl tape>")[0]


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
# key) -> the function and width of a coefficient plan (``pullback``).  Two
# threads may generate the same function at once; either result is kept.
_RUNS: dict[tuple, object] = {}


@dataclass(frozen=True, eq=False)
class Tape:
    """Expressions to be compiled into straight-line code.

    ``run`` generates, on first use for each domain dimension, mode (values,
    or values and first partials) and set of outputs read, one Python
    function of numpy ops and caches it in ``_runs``, which every tape of
    equal expression trees shares.
    """

    components: tuple
    _runs: dict = field(default_factory=dict, repr=False)

    def run(self, n: int, derivatives: bool, reads=None):
        key = (n, derivatives, None if reads is None else frozenset(reads))
        run = self._runs.get(key)
        if run is None:
            outputs = frozenset(range(len(self.components)))
            run = _generate(self.components, n, derivatives,
                            outputs if reads is None else outputs & key[2])
            self._runs[key] = run
        return run


def compile(exprs) -> Tape:
    """A ``Tape`` of the expressions, sharing its compiled functions with
    every tape of equal trees.  Nothing is evaluated here, nor generated:
    constants, domain checks and the code run with the tape.  Raises
    TypeError on what is not an expression node."""
    exprs = tuple(exprs)
    return Tape(exprs, _RUNS.setdefault(("tape", _signature(exprs)), {}))


def evaluate(tape: Tape, env: list, values: np.ndarray, warn=None, jac: np.ndarray | None = None,
             reads=None):
    """Run a tape over an environment of numpy arrays, one per coordinate.

    ``values[a]`` receives output a.  With ``jac`` (m, n, N), sample-last,
    the run also computes first partials in forward mode, and ``jac[a, j]``
    receives output a's partial with respect to coordinate j: exactly +0.0
    where the output does not read x_j, or reads it only under ^0.
    ``reads``, if given, holds the outputs whose values the caller reads:
    every other output gets a NaN row of ``values``, and its value is
    computed only where a partial, a domain check or another output reads
    it.  Domain checks and warnings run as in a full run, in the order a
    walk of the trees meets them.  ``warn``, if given, is called with a
    message for soft diagnostics (currently: an abs op evaluated within
    1e-9 of its kink).
    """
    tape.run(len(env), jac is not None, reads)(env, values, jac, warn)


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
