"""Expression trees over phase-space variables and named parameters.

Variables are ``q1..qn`` and ``p1..pn`` for an ``n``-degree phase space;
any other identifier is a named real parameter.  Nodes are immutable and
compare structurally, so trees can be shared freely.

Grammar accepted by :func:`parse`::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | base ("^" exponent)?
    base     := number | ident | "(" expr ")" | func "(" expr ")"
    exponent := "-"? number | "(" "-"? number ")"

``func`` is one of ``ln``, ``sqrt``, ``sin``, ``cos``, ``exp``; these names
are reserved and may not be used as parameters.  A unary minus applied to a
bare numeric literal folds into the constant, so printing round-trips
structurally.
"""
from __future__ import annotations

import functools
import math
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Const", "Var", "Param", "Neg", "Call", "BinOp", "Pow", "Expr",
    "EvalPoint", "ExprError", "ParseError", "DomainError",
    "UnboundSymbolError",
    "parse", "to_string", "differentiate", "gradient", "evaluate", "simplify",
    "sample_eval_points", "dimension_of",
    "parameters_of", "variables_of", "substitute_param", "compile_functions",
    "q", "p", "const", "param",
]

_MATH = {"ln": math.log, "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
         "exp": math.exp}
FUNCTIONS = tuple(_MATH)


def _pow(x: float, c: float) -> float:
    """``math.pow`` over the reals: a negative base has no real non-integer
    power, yet ``math.pow`` returns 0 for (-inf)^-0.5 and (-0.5)^inf."""
    if x < 0 and not float(c).is_integer():
        raise ValueError("negative base with a non-integer exponent")
    return math.pow(x, c)


_VAR_RE = re.compile(r"^([qp])([1-9][0-9]*)$")
# optional whitespace, then one token; the catch-all ``bad`` must stay last,
# since ``finditer`` silently skips text that no alternative matches
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (column {position + 1})")


class DomainError(ExprError):
    """Evaluation left the real domain (ln <= 0, division by zero, ...)."""


class UnboundSymbolError(ExprError):
    """A variable or parameter had no binding at evaluation time."""


class _Node:
    """Operator sugar shared by all node classes."""

    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, _coerce(other))

    def __radd__(self, other):
        return BinOp("+", _coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _coerce(other))

    def __rsub__(self, other):
        return BinOp("-", _coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _coerce(other))

    def __rmul__(self, other):
        return BinOp("*", _coerce(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return BinOp("/", _coerce(other), self)

    def __pow__(self, exponent):
        return Pow(self, float(exponent))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_string(self)

    def __getstate__(self):
        # a cached hash holds only in the process that computed it
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _cached_hash(node) -> int:
    """The hash dataclass generates (of the field tuple), kept in the
    instance after the first call.  It stays out of the fields, so ``repr``
    and ``==`` are the generated ones, and a subtree shared by many trees is
    hashed once rather than once per enclosing dict lookup."""
    h = node.__dict__.get("_hash")
    if h is None:
        h = node.__dict__["_hash"] = hash(
            tuple([getattr(node, name) for name in node.__dataclass_fields__]))
    return h


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str  # q<i> or p<i>, 1-based index


@dataclass(frozen=True)
class Param(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"
    __hash__ = _cached_hash


@dataclass(frozen=True)
class Call(_Node):
    func: str  # one of FUNCTIONS
    arg: "Expr"
    __hash__ = _cached_hash


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    __hash__ = _cached_hash


@dataclass(frozen=True)
class Pow(_Node):
    base: "Expr"
    exponent: float
    __hash__ = _cached_hash


Expr = Union[Const, Var, Param, Neg, Call, BinOp, Pow]


def _coerce(value) -> Expr:
    if isinstance(value, _Node):
        return value
    return Const(float(value))


def q(i: int) -> Var:
    return Var(f"q{i}")


def p(i: int) -> Var:
    return Var(f"p{i}")


def const(value: float) -> Const:
    return Const(float(value))


def param(name: str) -> Param:
    return Param(name)


@dataclass
class EvalPoint:
    """A phase-space point (q, p); parameters are bound at compile time."""

    q: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        self.q = tuple(float(v) for v in self.q)
        self.p = tuple(float(v) for v in self.p)
        if len(self.q) != len(self.p):
            raise ValueError("q and p must have equal length")

    @property
    def n(self) -> int:
        return len(self.q)

    def state(self) -> np.ndarray:
        return np.array(self.q + self.p, dtype=float)


# ---------------------------------------------------------------------------
# parsing


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "number":
            value = float(value)
            if not math.isfinite(value):
                raise ParseError("numeric literal overflows", pos)
        elif kind == "op":
            kind = value
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        tokens.append(_Token(kind, value, pos))
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Step past the next token if it is a ``kind``."""
        if self.tokens[self.pos].kind != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.kind!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.accept("-"):
            inner = self.factor()
            # fold "-5" into a constant so printing round-trips
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        base = self.base()
        if self.accept("^"):
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> float:
        tok = self.peek()
        if tok.kind not in ("number", "-", "("):
            raise ParseError("exponent must be a numeric literal", tok.pos)
        paren = self.accept("(")
        sign = -1.0 if self.accept("-") else 1.0
        value = sign * self.expect("number").value
        if paren:
            self.expect(")")
        return value

    def base(self) -> Expr:
        tok = self.peek()
        if self.accept("number"):
            return Const(tok.value)
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        if not self.accept("ident"):
            raise ParseError(f"expected a value, found {tok.kind!r}", tok.pos)
        name = tok.value
        if name in FUNCTIONS:
            if not self.accept("("):
                raise ParseError(f"reserved function name {name!r} needs an argument list",
                                 tok.pos)
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        m = _VAR_RE.match(name)
        if m:
            index = int(m.group(2))
            if index > self.dimension:
                raise ParseError(
                    f"variable {name!r} out of range for dimension {self.dimension}",
                    tok.pos)
            return Var(name)
        if self.peek().kind == "(":
            raise ParseError(f"unknown function {name!r}", tok.pos)
        return Param(name)


def parse(text: str, dimension: int) -> Expr:
    """Parse ``text`` into an expression tree for an n=``dimension`` phase space."""
    return _Parser(text, dimension).parse()


# ---------------------------------------------------------------------------
# printing

# precedence levels: +,- = 1; *,/ = 2; unary minus = 2.5; ^ and atoms higher
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(e: Expr) -> float:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return 2.5
    if isinstance(e, Pow):
        return 3.0
    return 9.0


def _fmt_number(v: float) -> str:
    if v != v or v in (math.inf, -math.inf):
        raise ValueError("cannot print a non-finite constant")
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def to_string(e: Expr) -> str:
    """Print ``e`` in the grammar :func:`parse` reads, popping nodes and
    literal pieces from an explicit stack: linear time, any depth."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Const):
            if math.copysign(1.0, node.value) < 0:
                out.append("-" + _fmt_number(-node.value))
            else:
                out.append(_fmt_number(node.value))
        elif isinstance(node, (Var, Param)):
            out.append(node.name)
        elif isinstance(node, Call):
            stack += [")", node.arg, node.func + "("]
        elif isinstance(node, Neg):
            stack += _wrapped(node.arg, _prec(node.arg) < 3.0) + ["-"]
        elif isinstance(node, Pow):
            if node.exponent < 0:
                stack.append(f"^(-{_fmt_number(-node.exponent)})")
            else:
                stack.append(f"^{_fmt_number(node.exponent)}")
            # a leading minus would rebind under ^, turning (-3)^2 into -(3^2)
            base = node.base
            stack += _wrapped(base, _prec(base) < 9.0 or (
                isinstance(base, Const) and math.copysign(1.0, base.value) < 0))
        elif isinstance(node, BinOp):
            # left-associative grammar: equal precedence on the right needs
            # parens, and a leading minus on the right is parenthesized for
            # readability
            right = node.right
            stack += _wrapped(right, _prec(right) <= _PREC[node.op]
                              or isinstance(right, Neg)
                              or (isinstance(right, Const) and right.value < 0))
            stack.append(node.op)
            stack += _wrapped(node.left, _prec(node.left) < _PREC[node.op])
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return "".join(out)


def _wrapped(node: Expr, parens: bool) -> list:
    """Pieces to push for ``node``, in parentheses when ``parens``."""
    return [")", node, "("] if parens else [node]


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, point: EvalPoint) -> float:
    """Evaluate the parameter-free ``e`` at ``point``; raises DomainError
    outside the real domain.

    Each call generates the code of ``e`` (see :func:`compile_functions`);
    the compile itself is shared with every tree of the same shape.  A loop
    over points should compile once and call the compiled function instead.
    """
    return compile_functions([e], point.n)(point.q + point.p)[0]


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, symbol: str) -> Expr:
    """Exact partial derivative with respect to the named symbol.

    ``symbol`` is usually a phase-space variable (``q3``, ``p1``); any other
    symbol name is treated as a parameter and differentiated the same way.
    Constants and unrelated symbols have derivative zero.
    """
    return gradient(e, (symbol,))[0]


def gradient(e: Expr, symbols: Sequence[str]) -> tuple[Expr, ...]:
    """Simplified partial derivatives of ``e``, one per named symbol.

    One post-order pass over ``e`` builds every partial (:func:`_partials`),
    and one simplification memo serves every symbol, so a subtree of ``e``
    that recurs in every partial (the ``g`` of ``d(f*g) = df*g + f*dg``) is
    simplified once.
    """
    partials = _partials(e, set(symbols))
    memo: dict[int, tuple[Expr, Expr]] = {}
    return tuple(_simplify(partials.get(s) or _zero(e), memo) for s in symbols)


def _children(e: Expr) -> tuple[Expr, ...]:
    cls = type(e)
    if cls is BinOp:
        return (e.left, e.right)
    if cls is Neg or cls is Call:
        return (e.arg,)
    if cls is Pow:
        return (e.base,)
    if cls is Const or cls is Var or cls is Param:
        return ()
    raise TypeError(f"not an expression node: {e!r}")


def _postorder(roots: Sequence[Expr]) -> list[Expr]:
    """Each distinct node (by id) under ``roots`` once, children before
    parents and left to right.  The walk is iterative, so tree depth is not
    bounded by Python's recursion limit; a 1-tuple ``(node,)`` on the stack
    marks the exit from a node whose children were pushed.
    """
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list = list(reversed(roots))
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            order.append(node[0])
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node,))
            stack.extend(reversed(_children(node)))
    return order


def _zero(e: Expr) -> Expr:
    """The partial of ``e`` by a symbol it does not mention: ``Const(0.0)``,
    the constant its full derivative simplifies to, inside one ``Neg`` per
    leading ``Neg`` of ``e``, whose full derivative simplifies to -0.0."""
    out: Expr = Const(0.0)
    while type(e) is Neg:
        out, e = Neg(out), e.arg
    return out


# d f(a) / da for each Call, as a tree over the argument a
_OUTER = {
    "ln": lambda a: BinOp("/", Const(1.0), a),
    "sqrt": lambda a: BinOp("/", Const(0.5), Call("sqrt", a)),
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "exp": lambda a: Call("exp", a),
}


def _partials(e: Expr, symbols: set[str]) -> dict[str, Expr]:
    """Unsimplified partials of ``e`` by each of ``symbols`` it mentions.

    One pass over the post-order maps each node's symbols to its partial,
    built from its children's maps; a child without the symbol contributes
    :func:`_zero`.  The trees match the full derivative's while every
    folded constant is finite: a symbol-free subtree that folds to inf
    (``1e200*1e200``) differentiates to 0 here, where the full tree meets
    inf*0 and reads nan.
    """
    maps: dict[int, dict[str, Expr]] = {}
    for node in _postorder((e,)):
        cls = type(node)
        out: dict[str, Expr] = {}
        if cls is Var or cls is Param:
            if node.name in symbols:
                out[node.name] = Const(1.0)
        elif cls is Neg:
            out = {s: Neg(d) for s, d in maps[id(node.arg)].items()}
        elif cls is BinOp:
            a, b = node.left, node.right
            das, dbs = maps[id(a)], maps[id(b)]
            for s in {**das, **dbs}:
                da, db = das.get(s) or _zero(a), dbs.get(s) or _zero(b)
                if node.op in ("+", "-"):
                    out[s] = BinOp(node.op, da, db)
                elif node.op == "*":
                    out[s] = BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
                else:
                    out[s] = BinOp("/", BinOp("-", BinOp("*", da, b),
                                              BinOp("*", a, db)), Pow(b, 2.0))
        elif cls is Pow or cls is Call:
            d_arg = maps[id(_children(node)[0])]
            if d_arg:
                outer = _OUTER[node.func](node.arg) if cls is Call else BinOp(
                    "*", Const(node.exponent), Pow(node.base, node.exponent - 1.0))
                out = {s: BinOp("*", outer, d) for s, d in d_arg.items()}
        maps[id(node)] = out
    return maps[id(e)]


# ---------------------------------------------------------------------------
# simplification


def _flatten(e: Expr, sign: int, out: list[tuple[int, Expr]], ops: tuple[str, ...]):
    """Append the operands of the chain of ``ops`` nodes ``e`` to ``out`` in
    leaf order, each with its sign, unwrapping every Neg on the way.

    A ``-`` flips its right operand's sign.  In a product only the left
    operand carries the sign down, so the operands' signs multiply to the
    product's.  An explicit stack, with the right operand pushed first so
    that the operands pop in leaf order, costs no Python frames at any depth.
    """
    stack = [(sign, e)]
    while stack:
        sign, e = stack.pop()
        if type(e) is BinOp and e.op in ops:
            right = 1 if e.op == "*" else -sign if e.op == "-" else sign
            stack += [(right, e.right), (sign, e.left)]
        elif type(e) is Neg:
            stack.append((-sign, e.arg))
        else:
            out.append((sign, e))


def _rebuild_sum(terms: list[tuple[int, Expr]], const_acc: float) -> Expr:
    node: Expr | None = None
    for sign, t in terms:
        if node is None:
            node = t if sign > 0 else Neg(t)
        else:
            node = BinOp("+" if sign > 0 else "-", node, t)
    if node is None:
        return Const(const_acc)
    if const_acc != 0.0:
        op = "+" if const_acc > 0 else "-"
        node = BinOp(op, node, Const(abs(const_acc)))
    return node


def _chain(op: str, terms: Sequence[Expr]) -> Expr | None:
    """``op`` applied over ``terms`` nested to the left in list order, so
    that a sum reads like ``t0 + t1 + t2``; None for no terms."""
    node: Expr | None = None
    for t in terms:
        node = t if node is None else BinOp(op, node, t)
    return node


def _rebuild_product(factors: list[Expr], const_acc: float) -> Expr:
    node = _chain("*", factors)
    if node is None:
        return Const(const_acc)
    if const_acc == 1.0:
        return node
    if const_acc == -1.0:
        return Neg(node)
    return BinOp("*", Const(const_acc), node)


def _fold(fn: Callable[..., float], *args: float) -> Const | None:
    """``Const(fn(*args))``, or None where ``fn`` leaves the real domain."""
    try:
        value = fn(*args)
    except (ValueError, OverflowError):
        return None
    return Const(value) if math.isfinite(value) else None


def simplify(e: Expr) -> Expr:
    """Constant folding, 0/1 identities, and flattening of sums and products.

    The result evaluates identically to the input on every point where both
    are defined; this is deliberately not a full canonicalization.  A chain
    of sums or of products is flattened in one walk, without recursion, and
    gives the tree of the nested recursion over its levels while every
    folded constant is finite: in ``(0*q1)*(1e200*1e200)`` that recursion
    folds 0*q1 to 0, then 0*inf to nan, where one fold keeps q1 (nan*q1).
    """
    return _simplify(e, {})


def _simplify(e: Expr, memo: dict[int, tuple[Expr, Expr]]) -> Expr:
    """:func:`simplify` with a memo from node id to (node, result).

    A node met again (a shared subtree, or the same subtree of one
    expression in each of its partials) returns its first result.  The memo
    holds each key node, so no id in it can be reused by a new node.
    """
    cls = type(e)
    if cls is Const or cls is Var or cls is Param:
        return e
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if cls is Neg:
        arg = _simplify(e.arg, memo)
        if isinstance(arg, Const):
            out = Const(-arg.value)
        elif isinstance(arg, Neg):
            out = arg.arg
        else:
            out = Neg(arg)
    elif cls is Call:
        arg = _simplify(e.arg, memo)
        folded = _fold(_MATH[e.func], arg.value) if isinstance(arg, Const) else None
        out = Call(e.func, arg) if folded is None else folded
    elif cls is Pow:
        base = _simplify(e.base, memo)
        if e.exponent == 0.0:
            out = Const(1.0)
        elif e.exponent == 1.0:
            out = base
        else:
            folded = _fold(_pow, base.value, e.exponent) \
                if isinstance(base, Const) else None
            out = Pow(base, e.exponent) if folded is None else folded
    elif cls is BinOp and e.op in ("+", "-", "*"):
        # One pass down the left spine of the chain of + and - (or of *)
        # nodes.  The bottom-left operand and every right child are
        # simplified on their own and flattened in leaf order, which is the
        # operand list the nested recursion would rebuild and re-flatten at
        # each level; a chain of any length costs linear time and no frames.
        ops = ("*",) if e.op == "*" else ("+", "-")
        spine: list[tuple[int, Expr]] = []
        node = e
        while type(node) is BinOp and node.op in ops:
            spine.append((-1 if node.op == "-" else 1, node.right))
            node = node.left
        raw: list[tuple[int, Expr]] = []
        _flatten(_simplify(node, memo), 1, raw, ops)
        for sign, right in reversed(spine):
            _flatten(_simplify(right, memo), sign, raw, ops)
        if e.op == "*":
            # the operands' signs, then the constants in leaf order
            const_acc = math.prod([f.value for _, f in raw if isinstance(f, Const)],
                                  start=float(math.prod([s for s, _ in raw])))
            kept = [f for _, f in raw if not isinstance(f, Const)]
            out = Const(0.0) if const_acc == 0.0 else _rebuild_product(kept, const_acc)
        else:
            const_acc = 0.0
            terms: list[tuple[int, Expr] | None] = []
            # exact +t / -t pairs cancel (structural equality): each term
            # takes out the earliest live term of opposite sign
            live: dict[tuple[int, Expr], deque[int]] = {}
            for sign, t in raw:
                if isinstance(t, Const):
                    const_acc += sign * t.value
                    continue
                opposite = live.get((-sign, t))
                if opposite:
                    terms[opposite.popleft()] = None
                else:
                    live.setdefault((sign, t), deque()).append(len(terms))
                    terms.append((sign, t))
            out = _rebuild_sum([st for st in terms if st is not None], const_acc)
    elif cls is BinOp and e.op == "/":
        num = _simplify(e.left, memo)
        den = _simplify(e.right, memo)
        if isinstance(num, Const) and num.value == 0.0:
            out = Const(0.0)
        elif isinstance(den, Const) and den.value == 1.0:
            out = num
        elif isinstance(num, Const) and isinstance(den, Const) and den.value != 0.0:
            out = Const(num.value / den.value)
        else:
            out = BinOp("/", num, den)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = (e, out)
    return out


# ---------------------------------------------------------------------------
# structure queries


def _symbols(exprs: Sequence[Expr]) -> tuple[set[str], set[str]]:
    """Names of the variables and of the parameters anywhere in the trees,
    from one walk."""
    variables: set[str] = set()
    params: set[str] = set()
    for e in _postorder(exprs):
        if type(e) is Var:
            variables.add(e.name)
        elif type(e) is Param:
            params.add(e.name)
    return variables, params


def _index_bound(variables: set[str]) -> int:
    """Smallest phase-space dimension that binds the named variables."""
    return max((int(name[1:]) for name in variables), default=0)


def variables_of(*exprs: Expr) -> set[str]:
    """Phase-space variables (``q3``, ``p1``, ...) the expressions mention."""
    return _symbols(exprs)[0]


def dimension_of(*exprs: Expr) -> int:
    """Smallest phase-space dimension that binds every variable used."""
    return _index_bound(_symbols(exprs)[0])


def parameters_of(*exprs: Expr) -> set[str]:
    """Named parameters the expressions mention."""
    return _symbols(exprs)[1]


def _finite_params(params: Mapping[str, float]) -> dict[str, float]:
    """A copy of a parameter binding, refusing a non-finite value by name."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"parameter {name!r} must be finite, got {value}")
    return dict(params)


def substitute_param(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of parameter ``name`` by ``replacement``."""
    return _substitute(e, {Param(name): replacement})


def _substitute(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """``e`` with each Var or Param leaf that is a key of ``mapping``
    replaced by its value.

    Each distinct node is rebuilt once, from its fields with every child
    replaced by that child's result, in post-order, so the depth of ``e`` is
    not bounded by the recursion limit and shared subtrees stay shared.
    """
    out: dict[int, Expr] = {}
    for node in _postorder((e,)):
        cls = type(node)
        if cls is Var or cls is Param:
            out[id(node)] = mapping.get(node, node)
        else:
            fields = [getattr(node, f) for f in node.__dataclass_fields__]
            out[id(node)] = cls(*[
                out[id(v)] if isinstance(v, _Node) else v for v in fields])
    return out[id(e)]


# ---------------------------------------------------------------------------
# sampling


def sample_eval_points(n: int, count: int, seed: int) -> list[EvalPoint]:
    """Seeded sample points, each coordinate uniform on [-2,-0.5] U [0.5,2].

    The two-sided band keeps samples away from coordinate hyperplanes, where
    logarithms and rational potentials are typically singular.
    """
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        vals = rng.uniform(0.5, 2.0, size=2 * n)
        signs = rng.integers(0, 2, size=2 * n) * 2 - 1
        # one conversion to Python floats per draw, not one per coordinate
        vals = (vals * signs).tolist()
        points.append(EvalPoint(tuple(vals[:n]), tuple(vals[n:])))
    return points


# ---------------------------------------------------------------------------
# compilation to plain Python callables (flow fields, conserved quantities,
# chart residuals, and one function per invariant set that returns its
# member values followed by their gradients, behind every bracket matrix)

_BINOP_TEMPLATES = {op: f"({{}}{op}{{}})" for op in "+-*/"}
# Longest chain of nested operations written into one statement.  Deeper
# subtrees are split into temporaries, which keeps the generated source well
# inside the parser's nesting limit (200 parentheses) and the compiler's
# recursion limit, whatever the depth of the tree.
_MAX_INLINE_DEPTH = 32


def _literal(value: float, literals: dict[str, int]) -> str:
    """The name ``k<i>`` of a numeric literal.  ``literals`` numbers each
    literal by its ``repr`` on first use, so -0.0 and 0.0 get two names, and
    ``float`` of a key gives back its value bit for bit."""
    return f"k{literals.setdefault(repr(value), len(literals))}"


def _template(e: Expr, n: int, param_index: Mapping[str, int],
              literals: dict[str, int]) -> tuple[str, tuple[Expr, ...]]:
    """Python source of one node with ``{}`` holes for its children.

    Two nodes with the same template and structurally equal children are
    the same subexpression.  A parameter is read as ``c<i>`` and a numeric
    literal as ``k<i>`` (see :func:`_literal`).
    """
    cls = type(e)
    if cls is BinOp:
        return _BINOP_TEMPLATES[e.op], (e.left, e.right)
    if cls is Var:
        idx = int(e.name[1:])
        if idx > n:
            raise UnboundSymbolError(
                f"variable {e.name} unbound in a {n}-degree state")
        return f"y[{idx - 1 if e.name[0] == 'q' else n + idx - 1}]", ()
    if cls is Const:
        return _literal(e.value, literals), ()
    if cls is Param:
        if e.name not in param_index:
            raise UnboundSymbolError(f"parameter {e.name!r} unbound at compile time")
        return f"c{param_index[e.name]}", ()
    if cls is Pow:
        if float(e.exponent).is_integer() and abs(e.exponent) <= 64:
            return f"({{}}**{int(e.exponent)})", (e.base,)
        return f"_pow({{}},{_literal(e.exponent, literals)})", (e.base,)
    if cls is Neg:
        return "(-{})", (e.arg,)
    if cls is Call and e.func in _MATH:
        return f"_{e.func}({{}})", (e.arg,)
    raise TypeError(f"not an expression node: {e!r}")


def _emit(exprs: Sequence[Expr], n: int, params: Mapping[str, float]
          ) -> tuple[list[str], list[str], tuple[float, ...],
                     tuple[float, ...]]:
    """Straight-line statements, one result expression per input, the
    values of the parameters the code reads, numbered in sorted name order,
    and the values of its numeric literals, numbered (see
    :func:`_template`) in post-order of first use.

    A subtree gets its own temporary when it occurs more than once (common
    subexpressions are found by structure, not object identity) or when
    inlining it would nest deeper than ``_MAX_INLINE_DEPTH``; every other
    subtree is written inline into its parent.  Each temporary performs the
    same floating-point operations, in the same order, as the tree walk
    ``reference_evaluate`` in tests/oracles.py.
    """
    names = sorted(params)
    param_index = {name: i for i, name in enumerate(names)}
    # distinct subtrees in post-order: children always precede parents
    literals: dict[str, int] = {}
    slot_of_id: dict[int, int] = {}
    slot_of_key: dict[tuple, int] = {}
    templates: list[str] = []
    kids: list[tuple[int, ...]] = []
    for node in _postorder(exprs):
        template, children = _template(node, n, param_index, literals)
        child_slots = tuple([slot_of_id[id(c)] for c in children])
        key = (template,) + child_slots
        slot = slot_of_key.get(key)
        if slot is None:
            slot = slot_of_key[key] = len(templates)
            templates.append(template)
            kids.append(child_slots)
        slot_of_id[id(node)] = slot
    roots = [slot_of_id[id(root)] for root in exprs]

    uses = [0] * len(templates)
    for child_slots in kids:
        for c in child_slots:
            uses[c] += 1
    for r in roots:
        uses[r] += 1
    code: list[str] = []
    depth: list[int] = []
    lines: list[str] = []
    for slot, template in enumerate(templates):
        child_slots = kids[slot]
        if not child_slots:
            code.append(template)
            depth.append(0)
            continue
        text = template.format(*[code[c] for c in child_slots])
        d = 1 + max(depth[c] for c in child_slots)
        if uses[slot] > 1 or d >= _MAX_INLINE_DEPTH:
            lines.append(f"t{slot} = {text}")
            text, d = f"t{slot}", 0
        code.append(text)
        depth.append(d)
    return (lines, [code[r] for r in roots],
            tuple(float(params[name]) for name in names),
            tuple(map(float, literals)))


_NAMESPACE = {
    **{f"_{name}": fn for name, fn in _MATH.items()}, "_pow": _pow,
    "_isfinite": math.isfinite, "_DomainError": DomainError,
}


_SOURCE = """\
def _bind(c, k):
{unpack}    def _compiled(y):
        try:
            y = tuple(map(float, y))
{body}            out = ({result})
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _DomainError(str(exc)) from None
        for v in out:
            if not _isfinite(v):
                raise _DomainError("non-finite value in compiled evaluation")
        return out
    return _compiled
"""


@functools.lru_cache(maxsize=128)
def _binder_from_source(source: str):
    # the source names parameters and literals, never their values, so one
    # compiled binder serves every system whose trees have the same shape
    # (a chart at every level, an oscillator at every frequency)
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<liouville-expr>", "exec"), namespace)
    return namespace["_bind"]


def _unpack(values: tuple[float, ...], literals: tuple[float, ...]) -> str:
    """The binder lines that unpack its tuples c (parameter values) and k
    (literal values) into the names c0, c1, ... and k0, k1, ... the emitted
    code reads."""
    return "".join(f"    {''.join(f'{t}{i}, ' for i in range(count))}= {t}\n"
                   for t, count in (("c", len(values)), ("k", len(literals)))
                   if count)


def _function(lines: list[str], outs: list[str], values: tuple[float, ...],
              literals: tuple[float, ...]
              ) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """The function of the state compiled from one :func:`_emit`."""
    body = "".join(f"            {line}\n" for line in lines)
    result = ",".join(outs) + ("," if len(outs) == 1 else "")
    bind = _binder_from_source(_SOURCE.format(
        unpack=_unpack(values, literals), body=body, result=result))
    return bind(values, literals)


def compile_functions(exprs: Sequence[Expr], n: int,
                      params: Mapping[str, float] | None = None
                      ) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile expressions into one generated function of the state vector.

    The state layout is ``y = (q1..qn, p1..pn)``.  The generated source
    names parameters and numeric literals, and each call of its binder
    binds their values, so expressions of one shape (equal trees up to
    their literals and parameter values) share one compiled source.  The
    trees are compiled as given (not simplified), so each output equals the
    tree walk ``reference_evaluate`` (in tests/oracles.py) of its
    expression bit for bit.  The generated code converts ``y`` to Python
    floats (numpy scalars would turn a zero division into a warning plus
    inf), and raises :class:`DomainError` on a domain failure or a
    non-finite output.
    """
    return _function(*_emit(exprs, n, params or {}))
