"""Parser for the symbol expression mini-language.

Grammar (EBNF):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" signed_number)?
    atom    := NUMBER | "pi" | VAR | FUNC "(" args ")" | "(" expr ")"
    args    := arg ("," arg)*
    arg     := expr | "x" | "k"          (bare vectors only inside jb/norm2)
    VAR     := ("x" | "k") DIGITS
    FUNC    := "exp" | "sin" | "cos" | "sqrt" | "jb" | "norm2"
    signed_number := "-"? NUMBER         (NUMBER: a Python int or float literal)

Precedence is Python's: "-" binds looser than "^", so -a^p is -(a^p).  The
text, with "^" written "**", is parsed by Python's ast module and never
evaluated; its expression nodes are translated into the tree below, and
every construct outside the grammar is refused with SymbolParseError at its
position in the text.  Redundant parentheses are allowed anywhere.

Scalars are reals; x-variables index the position, k-variables the
covariable.  Indices are 1-based (x1..xd, k1..ks) unless index 0 appears for
that family anywhere in the expression, in which case that family switches to
0-based (physics-style x0 time component).  jb(...) is the japanese bracket
sqrt(1 + sum of squares) of its (scalar or vector) arguments; norm2 is the
plain sum of squares.  Division is rejected unless the denominator is a
japanese bracket power or a number, or the caller asserts nonvanishing.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jets import Jet, jb_jet, norm2_jet


class SymbolParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_FUNCS = ("exp", "sin", "cos", "sqrt", "jb", "norm2")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


# -- expression tree -------------------------------------------------------


class Node:
    def jet(self, xj: Sequence[Jet], kj: Sequence[Jet]) -> Jet:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def walk(self):
        yield self
        for ch in getattr(self, "children", ()):
            yield from ch.walk()


@dataclass
class Num(Node):
    value: float

    def jet(self, xj, kj):
        return Jet.constant((list(xj) + list(kj))[0].space, self.value)

    def to_text(self):
        return repr(self.value)


@dataclass
class Var(Node):
    family: str  # "x" | "k"
    index: int  # resolved 0-based
    pos: int  # its column in the user's text

    def jet(self, xj, kj):
        seq = xj if self.family == "x" else kj
        return seq[self.index]

    def to_text(self):
        # printed 1-based so the text round-trips regardless of the input style
        return f"{self.family}{self.index + 1}"


@dataclass
class Neg(Node):
    a: Node

    @property
    def children(self):
        return (self.a,)

    def jet(self, xj, kj):
        return -self.a.jet(xj, kj)

    def to_text(self):
        return f"(-{self.a.to_text()})"


@dataclass
class BinOp(Node):
    op: str
    a: Node
    b: Node
    pos: int  # the operator's column in the user's text

    @property
    def children(self):
        return (self.a, self.b)

    def jet(self, xj, kj):
        return _ARITH[self.op](self.a.jet(xj, kj), self.b.jet(xj, kj))

    def to_text(self):
        return f"({self.a.to_text()}{self.op}{self.b.to_text()})"


@dataclass
class Pow(Node):
    a: Node
    p: float

    @property
    def children(self):
        return (self.a,)

    def jet(self, xj, kj):
        return self.a.jet(xj, kj) ** self.p

    def to_text(self):
        return f"({self.a.to_text()}^{self.p!r})"


@dataclass
class Call(Node):
    fn: str
    args: tuple  # scalar Nodes or BareVec

    @property
    def children(self):
        return tuple(a for a in self.args if isinstance(a, Node))

    def _arg_jets(self, xj, kj):
        out = []
        for a in self.args:
            if isinstance(a, BareVec):
                out.extend(xj if a.family == "x" else kj)
            else:
                out.append(a.jet(xj, kj))
        return out

    def jet(self, xj, kj):
        if self.fn == "jb":
            return jb_jet(self._arg_jets(xj, kj))
        if self.fn == "norm2":
            return norm2_jet(self._arg_jets(xj, kj))
        (arg,) = self.args
        return getattr(arg.jet(xj, kj), self.fn)()  # Jet.exp, sin, cos or sqrt

    def to_text(self):
        parts = []
        for a in self.args:
            parts.append(a.family if isinstance(a, BareVec) else a.to_text())
        return f"{self.fn}({','.join(parts)})"


@dataclass
class BareVec:
    family: str

    def walk(self):
        return iter(())


# -- translation from Python's expression nodes -------------------------------

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class _Translator:
    """Python expression nodes -> Node; everything outside the grammar is
    refused at its position in the user's text."""

    def __init__(self, text: str):
        self.lead = len(text) - len(text.lstrip())
        self.src = text.strip().replace("^", "**")

    def pos(self, col: int) -> int:
        """The column in the user's text of column col of the parsed source:
        every "**" there is one "^" of the user's text."""
        return self.lead + col - self.src[:col].count("**")

    def error(self, message: str, col: int) -> SymbolParseError:
        return SymbolParseError(message, self.pos(col))

    def node(self, n: ast.AST) -> Node:
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow):
            return Pow(self.node(n.left), self.exponent(n.right))
        if isinstance(n, ast.BinOp) and type(n.op) in _BINOPS:
            op = _BINOPS[type(n.op)]
            # only ")" and blanks stand between the left operand and op
            col = self.src.index(op, n.left.end_col_offset)
            return BinOp(op, self.node(n.left), self.node(n.right), self.pos(col))
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            return Neg(self.node(n.operand))
        if isinstance(n, ast.Constant) and type(n.value) in (int, float):
            try:
                return Num(float(n.value))
            except OverflowError:
                raise self.error("number too large", n.col_offset) from None
        if isinstance(n, ast.Name):
            if n.id == "pi":
                return Num(float(np.pi))
            m = re.fullmatch(r"([xk])([0-9]+)", n.id)
            if not m:
                raise self.error(f"unknown name {n.id!r}", n.col_offset)
            return Var(m.group(1), int(m.group(2)), self.pos(n.col_offset))
        if isinstance(n, ast.Call):
            return self.call(n)
        raise self.error(f"unsupported syntax ({type(n).__name__})", n.col_offset)

    def exponent(self, n: ast.AST) -> float:
        neg = isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
        if not isinstance(n.operand if neg else n, ast.Constant):
            raise self.error("exponent must be a number", n.col_offset)
        p = self.node(n)  # a Num, or the Neg of one
        return -p.a.value if neg else p.value

    def call(self, n: ast.Call) -> Call:
        fn = n.func.id if isinstance(n.func, ast.Name) else None
        if fn not in _FUNCS:
            raise self.error("unknown function", n.col_offset)
        if not n.args:  # keyword arguments cannot get here: "=" is refused
            raise self.error(f"{fn} needs an argument", n.col_offset)
        vec = fn in ("jb", "norm2")
        args = tuple(
            BareVec(a.id) if vec and isinstance(a, ast.Name) and a.id in ("x", "k") else self.node(a)
            for a in n.args
        )
        if not vec and len(args) != 1:
            raise self.error(f"{fn} takes one scalar argument", n.col_offset)
        return Call(fn, args)


def _resolve_indices(root: Node, d: int, s: int):
    """1-based indices unless index 0 appears for that family (then 0-based)."""
    vars_ = [n for n in root.walk() if isinstance(n, Var)]
    for fam, dim in (("x", d), ("k", s)):
        fam_vars = [v for v in vars_ if v.family == fam]
        zero_based = any(v.index == 0 for v in fam_vars)
        for v in fam_vars:
            idx = v.index if zero_based else v.index - 1
            if idx < 0 or idx >= dim:
                raise SymbolParseError(
                    f"variable {fam}{v.index} out of range for dimension {dim}", v.pos
                )
            v.index = idx


def _is_jb_power(node: Node) -> bool:
    if isinstance(node, Num):
        return node.value != 0.0
    if isinstance(node, Call) and node.fn == "jb":
        return True
    if isinstance(node, Pow):
        return _is_jb_power(node.a)
    if isinstance(node, BinOp) and node.op == "*":
        return _is_jb_power(node.a) and _is_jb_power(node.b)
    return False


def _check_divisions(root: Node, allow: bool):
    for n in root.walk():
        if isinstance(n, BinOp) and n.op == "/" and not allow:
            if not _is_jb_power(n.b):
                raise SymbolParseError(
                    "division denominator must be a japanese-bracket power "
                    "(pass allow_division=True to assert it never vanishes)",
                    n.pos,
                )


def parse_expression(text: str, d: int, s: int, allow_division: bool = False) -> Node:
    text = re.sub(r"\s", " ", text)  # one blank per whitespace character keeps positions
    bad = re.search(r"[^0-9A-Za-z_ .+\-*/^(),]|\*\*", text)
    if bad:
        raise SymbolParseError(f"unexpected {bad.group()!r}", bad.start())
    tr = _Translator(text)
    try:
        root = tr.node(ast.parse(tr.src, mode="eval").body)
    except SyntaxError as err:
        raise tr.error(f"syntax error: {err.msg}", (err.offset or 1) - 1) from None
    except RecursionError:
        raise SymbolParseError("expression nested too deeply", 0) from None
    _resolve_indices(root, d, s)
    _check_divisions(root, allow_division)
    return root
