"""Text grammar for map expressions.

The grammar is deliberately small:

    expr  := name '(' args? ')' | name
    args  := arg (',' arg)*
    arg   := expr | key '=' number

Names and keys are case-insensitive, whitespace between tokens is
ignored, and an inner map (for koebe / mobius-shift / affine) appears
as a leading positional argument.  Numbers are either real literals
or complex literals in the form `a+bi` where the sign between the two
parts is mandatory, so `0.7+0i`, `-1+0i` and `0+0.25i` parse while a
bare `0.25i` does not.  `parse_expr` and `format_expr` are mutually
inverse on every valid tree.

No node is spelled out here.  Each is declared once, as a class in
`awr.expr`, and `expr.NODES` gives its name, whether it takes an inner
map and its keys with their kinds; this module parses, checks and
prints every node from those alone.
"""

from __future__ import annotations

import re

from .errors import BadParam, MapSyntaxError, UnknownName
from .expr import NODES, MapExpr

MAX_TEXT = 4096

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*")
_KEY_RE = re.compile(r"([A-Za-z][A-Za-z0-9-]*)[ \t\r\n]*=")  # a key through its '='
_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(
    r"(?P<re>[+-]?" + _FLOAT + r")"
    r"(?:(?P<im>[+-]" + _FLOAT + r")[iI])?"
)


def _number(m: re.Match) -> complex:
    imag = m.group("im")
    return complex(float(m.group("re")), float(imag) if imag else 0.0)


class _Scanner:
    """Cursor over the raw text; offsets reported are byte positions."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise MapSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise MapSyntaxError("expected a map name", self.pos)
        self.pos = m.end()
        return m.group(0).lower(), m.start()

    def number(self) -> complex:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if m is None:
            raise MapSyntaxError("expected a number", self.pos)
        self.pos = m.end()
        return _number(m)


def _build(name: str, inner: MapExpr | None,
           params: dict[str, complex]) -> MapExpr:
    node = NODES[name]
    kinds = {field.lower(): kind for field, kind in node.KINDS}
    if node.NESTS and inner is None:
        raise BadParam(f"{name} needs an inner map as its first argument")
    if inner is not None and not node.NESTS:
        raise BadParam(f"{name} does not take an inner map")
    for key in params:
        if key not in kinds:
            raise BadParam(f"{name} does not take a parameter '{key}'")
    for key in kinds:
        if key not in params:
            raise BadParam(f"{name} needs the parameter '{key}'")
    args = [inner] if node.NESTS else []
    for key, kind in kinds.items():
        v = params[key]
        if kind is float:
            if v.imag != 0.0:
                raise BadParam(f"{name} parameter '{key}' must be real, got {v}")
            v = v.real
        args.append(v)
    return node(*args)


def _parse_node(scan: _Scanner) -> MapExpr:
    name, name_at = scan.name()
    if name not in NODES:
        raise UnknownName(f"unknown map name '{name}' at offset {name_at}")
    inner: MapExpr | None = None
    params: dict[str, complex] = {}
    if scan.peek() == "(":
        scan.expect("(")
        if scan.peek() != ")":
            while True:
                scan.skip_ws()
                here = scan.pos
                m = _KEY_RE.match(scan.text, here)
                if m:
                    key = m.group(1).lower()
                    scan.pos = m.end()
                    if key in params:
                        raise BadParam(f"duplicate parameter '{key}'")
                    params[key] = scan.number()
                else:
                    if inner is not None or params:
                        raise MapSyntaxError(
                            "inner map must be the first argument", here
                        )
                    inner = _parse_node(scan)
                if scan.peek() == ",":
                    scan.expect(",")
                    continue
                break
        scan.expect(")")
    return _build(name, inner, params)


def parse_complex(text: str) -> complex:
    """Parse a standalone number literal (`1.5`, `0.7+0i`, `0+0.25i`)."""
    m = _NUMBER_RE.fullmatch(text.strip())
    if m is None:
        raise MapSyntaxError(f"bad number literal {text!r}", 0)
    return _number(m)


def parse_expr(text: str) -> MapExpr:
    """Parse a map-expression string into a MapExpr tree."""
    if len(text) > MAX_TEXT:
        raise MapSyntaxError(f"expression text longer than {MAX_TEXT} bytes", MAX_TEXT)
    scan = _Scanner(text)
    node = _parse_node(scan)
    scan.skip_ws()
    if scan.pos != len(text):
        raise MapSyntaxError("unexpected trailing text", scan.pos)
    return node


def _fmt_real(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def format_complex(z: complex) -> str:
    re_s = _fmt_real(z.real if z.real != 0.0 else 0.0)
    im = z.imag if z.imag != 0.0 else 0.0
    sign = "-" if im < 0 else "+"
    return f"{re_s}{sign}{_fmt_real(abs(im))}i"


def format_expr(expr: MapExpr) -> str:
    """Canonical text form; parse_expr(format_expr(e)) == e."""
    if not isinstance(expr, MapExpr):
        raise UnknownName(f"no text form for {type(expr).__name__}")
    args = [format_expr(kid) for kid in expr.children()]
    for field, kind in expr.KINDS:
        v = getattr(expr, field)
        args.append(f"{field.lower()}={_fmt_real(v) if kind is float else format_complex(v)}")
    return f"{expr.NAME}({', '.join(args)})" if args else expr.NAME
