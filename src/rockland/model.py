"""A small declaration language for dilation-homogeneous systems.

Statements (each ending in ';'):
    dilation [1, 2];            the dilation exponents, first
    field X1 = d1;              vector fields as sums of poly * dN terms
    field X2 = x1*d2;
    operator L = X1^2 + X2^2;   exactly one operator, a combination of words
    kernel heisenberg_gauge;    optional: named analytic kernel to use
    tol left_inverse = 1e-2;    optional: a `rockland verify` tolerance

Coefficients are exact rationals; exponents are nonnegative integers.  Every
error carries the source line and column with a caret excerpt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .fields import (
    DilationFamily,
    OperatorSpec,
    PolyVectorField,
    certify_homogeneity,
    multiindex_weight,
)
from .poly import Poly, sorted_terms, to_string

KNOWN_KERNELS = ("heisenberg_gauge",)


class ModelParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, source_line: str):
        caret = " " * (col - 1) + "^"
        super().__init__(
            f"line {line}, column {col}: {message}\n  {source_line}\n  {caret}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str   # NAME INT FLOAT PUNCT END
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[\[\];,=+\-*^/()])
""", re.VERBOSE)


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelParseError(f"unexpected character {text[pos]!r}",
                                  line, col, text.splitlines()[line - 1])
        lex = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind.upper() if kind != "punct" else "PUNCT",
                                lex, line, col))
        newlines = lex.count("\n")
        if newlines:
            line += newlines
            col = len(lex) - lex.rfind("\n")
        else:
            col += len(lex)
        pos = m.end()
    tokens.append(Token("END", "", line, col))
    return tokens


@dataclass(frozen=True)
class ModelSpec:
    """A parsed system: dilations, named fields, operator, options."""

    sigma: Tuple[int, ...]
    field_names: Tuple[str, ...]
    fields: Tuple[PolyVectorField, ...]
    field_degrees: Tuple[int, ...]
    operator_name: str
    operator: OperatorSpec
    kernel: Optional[str] = None
    tols: Tuple[Tuple[str, float], ...] = ()

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def delta(self) -> DilationFamily:
        return DilationFamily(self.sigma)

    def render(self) -> str:
        """Canonical text; reparsing it reproduces this spec exactly."""
        out = ["dilation [" + ", ".join(str(s) for s in self.sigma) + "];"]
        for name, X in zip(self.field_names, self.fields):
            out.append(f"field {name} = {_render_field(X)};")
        out.append(f"operator {self.operator_name} = "
                   f"{_render_operator(self.operator, self.field_names)};")
        if self.kernel is not None:
            out.append(f"kernel {self.kernel};")
        for name, value in self.tols:
            out.append(f"tol {name} = {value!r};")
        return "\n".join(out) + "\n"

    def describe(self) -> dict:
        return {
            "dilation": list(self.sigma),
            "q": sum(self.sigma),
            "fields": {name: [to_string(c) for c in X.coeffs]
                       for name, X in zip(self.field_names, self.fields)},
            "degrees": list(self.field_degrees),
            "operator": {"name": self.operator_name,
                         "nu": self.operator.nu,
                         "terms": [[str(c), list(w)]
                                   for c, w in self.operator.terms]},
            "kernel": self.kernel,
            "tolerances": dict(self.tols),
        }


def _render_monomial(coeff: Fraction, mono: Tuple[int, ...],
                     tail: Optional[str]) -> str:
    parts = []
    a = abs(coeff)
    factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
               for i, e in enumerate(mono) if e]
    if a != 1 or (not factors and tail is None):
        parts.append(str(a))
    parts.extend(factors)
    if tail is not None:
        parts.append(tail)
    return "*".join(parts)


def _render_field(X: PolyVectorField) -> str:
    pieces: List[Tuple[Fraction, str]] = []
    for j, c in enumerate(X.coeffs):
        for mono, coeff in sorted_terms(c):
            pieces.append((coeff, _render_monomial(coeff, mono, f"d{j + 1}")))
    if not pieces:
        raise ValueError("cannot render the zero field")
    out = []
    for k, (coeff, text) in enumerate(pieces):
        if k == 0:
            out.append(("-" if coeff < 0 else "") + text)
        else:
            out.append((" - " if coeff < 0 else " + ") + text)
    return "".join(out)


def _render_word(word: Tuple[int, ...], names: Sequence[str]) -> str:
    runs: List[Tuple[int, int]] = []
    for i in word:
        if runs and runs[-1][0] == i:
            runs[-1] = (i, runs[-1][1] + 1)
        else:
            runs.append((i, 1))
    return "*".join(names[i] + (f"^{p}" if p > 1 else "") for i, p in runs)


def _render_operator(op: OperatorSpec, names: Sequence[str]) -> str:
    out = []
    for k, (coeff, word) in enumerate(op.terms):
        body = _render_word(tuple(word), names) if word else "1"
        a = abs(coeff)
        text = body if a == 1 and word else f"{a}*{body}"
        if k == 0:
            out.append(("-" if coeff < 0 else "") + text)
        else:
            out.append((" - " if coeff < 0 else " + ") + text)
    return "".join(out)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines() or [""]
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing --------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        src = self.lines[tok.line - 1] if tok.line - 1 < len(self.lines) else ""
        raise ModelParseError(message, tok.line, tok.col, src)

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind.lower()
            self.error(f"expected {want!r}, found {tok.value!r}" if tok.value
                       else f"expected {want!r}, found end of input")
        return self.advance()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> ModelSpec:
        sigma: Optional[Tuple[int, ...]] = None
        names: List[str] = []
        fields: List[PolyVectorField] = []
        operator: Optional[Tuple[str, List[Tuple[Fraction, Tuple[int, ...]]],
                                 Token]] = None
        kernel: Optional[str] = None
        tols: List[Tuple[str, float]] = []
        while self.peek().kind != "END":
            tok = self.peek()
            if tok.kind != "NAME":
                self.error("expected a statement keyword")
            if tok.value == "dilation":
                if sigma is not None:
                    self.error("duplicate dilation statement")
                sigma = self.parse_dilation()
            elif tok.value == "field":
                if sigma is None:
                    self.error("dilation must be declared before any field")
                name, X = self.parse_field(len(sigma), names)
                names.append(name)
                fields.append(X)
            elif tok.value == "operator":
                if not names:
                    self.error("operator requires at least one declared field")
                if operator is not None:
                    self.error("second operator statement; a model declares "
                               "exactly one operator")
                operator = self.parse_operator(names)
            elif tok.value == "kernel":
                self.advance()
                ktok = self.expect("NAME")
                if ktok.value not in KNOWN_KERNELS:
                    self.error(f"unknown kernel {ktok.value!r}; known: "
                               + ", ".join(KNOWN_KERNELS), ktok)
                kernel = ktok.value
                self.expect("PUNCT", ";")
            elif tok.value == "tol":
                self.advance()
                ntok = self.expect("NAME")
                self.expect("PUNCT", "=")
                vtok = self.peek()
                if vtok.kind not in ("FLOAT", "INT"):
                    self.error("expected a numeric tolerance")
                self.advance()
                tols.append((ntok.value, float(vtok.value)))
                self.expect("PUNCT", ";")
            else:
                self.error(f"unknown statement {tok.value!r}")
        if sigma is None:
            self.error("model must declare a dilation")
        if operator is None:
            self.error("model must declare an operator")
        tok0 = self.tokens[0]
        if list(sigma) != sorted(sigma):
            raise ModelParseError("dilation exponents must be nondecreasing",
                                  tok0.line, tok0.col, self.lines[0])
        try:
            delta = DilationFamily(sigma)
        except ValueError as exc:
            raise ModelParseError(str(exc), tok0.line, tok0.col, self.lines[0])
        degrees = []
        for name, X in zip(names, fields):
            deg = certify_homogeneity(X, delta)
            if deg is None:
                tok = self.tokens[0]
                raise ModelParseError(
                    f"field {name} is not homogeneous of a single degree "
                    "under the declared dilations (or violates the "
                    "triangular coefficient shape)",
                    tok.line, tok.col, self.lines[0])
            degrees.append(deg)
        typed = [PolyVectorField(X.nvars, X.coeffs, d)
                 for X, d in zip(fields, degrees)]
        op_name, op_terms, op_tok = operator
        try:
            if not op_terms or not op_terms[0][1]:
                raise ValueError("empty word in operator")
            nu = multiindex_weight(op_terms[0][1], tuple(degrees))
            op = OperatorSpec(tuple(typed), tuple(op_terms), nu)
        except ValueError as exc:
            src = self.lines[op_tok.line - 1]
            raise ModelParseError(str(exc), op_tok.line, op_tok.col, src)
        return ModelSpec(tuple(sigma), tuple(names), tuple(typed),
                         tuple(degrees), op_name, op, kernel, tuple(tols))

    def parse_dilation(self) -> Tuple[int, ...]:
        self.expect("NAME", "dilation")
        self.expect("PUNCT", "[")
        vals = [self.parse_int()]
        while self.accept("PUNCT", ","):
            vals.append(self.parse_int())
        self.expect("PUNCT", "]")
        self.expect("PUNCT", ";")
        return tuple(vals)

    def parse_rational(self) -> Fraction:
        """INT or INT/INT; a zero denominator is reported at the numerator."""
        tok = self.expect("INT")
        num = Fraction(int(tok.value))
        if self.accept("PUNCT", "/"):
            den = self.parse_int()
            if den == 0:
                self.error("zero denominator", tok)
            num /= den
        return num

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.error("expected an integer")
        return int(self.advance().value)

    def parse_field(self, n: int, names: List[str]
                    ) -> Tuple[str, PolyVectorField]:
        self.expect("NAME", "field")
        ntok = self.expect("NAME")
        if ntok.value in names:
            self.error(f"field {ntok.value!r} is already defined", ntok)
        self.expect("PUNCT", "=")
        coeffs = [Poly.zero(n) for _ in range(n)]
        sign = -1 if self.accept("PUNCT", "-") else 1
        self.parse_vterm(n, coeffs, sign)
        while True:
            if self.accept("PUNCT", "+"):
                self.parse_vterm(n, coeffs, 1)
            elif self.accept("PUNCT", "-"):
                self.parse_vterm(n, coeffs, -1)
            else:
                break
        self.expect("PUNCT", ";")
        return ntok.value, PolyVectorField(n, tuple(coeffs))

    def parse_vterm(self, n: int, coeffs: List[Poly], sign: int) -> None:
        coeff = Fraction(sign)
        expo = [0] * n
        direction: Optional[int] = None
        while True:
            tok = self.peek()
            if tok.kind == "INT":
                coeff *= self.parse_rational()
            elif tok.kind == "NAME" and re.fullmatch(r"x\d+", tok.value):
                self.advance()
                idx = int(tok.value[1:])
                if not 1 <= idx <= n:
                    self.error(f"variable {tok.value} exceeds dimension {n}",
                               tok)
                power = 1
                if self.accept("PUNCT", "^"):
                    ptok = self.peek()
                    if ptok.kind != "INT":
                        self.error("non-integer exponent", ptok)
                    power = self.parse_int()
                expo[idx - 1] += power
            elif tok.kind == "NAME" and re.fullmatch(r"d\d+", tok.value):
                self.advance()
                idx = int(tok.value[1:])
                if not 1 <= idx <= n:
                    self.error(f"direction {tok.value} exceeds dimension {n}",
                               tok)
                direction = idx - 1
                break  # dN ends the term
            else:
                self.error("expected a coefficient factor or a direction dN")
            if not self.accept("PUNCT", "*"):
                self.error("expected '*' before the direction dN")
        coeffs[direction] = coeffs[direction] \
            + Poly(n, {tuple(expo): coeff})

    def parse_operator(self, names: List[str]
                       ) -> Tuple[str, List[Tuple[Fraction, Tuple[int, ...]]], Token]:
        kw = self.expect("NAME", "operator")
        ntok = self.expect("NAME")
        self.expect("PUNCT", "=")
        terms: List[Tuple[Fraction, Tuple[int, ...]]] = []
        sign = -1 if self.accept("PUNCT", "-") else 1
        terms.append(self.parse_oterm(names, sign))
        while True:
            if self.accept("PUNCT", "+"):
                terms.append(self.parse_oterm(names, 1))
            elif self.accept("PUNCT", "-"):
                terms.append(self.parse_oterm(names, -1))
            else:
                break
        self.expect("PUNCT", ";")
        return ntok.value, terms, kw

    def parse_oterm(self, names: List[str], sign: int
                    ) -> Tuple[Fraction, Tuple[int, ...]]:
        coeff = Fraction(sign)
        word: List[int] = []
        saw_factor = False
        while True:
            tok = self.peek()
            if tok.kind == "INT":
                coeff *= self.parse_rational()
                saw_factor = True
            elif tok.kind == "NAME":
                self.advance()
                if tok.value not in names:
                    self.error(f"undefined name {tok.value!r}", tok)
                idx = names.index(tok.value)
                power = 1
                if self.accept("PUNCT", "^"):
                    ptok = self.peek()
                    if ptok.kind != "INT":
                        self.error("non-integer exponent", ptok)
                    power = self.parse_int()
                word.extend([idx] * power)
                saw_factor = True
            else:
                if not saw_factor:
                    self.error("expected a coefficient or a field name")
                break
            if not self.accept("PUNCT", "*"):
                break
        return coeff, tuple(word)


def parse_model(text: str) -> ModelSpec:
    """Parse model text; raises ModelParseError with location on failure."""
    return _Parser(text).parse()


def load_model(path: str) -> ModelSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())
