"""Exact 2x2 matrix algebra over O_d and projective (PSL) elements.

Mat2 is duck-typed over its entries: anything with ring operators works
(QuadInt, QuadRat, ResidueElement).  PslElement enforces determinant 1 over
O_d and compares projectively (M ~ -M).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence

from .quadint import QuadInt, parse_quadint

Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Mat2:
    a11: Any
    a12: Any
    a21: Any
    a22: Any

    def entries(self) -> tuple[Any, Any, Any, Any]:
        return (self.a11, self.a12, self.a21, self.a22)

    def det(self) -> Any:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> Any:
        return self.a11 + self.a22

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def transpose(self) -> "Mat2":
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def conj_transpose(self) -> "Mat2":
        return Mat2(self.a11.conj(), self.a21.conj(), self.a12.conj(), self.a22.conj())

    def adjugate(self) -> "Mat2":
        return Mat2(self.a22, -self.a12, -self.a21, self.a11)

    @classmethod
    def identity(cls, d: int) -> "Mat2":
        one = QuadInt.integer(d, 1)
        zero = QuadInt.integer(d, 0)
        return cls(one, zero, zero, one)


def _entry_sign_key(e: QuadInt) -> int:
    """Sign of the rational part, tie-broken by the tau part."""
    t = e.trace()  # 2 * rational part
    return t if t != 0 else e.y


def canonical_sign(m: Mat2) -> Mat2:
    """Of m and -m, the one whose first nonzero entry has positive key."""
    for e in m.entries():
        if not e.is_zero():
            return m if _entry_sign_key(e) > 0 else -m
    return m


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class PslElement:
    """Determinant-1 matrix over O_d up to global sign."""

    rep: Mat2

    def __post_init__(self) -> None:
        d = self.rep.a11.d
        for e in self.rep.entries():
            if not isinstance(e, QuadInt) or e.d != d:
                raise ValueError("PslElement entries must be QuadInt over one ring")
        if self.rep.det() != QuadInt.integer(d, 1):
            raise ValueError("PslElement requires determinant 1")

    @property
    def d(self) -> int:
        return self.rep.a11.d

    @classmethod
    def from_entries(cls, a11: QuadInt, a12: QuadInt, a21: QuadInt,
                     a22: QuadInt) -> "PslElement":
        return cls(Mat2(a11, a12, a21, a22))

    @classmethod
    def identity(cls, d: int) -> "PslElement":
        return cls(Mat2.identity(d))

    def _check(self, other: "PslElement") -> None:
        if self.d != other.d:
            raise ValueError(f"mixed rings: d={self.d} vs d={other.d}")

    def __mul__(self, other: "PslElement") -> "PslElement":
        self._check(other)
        return PslElement(self.rep * other.rep)

    def inv(self) -> "PslElement":
        return PslElement(self.rep.adjugate())

    def __pow__(self, n: int) -> "PslElement":
        one = QuadInt.integer(self.d, 1)
        m = self.rep
        if m.a11 == one and m.a22 == one and m.a21.is_zero():
            # unipotent: (1, b; 0, 1)^n = (1, n*b; 0, 1) for every integer n
            return PslElement(Mat2(one, m.a12 * n, m.a21, one))
        if n == 0:
            return PslElement.identity(self.d)
        base = self if n > 0 else self.inv()
        result = base
        for bit in bin(abs(n))[3:]:  # left to right, after the leading 1
            result = PslElement(result.rep * result.rep)
            if bit == "1":
                result = PslElement(result.rep * base.rep)
        return result

    def negate(self) -> "PslElement":
        return PslElement(-self.rep)

    def psl_eq(self, other: "PslElement") -> bool:
        self._check(other)
        return self.rep == other.rep or self.rep == -other.rep

    def trace(self) -> QuadInt:
        return self.rep.trace()

    def classify(self) -> IsometryClass:
        if self.psl_eq(PslElement.identity(self.d)):
            return IsometryClass.IDENTITY
        t = self.trace()
        if not t.is_rational():
            return IsometryClass.HYPERBOLIC
        v = abs(t.rational_value())
        if v < 2:
            return IsometryClass.ELLIPTIC
        if v == 2:
            return IsometryClass.PARABOLIC
        return IsometryClass.HYPERBOLIC

    def canonical_rep(self) -> Mat2:
        return canonical_sign(self.rep)

    def render(self) -> str:
        m = self.canonical_rep()
        return f"[[{m.a11},{m.a12}],[{m.a21},{m.a22}]]"

    def __str__(self) -> str:
        return self.render()


_MATRIX_RE = re.compile(r"^\[\[([^\[\]]*),([^\[\]]*)\],\[([^\[\]]*),([^\[\]]*)\]\]$")


def render_mat2(m: Mat2) -> str:
    return f"[[{m.a11},{m.a12}],[{m.a21},{m.a22}]]"


def parse_mat2(text: str, d: int) -> Mat2:
    """Parse the matrix text form without any determinant requirement."""
    m = _MATRIX_RE.match(text.replace(" ", ""))
    if m is None:
        raise ValueError(f"cannot parse matrix {text!r}")
    return Mat2(*(parse_quadint(g, d) for g in m.groups()))


def parse_psl(text: str, d: int) -> PslElement:
    return PslElement(parse_mat2(text, d))


def eval_word(gens: Mapping[str, PslElement], word: Iterable[tuple[str, int]]) -> PslElement:
    """Left-to-right product of gens[id]**exponent."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    result: Optional[PslElement] = None
    for gen_id, exponent in word:
        if gen_id not in gens:
            raise KeyError(f"unbound generator id {gen_id!r}")
        factor = gens[gen_id] ** exponent
        result = factor if result is None else result * factor
    assert result is not None
    return result


def render_word(word: Word) -> str:
    return " ".join(f"{g}^{e}" for g, e in word)


def parse_word(text: str) -> Word:
    terms = []
    for tok in text.split():
        g, _, e = tok.partition("^")
        if not g or not e:
            raise ValueError(f"cannot parse word term {tok!r}")
        terms.append((g, int(e)))
    return tuple(terms)
