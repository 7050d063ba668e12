"""Exact 2x2 matrix algebra over O_d and projective (PSL) elements.

Mat2 is duck-typed over its entries: anything with ring operators works
(QuadInt, QuadRat, int).  A product or determinant whose entries are all
QuadInts of one ring goes through the coordinate kernel `quadint.mul_add`,
one object per result entry; other entry types take the ring operators.
A product with a translation (1, t; 0, 1) is an elementary operation: on
the right it adds t*col1 to col2, on the left t*row2 to row1, and the two
untouched entries are reused.  The finite quotients PSL2(O_d/(n)) use Mat2s
of QuadInts with coordinates reduced mod n.  PslElement enforces
determinant 1 over O_d and compares projectively (M ~ -M) on coordinates.

`eval_word` evaluates a word in a running Mat2 and det-checks only its
value: u^e for a translation u = (1, t; 0, 1) is (1, e*t; 0, 1); a run
x^k u^e x^-k is the transvection 1 + e*t*(p; q)(-q, p), with (p; q) the
first column of X = x^k, equal to X u^e X^-1 because det X = 1, which every
PslElement guarantees; any other term is the rep of its power.
"""

from __future__ import annotations

import enum
import re
from typing import Any, Iterable, Mapping, Optional

from .quadint import Frozen, QuadInt, mul_add, parse_quadint

Word = tuple[tuple[str, int], ...]


class Mat2(Frozen):
    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: Any, a12: Any, a21: Any, a22: Any) -> None:
        _set_a11(self, a11)
        _set_a12(self, a12)
        _set_a21(self, a21)
        _set_a22(self, a22)

    def entries(self) -> tuple[Any, Any, Any, Any]:
        return (self.a11, self.a12, self.a21, self.a22)

    _values = entries

    def _over_quadints(self) -> bool:
        """Whether every entry is a QuadInt, so the coordinate kernel applies."""
        return type(self.a11) is type(self.a12) is type(self.a21) is type(self.a22) is QuadInt

    def det(self) -> Any:
        a, b, c, e = self.entries()
        if self._over_quadints():
            return mul_add(a, e, b, c, -1)
        return a * e - b * c

    def trace(self) -> Any:
        return self.a11 + self.a22

    def is_translation(self) -> bool:
        """Whether this matrix of QuadInts is (1, t; 0, 1), read off the coordinates."""
        a, c, e = self.a11, self.a21, self.a22
        return not (c.x or c.y or a.y or e.y) and a.x == 1 == e.x

    def __mul__(self, other: "Mat2") -> "Mat2":
        if type(other) is not Mat2:
            return NotImplemented
        a, b, c, e = self.entries()
        f, g, h, k = other.entries()
        if self._over_quadints() and other._over_quadints():
            if other.is_translation():  # col2 += g * col1
                return Mat2(a, mul_add(a, g, b, k), c, mul_add(c, g, e, k))
            if self.is_translation():  # row1 += b * row2
                return Mat2(mul_add(a, f, b, h), mul_add(a, g, b, k), h, k)
            return Mat2(mul_add(a, f, b, h), mul_add(a, g, b, k),
                        mul_add(c, f, e, h), mul_add(c, g, e, k))
        return Mat2(a * f + b * h, a * g + b * k, c * f + e * h, c * g + e * k)

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


_set_a11, _set_a12, _set_a21, _set_a22 = (getattr(Mat2, name).__set__ for name in Mat2.__slots__)


def _first_nonzero(values: Iterable[int]) -> int:
    """The first nonzero value, or 0: the one sign rule, of `canonical_sign`
    and of the circle triples in `circles`."""
    for v in values:
        if v:
            return v
    return 0


def canonical_sign(m: Mat2) -> Mat2:
    """Of m and -m, the one whose first nonzero entry has a positive trace
    (twice its rational part), or a zero trace and a positive tau part."""
    return -m if _first_nonzero(v for e in m.entries() for v in (e.trace(), e.y)) < 0 else m


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class PslElement(Frozen):
    """Determinant-1 matrix over O_d up to global sign."""

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2) -> None:
        _set_rep(self, rep)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.rep._over_quadints():
            raise ValueError("PslElement entries must be QuadInt over one ring")
        det = self.rep.det()  # mul_add raises on entries from two rings
        if det.x != 1 or det.y != 0:
            raise ValueError("PslElement requires determinant 1")

    def _values(self) -> tuple[Mat2]:
        return (self.rep,)

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

    def __mul__(self, other: "PslElement") -> "PslElement":
        if type(other) is not PslElement:
            return NotImplemented
        return PslElement(self.rep * other.rep)

    def inv(self) -> "PslElement":
        return PslElement(self.rep.adjugate())

    def __pow__(self, n: int) -> "PslElement":
        if self.rep.is_translation():
            # unipotent: (1, b; 0, 1)^n = (1, n*b; 0, 1) for every integer n
            a, b, c, e = self.rep.entries()
            return PslElement(Mat2(a, b * n, c, e))
        if n == 0:
            return PslElement.identity(self.d)
        base = self if n > 0 else self.inv()
        result = base
        for bit in bin(abs(n))[3:]:  # left to right, after the leading 1
            result = PslElement(result.rep * result.rep)
            if bit == "1":
                result = PslElement(result.rep * base.rep)
        return result

    def psl_eq(self, other: "PslElement") -> bool:
        if self.d != other.d:
            raise ValueError(f"mixed rings: d={self.d} vs d={other.d}")
        return self.rep == other.rep or all(
            m.x == -n.x and m.y == -n.y for m, n in zip(self.rep.entries(), other.rep.entries()))

    def is_identity(self) -> bool:
        """Whether rep is +1 or -1."""
        a, b, c, e = self.rep.entries()
        return a.x == e.x in (1, -1) and not (a.y or e.y or b.x or b.y or c.x or c.y)

    def trace(self) -> QuadInt:
        return self.rep.trace()

    def classify(self) -> IsometryClass:
        if self.is_identity():
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

    def render(self) -> str:
        return render_mat2(canonical_sign(self.rep))


_set_rep = PslElement.rep.__set__


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
    """Left-to-right product of gens[id]**exponent, det-checked once.

    A running Mat2 takes each term: u^e for a translation u = (1, t; 0, 1) as
    (1, e*t; 0, 1); a run x^k u^e x^-k as the transvection 1 + e*t*(p; q)(-q, p),
    (p; q) the first column of X = x^k, which is X u^e adj(X) = X u^e X^-1 as
    det X = 1 (true of every PslElement); any other term as (gens[id]**e).rep.
    The value is the matrix that the product of PslElements gives."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    result: Optional[Mat2] = None
    i = 0
    while i < len(word):
        gen_id, exponent = word[i]
        if gen_id not in gens:
            raise KeyError(f"unbound generator id {gen_id!r}")
        x = gens[gen_id]
        u_id, e = word[i + 1] if i + 2 < len(word) else (None, 0)
        if (u_id in gens and tuple(word[i + 2]) == (gen_id, -exponent)
                and gens[u_id].rep.is_translation()):
            X = (x ** exponent).rep
            et = gens[u_id].rep.a12 * e
            etp, etq = X.a11 * et, X.a21 * et
            etpq = etp * X.a21
            factor = Mat2(1 - etpq, etp * X.a11, -(etq * X.a21), 1 + etpq)
            i += 3
        else:
            rep = x.rep
            factor = (Mat2(rep.a11, rep.a12 * exponent, rep.a21, rep.a22)
                      if rep.is_translation() else (x ** exponent).rep)
            i += 1
        result = factor if result is None else result * factor
    assert result is not None
    return PslElement(result)


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
