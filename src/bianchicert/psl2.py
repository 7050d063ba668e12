"""Exact 2x2 matrix algebra over O_d and projective (PSL) elements.

A matrix of QuadInts of one ring is also its eight integer coordinates
`xy()` = (a11.x, a11.y, ..., a22.y): `product_xy` and `det_xy` compute on
them through `quadint.mul_add`, for the determinant rule and the residue
matrices of `congruence`.  `psl_xy` states that rule once: a matrix's
entries are QuadInts over one ring and its determinant is 1, and then it
gives the matrix's coordinates.  PslElement enforces it and takes every
power by binary powering.

`eval_word` evaluates the one word shape that commands evaluate,
sigma^a h sigma^b h^-1 sigma^c, in one closed form on coordinates, and
returns the value's coordinates, of determinant 1 by algebra, unchecked.
"""

from __future__ import annotations

import re
from typing import Any

from .quadint import Frozen, QuadInt, _tau_square, from_xy, mul_add, parse_quadint, tau_square_of

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

    def xy(self) -> tuple[int, ...]:
        """The eight coordinates (a11.x, a11.y, ..., a22.y) of a matrix of QuadInts."""
        a, b, c, e = self.a11, self.a12, self.a21, self.a22
        return (a.x, a.y, b.x, b.y, c.x, c.y, e.x, e.y)

    def trace(self) -> Any:
        return self.a11 + self.a22

    def __mul__(self, other: "Mat2") -> "Mat2":
        if type(other) is not Mat2:
            return NotImplemented
        a, b, c, e = self.entries()
        f, g, h, k = other.entries()
        return Mat2(a * f + b * h, a * g + b * k, c * f + e * h, c * g + e * k)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)


_set_a11, _set_a12, _set_a21, _set_a22 = (getattr(Mat2, name).__set__ for name in Mat2.__slots__)


def product_xy(s: int, n: int, m: tuple[int, ...], o: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates of the product of the matrices with coordinates m, o over O_d."""
    ax, ay, bx, by, cx, cy, ex, ey = m
    fx, fy, gx, gy, hx, hy, kx, ky = o
    return (*mul_add(s, n, ax, ay, fx, fy, bx, by, hx, hy),
            *mul_add(s, n, ax, ay, gx, gy, bx, by, kx, ky),
            *mul_add(s, n, cx, cy, fx, fy, ex, ey, hx, hy),
            *mul_add(s, n, cx, cy, gx, gy, ex, ey, kx, ky))


def det_xy(s: int, n: int, m: tuple[int, ...]) -> tuple[int, int]:
    """The coordinates of a11*a22 - a12*a21 for the matrix with coordinates m."""
    return mul_add(s, n, m[0], m[1], m[6], m[7], -m[2], -m[3], m[4], m[5])


def _first_nonzero(values: tuple[int, ...]) -> int:
    """The first nonzero value, or 0: the one sign rule, of `canonical_sign`."""
    for v in values:
        if v:
            return v
    return 0


def canonical_sign(m: Mat2) -> Mat2:
    """Of m and -m, the one whose first nonzero entry has a positive trace
    2x + s*y (twice its rational part), or a zero trace and a positive y."""
    s, _ = _tau_square(m.a11.d)
    ax, ay, bx, by, cx, cy, ex, ey = m.xy()
    key = _first_nonzero((2 * ax + s * ay, ay, 2 * bx + s * by, by,
                          2 * cx + s * cy, cy, 2 * ex + s * ey, ey))
    return -m if key < 0 else m


def psl_xy(m: Mat2) -> tuple[int, ...]:
    """The coordinates of m, whose entries must be QuadInts over one ring and
    whose determinant must be 1: the one statement of that rule, which
    PslElement and `pipeline.run_checks` apply.  Raises ValueError otherwise."""
    if not (type(m.a11) is type(m.a12) is type(m.a21) is type(m.a22) is QuadInt):
        raise ValueError("PslElement entries must be QuadInt over one ring")
    xy = m.xy()
    if det_xy(*tau_square_of(*m.entries()), xy) != (1, 0):  # two rings raise
        raise ValueError("PslElement requires determinant 1")
    return xy


class PslElement(Frozen):
    """Determinant-1 matrix over O_d up to global sign."""

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2) -> None:
        _set_rep(self, rep)
        self.__post_init__()

    def __post_init__(self) -> None:
        psl_xy(self.rep)

    def _values(self) -> tuple[Mat2]:
        return (self.rep,)

    @classmethod
    def from_entries(cls, a11: QuadInt, a12: QuadInt, a21: QuadInt,
                     a22: QuadInt) -> "PslElement":
        return cls(Mat2(a11, a12, a21, a22))

    def __mul__(self, other: "PslElement") -> "PslElement":
        if type(other) is not PslElement:
            return NotImplemented
        return PslElement(self.rep * other.rep)

    def __pow__(self, n: int) -> "PslElement":
        m = self.rep
        if n == 0:
            return PslElement(Mat2(*from_xy(m.a11, IDENTITY_XY)))
        # for n < 0, the adjugate, which is the inverse as det = 1
        base = self if n > 0 else PslElement(Mat2(m.a22, -m.a12, -m.a21, m.a11))
        result = base
        for bit in bin(abs(n))[3:]:  # left to right, after the leading 1
            result = PslElement(result.rep * result.rep)
            if bit == "1":
                result = PslElement(result.rep * base.rep)
        return result

    def trace(self) -> QuadInt:
        return self.rep.trace()

    def render(self) -> str:
        return render_mat2(canonical_sign(self.rep))


_set_rep = PslElement.rep.__set__
IDENTITY_XY = (1, 0, 0, 0, 0, 0, 1, 0)  # the coordinates of the identity matrix
_PLUS_MINUS_ONE = (IDENTITY_XY, tuple([-v for v in IDENTITY_XY]))


# an entry holds no comma or bracket, so a failed match never backtracks
_MATRIX_RE = re.compile(r"\[\[([^\[\],]*),([^\[\],]*)\],\[([^\[\],]*),([^\[\],]*)\]\]")


def render_mat2(m: Mat2) -> str:
    return f"[[{m.a11},{m.a12}],[{m.a21},{m.a22}]]"


def parse_mat2(text: str, d: int) -> Mat2:
    """Parse the matrix text form without any determinant requirement."""
    m = _MATRIX_RE.fullmatch(text.replace(" ", ""))
    if m is None:
        raise ValueError(f"cannot parse matrix {text!r}")
    return Mat2(*(parse_quadint(g, d) for g in m.groups()))


def eval_word(d: int, xi: QuadInt, h: tuple[int, ...],
              exponents: tuple[int, int, int]) -> tuple[int, ...]:
    """The coordinates of sigma^a h sigma^b h^-1 sigma^c over O_d, for
    sigma = (1, xi; 0, 1), h given by its coordinates and exponents (a, b, c).
    xi over another ring raises ValueError.

    The middle factor is the transvection T = 1 + b*xi*(p; q)(-q, p), (p; q)
    h's first column: h sigma^b h^-1 when det h = 1, as `bezout_rt` asserts.
    sigma^a on the left adds a*xi times row 2 of T to row 1, sigma^c on the
    right c*xi times column 1 to column 2: the product of PslElements.  The
    value's determinant, det T = 1 + b*xi*(p*q - q*p) = 1 for any h, is unchecked."""
    if xi.d != d:
        raise ValueError(f"mixed rings: d={xi.d} vs d={d}")
    a, b, c = exponents
    s, n = _tau_square(d)
    px, py, _, _, qx, qy, _, _ = h
    ptx, pty = mul_add(s, n, px, py, b * xi.x, b * xi.y, 0, 0, 0, 0)  # b*xi*p
    qtx, qty = mul_add(s, n, qx, qy, b * xi.x, b * xi.y, 0, 0, 0, 0)  # b*xi*q
    pqx, pqy = mul_add(s, n, ptx, pty, qx, qy, 0, 0, 0, 0)  # b*xi*p*q
    t12x, t12y = mul_add(s, n, ptx, pty, px, py, 0, 0, 0, 0)  # b*xi*p^2
    t21x, t21y = mul_add(s, n, -qtx, -qty, qx, qy, 0, 0, 0, 0)  # -b*xi*q^2
    # sigma^a T: row 1 of T plus a*xi times row 2
    m11x, m11y = mul_add(s, n, a * xi.x, a * xi.y, t21x, t21y, 1 - pqx, -pqy, 1, 0)
    m12x, m12y = mul_add(s, n, a * xi.x, a * xi.y, 1 + pqx, pqy, t12x, t12y, 1, 0)
    # (sigma^a T) sigma^c: column 2 plus c*xi times column 1
    return (m11x, m11y, *mul_add(s, n, c * xi.x, c * xi.y, m11x, m11y, m12x, m12y, 1, 0),
            t21x, t21y, *mul_add(s, n, c * xi.x, c * xi.y, t21x, t21y, 1 + pqx, pqy, 1, 0))


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
