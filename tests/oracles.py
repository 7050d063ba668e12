"""Test-local oracles: the objects of the paper that no command runs.

The library decides membership in Stab(C_D) by `circles.stab_form`, the
residue test and `congruence.in_gamma8`.  What the tests check it against
lives here:

- `parse_psl`, the text form of a PslElement;
- `transpose` and `conj_transpose` of a Mat2;
- `IsometryClass` and `classify`, the trace classification;
- circle triples (a, B, c), the discriminant invariant and the two
  PSL2(O_d) actions;
- quaternion algebras (a,b/Q): conjugation, reduced norm/trace, the matrix
  embedding into M_2(Q(sqrt(a))), the standard orders for a = -d, and the
  passage from norm-one order units to circle-stabilizer matrices.

A triple describes the circle a|z|^2 + B z + conj(B z) + c = 0 in the
Riemann sphere.  Writing B = (b1 + b2 sqrt(-d))/2, primitivity means

    gcd(a, b1/2, b2/2, c) = 1   if b1, b2 both even
    gcd(a, b1, b2, c) = 1       otherwise
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Union

from bianchicert.circles import stab_form
from bianchicert.psl2 import Mat2, PslElement, _first_nonzero, parse_mat2
from bianchicert.quadint import QuadInt, is_squarefree


def parse_psl(text: str, d: int) -> PslElement:
    return PslElement(parse_mat2(text, d))


def transpose(m: Mat2) -> Mat2:
    return Mat2(m.a11, m.a21, m.a12, m.a22)


def conj_transpose(m: Mat2) -> Mat2:
    return Mat2(m.a11.conj(), m.a21.conj(), m.a12.conj(), m.a22.conj())


# -- isometry classes ---------------------------------------------------------


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def classify(g: PslElement) -> IsometryClass:
    if g.is_identity():
        return IsometryClass.IDENTITY
    t = g.trace()
    if not t.is_rational():
        return IsometryClass.HYPERBOLIC
    v = abs(t.rational_value())
    if v < 2:
        return IsometryClass.ELLIPTIC
    if v == 2:
        return IsometryClass.PARABOLIC
    return IsometryClass.HYPERBOLIC


# -- circle triples and the two actions --------------------------------------


class CircleTriple(NamedTuple):
    """Sign-canonical circle datum.  Build via primitive_triple to also
    divide out the rational content."""

    a: int
    B: QuadInt
    c: int

    @property
    def d(self) -> int:
        return self.B.d

    def matrix(self) -> Mat2:
        """The Hermitian matrix (a, B; conj(B), c)."""
        d = self.d
        return Mat2(QuadInt.integer(d, self.a), self.B, self.B.conj(), QuadInt.integer(d, self.c))


def primitive_triple(a: int, B: QuadInt, c: int) -> CircleTriple:
    """Divide out the content and apply the canonical sign.  Idempotent."""
    if B.norm() - a * c <= 0:
        raise ValueError(f"degenerate circle datum ({a},{B},{c})")
    b1, b2 = B.half_pair()
    if b1 % 2 == 0 and b2 % 2 == 0:
        g = gcd(a, b1 // 2, b2 // 2, c)
    else:
        g = gcd(a, b1, b2, c)
    return _signed_triple(a // g, QuadInt.from_half_pair(B.d, b1 // g, b2 // g), c // g)


def _signed_triple(a: int, B: QuadInt, c: int) -> CircleTriple:
    """Canonical sign without content division.  Used by the actions, which
    must not rescale: T A T* preserves the determinant exactly, while the
    rational content of a triple can change even when the content ideal of
    the Hermitian matrix does not."""
    if _first_nonzero((a, *B.half_pair(), c)) < 0:
        return CircleTriple(-a, -B, -c)
    return CircleTriple(a, B, c)


def circle_at_origin(d: int, D: int) -> CircleTriple:
    """C_D: the circle of radius sqrt(D) centered at the origin, (1, 0, -D)."""
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    return CircleTriple(1, QuadInt.integer(d, 0), -D)


def discriminant(C: CircleTriple) -> int:
    """|B|^2 - ac, a positive integer; invariant under the PSL2(O_d) action."""
    return C.B.norm() - C.a * C.c


def hermitian_action(T: PslElement, C: CircleTriple) -> CircleTriple:
    """T . A = T A T* on Hermitian matrices, returned sign-canonically."""
    m = T.rep * C.matrix() * conj_transpose(T.rep)
    a = m.a11.rational_value()
    c = m.a22.rational_value()
    if m.a21 != m.a12.conj():
        raise AssertionError("Hermitian structure lost")
    return _signed_triple(a, m.a12, c)


def circle_action(T: PslElement, C: CircleTriple) -> CircleTriple:
    """Image circle under the Moebius transformation of T.

    Realized via the Hermitian action of V = (T^-1)^t, which intertwines
    the two actions and so preserves the discriminant.
    """
    V = PslElement(transpose(T.inv().rep))
    return hermitian_action(V, C)


# -- quaternion algebras -------------------------------------------------------

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class QuatAlgebra:
    """Hilbert symbol parameters: i^2 = a, j^2 = b, ij = -ji = k."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("Hilbert symbol parameters must be nonzero")

    def one(self) -> "Quaternion":
        return Quaternion(self, 1, 0, 0, 0)

    def i(self) -> "Quaternion":
        return Quaternion(self, 0, 1, 0, 0)

    def j(self) -> "Quaternion":
        return Quaternion(self, 0, 0, 1, 0)

    def k(self) -> "Quaternion":
        return Quaternion(self, 0, 0, 0, 1)


@dataclass(frozen=True)
class Quaternion:
    """x0 + x1*i + x2*j + x3*k with exact rational coordinates."""

    algebra: QuatAlgebra
    x0: Fraction
    x1: Fraction
    x2: Fraction
    x3: Fraction

    def __post_init__(self) -> None:
        for name in ("x0", "x1", "x2", "x3"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def _check(self, other: "Quaternion") -> None:
        if self.algebra != other.algebra:
            raise ValueError("mismatched quaternion algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(self.algebra, self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.algebra, -self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other: "Quaternion | int | Fraction") -> "Quaternion":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Quaternion(self.algebra, self.x0 * s, self.x1 * s, self.x2 * s, self.x3 * s)
        self._check(other)
        a, b = self.algebra.a, self.algebra.b
        y0, y1, y2, y3 = other.x0, other.x1, other.x2, other.x3
        x0, x1, x2, x3 = self.x0, self.x1, self.x2, self.x3
        return Quaternion(
            self.algebra,
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.algebra, self.x0, -self.x1, -self.x2, -self.x3)

    def reduced_norm(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        return (self.x0 ** 2 - a * self.x1 ** 2 - b * self.x2 ** 2
                + a * b * self.x3 ** 2)

    def reduced_trace(self) -> Fraction:
        return 2 * self.x0


def _imaginary_d(alg: QuatAlgebra) -> int:
    a = alg.a
    if a.denominator != 1 or a >= 0 or not is_squarefree(-int(a)):
        raise ValueError(f"embedding requires a = -d with d positive square-free, got a={a}")
    return -int(a)


def rho(x: Quaternion) -> Mat2:
    """The embedding into M_2(Q(sqrt(a))) for a = -d:

        (x0 + x1 sqrt(a),  b (x2 + x3 sqrt(a)))
        (x2 - x3 sqrt(a),  x0 - x1 sqrt(a))

    Entries are QuadRat values over O_d; Mat2's product and determinant take
    their ring operators.
    """
    d = _imaginary_d(x.algebra)
    b = x.algebra.b
    return Mat2(
        QuadRat.from_sqrt_parts(d, x.x0, x.x1),
        QuadRat.from_sqrt_parts(d, b * x.x2, b * x.x3),
        QuadRat.from_sqrt_parts(d, x.x2, -x.x3),
        QuadRat.from_sqrt_parts(d, x.x0, -x.x1),
    )


def in_order(x: Quaternion, d: int) -> bool:
    """Membership in the standard order O_d + O_d*j of (-d, D / Q): both
    x0 + x1*sqrt(-d) and x2 + x3*sqrt(-d) lie in O_d."""
    if _imaginary_d(x.algebra) != d:
        raise ValueError(f"quaternion lives over a={x.algebra.a}, not -{d}")
    return all(QuadRat.from_sqrt_parts(d, u, v).den == 1
               for u, v in ((x.x0, x.x1), (x.x2, x.x3)))


def order_unit_to_stab(x: Quaternion, d: int, D: int) -> PslElement:
    """Map a norm-one order unit through the embedding to an element of
    Stab_{PSL2(O_d)}(C_D)."""
    if x.algebra.b != D:
        raise ValueError(f"algebra parameter b={x.algebra.b} does not match D={D}")
    if not in_order(x, d):
        raise ValueError(f"{x} is not in the standard order for d={d}")
    if x.reduced_norm() != 1:
        raise ValueError(f"reduced norm is {x.reduced_norm()}, not 1")
    m = rho(x)
    element = PslElement(Mat2(*(e.to_quadint() for e in m.entries())))
    if stab_form(element, D) is None:
        raise AssertionError("order unit did not land in stabilizer form")
    return element


@dataclass(frozen=True)
class QuadRat:
    """Element of Q(sqrt(-d)): (x + y*tau_d)/den in lowest terms."""

    d: int
    x: int
    y: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError("denominator must be positive")

    @classmethod
    def make(cls, d: int, x: int, y: int, den: int = 1) -> "QuadRat":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            x, y, den = -x, -y, -den
        g = gcd(x, y, den)
        return cls(d, x // g, y // g, den // g)

    @classmethod
    def from_quadint(cls, a: QuadInt) -> "QuadRat":
        return cls.make(a.d, a.x, a.y)

    @classmethod
    def from_sqrt_parts(cls, d: int, u: Rational, v: Rational) -> "QuadRat":
        """The value u + v*sqrt(-d) with rational u, v."""
        u, v = Fraction(u), Fraction(v)
        den = lcm(u.denominator, v.denominator)
        a = QuadInt.from_half_pair(d, int(2 * den * u), int(2 * den * v))
        return cls.make(d, a.x, a.y, den)

    def _check(self, other: "QuadRat") -> None:
        if other.d != self.d:
            raise ValueError(f"mixed rings: d={self.d} vs d={other.d}")

    def __add__(self, o: "QuadRat") -> "QuadRat":
        self._check(o)
        return QuadRat.make(self.d, self.x * o.den + o.x * self.den,
                            self.y * o.den + o.y * self.den, self.den * o.den)

    def __sub__(self, other: "QuadRat") -> "QuadRat":
        return self + (-other)

    def __neg__(self) -> "QuadRat":
        return QuadRat(self.d, -self.x, -self.y, self.den)

    def __mul__(self, o: "QuadRat") -> "QuadRat":
        self._check(o)
        a = QuadInt(self.d, self.x, self.y) * QuadInt(self.d, o.x, o.y)
        return QuadRat.make(self.d, a.x, a.y, self.den * o.den)

    def conj(self) -> "QuadRat":
        a = QuadInt(self.d, self.x, self.y).conj()
        return QuadRat(self.d, a.x, a.y, self.den)

    def norm(self) -> Fraction:
        return Fraction(QuadInt(self.d, self.x, self.y).norm(), self.den ** 2)

    def trace(self) -> Fraction:
        return Fraction(QuadInt(self.d, self.x, self.y).trace(), self.den)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def to_quadint(self) -> QuadInt:
        if self.den != 1:
            raise ValueError(f"{self!r} is not integral")
        return QuadInt(self.d, self.x, self.y)
