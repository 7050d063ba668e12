"""Test-local oracles: the objects of the paper that no command runs.

The library decides membership in Stab(C_D) by `circles.stab_form`, the
residue test and `congruence.in_gamma8`, all on a matrix's integer
coordinates, and `pipeline.run_checks` builds no group element; the
verifier compares a record with the honest values on coordinates.  What the
tests check them against lives here:

- `oracle_run_checks`, the nine witness checks as first written on
  PslElements and QuadInts, with what they read: `ring`, an element's d;
  `word_value`, eval_word's value as a PslElement; `psl_eq`, projective
  equality; `is_identity`; `is_rational` and `rational_value` of a
  QuadInt; and `stab_pair`, stab_form's answer (alpha, beta) or None;
- `oracle_verify_witness`, the verifier as first written: it derives the
  honest record as objects (`oracle_derive`), compares each field with it
  and runs `oracle_run_checks`;
- `parse_psl`, the text form of a PslElement;
- `conj`, the conjugate of a QuadInt; `identity(d)`, and `transpose`,
  `conj_transpose`, `determinant` and `adjugate` of a Mat2, and `reduced`,
  the representative of an element mod (n);
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
from typing import NamedTuple, Optional, Union

from bianchicert.circles import cocompact_certificate, is_quadratic_nonresidue
from bianchicert.congruence import gamma8_level4_image, phi_n
from bianchicert.pipeline import (FIELDS, FIG8, LAYOUTS, CompressionWitness, InvalidParams, Params,
                                  VerificationReport, _has_witness_shape, bezout_rt,
                                  validate_fig8, validate_general, witness_word)
from bianchicert.psl2 import (_PLUS_MINUS_ONE, Mat2, PslElement, _first_nonzero, canonical_sign,
                              eval_word, parse_mat2)
from bianchicert.quadint import QuadInt, _tau_square, from_xy, is_squarefree


def parse_psl(text: str, d: int) -> PslElement:
    return PslElement(parse_mat2(text, d))


def identity(d: int) -> Mat2:
    one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
    return Mat2(one, zero, zero, one)


def transpose(m: Mat2) -> Mat2:
    return Mat2(m.a11, m.a21, m.a12, m.a22)


def conj(a: QuadInt) -> QuadInt:
    """Image under sqrt(-d) -> -sqrt(-d): conj(x + y tau) = x + s y - y tau."""
    s, _ = _tau_square(a.d)
    return QuadInt(a.d, a.x + s * a.y, -a.y)


def conj_transpose(m: Mat2) -> Mat2:
    return Mat2(conj(m.a11), conj(m.a21), conj(m.a12), conj(m.a22))


def determinant(m: Mat2):
    """a11*a22 - a12*a21 by the entries' own ring operators: QuadInts, the
    QuadRats of `rho` or ints."""
    return m.a11 * m.a22 - m.a12 * m.a21


def adjugate(m: Mat2) -> Mat2:
    """(a22, -a12; -a21, a11): the inverse of a determinant-1 matrix."""
    return Mat2(m.a22, -m.a12, -m.a21, m.a11)


def reduced(a: QuadInt, n: int) -> QuadInt:
    """The representative of a mod (n) with both coordinates in [0, n)."""
    return QuadInt(a.d, a.x % n, a.y % n)


# -- the witness checks on objects -------------------------------------------


def ring(g: PslElement) -> int:
    """The d of g's ring O_d."""
    return g.rep.a11.d


def word_value(xi: QuadInt, h: PslElement, exponents: tuple[int, int, int]) -> PslElement:
    """sigma^a h sigma^b h^-1 sigma^c as a PslElement: eval_word's coordinates,
    det-checked again as a group element."""
    return PslElement(Mat2(*from_xy(xi, eval_word(*_tau_square(ring(h)), (xi.x, xi.y), h.rep.xy(),
                                                  exponents))))


def psl_eq(g: PslElement, o: PslElement) -> bool:
    """Projective equality, M ~ -M, of two elements of one ring."""
    if ring(g) != ring(o):
        raise ValueError(f"mixed rings: d={ring(g)} vs d={ring(o)}")
    m, n = g.rep.xy(), o.rep.xy()
    return m == n or m == tuple([-v for v in n])


def is_identity(g: PslElement) -> bool:
    """Whether g's representative is +1 or -1."""
    return g.rep.xy() in _PLUS_MINUS_ONE


def is_rational(a: QuadInt) -> bool:
    return a.y == 0


def rational_value(a: QuadInt) -> int:
    if a.y != 0:
        raise ValueError(f"{a!r} is not rational")
    return a.x


def stab_pair(M: PslElement, D: int) -> Optional[tuple[QuadInt, QuadInt]]:
    """Recognize the shape (alpha, D beta; conj(beta), conj(alpha)).

    Returns (alpha, beta) with |alpha|^2 - D|beta|^2 = 1 iff the representative
    has the shape; this is membership in Stab_{PSL2(O_d)}(C_D).  Shape and norm
    equation are invariant under M -> -M, so -M need not be tried.  The shape
    is read on coordinates, as conj(x + y*tau) = (x + s*y) - y*tau.
    """
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    m = M.rep
    s, _ = _tau_square(ring(M))
    ax, ay, bx, by, cx, cy, ex, ey = m.xy()
    if (ex == ax + s * ay and ey == -ay and bx == D * (cx + s * cy) and by == -D * cy
            and m.a11.norm() - D * m.a21.norm() == 1):
        return (m.a11, conj(m.a21))
    return None


def oracle_run_checks(params: Params, honest: CompressionWitness,
                      claimed: CompressionWitness) -> dict[str, bool]:
    """`pipeline.run_checks` as written on group elements: h, the word's value
    and the claimed g_k are PslElements, the trace a QuadInt, and Gamma_8
    membership is the level-4 class `phi_n(M, 4)` in the image."""
    d, x = params.d, params.x
    n_k, D_k, alpha, beta = claimed.n_k, claimed.D_k, claimed.alpha_k, claimed.beta_k
    m = honest.word[2][1]  # sigma^m, the middle term
    h = PslElement(honest.h)
    a, b, c = (e for _, e in claimed.word[::2])  # sigma^a h sigma^b h^-1 sigma^c
    g_word = word_value(params.xi, h, (a, b, c))
    try:
        g_closed: Optional[PslElement] = PslElement(claimed.g_k)
    except ValueError:
        g_closed = None  # not even unimodular: closed_form fails
    g = g_closed or g_word
    checks: dict[str, bool] = {}
    checks["closed_form"] = g_closed is not None and psl_eq(g_word, g_closed)
    checks["unit_determinant"] = alpha.norm() - D_k * beta.norm() == 1
    checks["residue_class"] = D_k % d == x and is_quadratic_nonresidue(x, d)
    checks["nontrivial"] = not is_identity(g)
    expected_trace = 2 - 2 * m * n_k * honest.norm_xi ** 2
    tr = g.trace()
    # |trace| > 2 is hyperbolic; it also excludes +-1, whose trace is +-2
    checks["hyperbolic_trace"] = (is_rational(tr)
                                  and abs(rational_value(tr)) == abs(expected_trace) > 2)
    # a claimed D_k < 1 names no circle; both circle checks then fail
    checks["stabilizer_membership"] = D_k >= 1 and stab_pair(g, D_k) is not None
    checks["normal_closure_word"] = claimed.word == witness_word(n_k, m)
    if "check.gamma8_membership" in LAYOUTS[params.mode]:
        image = gamma8_level4_image()
        checks["gamma8_membership"] = phi_n(g, 4) in image and phi_n(h, 4) in image
    checks["cocompact"] = D_k >= 1 and cocompact_certificate(d, D_k)
    return checks


def oracle_derive(params: Params, k: int) -> CompressionWitness:
    """The honest record for (params, k), with no checks run yet: the library's
    derivation as first written on QuadInts and Mat2s, h included."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    d, xi, x = params.d, params.xi, params.x
    n_xi = xi.norm()
    r, t = bezout_rt(d, params.level * n_xi)
    m = 2 * d  # the middle exponent of the word
    n_k = -d * n_xi * (d * k + x) + d * d
    D_k = n_xi * n_k ** 2 + d * k + x
    root = QuadInt.from_half_pair(d, 0, 2)
    alpha = QuadInt.integer(d, 1 - m * n_k * n_xi ** 2) - m * n_xi * root
    beta = -m * n_xi * xi
    # canonical as built: h's a11 sqrt(-d) has y > 0, alpha's 1 - m n_k |xi|^2 > 0 as n_k < 0
    return CompressionWitness(
        mode=params.mode, d=d, p=params.p, q=params.q,
        x=x if "x" in LAYOUTS[params.mode] else None,
        xi=xi, norm_xi=n_xi, r=r, t=t,
        h=Mat2(root, xi * (params.level * t), conj(xi), root * r), k=k, n_k=n_k, D_k=D_k,
        g_k=Mat2(alpha, beta * D_k, conj(beta), conj(alpha)),
        alpha_k=alpha, beta_k=beta, word=witness_word(n_k, m))


def oracle_verify_witness(w: CompressionWitness) -> VerificationReport:
    """`pipeline.verify_witness` as first written: derive the honest record
    (`oracle_derive`), compare the claimed record with it field by field as
    objects, then run the named checks (`oracle_run_checks`).  A record with
    a field of the wrong kind may raise; only a missing field gets a report."""
    layout = LAYOUTS.get(w.mode)
    if layout is None or any(getattr(w, key) is None for key in FIELDS if key in layout):
        return VerificationReport({"params": False})
    try:
        if w.mode == FIG8:
            params = validate_fig8(w.p, w.q)  # type: ignore[arg-type]
        else:
            params = validate_general(w.d, w.xi, w.x)
        honest = oracle_derive(params, w.k)
    except InvalidParams:
        return VerificationReport({"params": False})
    if params.d != w.d:
        return VerificationReport({"field.d": False})
    results = {f"field.{key}": getattr(honest, key) == (canonical_sign(w.h) if key == "h"
                                                          else getattr(w, key))
               for key, (*_, compared) in FIELDS.items() if compared}
    if not _has_witness_shape(w.word):  # h^N has entries of ~N bits: evaluate no other word
        results["field.word"] = False
        return VerificationReport(results)
    # the named checks run against the *stored* values, so tampering with
    # D_k or g_k is caught by the corresponding check as well
    checks = oracle_run_checks(params, honest, w)
    results["field.g_k"] = checks["closed_form"]  # the stored g_k is the word's value
    for name, ok in checks.items():
        results[f"check.{name}"] = ok
    return VerificationReport(results)


# -- isometry classes ---------------------------------------------------------


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def classify(g: PslElement) -> IsometryClass:
    if is_identity(g):
        return IsometryClass.IDENTITY
    t = g.trace()
    if not is_rational(t):
        return IsometryClass.HYPERBOLIC
    v = abs(rational_value(t))
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
        return Mat2(QuadInt.integer(d, self.a), self.B, conj(self.B), QuadInt.integer(d, self.c))


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
    a = rational_value(m.a11)
    c = rational_value(m.a22)
    if m.a21 != conj(m.a12):
        raise AssertionError("Hermitian structure lost")
    return _signed_triple(a, m.a12, c)


def circle_action(T: PslElement, C: CircleTriple) -> CircleTriple:
    """Image circle under the Moebius transformation of T.

    Realized via the Hermitian action of V = (T^-1)^t, which intertwines
    the two actions and so preserves the discriminant.
    """
    V = PslElement(transpose((T ** -1).rep))
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

    Entries are QuadRat values over O_d; Mat2's product and `determinant`
    take their ring operators.
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
    if stab_pair(element, D) is None:
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
        a = conj(QuadInt(self.d, self.x, self.y))
        return QuadRat(self.d, a.x, a.y, self.den)

    def norm(self) -> Fraction:
        return Fraction(QuadInt(self.d, self.x, self.y).norm(), self.den ** 2)

    def trace(self) -> Fraction:
        return Fraction(QuadInt(self.d, self.x, self.y).half_pair()[0], self.den)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def to_quadint(self) -> QuadInt:
        if self.den != 1:
            raise ValueError(f"{self!r} is not integral")
        return QuadInt(self.d, self.x, self.y)
