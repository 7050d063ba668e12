"""Circle triples (a, B, c), the discriminant invariant, the two
PSL2(O_d) actions, stabilizer-form recognition, and co-compactness
certificates via quadratic residues.

A triple describes the circle a|z|^2 + B z + conj(B z) + c = 0 in the
Riemann sphere.  Writing B = (b1 + b2 sqrt(-d))/2, primitivity means

    gcd(a, b1/2, b2/2, c) = 1   if b1, b2 both even
    gcd(a, b1, b2, c) = 1       otherwise
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import NamedTuple, Optional

from .psl2 import Mat2, PslElement, _first_nonzero
from .quadint import QuadInt, _tau_square, is_prime


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
    m = T.rep * C.matrix() * T.rep.conj_transpose()
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
    V = PslElement(T.inv().rep.transpose())
    return hermitian_action(V, C)


def stab_form(M: PslElement, D: int) -> Optional[tuple[QuadInt, QuadInt]]:
    """Recognize the shape (alpha, D beta; conj(beta), conj(alpha)).

    Returns (alpha, beta) with |alpha|^2 - D|beta|^2 = 1 iff the representative
    has the shape; this is membership in Stab_{PSL2(O_d)}(C_D).  Shape and norm
    equation are invariant under M -> -M, so -M need not be tried.  The shape
    is read on coordinates, as conj(x + y*tau) = (x + s*y) - y*tau.
    """
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    m = M.rep
    s, _ = _tau_square(M.d)
    ax, ay, bx, by, cx, cy, ex, ey = m.xy()
    if (ex == ax + s * ay and ey == -ay and bx == D * (cx + s * cy) and by == -D * cy
            and m.a11.norm() - D * m.a21.norm() == 1):
        return (m.a11, m.a21.conj())
    return None


# -- quadratic residues and co-compactness ----------------------------------


@cache  # a rejected d raises, so only accepted values are remembered
def check_odd_prime(d: int) -> None:
    """The one test of "d is an odd prime"; decided once per accepted d.  A d
    past `quadint.PRIME_LIMIT` is refused, as `is_prime` proves nothing there."""
    if d < 3 or not is_prime(d):
        raise ValueError(f"d={d} is not a prime >= 3")


def is_quadratic_nonresidue(D: int, d: int) -> bool:
    """Euler criterion: D is a non-residue mod the odd prime d."""
    check_odd_prime(d)
    if D % d == 0:
        return False
    return pow(D % d, (d - 1) // 2, d) != 1


def smallest_nonresidue(d: int) -> int:
    """Least x in [2, d-1] that is a quadratic non-residue mod d."""
    check_odd_prime(d)
    for x in range(2, d):
        if is_quadratic_nonresidue(x, d):
            return x
    raise AssertionError(f"no non-residue mod {d}")  # impossible for prime d >= 3


def cocompact_certificate(d: int, D: int) -> bool:
    """Whether the residue criterion certifies Stab_{PSL2(O_d)}(C_D)
    co-compact: d an odd prime and D a non-residue mod d.  A d outside the
    hypotheses is not certified; it does not raise."""
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    try:
        check_odd_prime(d)
    except ValueError:
        return False
    return is_quadratic_nonresidue(D, d)
