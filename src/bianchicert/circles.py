"""Stabilizer-form recognition and co-compactness certificates via
quadratic residues.

`stab_form` decides, on a matrix's coordinates, membership in
Stab_{PSL2(O_d)}(C_D) for the circle C_D of radius sqrt(D) centered at the
origin; the residue functions decide whether D is a non-residue mod the odd
prime d, which certifies that stabilizer co-compact.
"""

from __future__ import annotations

from functools import cache

from .quadint import _tau_square, is_prime


def stab_form(d: int, xy: tuple[int, ...], D: int) -> bool:
    """Whether the matrix over O_d with coordinates xy has the shape
    (alpha, D beta; conj(beta), conj(alpha)) with |alpha|^2 - D|beta|^2 = 1:
    membership in Stab_{PSL2(O_d)}(C_D).  xy must have determinant 1, as
    `run_checks`'s do; the EQUIVALENT proofs of tests/test_mutants.py use it.
    Shape and norm equation are invariant under M -> -M, so -M need not be
    tried.  The shape is read on coordinates, as conj(x + y*tau) = (x + s*y)
    - y*tau, and the norms as |x + y*tau|^2 = x^2 + s*x*y + n*y^2."""
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    s, n = _tau_square(d)
    ax, ay, bx, by, cx, cy, ex, ey = xy
    return (ex == ax + s * ay and ey == -ay and bx == D * (cx + s * cy) and by == -D * cy
            and ax * ax + s * ax * ay + n * ay * ay
            - D * (cx * cx + s * cx * cy + n * cy * cy) == 1)


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
