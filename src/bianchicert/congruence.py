"""Finite quotients PSL2(O_d/(n)), entrywise reduction, principal
congruence subgroups, finite-group closure from generators, and the
figure-eight group membership test, on a matrix's coordinates, through its
level-4 image.

A residue matrix is its eight coordinates on {1, tau_d}, reduced into
[0, n) and in sign normal form, so reduction, products, inverses,
equality and hashing read only ints.  Its constructor gives every residue
matrix its form and checks its determinant.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable

from .psl2 import IDENTITY_XY, Mat2, PslElement, det_xy, product_xy
from .quadint import Frozen, QuadInt, _tau_square

SURJECTIVITY_NOTE = (
    "finite-model indices are exact statements about subgroups of the "
    "computed group of determinant-1 residue matrices; identifying them with "
    "indices in PSL2(O_3) assumes the level-4 reduction is surjective"
)


class ResidueMatrix(Frozen):
    """Determinant-1 matrix over R_n = O_d/(n) in projective normal form: xy
    holds the coordinates (a11.x, a11.y, ..., a22.y) reduced into [0, n), of
    M and -M the lexicographically smaller tuple.  Built from any integer
    coordinates over a valid d; raises ValueError unless n >= 2, det = 1 mod n."""

    __slots__ = ("d", "n", "xy")

    def __init__(self, d: int, n: int, xy: Iterable[int]) -> None:
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        xy = tuple([v % n for v in xy])
        det_x, det_y = det_xy(*_tau_square(d), xy)
        det_x, det_y = det_x % n, det_y % n
        if (det_x, det_y) != (1, 0):
            raise ValueError(f"determinant {QuadInt(d, det_x, det_y)} is not 1 in R_{n}")
        _set_d(self, d)
        _set_n(self, n)
        _set_xy(self, min(xy, tuple([-v % n for v in xy])))

    def _values(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.d, self.n, self.xy)

    def is_identity(self) -> bool:
        return self.xy == IDENTITY_XY  # the normal form of +-1, as n >= 2

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        if type(other) is not ResidueMatrix:
            return NotImplemented
        d, n = self.d, self.n
        if (other.d, other.n) != (d, n):
            raise ValueError(f"mismatched residue rings: (d, n) = ({d}, {n}) "
                             f"vs ({other.d}, {other.n})")
        return ResidueMatrix(d, n, product_xy(*_tau_square(d), self.xy, other.xy))

    def inv(self) -> "ResidueMatrix":
        # the adjugate, valid since det = 1 in R_n
        ax, ay, bx, by, cx, cy, ex, ey = self.xy
        return ResidueMatrix(self.d, self.n, (ex, ey, -bx, -by, -cx, -cy, ax, ay))


_set_d, _set_n, _set_xy = (getattr(ResidueMatrix, name).__set__ for name in ResidueMatrix.__slots__)


def residue_matrix(m: Mat2, n: int) -> ResidueMatrix:
    """The class of m in PSL2(O_d/(n)); raises ValueError unless det = 1 mod n."""
    return ResidueMatrix(m.a11.d, n, m.xy())


def residue_identity(d: int, n: int) -> ResidueMatrix:
    return ResidueMatrix(d, n, IDENTITY_XY)


def phi_n(M: PslElement, n: int) -> ResidueMatrix:
    """Entrywise reduction modulo (n), projectively normalized."""
    return residue_matrix(M.rep, n)


def reduce_level(m: ResidueMatrix, n2: int) -> ResidueMatrix:
    """Push a level-n residue matrix down to level n2 (n2 must divide n)."""
    if m.n % n2 != 0:
        raise ValueError(f"{n2} does not divide level {m.n}")
    return ResidueMatrix(m.d, n2, m.xy)


def group_closure(gens: Iterable[ResidueMatrix]) -> frozenset[ResidueMatrix]:
    """Breadth-first closure of the generators under multiplication.

    In a finite group, closure under the generators alone yields the
    generated subgroup (inverses arise as powers)."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("generator list must be nonempty")
    d, n = gens[0].d, gens[0].n
    if any((g.d, g.n) != (d, n) for g in gens):
        raise ValueError("generators must share (d, n)")
    identity = residue_identity(d, n)
    seen = {identity}
    found = [identity]
    for current in found:  # reaches what the loop appends, in breadth-first order
        for g in gens:
            nxt = current * g
            if nxt not in seen:
                seen.add(nxt)
                found.append(nxt)
    return frozenset(seen)


def enumerate_psl2(d: int, n: int) -> frozenset[ResidueMatrix]:
    """All determinant-1 matrices over R_n up to sign, by exhaustive scan of
    the n^8 coordinate tuples in [0, n): each whose `det_xy` is 1 (mod n) is
    built as a ResidueMatrix.  Intended for small n (2 or 4)."""
    s, norm = _tau_square(d)
    if n ** 8 > 2 * 10**7:
        raise ValueError(f"scan of {n}^8 coordinate tuples is too large")
    found: set[ResidueMatrix] = set()
    for xy in product(range(n), repeat=8):
        det_x, det_y = det_xy(s, norm, xy)
        if (det_x - 1) % n == 0 == det_y % n:
            found.add(ResidueMatrix(d, n, xy))
    return frozenset(found)


# -- figure-eight knot group -----------------------------------------------


def gamma8_generators() -> tuple[PslElement, PslElement]:
    """The two parabolic generators over O_3: (1,1;0,1) and (1,0;-omega,1)."""
    d = 3
    one = QuadInt.integer(d, 1)
    zero = QuadInt.integer(d, 0)
    omega = QuadInt.tau(d) - 1  # omega^2 + omega + 1 = 0
    g1 = PslElement.from_entries(one, one, zero, one)
    g2 = PslElement.from_entries(one, zero, -omega, one)
    return g1, g2


def gamma8_prime_extra_generator() -> PslElement:
    """Third generator (1, 1+2*omega; 0, 1) of the index-2 overgroup."""
    d = 3
    one = QuadInt.integer(d, 1)
    zero = QuadInt.integer(d, 0)
    omega = QuadInt.tau(d) - 1
    return PslElement.from_entries(one, one + 2 * omega, zero, one)


@lru_cache(maxsize=1)
def gamma8_level4_image() -> frozenset[ResidueMatrix]:
    """Closure of the level-4 images of the two generators."""
    g1, g2 = gamma8_generators()
    return group_closure((phi_n(g1, 4), phi_n(g2, 4)))


@lru_cache(maxsize=1)
def _gamma8_level4_xy() -> frozenset[tuple[int, ...]]:
    """The level-4 image as coordinates in [0, 4), both signs of each element."""
    return frozenset(xy for m in gamma8_level4_image()
                     for xy in (m.xy, tuple([-v % 4 for v in m.xy])))


def in_gamma8(d: int, xy: tuple[int, ...]) -> bool:
    """Membership in the figure-eight group of the determinant-1 matrix over
    O_d with coordinates xy: the group contains the level-4 principal
    congruence subgroup, so membership only depends on the level-4 image: as
    the set holds both signs, the coordinates mod 4 are in it exactly when
    the matrix's `phi_n` class is in the image."""
    if d != 3:
        raise ValueError(f"figure-eight membership requires d=3, got d={d}")
    return tuple([v % 4 for v in xy]) in _gamma8_level4_xy()
