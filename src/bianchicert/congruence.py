"""Finite quotients PSL2(O_d/(n)), entrywise reduction, principal
congruence subgroups, finite-group closure from generators, and the
figure-eight group membership test through its level-4 image.

A residue matrix is its eight coordinates on {1, tau_d}, reduced into
[0, n) and in sign normal form, so reduction, equality and hashing read
only ints.  A product or an inverse is computed over O_d on a Mat2 of
reduced QuadInts, built once per residue matrix, and then reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .psl2 import Mat2, PslElement
from .quadint import QuadInt, _tau_square

SURJECTIVITY_NOTE = (
    "finite-model indices are exact statements about subgroups of the "
    "computed group of determinant-1 residue matrices; identifying them with "
    "indices in PSL2(O_3) assumes the level-4 reduction is surjective"
)


class ClosureCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class ResidueMatrix:
    """Determinant-1 matrix over R_n = O_d/(n) in projective normal form:
    xy holds the coordinates (a11.x, a11.y, ..., a22.y) in [0, n), and of M
    and -M the lexicographically smaller tuple.  Built by residue_matrix."""

    d: int
    n: int
    xy: tuple[int, ...]

    def coords(self) -> tuple[int, ...]:
        return self.xy

    def is_identity(self) -> bool:
        return self.xy == (1, 0, 0, 0, 0, 0, 1, 0)  # normal form of +-1, as n >= 2

    @cached_property
    def rep(self) -> Mat2:  # built on first use, by a product or an inverse
        return Mat2(*(QuadInt(self.d, *self.xy[i:i + 2]) for i in range(0, 8, 2)))

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        if other.n != self.n:
            raise ValueError(f"mismatched residue rings: n={self.n} vs n={other.n}")
        return residue_matrix(self.rep * other.rep, self.n)

    def inv(self) -> "ResidueMatrix":
        # adjugate; valid since det = 1 in R_n
        return residue_matrix(self.rep.adjugate(), self.n)


def residue_matrix(m: Mat2, n: int) -> ResidueMatrix:
    """The class of m in PSL2(O_d/(n)); raises ValueError unless det = 1 mod n."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    a, b, c, e = m.entries()
    xy = (a.x % n, a.y % n, b.x % n, b.y % n, c.x % n, c.y % n, e.x % n, e.y % n)
    ax, ay, bx, by, cx, cy, ex, ey = xy
    s, t2 = _tau_square(a.d)  # a*e - b*c = xx + (...)*tau + tt*tau^2, tau^2 = s*tau - t2
    xx, tt = ax * ex - bx * cx, ay * ey - by * cy
    det_x, det_y = (xx - t2 * tt) % n, (ax * ey + ay * ex - bx * cy - by * cx + s * tt) % n
    if (det_x, det_y) != (1, 0):
        raise ValueError(f"determinant {QuadInt(a.d, det_x, det_y)} is not 1 in R_{n}")
    return ResidueMatrix(a.d, n, min(xy, tuple(-v % n for v in xy)))


def residue_identity(d: int, n: int) -> ResidueMatrix:
    return residue_matrix(Mat2.identity(d), n)


def phi_n(M: PslElement, n: int) -> ResidueMatrix:
    """Entrywise reduction modulo (n), projectively normalized."""
    return residue_matrix(M.rep, n)


def in_gamma_n(M: PslElement, n: int) -> bool:
    """Membership in the principal congruence subgroup of level n."""
    return phi_n(M, n).is_identity()


def reduce_level(m: ResidueMatrix, n2: int) -> ResidueMatrix:
    """Push a level-n residue matrix down to level n2 (n2 must divide n)."""
    if m.n % n2 != 0:
        raise ValueError(f"{n2} does not divide level {m.n}")
    return residue_matrix(m.rep, n2)


def group_closure(gens: Iterable[ResidueMatrix], cap: int = 10**6) -> frozenset[ResidueMatrix]:
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
    queue = [identity]
    while queue:
        current = queue.pop(0)
        for g in gens:
            nxt = current * g
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(f"closure exceeded cap {cap}")
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def enumerate_psl2(d: int, n: int) -> frozenset[ResidueMatrix]:
    """All determinant-1 matrices over R_n up to sign, by exhaustive scan
    of the (n^2)^4 coordinate tuples.  Intended for small n (2 or 4)."""
    ring = [QuadInt(d, s, t) for s in range(n) for t in range(n)]
    if len(ring) ** 4 > 2 * 10**7:
        raise ClosureCapExceeded(f"scan of ({n}^2)^4 tuples is too large")
    # index i stands for the residue with coordinates (s, t) = divmod(i, n)
    index = lambda e: (e.x % n) * n + e.y % n
    mul = [[index(a * b) for b in ring] for a in ring]
    found: set[ResidueMatrix] = set()
    size = len(ring)
    for i11 in range(size):
        for i22 in range(size):
            target = index(ring[mul[i11][i22]] - 1)  # a12*a21 = a11*a22 - 1 gives det 1
            for i12 in range(size):
                row = mul[i12]
                for i21 in range(size):
                    if row[i21] == target:
                        m = Mat2(ring[i11], ring[i12], ring[i21], ring[i22])
                        found.add(residue_matrix(m, n))
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


def in_gamma8(M: PslElement) -> bool:
    """Membership in the figure-eight group: the group contains the level-4
    principal congruence subgroup, so membership only depends on the level-4
    image."""
    if M.d != 3:
        raise ValueError(f"figure-eight membership requires d=3, got d={M.d}")
    return phi_n(M, 4) in gamma8_level4_image()
