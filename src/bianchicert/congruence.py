"""Finite quotients PSL2(O_d/(n)), entrywise reduction, principal
congruence subgroups, finite-group closure from generators, and the
figure-eight group membership test through its level-4 image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .psl2 import PslElement
from .quadint import QuadInt, ResidueElement

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
    of M and -M, the lexicographically smaller coordinate tuple is stored."""

    e11: ResidueElement
    e12: ResidueElement
    e21: ResidueElement
    e22: ResidueElement

    @property
    def d(self) -> int:
        return self.e11.d

    @property
    def n(self) -> int:
        return self.e11.n

    def entries(self) -> tuple[ResidueElement, ...]:
        return (self.e11, self.e12, self.e21, self.e22)

    def coords(self) -> tuple[int, ...]:
        return tuple(c for e in self.entries() for c in (e.s, e.t))

    def is_identity(self) -> bool:
        one = ResidueElement.one(self.d, self.n)
        zero = ResidueElement.zero(self.d, self.n)
        return self.entries() == (one, zero, zero, one) or \
            self.entries() == (-one, zero, zero, -one)

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        return residue_matrix(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def inv(self) -> "ResidueMatrix":
        # adjugate; valid since det = 1 in R_n
        return residue_matrix(self.e22, -self.e12, -self.e21, self.e11)


def residue_matrix(e11: ResidueElement, e12: ResidueElement,
                   e21: ResidueElement, e22: ResidueElement) -> ResidueMatrix:
    det = e11 * e22 - e12 * e21
    if not det.is_one():
        raise ValueError(f"determinant {det} is not 1 in R_{e11.n}")
    plus = (e11, e12, e21, e22)
    minus = tuple(-e for e in plus)
    key = lambda es: tuple(c for e in es for c in (e.s, e.t))
    chosen = plus if key(plus) <= key(minus) else minus
    return ResidueMatrix(*chosen)


def residue_identity(d: int, n: int) -> ResidueMatrix:
    one = ResidueElement.one(d, n)
    zero = ResidueElement.zero(d, n)
    return residue_matrix(one, zero, zero, one)


def phi_n(M: PslElement, n: int) -> ResidueMatrix:
    """Entrywise reduction modulo (n), projectively normalized."""
    m = M.rep
    return residue_matrix(*(e.reduce_mod(n) for e in m.entries()))


def in_gamma_n(M: PslElement, n: int) -> bool:
    """Membership in the principal congruence subgroup of level n."""
    return phi_n(M, n).is_identity()


def reduce_level(m: ResidueMatrix, n2: int) -> ResidueMatrix:
    """Push a level-n residue matrix down to level n2 (n2 must divide n)."""
    if m.n % n2 != 0:
        raise ValueError(f"{n2} does not divide level {m.n}")
    return residue_matrix(*(ResidueElement(m.d, n2, e.s % n2, e.t % n2) for e in m.entries()))


@dataclass(frozen=True)
class FiniteSubgroup:
    """A finite set of residue matrices closed under multiplication."""

    elements: frozenset[ResidueMatrix]
    generators: tuple[ResidueMatrix, ...]

    def __contains__(self, m: ResidueMatrix) -> bool:
        return m in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def group_closure(gens: Iterable[ResidueMatrix], cap: int = 10**6) -> FiniteSubgroup:
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
    return FiniteSubgroup(frozenset(seen), gens)


def enumerate_psl2(d: int, n: int, cap: int = 10**6) -> FiniteSubgroup:
    """All determinant-1 matrices over R_n up to sign, by exhaustive scan
    of the (n^2)^4 coordinate tuples.  Intended for small n (2 or 4)."""
    ring = [ResidueElement(d, n, s, t) for s in range(n) for t in range(n)]
    if len(ring) ** 4 > 2 * 10**7:
        raise ClosureCapExceeded(f"scan of ({n}^2)^4 tuples is too large")
    # multiplication and subtraction tables on ring-element indices
    index = {(e.s, e.t): i for i, e in enumerate(ring)}
    mul = [[index[((a * b).s, (a * b).t)] for b in ring] for a in ring]
    one = index[(1 % n, 0)]
    found: set[ResidueMatrix] = set()
    size = len(ring)
    for i11 in range(size):
        for i22 in range(size):
            prod_diag = mul[i11][i22]
            for i12 in range(size):
                row = mul[i12]
                for i21 in range(size):
                    det = ring[prod_diag] - ring[row[i21]]
                    if det.is_one():
                        m = residue_matrix(ring[i11], ring[i12], ring[i21], ring[i22])
                        if m not in found:
                            if len(found) >= cap:
                                raise ClosureCapExceeded(f"enumeration exceeded cap {cap}")
                            found.add(m)
    return FiniteSubgroup(frozenset(found), ())


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
def gamma8_level4_image() -> FiniteSubgroup:
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
