import operator
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from bianchicert.circles import stab_form
from bianchicert.psl2 import PslElement
from bianchicert.quadint import QuadInt

from oracles import (QuadRat, QuatAlgebra, Quaternion, conj, determinant, identity, in_order,
                     order_unit_to_stab, psl_eq, rho)


def alg(a, b):
    return QuatAlgebra(Fraction(a), Fraction(b))


def random_quaternion(rng, algebra, bound=30):
    return Quaternion(algebra, *(Fraction(rng.randint(-bound, bound),
                                          rng.choice((1, 2, 3))) for _ in range(4)))


class TestMultiplication:
    def test_defining_relations(self):
        A = alg(-3, 5)
        i, j, k = A.i(), A.j(), A.k()
        assert i * j == k
        assert j * i == -k
        assert i * i == A.one() * Fraction(-3)
        assert j * j == A.one() * Fraction(5)

    def test_unit(self):
        A = alg(-7, 2)
        rng = random.Random(31)
        x = random_quaternion(rng, A)
        assert x * A.one() == x

    def test_conj_antiautomorphism(self):
        rng = random.Random(32)
        A = alg(-3, 11)
        for _ in range(200):
            x, y = random_quaternion(rng, A), random_quaternion(rng, A)
            assert (x * y).conj() == y.conj() * x.conj()

    def test_algebra_mismatch(self):
        with pytest.raises(ValueError):
            alg(-3, 2).i() * alg(-3, 5).i()


class TestNormTrace:
    def test_one(self):
        A = alg(-3, 2)
        assert A.one().reduced_norm() == 1
        assert A.one().reduced_trace() == 2

    def test_one_plus_i(self):
        # oracle: (1+i)(1 - i) = 1 - i^2 = 1 + 3
        A = alg(-3, 2)
        x = A.one() + A.i()
        prod = x * x.conj()
        assert prod == A.one() * Fraction(4)
        assert x.reduced_norm() == 4

    def test_defining_product_is_the_oracle(self):
        rng = random.Random(33)
        for _ in range(300):
            A = alg(rng.choice((-1, -2, -3, -7)), rng.randint(1, 20))
            x = random_quaternion(rng, A)
            prod = x * x.conj()
            assert prod.x1 == prod.x2 == prod.x3 == 0
            assert prod.x0 == x.reduced_norm()
            s = x + x.conj()
            assert s.x1 == s.x2 == s.x3 == 0
            assert s.x0 == x.reduced_trace()

    def test_norm_multiplicative(self):
        rng = random.Random(34)
        A = alg(-7, 3)
        for _ in range(300):
            x, y = random_quaternion(rng, A), random_quaternion(rng, A)
            assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()


class TestEmbedding:
    def test_identity(self):
        A = alg(-3, 2)
        m = rho(A.one())
        assert m.a11.to_quadint() == QuadInt.integer(3, 1)
        assert m.a12.is_zero() and m.a21.is_zero()

    def test_i_diagonal(self):
        A = alg(-3, 2)
        m = rho(A.i())
        assert m.a11.to_quadint() == QuadInt.from_half_pair(3, 0, 2)
        assert m.a22.to_quadint() == -QuadInt.from_half_pair(3, 0, 2)

    def test_trace_and_norm_correspondence(self):
        rng = random.Random(35)
        for _ in range(1000):
            A = alg(rng.choice((-1, -2, -3, -7, -11)), rng.randint(1, 30))
            x = random_quaternion(rng, A)
            m = rho(x)
            assert m.trace().trace() / 2 == x.reduced_trace()  # field trace of a rational is 2x
            det = determinant(m)
            assert det.y == 0 and Fraction(det.x, det.den) == x.reduced_norm()

    def test_ring_homomorphism(self):
        rng = random.Random(36)
        A = alg(-3, 7)
        for _ in range(300):
            x, y = random_quaternion(rng, A), random_quaternion(rng, A)
            mx, my = rho(x), rho(y)
            mxy = rho(x * y)
            assert mx * my == mxy
            s = rho(x + y)
            assert s.a11 == mx.a11 + my.a11 and s.a12 == mx.a12 + my.a12
            assert s.a21 == mx.a21 + my.a21 and s.a22 == mx.a22 + my.a22

    def test_requires_imaginary_quadratic(self):
        with pytest.raises(ValueError):
            rho(alg(2, 3).one())
        with pytest.raises(ValueError):
            rho(alg(-12, 3).one())


class TestOrder:
    def test_one_in_order(self):
        assert in_order(alg(-3, 2).one(), 3)

    def test_half_parity_d3(self):
        A = alg(-3, 2)
        half_half = Quaternion(A, Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert in_order(half_half, 3)
        assert not in_order(Quaternion(A, Fraction(1, 2), 0, 0, 0), 3)

    def test_integers_required_d2(self):
        A = alg(-2, 5)
        assert not in_order(Quaternion(A, 0, Fraction(1, 2), 0, 0), 2)
        assert in_order(Quaternion(A, 3, -1, 2, 0), 2)

    def test_order_is_a_ring(self):
        rng = random.Random(37)
        for d in (2, 3, 7):
            A = alg(-d, 5)
            for _ in range(100):
                def member():
                    while True:
                        x = Quaternion(A, *(Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
                                            for _ in range(4)))
                        if in_order(x, d):
                            return x
                x, y = member(), member()
                assert in_order(x * y, d)
                assert in_order(x + y, d)


class TestOrderUnitsToStabilizer:
    def test_one_maps_to_identity(self):
        m = order_unit_to_stab(alg(-3, 2).one(), 3, 2)
        assert psl_eq(m, PslElement(identity(3)))

    def test_bounded_search(self):
        # oracle: exhaustive scan of order elements with doubled coordinates
        # in [-6, 6] solving n(x) = 1; every solution must land in
        # stabilizer form at the same D
        for d, D in ((3, 2), (7, 3), (2, 5)):
            A = alg(-d, D)
            halves = d % 4 == 3
            found = 0
            span = range(-6, 7) if halves else range(-3, 4)
            for u0, u1, u2, u3 in product(span, repeat=4):
                if halves:
                    if (u0 - u1) % 2 or (u2 - u3) % 2:
                        continue
                    x = Quaternion(A, Fraction(u0, 2), Fraction(u1, 2),
                                   Fraction(u2, 2), Fraction(u3, 2))
                else:
                    x = Quaternion(A, u0, u1, u2, u3)
                if x.reduced_norm() != 1:
                    continue
                found += 1
                m = order_unit_to_stab(x, d, D)
                assert stab_form(d, m.rep.xy(), D)
            assert found >= 2  # at least +-1

    def test_norm_precondition(self):
        A = alg(-3, 2)
        with pytest.raises(ValueError):
            order_unit_to_stab(A.i(), 3, 2)  # n(i) = 3 != 1


class TestQuadRat:
    def test_lowest_terms(self):
        r = QuadRat.make(3, 2, 4, 6)
        assert (r.x, r.y, r.den) == (1, 2, 3)

    def test_arithmetic_against_quadint(self):
        rng = random.Random(38)
        for _ in range(200):
            d = rng.choice((1, 2, 3, 7))
            a = QuadInt(d, rng.randint(-50, 50), rng.randint(-50, 50))
            b = QuadInt(d, rng.randint(-50, 50), rng.randint(-50, 50))
            ra, rb = QuadRat.from_quadint(a), QuadRat.from_quadint(b)
            assert (ra * rb).to_quadint() == a * b
            assert (ra + rb).to_quadint() == a + b
            assert ra.conj().to_quadint() == conj(a)
            assert ra.norm() == a.norm()

    def test_operands_share_one_ring(self):
        a, b = QuadRat.make(7, 3, 1, 2), QuadRat.make(7, 1, -4, 3)
        assert a - b == QuadRat.make(7, 7, 11, 6)
        other = QuadRat.make(3, 3, 1, 2)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="mixed rings"):
                op(a, other)


def two_branch_from_sqrt_parts(d, u, v):
    """u + v*sqrt(-d) as a QuadRat, with tau = (1 + sqrt(-d))/2 for d = 3 (mod 4)."""
    u, v = Fraction(u), Fraction(v)
    xq, yq = (u - v, 2 * v) if d % 4 == 3 else (u, v)
    den = lcm(xq.denominator, yq.denominator)
    return QuadRat.make(d, int(xq * den), int(yq * den), den)


def two_branch_in_order(x, d):
    """Integer coordinates for d = 1, 2 (mod 4); half-integers with
    x0 = x1, x2 = x3 (mod 2) for d = 3 (mod 4)."""
    coords = (x.x0, x.x1, x.x2, x.x3)
    if d % 4 == 3:
        doubled = [2 * c for c in coords]
        if any(c.denominator != 1 for c in doubled):
            return False
        u0, u1, u2, u3 = (int(c) for c in doubled)
        return (u0 - u1) % 2 == 0 and (u2 - u3) % 2 == 0
    return all(c.denominator == 1 for c in coords)


class TestBasisFormulas:
    """The basis conversions read quadint's rule; they agree with the
    formulas that spelled out both classes of d mod 4."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 11, 43])
    def test_agree_with_two_branch_formulas(self, d):
        rng = random.Random(d)
        algebra = alg(-d, 5)
        seen = set()
        for _ in range(400):
            x = random_quaternion(rng, algebra)  # denominators 1, 2 and 3
            for u, v in ((x.x0, x.x1), (x.x2, x.x3)):
                assert QuadRat.from_sqrt_parts(d, u, v) == two_branch_from_sqrt_parts(d, u, v)
            member = in_order(x, d)
            assert member == two_branch_in_order(x, d)
            seen.add(member)
        assert seen == {True, False}
