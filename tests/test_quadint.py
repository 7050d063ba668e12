import random
from collections import Counter

import pytest

from bianchicert import quadint
from bianchicert.circles import is_quadratic_nonresidue
from bianchicert.pipeline import (FIG8, GENERAL, construct_series, validate_fig8,
                                  validate_general)
from bianchicert.quadint import QuadInt, ResidueElement, parse_quadint


def qi(text, d):
    return parse_quadint(text, d)


def random_element(rng, d, bound=10**6):
    return QuadInt(d, rng.randint(-bound, bound), rng.randint(-bound, bound))


class TestRingOps:
    def test_omega_squared(self):
        omega = QuadInt.tau(3) - 1
        assert omega * omega == -1 - omega  # omega^2 + omega + 1 = 0

    def test_additive_identity(self):
        a = qi("20+14*sqrt(-3)", 3)
        assert a + QuadInt.integer(3, 0) == a

    def test_multiplicative_identity(self):
        a = qi("20+14*sqrt(-3)", 3)
        assert a * QuadInt.integer(3, 1) == a

    def test_mixed_d_rejected(self):
        with pytest.raises(ValueError):
            QuadInt.tau(3) + QuadInt.tau(7)

    def test_d_must_be_squarefree(self):
        with pytest.raises(ValueError):
            QuadInt.integer(12, 1)
        with pytest.raises(ValueError):
            QuadInt.integer(-3, 1)


class TestValidateOnce:
    @pytest.mark.parametrize("call", [
        lambda: QuadInt(4, 1, 0),
        lambda: QuadInt(12, 0, 1),
        lambda: parse_quadint("1", 18),
        lambda: is_quadratic_nonresidue(2, 9),
    ], ids=["QuadInt-4", "QuadInt-12", "parse_quadint-18", "nonresidue-mod-9"])
    def test_rejected_d_raises_every_time(self, call):
        for _ in range(3):
            with pytest.raises(ValueError):
                call()

    def test_squarefree_runs_once_per_d(self, monkeypatch):
        calls = Counter()
        original = quadint.is_squarefree

        def counting(d):
            calls[d] += 1
            return original(d)

        monkeypatch.setattr(quadint, "is_squarefree", counting)
        quadint._check_d.cache_clear()
        construct_series(FIG8, validate_fig8(20, 7), range(1, 11))
        xi = parse_quadint("1+7*eta", 7)
        construct_series(GENERAL, validate_general(7, xi), range(1, 11))
        assert calls == Counter({3: 1, 7: 1})


class TestConj:
    def test_golden_entry(self):
        assert qi("20+14*sqrt(-3)", 3).conj() == qi("20-14*sqrt(-3)", 3)

    def test_rational_fixed(self):
        assert QuadInt.integer(7, 5).conj() == QuadInt.integer(7, 5)

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(200):
            for d in (1, 2, 3, 7):
                a = random_element(rng, d)
                assert a.conj().conj() == a

    def test_ring_automorphism(self):
        rng = random.Random(2)
        for _ in range(300):
            d = rng.choice((1, 2, 3, 7, 11))
            a, b = random_element(rng, d), random_element(rng, d)
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()


class TestNorm:
    def test_fig8_xi(self):
        # p=20, q=7: p^2 + 12 q^2 = 400 + 588
        assert qi("20+14*sqrt(-3)", 3).norm() == 988

    def test_zero(self):
        assert QuadInt.integer(3, 0).norm() == 0

    def test_d7_eta(self):
        # oracle: expand (1+7*eta)(1+7*conj(eta)) with eta = (1+sqrt(-7))/2
        a = qi("1+7*eta", 7)
        product = a * a.conj()
        assert product.is_rational()
        assert product.rational_value() == 106
        assert a.norm() == 106
        # cross-check the closed form p^2 + p q + 2 q^2 at p=1, q=7
        assert 1 + 7 + 2 * 49 == 106

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(1000):
            d = rng.choice((1, 2, 3, 7, 19))
            a, b = random_element(rng, d, 10**4), random_element(rng, d, 10**4)
            assert (a * b).norm() == a.norm() * b.norm()

    def test_definite(self):
        rng = random.Random(4)
        for _ in range(300):
            d = rng.choice((1, 2, 3, 7))
            a = random_element(rng, d, 50)
            assert (a.norm() == 0) == a.is_zero()
            assert a.norm() >= 0


class TestTrace:
    def test_purely_imaginary(self):
        assert QuadInt.sqrt_minus_d(3).trace() == 0

    def test_rational(self):
        assert QuadInt.integer(3, 7).trace() == 14

    def test_golden_diagonal(self):
        # oracle: twice the rational part
        a = qi("86746012705-5928*sqrt(-3)", 3)
        assert a.trace() == 2 * 86746012705


class TestReduceMod:
    def test_xi_bar_mod_4(self):
        # 4 | p and q = 7 force conj(xi) = 2q = 2 (mod (4))
        a = qi("20-14*sqrt(-3)", 3)
        assert a.reduce_mod(4) == QuadInt.integer(3, 2).reduce_mod(4)

    def test_ideal_membership(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.choice((1, 2, 3, 7))
            n = rng.choice((2, 3, 4, 5))
            a = random_element(rng, d, 10**4)
            assert (a * n).reduce_mod(n).is_zero()

    def test_sqrt_minus_3_shift(self):
        assert qi("-4+1*sqrt(-3)", 3).reduce_mod(4) == QuadInt.sqrt_minus_d(3).reduce_mod(4)

    def test_homomorphism(self):
        rng = random.Random(6)
        for _ in range(300):
            d = rng.choice((1, 2, 3, 7))
            n = rng.choice((2, 4, 5))
            a, b = random_element(rng, d, 10**4), random_element(rng, d, 10**4)
            assert (a * b).reduce_mod(n) == a.reduce_mod(n) * b.reduce_mod(n)
            assert (a + b).reduce_mod(n) == a.reduce_mod(n) + b.reduce_mod(n)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            QuadInt.integer(3, 1).reduce_mod(1)


class TestText:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(400):
            d = rng.choice((1, 2, 3, 7, 11))
            a = random_element(rng, d, 10**8)
            assert parse_quadint(a.render(), d) == a

    def test_half_rendering(self):
        a = qi("1+7*eta", 7)  # = 9/2 + 7/2 sqrt(-7)
        assert a.render() == "9/2+7/2*sqrt(-7)"

    def test_tau_basis_accepted(self):
        assert qi("3+2*tau", 3) == QuadInt(3, 3, 2)
        assert qi("-1*omega", 3) == -(QuadInt.tau(3) - 1)

    def test_wrong_field_rejected(self):
        with pytest.raises(ValueError):
            parse_quadint("1+1*sqrt(-5)", 3)
        with pytest.raises(ValueError):
            parse_quadint("1/2", 2)  # not integral for d=2


class TestResidueRing:
    def test_ring_size(self):
        elements = {ResidueElement(3, 4, s, t) for s in range(4) for t in range(4)}
        assert len(elements) == 16

    def test_one_zero(self):
        one = ResidueElement.one(3, 4)
        zero = ResidueElement.zero(3, 4)
        assert one.is_one() and zero.is_zero()
        assert one * one == one
