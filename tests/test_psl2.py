import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchicert.psl2 import (IsometryClass, Mat2, PslElement, canonical_sign,
                              eval_word, parse_mat2, parse_psl, parse_word,
                              render_word)
from bianchicert.quadint import QuadInt, parse_quadint


def psl(text, d=3):
    return parse_psl(text, d)


def q(text, d=3):
    return parse_quadint(text, d)


MU = psl("[[1,1],[0,1]]")
ROTATION = psl("[[0,-1],[1,0]]")


def random_psl(rng, d, length=6):
    """Random short word in three determinant-1 generators of PSL2(O_d)."""
    gens = [
        PslElement.from_entries(QuadInt.integer(d, 1), QuadInt.integer(d, 1),
                                QuadInt.integer(d, 0), QuadInt.integer(d, 1)),
        PslElement.from_entries(QuadInt.integer(d, 1), QuadInt.tau(d),
                                QuadInt.integer(d, 0), QuadInt.integer(d, 1)),
        PslElement.from_entries(QuadInt.integer(d, 0), QuadInt.integer(d, -1),
                                QuadInt.integer(d, 1), QuadInt.integer(d, 0)),
    ]
    result = PslElement.identity(d)
    for _ in range(rng.randint(1, length)):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = g.inv()
        result = result * g
    return result


class TestDet:
    def test_identity(self):
        assert Mat2.identity(3).det() == QuadInt.integer(3, 1)

    def test_golden_h(self):
        # oracle: -3r - 4|xi|^2 t with r=1317, t=-1 and |xi|^2 = 988
        assert -3 * 1317 - 4 * 988 * (-1) == 1
        h = parse_mat2("[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]", 3)
        assert h.det() == QuadInt.integer(3, 1)

    def test_diagonal_roots(self):
        root = QuadInt.sqrt_minus_d(3)
        zero = QuadInt.integer(3, 0)
        assert Mat2(root, zero, zero, root).det() == QuadInt.integer(3, -3)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            psl("[[1,0],[0,2]]")


class TestGroupOps:
    def test_parabolic_power(self):
        xi = q("20+14*sqrt(-3)")
        sigma = PslElement.from_entries(QuadInt.integer(3, 1), xi,
                                        QuadInt.integer(3, 0), QuadInt.integer(3, 1))
        assert (sigma ** 6).rep.a12 == 6 * xi

    def test_inverse(self):
        rng = random.Random(11)
        for _ in range(100):
            m = random_psl(rng, rng.choice((1, 2, 3, 7)))
            assert (m * m.inv()).psl_eq(PslElement.identity(m.d))

    def test_zeroth_power(self):
        rng = random.Random(12)
        m = random_psl(rng, 3)
        assert (m ** 0).psl_eq(PslElement.identity(3))

    def test_power_additivity(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_psl(rng, rng.choice((2, 3, 7)))
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            assert (m ** (a + b)).psl_eq((m ** a) * (m ** b))

    def test_det_multiplicative(self):
        rng = random.Random(14)
        for _ in range(60):
            m, n = random_psl(rng, 3), random_psl(rng, 3)
            assert (m * n).rep.det() == QuadInt.integer(3, 1)
            assert m.inv().rep.det() == QuadInt.integer(3, 1)


def oracle_pow(m, n):
    """m**n by repeated squaring on raw Mat2s; never calls PslElement.__pow__."""
    if n < 0:
        m, n = m.adjugate(), -n
    result = Mat2.identity(m.a11.d)
    while n:
        if n & 1:
            result = result * m
        m = m * m
        n >>= 1
    return result


def power_and_products(g, n):
    """(g ** n, number of Mat2 products it took)."""
    calls = 0
    original = Mat2.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    Mat2.__mul__ = counting
    try:
        return g ** n, calls
    finally:
        Mat2.__mul__ = original


FAST_PATH_DS = (3, 5, 7, 11, 43, 89)  # both classes mod 4
WIDE = 2 ** 80
COORD = st.integers(-10**6, 10**6)
EXPONENT = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-WIDE, WIDE))
SMALL_EXPONENT = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-40, 40))


class TestUnipotentFastPath:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FAST_PATH_DS), COORD, COORD, EXPONENT)
    def test_sigma_power_is_closed_form(self, d, x, y, n):
        one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
        sigma = PslElement.from_entries(one, QuadInt(d, x, y), zero, one)
        power, products = power_and_products(sigma, n)
        assert power.rep == oracle_pow(sigma.rep, n)
        assert products == 0

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FAST_PATH_DS), COORD, COORD, EXPONENT)
    def test_negated_unipotent_takes_generic_path(self, d, x, y, n):
        minus_one, zero = QuadInt.integer(d, -1), QuadInt.integer(d, 0)
        g = PslElement.from_entries(minus_one, QuadInt(d, x, y), zero, minus_one)
        power, products = power_and_products(g, n)
        assert power.rep == oracle_pow(g.rep, n)
        assert (products > 0) == (abs(n) > 1)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FAST_PATH_DS), COORD, COORD, SMALL_EXPONENT)
    def test_non_unipotent_takes_generic_path(self, d, x, y, n):
        one, xi = QuadInt.integer(d, 1), QuadInt(d, x, y)
        h = PslElement.from_entries(one, xi, one, one + xi)
        power, products = power_and_products(h, n)
        assert power.rep == oracle_pow(h.rep, n)
        assert (products > 0) == (abs(n) > 1)

    def test_power_one_costs_no_product(self):
        h = psl("[[2,1],[1,1]]")
        assert power_and_products(h, 1) == (h, 0)
        assert power_and_products(h, -1)[1] == 0


class TestProjectiveEquality:
    def test_negation(self):
        rng = random.Random(15)
        m = random_psl(rng, 3)
        assert m.psl_eq(m.negate())

    def test_distinct(self):
        assert not PslElement.identity(3).psl_eq(MU)

    def test_equivalence(self):
        rng = random.Random(16)
        for _ in range(50):
            m = random_psl(rng, 7)
            n = random_psl(rng, 7)
            assert m.psl_eq(m)
            assert m.psl_eq(n) == n.psl_eq(m)


class TestClassify:
    def test_parabolic(self):
        assert MU.classify() is IsometryClass.PARABOLIC

    def test_golden_g1_hyperbolic(self):
        g1 = psl("[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
                 "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]")
        assert g1.trace() == QuadInt.integer(3, 173492025410)
        assert g1.classify() is IsometryClass.HYPERBOLIC

    def test_elliptic(self):
        assert ROTATION.classify() is IsometryClass.ELLIPTIC

    def test_identity(self):
        assert PslElement.identity(3).classify() is IsometryClass.IDENTITY
        assert PslElement.identity(3).negate().classify() is IsometryClass.IDENTITY

    def test_conjugation_invariant(self):
        rng = random.Random(17)
        for _ in range(60):
            d = rng.choice((1, 2, 3, 7))
            m = random_psl(rng, d)
            g = random_psl(rng, d)
            assert (g * m * g.inv()).classify() is m.classify()

    def test_sign_symmetric(self):
        rng = random.Random(18)
        for _ in range(60):
            m = random_psl(rng, 3)
            assert m.negate().classify() is m.classify()

    def test_nonreal_trace_hyperbolic(self):
        root = QuadInt.sqrt_minus_d(2)
        t = PslElement.from_entries(QuadInt.integer(2, 1), root,
                                    QuadInt.integer(2, 0), QuadInt.integer(2, 1))
        s = psl("[[0,-1],[1,0]]", 2)
        g = t * s  # (sqrt(-2), -1; 1, 0), trace sqrt(-2) is non-real
        assert g.trace() == QuadInt(2, 0, 1)
        assert g.classify() is IsometryClass.HYPERBOLIC


class TestEvalWord:
    def test_single_generator(self):
        assert eval_word({"mu": MU}, [("mu", 1)]).psl_eq(MU)

    def test_displayed_product(self):
        # ((1,2;0,1)(1,0;omega,1))^2 = (sqrt(-3)-4, 2+2 sqrt(-3); -2, sqrt(-3))
        omega = q("1*omega")
        a = psl("[[1,2],[0,1]]")
        b = PslElement.from_entries(QuadInt.integer(3, 1), QuadInt.integer(3, 0),
                                    omega, QuadInt.integer(3, 1))
        g = eval_word({"a": a, "b": b}, [("a", 1), ("b", 1), ("a", 1), ("b", 1)])
        expected = psl("[[-4+1*sqrt(-3),2+2*sqrt(-3)],[-2,0+1*sqrt(-3)]]")
        assert g.psl_eq(expected)

    def test_golden_word(self):
        xi = q("20+14*sqrt(-3)")
        sigma = PslElement.from_entries(QuadInt.integer(3, 1), xi,
                                        QuadInt.integer(3, 0), QuadInt.integer(3, 1))
        h = psl("[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]")
        g = eval_word({"sigma": sigma, "h": h},
                      [("sigma", -14811), ("h", 1), ("sigma", 6), ("h", -1), ("sigma", -14811)])
        expected = psl("[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
                       "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]")
        assert g.psl_eq(expected)

    def test_unbound_generator(self):
        with pytest.raises(KeyError):
            eval_word({}, [("mu", 1)])


class TestSerialization:
    def test_canonical_sign(self):
        m = MU.negate()
        assert canonical_sign(m.rep) == MU.rep

    def test_round_trip(self):
        rng = random.Random(19)
        for _ in range(100):
            m = random_psl(rng, rng.choice((2, 3, 7)))
            assert parse_psl(m.render(), m.d).psl_eq(m)

    def test_word_round_trip(self):
        word = (("sigma", -14811), ("h", 1), ("sigma", 6), ("h", -1), ("sigma", -14811))
        assert parse_word(render_word(word)) == word
