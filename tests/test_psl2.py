import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchicert import psl2
from bianchicert.psl2 import (Mat2, PslElement, canonical_sign, det_xy, eval_word, parse_mat2,
                              parse_word, render_word)
from bianchicert.quadint import QuadInt, parse_quadint, tau_square_of

from oracles import (IsometryClass, QuatAlgebra, Quaternion, adjugate, classify, determinant,
                     identity, is_identity, parse_psl, psl_eq, rho, ring, word_value)


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
    result = PslElement(identity(d))
    for _ in range(rng.randint(1, length)):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = g ** -1
        result = result * g
    return result


def det(m):
    """The determinant of a matrix over O_d: `det_xy` on its coordinates."""
    return QuadInt(m.a11.d, *det_xy(*tau_square_of(*m.entries()), m.xy()))


class TestDet:
    def test_identity(self):
        assert det(identity(3)) == QuadInt.integer(3, 1)

    def test_golden_h(self):
        # oracle: -3r - 4|xi|^2 t with r=1317, t=-1 and |xi|^2 = 988
        assert -3 * 1317 - 4 * 988 * (-1) == 1
        h = parse_mat2("[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]", 3)
        assert det(h) == QuadInt.integer(3, 1)

    def test_diagonal_roots(self):
        root = QuadInt.sqrt_minus_d(3)
        zero = QuadInt.integer(3, 0)
        assert det(Mat2(root, zero, zero, root)) == QuadInt.integer(3, -3)

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
            assert psl_eq(m * m ** -1, PslElement(identity(ring(m))))

    def test_zeroth_power(self):
        rng = random.Random(12)
        m = random_psl(rng, 3)
        assert psl_eq(m ** 0, PslElement(identity(3)))

    def test_power_additivity(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_psl(rng, rng.choice((2, 3, 7)))
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            assert psl_eq(m ** (a + b), (m ** a) * (m ** b))

    def test_det_multiplicative(self):
        rng = random.Random(14)
        for _ in range(60):
            m, n = random_psl(rng, 3), random_psl(rng, 3)
            assert det((m * n).rep) == QuadInt.integer(3, 1)
            assert det((m ** -1).rep) == QuadInt.integer(3, 1)


def oracle_pow(m, n):
    """m**n by repeated squaring on raw Mat2s; never calls PslElement.__pow__."""
    if n < 0:
        m, n = adjugate(m), -n
    result = identity(m.a11.d)
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


POWER_DS = (3, 5, 7, 11, 43, 89)  # both classes mod 4
WIDE = 2 ** 80
COORD = st.integers(-10**6, 10**6)
EXPONENT = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-WIDE, WIDE))
SMALL_EXPONENT = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-40, 40))


class TestBinaryPowering:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(POWER_DS), COORD, COORD, EXPONENT)
    def test_translation_power(self, d, x, y, n):
        """A translation power is binary powering too."""
        one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
        sigma = PslElement.from_entries(one, QuadInt(d, x, y), zero, one)
        power, products = power_and_products(sigma, n)
        assert power.rep == oracle_pow(sigma.rep, n)
        assert (products > 0) == (abs(n) > 1)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(POWER_DS), COORD, COORD, EXPONENT)
    def test_negated_unipotent_takes_generic_path(self, d, x, y, n):
        minus_one, zero = QuadInt.integer(d, -1), QuadInt.integer(d, 0)
        g = PslElement.from_entries(minus_one, QuadInt(d, x, y), zero, minus_one)
        power, products = power_and_products(g, n)
        assert power.rep == oracle_pow(g.rep, n)
        assert (products > 0) == (abs(n) > 1)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(POWER_DS), COORD, COORD, SMALL_EXPONENT)
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


KERNEL_DS = (1, 2, 3, 5, 7, 11, 43, 1000003)  # d = 1, 2 and 3 (mod 4)
KERNEL_COORD = st.integers(-WIDE, WIDE)


def half(e):
    """Oracle view of e: (b1, b2) with e = (b1 + b2*sqrt(-d))/2."""
    return (2 * e.x + e.y, e.y) if e.d % 4 == 3 else (2 * e.x, 2 * e.y)


def half_mul(d, p, q):
    """(p1 + p2*r)(q1 + q2*r)/4 with r^2 = -d, as a half pair."""
    (p1, p2), (q1, q2) = p, q
    b1, b2 = p1 * q1 - d * p2 * q2, p1 * q2 + p2 * q1
    assert b1 % 2 == 0 and b2 % 2 == 0
    return (b1 // 2, b2 // 2)


def half_mul_add(d, p, q, r, t, sign=1):
    (a1, a2), (b1, b2) = half_mul(d, p, q), half_mul(d, r, t)
    return (a1 + sign * b1, a2 + sign * b2)


def oracle_product(d, m, n):
    """Row-by-column product of two matrices of half pairs (4-tuples)."""
    a, b, c, e = m
    f, g, h, k = n
    return [half_mul_add(d, a, f, b, h), half_mul_add(d, a, g, b, k),
            half_mul_add(d, c, f, e, h), half_mul_add(d, c, g, e, k)]


def oracle_det(d, m):
    a, b, c, e = m
    return half_mul_add(d, a, e, b, c, -1)


class TestCoordinateKernel:
    """Products, determinants and PslElement acceptance over QuadInt entries
    against plain-int arithmetic on half pairs."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KERNEL_DS), st.lists(KERNEL_COORD, min_size=16, max_size=16))
    def test_product_and_det(self, d, cs):
        entries = [QuadInt(d, x, y) for x, y in zip(cs[::2], cs[1::2])]
        m, n = Mat2(*entries[:4]), Mat2(*entries[4:])
        hm, hn = [half(e) for e in m.entries()], [half(e) for e in n.entries()]
        assert [half(e) for e in (m * n).entries()] == oracle_product(d, hm, hn)
        assert half(det(m)) == oracle_det(d, hm)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KERNEL_DS), st.lists(KERNEL_COORD, min_size=4, max_size=4),
           st.integers(0, 3), st.sampled_from(((0, 0), (1, 0), (-1, 0), (0, 1))))
    def test_psl_acceptance(self, d, cs, i, shift):
        b, c, one = QuadInt(d, cs[0], cs[1]), QuadInt(d, cs[2], cs[3]), QuadInt.integer(d, 1)
        entries = [one + b * c, b, c, one]  # determinant 1, until the shift
        entries[i] = entries[i] + QuadInt(d, *shift)
        if oracle_det(d, [half(e) for e in entries]) == (2, 0):
            assert PslElement(Mat2(*entries)).rep.entries() == tuple(entries)
        else:
            with pytest.raises(ValueError):
                PslElement(Mat2(*entries))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KERNEL_DS), st.lists(KERNEL_COORD, min_size=10, max_size=10))
    def test_product_with_translation(self, d, cs):
        entries = [QuadInt(d, x, y) for x, y in zip(cs[::2], cs[1::2])]
        one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
        m, u = Mat2(*entries[:4]), Mat2(one, entries[4], zero, one)
        hm, hu = [half(e) for e in m.entries()], [half(e) for e in u.entries()]
        right, left = m * u, u * m
        assert [half(e) for e in right.entries()] == oracle_product(d, hm, hu)
        assert [half(e) for e in left.entries()] == oracle_product(d, hu, hm)

    def test_two_rings_raise(self):
        with pytest.raises(ValueError, match="mixed rings"):
            identity(3) * identity(7)
        one3, zero7 = QuadInt.integer(3, 1), QuadInt.integer(7, 0)
        with pytest.raises(ValueError, match="mixed rings"):
            det(Mat2(one3, zero7, zero7, one3))

    def test_other_entry_types_take_ring_operators(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("coordinate kernel called")

        monkeypatch.setattr(psl2, "mul_add", no_kernel)
        ints = Mat2(1, 2, 3, 4)
        assert ints * Mat2(5, 6, 7, 8) == Mat2(19, 22, 43, 50)
        algebra = QuatAlgebra(Fraction(-7), Fraction(3))
        x = Quaternion(algebra, 1, Fraction(1, 2), 2, Fraction(-3, 2))
        y = Quaternion(algebra, Fraction(2, 3), -1, 0, 5)
        assert rho(x) * rho(y) == rho(x * y)
        det = determinant(rho(x))
        assert det.y == 0 and Fraction(det.x, det.den) == x.reduced_norm()


class TestOperandChecks:
    def test_int_entries_rejected(self):
        with pytest.raises(ValueError, match="PslElement entries must be QuadInt"):
            PslElement(Mat2(1, 0, 0, 1))

    def test_entries_from_two_rings_rejected(self):
        one3, zero7 = QuadInt.integer(3, 1), QuadInt.integer(7, 0)
        with pytest.raises(ValueError, match="mixed rings: d=3 vs d=7"):
            PslElement(Mat2(one3, zero7, zero7, one3))

    @pytest.mark.parametrize("text", ["[[1,1],[0,1]]", "[[0,-1],[1,0]]", "[[2,1],[1,1]]"],
                             ids=["translation", "rotation", "hyperbolic"])
    def test_product_over_two_rings_raises(self, text):
        g3, g7 = psl(text, 3), psl(text, 7)
        with pytest.raises(ValueError, match="mixed rings: d=3 vs d=7"):
            g3 * g7
        with pytest.raises(ValueError, match="mixed rings: d=7 vs d=3"):
            g7 * g3
        with pytest.raises(ValueError, match="mixed rings: d=3 vs d=7"):
            psl_eq(g3, g7)


class TestProjectiveEquality:
    def test_negation(self):
        rng = random.Random(15)
        m = random_psl(rng, 3)
        assert psl_eq(m, PslElement(-m.rep))

    def test_distinct(self):
        assert not psl_eq(PslElement(identity(3)), MU)

    def test_equivalence(self):
        rng = random.Random(16)
        for _ in range(50):
            m = random_psl(rng, 7)
            n = random_psl(rng, 7)
            assert psl_eq(m, m)
            assert psl_eq(m, n) == psl_eq(n, m)


def test_matrices_have_no_dict():
    # slotted, like QuadInt: a matrix is its four entries and nothing else
    m = PslElement(identity(3))
    assert not hasattr(m, "__dict__") and not hasattr(m.rep, "__dict__")


class TestIsIdentity:
    def test_both_signs(self):
        assert is_identity(PslElement(identity(7)))
        assert is_identity(PslElement(-PslElement(identity(7)).rep))

    def test_others(self):
        rng = random.Random(20)
        for _ in range(60):
            m = random_psl(rng, rng.choice((1, 2, 3, 7)))
            assert is_identity(m) == psl_eq(m, PslElement(identity(ring(m))))
        assert not is_identity(MU) and not is_identity(ROTATION)


class TestClassify:
    def test_parabolic(self):
        assert classify(MU) is IsometryClass.PARABOLIC

    def test_golden_g1_hyperbolic(self):
        g1 = psl("[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
                 "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]")
        assert g1.trace() == QuadInt.integer(3, 173492025410)
        assert classify(g1) is IsometryClass.HYPERBOLIC

    def test_elliptic(self):
        assert classify(ROTATION) is IsometryClass.ELLIPTIC

    def test_identity(self):
        assert classify(PslElement(identity(3))) is IsometryClass.IDENTITY
        assert classify(PslElement(-PslElement(identity(3)).rep)) is IsometryClass.IDENTITY

    def test_conjugation_invariant(self):
        rng = random.Random(17)
        for _ in range(60):
            d = rng.choice((1, 2, 3, 7))
            m = random_psl(rng, d)
            g = random_psl(rng, d)
            assert classify(g * m * g ** -1) is classify(m)

    def test_sign_symmetric(self):
        rng = random.Random(18)
        for _ in range(60):
            m = random_psl(rng, 3)
            assert classify(PslElement(-m.rep)) is classify(m)

    def test_nonreal_trace_hyperbolic(self):
        root = QuadInt.sqrt_minus_d(2)
        t = PslElement.from_entries(QuadInt.integer(2, 1), root,
                                    QuadInt.integer(2, 0), QuadInt.integer(2, 1))
        s = psl("[[0,-1],[1,0]]", 2)
        g = t * s  # (sqrt(-2), -1; 1, 0), trace sqrt(-2) is non-real
        assert g.trace() == QuadInt(2, 0, 1)
        assert classify(g) is IsometryClass.HYPERBOLIC


GOLDEN_XI = "20+14*sqrt(-3)"
GOLDEN_H = "[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]"


class TestEvalWord:
    def test_single_generator(self):
        assert eval_word(3, q("1"), identity(3).xy(), (1, 0, 0)) == MU.rep.xy()

    def test_displayed_product(self):
        # ((1,2;0,1)(1,0;omega,1))^2 = (sqrt(-3)-4, 2+2 sqrt(-3); -2, sqrt(-3))
        omega = q("1*omega")
        a = psl("[[1,2],[0,1]]")
        b = PslElement.from_entries(QuadInt.integer(3, 1), QuadInt.integer(3, 0),
                                    omega, QuadInt.integer(3, 1))
        expected = psl("[[-4+1*sqrt(-3),2+2*sqrt(-3)],[-2,0+1*sqrt(-3)]]")
        assert psl_eq(a * b * a * b, expected)

    def test_golden_word(self):
        g = word_value(q(GOLDEN_XI), psl(GOLDEN_H), (-14811, 6, -14811))
        expected = psl("[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
                       "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]")
        assert psl_eq(g, expected)


def oracle_witness_word(xi, h, a, b, c):
    """sigma^a h sigma^b h^-1 sigma^c for sigma = (1, xi; 0, 1), as the
    left-to-right product of raw Mat2s, each sigma power by oracle_pow."""
    one, zero = QuadInt.integer(xi.d, 1), QuadInt.integer(xi.d, 0)
    sigma = Mat2(one, xi, zero, one)
    return (oracle_pow(sigma, a) * h.rep * oracle_pow(sigma, b) * adjugate(h.rep)
            * oracle_pow(sigma, c))


class TestEvalWordDifferential:
    """eval_word's closed form is the very matrix that the left-to-right
    product of the five factors gives."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(POWER_DS), st.lists(COORD, min_size=6, max_size=6),
           EXPONENT, EXPONENT, EXPONENT)
    def test_same_matrix(self, d, cs, a, b, c):
        xi, u, v = (QuadInt(d, x, y) for x, y in zip(cs[::2], cs[1::2]))
        one = QuadInt.integer(d, 1)
        h = PslElement.from_entries(one + u * v, u, v, one)
        assert eval_word(d, xi, h.rep.xy(), (a, b, c)) == oracle_witness_word(xi, h, a, b, c).xy()

    def test_witness_shape(self):
        xi, h = q(GOLDEN_XI), psl(GOLDEN_H)
        value = eval_word(3, xi, h.rep.xy(), (-14811, 6, -14811))
        assert value == oracle_witness_word(xi, h, -14811, 6, -14811).xy()


def loop_canonical_sign(m):
    """The sign rule as an entry loop: of m and -m, the one whose first nonzero
    entry has a positive trace, or a zero trace and a positive tau part."""
    for e in m.entries():
        if not e.is_zero():
            key = half(e)[0] if half(e)[0] != 0 else e.y  # the trace, 2x + s*y
            return m if key > 0 else -m
    return m


@st.composite
def sign_entry(draw, d):
    """Zero, a multiple of sqrt(-d) (trace 0), an integer or any element."""
    kind = draw(st.sampled_from(("zero", "root", "integer", "any")))
    x, y = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    if kind == "zero":
        return QuadInt.integer(d, 0)
    if kind == "root":
        return QuadInt.sqrt_minus_d(d) * x
    return QuadInt(d, x, 0 if kind == "integer" else y)


@st.composite
def sign_matrix(draw):
    d = draw(st.sampled_from((1, 2, 3, 5, 7, 11)))
    return Mat2(*(draw(sign_entry(d)) for _ in range(4)))


class TestOneSignRule:
    @settings(max_examples=400, deadline=None)
    @given(sign_matrix())
    def test_canonical_sign_matches_entry_loop(self, m):
        assert canonical_sign(m) == loop_canonical_sign(m)
        assert canonical_sign(-m) == canonical_sign(m) or all(e.is_zero() for e in m.entries())


# The coordinate kernel against the half-pair oracle for entries up to 2^300:
# products, determinants, the PslElement determinant check and eval_word.

OBJECT_DS = (1, 2, 3, 5, 7, 11, 1009)
HUGE_COORD = st.integers(-2 ** 300, 2 ** 300)
HUGE_EXPONENT = st.one_of(st.sampled_from((0, 1, -1, 2, -2)), st.integers(-2 ** 300, 2 ** 300))
MIXED_RINGS = r"^mixed rings: d=\d+ vs d=\d+$"


def huge_element(draw, d):
    return QuadInt(d, draw(HUGE_COORD), draw(HUGE_COORD))


def half_translation(t):
    """(1, t; 0, 1) as half pairs, for the half pair t."""
    return [(2, 0), t, (0, 0), (2, 0)]


class TestObjectLevelDifferential:
    """Products, determinants, the PslElement determinant check and
    eval_word on coordinates against the half-pair oracle, for entries up
    to 2^300."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(OBJECT_DS), HUGE_EXPONENT, HUGE_EXPONENT, HUGE_EXPONENT,
           st.booleans())
    def test_eval_word(self, data, d, a, b, c, unit_corner):
        xi, u, v = (huge_element(data.draw, d) for _ in range(3))
        one = QuadInt.integer(d, 1)
        h = (PslElement.from_entries(one, u, v, one + u * v) if unit_corner
             else PslElement.from_entries(one + u * v, u, v, one))
        value = word_value(xi, h, (a, b, c)).rep
        hx, hh = half(xi), [half(e) for e in h.rep.entries()]
        expected = half_translation((a * hx[0], a * hx[1]))
        for factor in (hh, half_translation((b * hx[0], b * hx[1])),
                       [half(e) for e in adjugate(h.rep).entries()],
                       half_translation((c * hx[0], c * hx[1]))):
            expected = oracle_product(d, expected, factor)
        assert [half(e) for e in value.entries()] == expected

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(OBJECT_DS), st.lists(HUGE_COORD, min_size=16, max_size=16),
           st.sampled_from(("general", "left", "right")))
    def test_product_and_det(self, d, cs, translation):
        entries = [QuadInt(d, x, y) for x, y in zip(cs[::2], cs[1::2])]
        m, o = Mat2(*entries[:4]), Mat2(*entries[4:])
        one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
        if translation == "left":
            m = Mat2(one, m.a12, zero, one)
        elif translation == "right":
            o = Mat2(one, o.a12, zero, one)
        hm, ho = [half(e) for e in m.entries()], [half(e) for e in o.entries()]
        assert [half(e) for e in (m * o).entries()] == oracle_product(d, hm, ho)
        assert half(det(m)) == oracle_det(d, hm) and half(det(o)) == oracle_det(d, ho)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(OBJECT_DS), st.lists(HUGE_COORD, min_size=4, max_size=4),
           st.integers(0, 3), st.sampled_from(((0, 0), (1, 0), (-1, 0), (0, 1), (2, 0))))
    def test_determinant_check(self, d, cs, i, shift):
        b, c, one = QuadInt(d, cs[0], cs[1]), QuadInt(d, cs[2], cs[3]), QuadInt.integer(d, 1)
        entries = [one + b * c, b, c, one]
        entries[i] = entries[i] + QuadInt(d, *shift)
        m = Mat2(*entries)
        if oracle_det(d, [half(e) for e in entries]) == (2, 0):
            assert PslElement(m).rep == m
        else:
            with pytest.raises(ValueError, match="^PslElement requires determinant 1$"):
                PslElement(m)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(OBJECT_DS), min_size=2, max_size=2, unique=True),
           st.lists(HUGE_COORD, min_size=2, max_size=2), st.integers(0, 3))
    def test_two_rings_raise(self, ds, cs, i):
        d, other = ds
        t = QuadInt(d, *cs)
        one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
        entries = [one, t, zero, one]
        entries[i] = QuadInt(other, entries[i].x, entries[i].y)
        mixed = Mat2(*entries)
        u = Mat2(one, t, zero, one)
        for call in (lambda: mixed * u, lambda: u * mixed, lambda: det(mixed),
                     lambda: PslElement(mixed)):
            with pytest.raises(ValueError, match=MIXED_RINGS):
                call()
        one7 = QuadInt.integer(other, 1)
        h7 = PslElement.from_entries(one7, one7, one7, one7 + one7)
        for xi, h in ((t, h7), (QuadInt(other, *cs), PslElement(u))):
            with pytest.raises(ValueError, match=MIXED_RINGS):
                eval_word(ring(h), xi, h.rep.xy(), (3, 1, -2))


class TestEvalWordDeterminant:
    """eval_word's value has determinant 1 for any coordinates of h, of any
    determinant: it is sigma^a T sigma^c with T = 1 + b xi (p; q)(-q, p) for
    h's first column (p; q), and det T = 1 + b xi (-q p + p q) = 1.  So
    eval_word checks no determinant."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(OBJECT_DS), st.lists(HUGE_COORD, min_size=10, max_size=10),
           HUGE_EXPONENT, HUGE_EXPONENT, HUGE_EXPONENT)
    def test_any_h(self, d, cs, a, b, c):
        xi = QuadInt(d, cs[0], cs[1])
        assert det_xy(*tau_square_of(xi), eval_word(d, xi, tuple(cs[2:]), (a, b, c))) == (1, 0)


class TestSerialization:
    def test_canonical_sign(self):
        m = PslElement(-MU.rep)
        assert canonical_sign(m.rep) == MU.rep

    def test_round_trip(self):
        rng = random.Random(19)
        for _ in range(100):
            m = random_psl(rng, rng.choice((2, 3, 7)))
            assert psl_eq(parse_psl(m.render(), ring(m)), m)

    def test_word_round_trip(self):
        word = (("sigma", -14811), ("h", 1), ("sigma", 6), ("h", -1), ("sigma", -14811))
        assert parse_word(render_word(word)) == word

    @pytest.mark.parametrize("text", ["sigma", "sigma^", "^3", "sigma^1 h"])
    def test_malformed_word_term(self, text):
        with pytest.raises(ValueError, match="cannot parse word term"):
            parse_word(text)
