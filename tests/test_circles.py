import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bianchicert import circles
from bianchicert.circles import (cocompact_certificate, is_quadratic_nonresidue,
                                 smallest_nonresidue, stab_form)
from bianchicert.pipeline import GENERAL, construct_series, validate_general, verify_witness
from bianchicert.psl2 import Mat2, PslElement
from bianchicert.quadint import QuadInt, parse_quadint

from oracles import (CircleTriple, circle_action, circle_at_origin, conj, conj_transpose,
                     discriminant, hermitian_action, identity, parse_psl, primitive_triple,
                     rational_value, ring, stab_pair, transpose)
from test_psl2 import random_psl


def q(text, d=3):
    return parse_quadint(text, d)


def random_circle(rng, d):
    while True:
        B = QuadInt(d, rng.randint(-8, 8), rng.randint(-8, 8))
        a = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        if B.norm() - a * c > 0:
            return primitive_triple(a, B, c)


class TestPrimitiveTriple:
    def test_content_divided(self):
        t = primitive_triple(2, QuadInt.integer(3, 0), -10)
        assert (t.a, t.B, t.c) == (1, QuadInt.integer(3, 0), -5)

    def test_already_primitive(self):
        for D in (1, 5, 216733332353):
            t = primitive_triple(1, QuadInt.integer(3, 0), -D)
            assert (t.a, t.c) == (1, -D)

    def test_omega_content(self):
        # oracle: (3, 3*omega, -6) has odd half-coordinates b1=-3, b2=3,
        # so the content is gcd(3, 3, 3, 6) = 3
        omega = q("1*omega")
        t = primitive_triple(3, 3 * omega, -6)
        assert (t.a, t.B, t.c) == (1, omega, -2)

    def test_idempotent_and_sign(self):
        rng = random.Random(21)
        for _ in range(200):
            d = rng.choice((1, 2, 3, 7))
            t = random_circle(rng, d)
            again = primitive_triple(t.a, t.B, t.c)
            assert again == t
            assert t.a > 0 or (t.a == 0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            primitive_triple(1, QuadInt.integer(3, 0), 1)


class TestDiscriminant:
    def test_origin_circles(self):
        for D in (1, 2, 5, 216733332353):
            assert discriminant(circle_at_origin(3, D)) == D

    def test_unit_circle(self):
        assert discriminant(circle_at_origin(7, 1)) == 1

    def test_omega_triple(self):
        # oracle: |omega|^2 + 2 = 1 + 2
        assert discriminant(primitive_triple(1, q("1*omega"), -2)) == 3


class TestActions:
    def test_identity_fixes(self):
        rng = random.Random(22)
        c = random_circle(rng, 3)
        assert hermitian_action(PslElement(identity(3)), c) == c
        assert circle_action(PslElement(identity(3)), c) == c

    def test_translation_of_unit_circle(self):
        # oracle: substituting z -> z - 1 into |z|^2 = 1 gives
        # |z|^2 - z - conj(z) = 0, i.e. the triple (1, -1, 0)
        t = parse_psl("[[1,1],[0,1]]", 3)
        image = circle_action(t, circle_at_origin(3, 1))
        assert (image.a, image.B, image.c) == (1, QuadInt.integer(3, -1), 0)

    def test_discriminant_invariance(self):
        rng = random.Random(23)
        for _ in range(1000):
            d = rng.choice((1, 2, 3, 7))
            t = random_psl(rng, d)
            c = random_circle(rng, d)
            assert discriminant(circle_action(t, c)) == discriminant(c)
            assert discriminant(hermitian_action(t, c)) == discriminant(c)

    def test_group_action(self):
        rng = random.Random(24)
        for _ in range(100):
            d = rng.choice((2, 3, 7))
            t, u = random_psl(rng, d), random_psl(rng, d)
            c = random_circle(rng, d)
            assert hermitian_action(t * u, c) == hermitian_action(t, hermitian_action(u, c))
            assert circle_action(t * u, c) == circle_action(t, circle_action(u, c))


def loop_signed_triple(a, B, c):
    """The triple sign rule as written before it read psl2's: a > 0, or a = 0
    and the first nonzero of (b1, b2, c) positive."""
    def first_nonzero(*values):
        for v in values:
            if v != 0:
                return v
        return 0
    if a < 0 or (a == 0 and first_nonzero(*B.half_pair(), c) < 0):
        return CircleTriple(-a, -B, -c)
    return CircleTriple(a, B, c)


SIGN_DS = (1, 2, 3, 5, 7)


@st.composite
def raw_triple(draw, d):
    """(a, B, c) with a = 0, B = 0, b1 = 0 or b2 = 0 frequent."""
    a, c = (draw(st.sampled_from((0, 0, 1, -1)) | st.integers(-9, 9)) for _ in range(2))
    kind = draw(st.sampled_from(("zero", "root", "integer", "any")))
    x, y = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    B = {"zero": QuadInt.integer(d, 0), "root": QuadInt.from_half_pair(d, 0, 2) * x,
         "integer": QuadInt.integer(d, x), "any": QuadInt(d, x, y)}[kind]
    return a, B, c


@st.composite
def unimodular_psl(draw, d):
    """A product of elementary matrices, some runs lower triangular only, so
    the image of a line (a = 0) is often a line."""
    one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
    m = identity(d)
    for upper, x, y in draw(st.lists(st.tuples(st.booleans(), st.integers(-3, 3),
                                               st.integers(-3, 3)), max_size=4)):
        t = QuadInt(d, x, y)
        m = m * (Mat2(one, t, zero, one) if upper else Mat2(one, zero, t, one))
    return PslElement(m)


class TestOneSignRule:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(SIGN_DS))
    def test_primitive_triple_matches_loop(self, data, d):
        a, B, c = data.draw(raw_triple(d))
        assume(B.norm() - a * c > 0)
        t = primitive_triple(a, B, c)
        # either sign of the content-divided triple gives t under the old rule
        assert loop_signed_triple(t.a, t.B, t.c) == t == loop_signed_triple(-t.a, -t.B, -t.c)
        # t is +-(a, B, c) / content
        assert t.a * B == a * t.B and t.c * B == c * t.B and t.c * a == c * t.a

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(SIGN_DS))
    def test_actions_match_loop(self, data, d):
        C = CircleTriple(*data.draw(raw_triple(d)))
        T = data.draw(unimodular_psl(d))
        V = PslElement(transpose((T ** -1).rep))  # circle_action is the Hermitian action of V
        for action, M in ((hermitian_action, T), (circle_action, V)):
            m = M.rep * C.matrix() * conj_transpose(M.rep)
            want = loop_signed_triple(rational_value(m.a11), m.a12, rational_value(m.a22))
            assert action(T, C) == want


class TestStabForm:
    def test_identity(self):
        assert stab_form(3, identity(3).xy(), 5)
        alpha, beta = stab_pair(PslElement(identity(3)), 5)
        assert alpha == QuadInt.integer(3, 1) and beta.is_zero()

    def test_golden_g1(self):
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        assert stab_form(3, g1.rep.xy(), 216733332353)
        result = stab_pair(g1, 216733332353)
        assert result is not None
        alpha, beta = result
        assert alpha == q("86746012705-5928*sqrt(-3)")
        assert beta == q("-118560-82992*sqrt(-3)")

    def test_nonpositive_D_refused(self):
        for D in (0, -5):
            with pytest.raises(ValueError, match=f"^D must be a positive integer, got {D}$"):
                stab_form(3, identity(3).xy(), D)

    def test_parabolic_absent(self):
        assert not stab_form(3, parse_psl("[[1,1],[0,1]]", 3).rep.xy(), 5)

    def test_both_signs_tried(self):
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        assert stab_form(3, (-g1.rep).xy(), 216733332353)

    def test_member_fixes_circle(self):
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        D = 216733332353
        assert circle_action(g1, circle_at_origin(3, D)) == circle_at_origin(3, D)

    def test_closed_under_product_and_inverse(self):
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        D = 216733332353
        for m in (g1 * g1, g1 ** -1, g1 * g1 ** -1):
            assert stab_form(3, m.rep.xy(), D)


def object_stab_form(M, D):
    """stab_form as written on objects: conjugates, a product and QuadInt
    equality before the norm equation."""
    m = M.rep
    alpha, beta = m.a11, conj(m.a21)
    if m.a22 == conj(alpha) and m.a12 == beta * D and alpha.norm() - D * beta.norm() == 1:
        return (alpha, beta)
    return None


STAB_DS = (3, 5, 7, 11, 43)


@st.composite
def stab_case(draw):
    """(M, D): a witness g_k of Stab(C_{D_k}) with D = D_k, 1 or a random D;
    or a determinant-1 matrix whose shape fails in exactly one entry:
    (1, D conj(c); c, 1 + D|c|^2) keeps a12 = D conj(a21) but not
    a22 = conj(a11) unless c = 0, and (a, |a|^2 - 1; 1, conj(a)) keeps
    a22 = conj(a11) but not a12 = D conj(a21) unless |a|^2 - 1 = D."""
    d = draw(st.sampled_from(STAB_DS))
    kind = draw(st.sampled_from(("witness", "a12 only", "a22 only", "unimodular")))
    D = draw(st.integers(1, 10 ** 6))
    one = QuadInt.integer(d, 1)
    if kind == "witness":
        xi = QuadInt(d, draw(st.integers(-50, 50)), draw(st.integers(1, 50)))
        assume(xi.norm() % d != 0)
        (w,) = construct_series(GENERAL, validate_general(d, xi), [draw(st.integers(1, 30))])
        M, D = PslElement(w.g_k), draw(st.sampled_from((w.D_k, w.D_k + 1, 1, D)))
    elif kind == "a12 only":
        c = QuadInt(d, draw(st.integers(-40, 40)), draw(st.integers(-40, 40)))
        M = PslElement.from_entries(one, conj(c) * D, c, one + c.norm() * D)
    elif kind == "a22 only":
        a = QuadInt(d, draw(st.integers(-40, 40)), draw(st.integers(-40, 40)))
        M = PslElement.from_entries(a, QuadInt.integer(d, a.norm() - 1), one, conj(a))
    else:
        M, D = draw(unimodular_psl(d)), draw(st.sampled_from((1, D)))
    return M, D


class TestStabFormOnCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(stab_case())
    def test_matches_object_version(self, case):
        M, D = case
        for m in (M, PslElement(-M.rep)):
            assert stab_form(ring(m), m.rep.xy(), D) == (object_stab_form(m, D) is not None)
            assert stab_pair(m, D) == object_stab_form(m, D)

    def test_one_entry_off(self):
        one, c = QuadInt.integer(7, 1), QuadInt(7, 2, -3)
        D = 5
        a12_only = PslElement.from_entries(one, conj(c) * D, c, one + c.norm() * D)
        a = QuadInt(7, 2, 1)
        a22_only = PslElement.from_entries(a, QuadInt.integer(7, a.norm() - 1), one, conj(a))
        for m in (a12_only, a22_only):
            assert not stab_form(7, m.rep.xy(), D) and object_stab_form(m, D) is None
        # with D = |a|^2 - 1 the second shape holds in full
        assert stab_form(7, a22_only.rep.xy(), a.norm() - 1)
        assert stab_pair(a22_only, a.norm() - 1) == (a, one)


class TestResidues:
    def test_two_mod_three(self):
        assert is_quadratic_nonresidue(2, 3)

    def test_perfect_square(self):
        for d in (3, 5, 7, 11, 19):
            assert not is_quadratic_nonresidue(4, d)

    def test_smallest_mod_seven(self):
        # oracle: squares mod 7 are {1, 2, 4}
        assert {x * x % 7 for x in range(1, 7)} == {1, 2, 4}
        assert smallest_nonresidue(7) == 3

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            is_quadratic_nonresidue(2, 4)
        with pytest.raises(ValueError):
            smallest_nonresidue(2)


class TestCocompactCertificate:
    def test_certified(self):
        assert cocompact_certificate(3, 2) is True

    def test_square_not_applicable(self):
        assert cocompact_certificate(3, 4) is False

    def test_composite_d_not_applicable(self):
        assert cocompact_certificate(4, 3) is False

    def test_d7_construction_value(self):
        # D_1 = 3 (mod 7) by construction when x = 3
        assert cocompact_certificate(7, 5759153956) is True

    def test_rejected_d_is_not_certified(self):
        for d in (-7, 1, 2, 9, 15, 49):
            for _ in range(2):  # a rejected d is not remembered; it must not raise either
                assert cocompact_certificate(d, 3) is False


class TestOddPrimeDecidedOnce:
    def test_is_prime_runs_once_per_d(self, monkeypatch):
        calls = Counter()
        original = circles.is_prime

        def counting(n):
            calls[n] += 1
            return original(n)

        monkeypatch.setattr(circles, "is_prime", counting)
        circles.check_odd_prime.cache_clear()
        xi = parse_quadint("1+7*eta", 7)
        for _ in range(3):
            witnesses = construct_series(GENERAL, validate_general(7, xi), range(1, 6))
            assert all(verify_witness(w).ok for w in witnesses)
            assert cocompact_certificate(7, witnesses[0].D_k)
        assert calls == Counter({7: 1})
