import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchicert import congruence
from bianchicert.congruence import (ResidueMatrix, enumerate_psl2, gamma8_generators,
                                    gamma8_level4_image,
                                    gamma8_prime_extra_generator,
                                    group_closure, in_gamma8,
                                    phi_n, reduce_level, residue_identity,
                                    residue_matrix)
from bianchicert.psl2 import Mat2, PslElement
from bianchicert.quadint import QuadInt

from oracles import adjugate, determinant, identity, parse_psl, reduced
from test_psl2 import random_psl

MU = parse_psl("[[1,1],[0,1]]", 3)


class TestPhiN:
    def test_identity(self):
        assert phi_n(PslElement(identity(3)), 4).is_identity()

    def test_mu_fourth_power(self):
        assert phi_n(MU ** 4, 4).is_identity()
        assert not phi_n(MU, 4).is_identity()

    def test_homomorphism(self):
        rng = random.Random(41)
        for _ in range(300):
            d = rng.choice((1, 2, 3, 7))
            n = rng.choice((2, 3, 4))
            m1, m2 = random_psl(rng, d), random_psl(rng, d)
            assert phi_n(m1 * m2, n) == phi_n(m1, n) * phi_n(m2, n)

    def test_conjugator_matches_displayed_element(self):
        # the conjugator for any valid slope reduces to the same level-4
        # class as ((1,2;0,1)(1,0;omega,1))^2
        from bianchicert.pipeline import bezout_rt, h_matrix, validate_fig8
        omega = QuadInt.tau(3) - 1
        a = parse_psl("[[1,2],[0,1]]", 3)
        b = PslElement.from_entries(QuadInt.integer(3, 1), QuadInt.integer(3, 0),
                                    omega, QuadInt.integer(3, 1))
        g = (a * b) ** 2
        rng = random.Random(42)
        seen = 0
        while seen < 20:
            p = 4 * rng.randint(-30, 30)
            q = rng.randint(-30, 30)
            try:
                params = validate_fig8(p, q)
            except ValueError:
                continue
            seen += 1
            r, t = bezout_rt(3, 4 * params.xi.norm())
            h = PslElement(h_matrix(4, 3, params.xi, r, t))
            assert phi_n(h, 4) == phi_n(g, 4)


def unimodular(d):
    """A product of up to six elementary matrices (1, t; 0, 1) and (1, 0; t, 1)."""
    one, zero = QuadInt.integer(d, 1), QuadInt.integer(d, 0)
    step = st.tuples(st.booleans(), st.integers(-20, 20), st.integers(-20, 20))

    def product(steps):
        m = identity(d)
        for upper, x, y in steps:
            t = QuadInt(d, x, y)
            m = m * (Mat2(one, t, zero, one) if upper else Mat2(one, zero, t, one))
        return m

    return st.lists(step, min_size=1, max_size=6).map(product)


def lift(r: ResidueMatrix) -> Mat2:
    return Mat2(*(QuadInt(r.d, *r.xy[i:i + 2]) for i in range(0, 8, 2)))


def outcome(f):
    """f's value, or the message of the ValueError it raises."""
    try:
        return f()
    except ValueError as exc:
        return str(exc)


class TestResidueMatrix:
    def test_determinant_not_one_rejected(self):
        two, zero = QuadInt.integer(3, 2), QuadInt.integer(3, 0)
        with pytest.raises(ValueError, match="not 1"):
            residue_matrix(Mat2(two, zero, zero, two), 4)  # det 4 = 0 mod 4
        with pytest.raises(ValueError, match="not 1"):
            residue_matrix(Mat2(two, zero, zero, two), 5)  # det 4 = -1 mod 5

    def test_sign_normal_form(self):
        rng = random.Random(43)
        for _ in range(100):
            m = random_psl(rng, rng.choice((1, 3, 7)))
            n = rng.choice((2, 3, 4, 5))
            plus, minus = phi_n(m, n), phi_n(PslElement(-m.rep), n)
            assert plus == minus and hash(plus) == hash(minus)
            assert all(0 <= c < n for c in plus.xy)
            negated = tuple(-c % n for c in plus.xy)
            assert plus.xy <= negated

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((1, 2, 3, 7, 11)), st.integers(2, 9),
           st.lists(st.integers(-60, 60), min_size=8, max_size=8))
    def test_reduction_matches_ring_arithmetic(self, d, n, xy):
        # oracle: the entries reduced as QuadInts and the determinant by ring operators
        m = Mat2(*(QuadInt(d, xy[i], xy[i + 1]) for i in range(0, 8, 2)))
        det = reduced(determinant(m), n)
        if det != QuadInt.integer(d, 1):
            with pytest.raises(ValueError, match=re.escape(f"determinant {det} is not 1 in R_{n}")):
                residue_matrix(m, n)
            return
        plus, minus = residue_matrix(m, n), residue_matrix(-m, n)
        coords = [tuple(c for e in sign.entries() for c in (reduced(e, n).x, reduced(e, n).y))
                  for sign in (m, -m)]
        assert plus.xy == min(coords)
        assert plus == minus and hash(plus) == hash(minus)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((1, 2, 3, 7, 11)), st.integers(2, 9),
           st.lists(st.integers(-60, 60), min_size=8, max_size=8))
    def test_integer_arithmetic_matches_lifts(self, data, d, n, xy):
        # oracle: residue_matrix of products, adjugates and the matrix itself
        # over O_d, on the Mat2s of QuadInts that lift the reduced coordinates
        a, b = (residue_matrix(data.draw(unimodular(d)), n) for _ in range(2))
        n2 = data.draw(st.sampled_from([k for k in range(2, n + 1) if n % k == 0]))
        assert a * b == residue_matrix(lift(a) * lift(b), n)
        assert a.inv() == residue_matrix(adjugate(lift(a)), n)
        assert reduce_level(a, n2) == residue_matrix(lift(a), n2)
        # an operand of det 1 or not: the constructor raises the error of its lift
        x_lift = Mat2(*(QuadInt(d, xy[i], xy[i + 1]) for i in range(0, 8, 2)))
        x = outcome(lambda: ResidueMatrix(d, n, xy))
        assert x == outcome(lambda: residue_matrix(x_lift, n))
        det = reduced(determinant(x_lift), n)
        if det != QuadInt.integer(d, 1):
            assert x == f"determinant {det} is not 1 in R_{n}"
            return
        for got, oracle in ((lambda: a * x, lambda: lift(a) * lift(x)),
                            (lambda: x * a, lambda: lift(x) * lift(a)),
                            (x.inv, lambda: adjugate(lift(x)))):
            assert got() == residue_matrix(oracle(), n)
        assert reduce_level(x, n2) == residue_matrix(lift(x), n2)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
            residue_matrix(identity(3), 1)

    def test_mixed_levels_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            phi_n(MU, 4) * phi_n(MU, 2)


class TestGammaN:
    def test_mu_levels(self):
        assert phi_n(MU ** 4, 4).is_identity()
        assert not phi_n(MU, 4).is_identity()

    def test_golden_g1_in_gamma4(self):
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        assert phi_n(g1, 4).is_identity()


class TestClosure:
    def test_identity_alone(self):
        group = group_closure([residue_identity(3, 4)])
        assert len(group) == 1

    def test_idempotent(self):
        h8 = gamma8_level4_image()
        again = group_closure(tuple(sorted(h8, key=lambda m: m.xy)))
        assert again == h8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            group_closure([])

    @pytest.mark.parametrize("other", [residue_identity(3, 2), residue_identity(7, 4)],
                             ids=["other-n", "other-d"])
    def test_mixed_rings_rejected(self, other):
        with pytest.raises(ValueError, match="share"):
            group_closure([residue_identity(3, 4), other])

    def test_reduce_level_to_non_divisor(self):
        with pytest.raises(ValueError, match="3 does not divide level 4"):
            reduce_level(residue_identity(3, 4), 3)


class TestEnumerate:
    def test_level2_size(self):
        # regression constant from the exhaustive scan itself
        assert len(enumerate_psl2(3, 2)) == 60

    def test_level4_size(self):
        assert len(enumerate_psl2(3, 4)) == 1920

    def test_identity_present(self):
        assert residue_identity(3, 2) in enumerate_psl2(3, 2)

    def test_closed_under_inverse(self):
        group = enumerate_psl2(3, 2)
        for m in group:
            assert m.inv() in group

    def test_scan_past_the_bound_is_refused_before_it_starts(self, monkeypatch):
        def no_scan(*_args, **_kwargs):
            raise AssertionError("a coordinate tuple was built")

        monkeypatch.setattr(congruence, "product", no_scan)
        with pytest.raises(ValueError, match=r"^scan of 9\^8 coordinate tuples is too large$"):
            enumerate_psl2(3, 9)


def table_scan(d, n):
    """The determinant-1 classes over R_n by the scan of ring indices through
    a multiplication table of QuadInts, each hit built as a Mat2 and reduced."""
    ring = [QuadInt(d, s, t) for s in range(n) for t in range(n)]
    index = lambda e: (e.x % n) * n + e.y % n  # the residue (s, t) = divmod(i, n)
    mul = [[index(a * b) for b in ring] for a in ring]
    found = set()
    for i11, i12, i21, i22 in itertools.product(range(len(ring)), repeat=4):
        if mul[i12][i21] == index(ring[mul[i11][i22]] - 1):  # a12*a21 = a11*a22 - 1
            found.add(residue_matrix(Mat2(ring[i11], ring[i12], ring[i21], ring[i22]), n))
    return frozenset(found)


class TestEnumerateAgainstTableScan:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_same_classes(self, d, n):
        assert enumerate_psl2(d, n) == table_scan(d, n)


class TestFiniteModel:
    def test_squares_of_level2_kernel(self):
        full = enumerate_psl2(3, 4)
        kernel = [m for m in full if reduce_level(m, 2).is_identity()]
        assert len(kernel) == 32
        for m in kernel:
            assert (m * m).is_identity()

    def test_kernel_elementary_abelian(self):
        full = enumerate_psl2(3, 4)
        kernel = [m for m in full if reduce_level(m, 2).is_identity()]
        for a in kernel:
            for b in kernel:
                assert a * b == b * a

    def test_index_twelve(self):
        full = enumerate_psl2(3, 4)
        h8 = gamma8_level4_image()
        assert len(full) == 12 * len(h8)

    def test_overgroup_index_two(self):
        g1, g2 = gamma8_generators()
        g3 = gamma8_prime_extra_generator()
        h8 = gamma8_level4_image()
        h8p = group_closure((phi_n(g1, 4), phi_n(g2, 4), phi_n(g3, 4)))
        assert len(h8p) == 2 * len(h8)
        assert h8 < h8p


def gamma8_oracle(m: PslElement) -> bool:
    """Whether +-M, its entries reduced mod 4 as QuadInts, equals some element
    of the level-4 image coordinate by coordinate, by a scan of the image."""
    signs = [[reduced(e, 4) for e in sign.entries()] for sign in (m.rep, -m.rep)]
    return any(all((e.x, e.y) == r.xy[2 * i:2 * i + 2] for i, e in enumerate(entries))
               for r in gamma8_level4_image() for entries in signs)


G1, G2 = gamma8_generators()
GAMMA8_LETTERS = (G1, G1 ** -1, G2, G2 ** -1)
S = parse_psl("[[0,-1],[1,0]]", 3)  # not in the figure-eight group
PSL_LETTERS = (MU, MU ** -1, parse_psl("[[1,tau],[0,1]]", 3),
               parse_psl("[[1,-tau],[0,1]]", 3), S)


def word_value(letters, indices) -> PslElement:
    value = PslElement(identity(3))
    for i in indices:
        value = value * letters[i]
    return value


class TestGamma8Membership:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, len(GAMMA8_LETTERS) - 1), max_size=12),
           st.lists(st.integers(0, len(PSL_LETTERS) - 1), max_size=12))
    def test_agrees_with_oracle(self, member_word, any_word):
        # a word in g1, g2 is a member, and times S it is not, so both
        # outcomes occur in every example; any word over O_3 may be either
        member = word_value(GAMMA8_LETTERS, member_word)
        cases = ((member, True), (member * S, False),
                 (word_value(PSL_LETTERS, any_word), None))
        for m, expected in cases:
            assert in_gamma8(3, m.rep.xy()) == gamma8_oracle(m)
            assert expected is None or in_gamma8(3, m.rep.xy()) is expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, len(GAMMA8_LETTERS) - 1), max_size=16), unimodular(3))
    def test_agrees_with_residue_image(self, member_word, any_matrix):
        # in_gamma8 reads coordinates mod 4 against both signs of the image;
        # it must agree with the normal-form class phi_n(M, 4) in the image
        member, other = word_value(GAMMA8_LETTERS, member_word), PslElement(any_matrix)
        for m in (member, PslElement(-member.rep), other, PslElement(-other.rep)):
            assert in_gamma8(3, m.rep.xy()) == (phi_n(m, 4) in gamma8_level4_image())
        assert in_gamma8(3, member.rep.xy())

    def test_generators(self):
        for g in gamma8_generators():
            assert in_gamma8(3, g.rep.xy())
            assert in_gamma8(3, (g ** -1).rep.xy())

    def test_conjugator_for_20_7(self):
        h = parse_psl("[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]", 3)
        assert in_gamma8(3, h.rep.xy())

    def test_smoke_total(self):
        # no asserted ground truth; the test pins that the operation is total
        candidate = PslElement.from_entries(
            QuadInt.integer(3, 1), QuadInt.tau(3),
            QuadInt.integer(3, 0), QuadInt.integer(3, 1))
        assert in_gamma8(3, candidate.rep.xy()) in (True, False)

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError, match="^figure-eight membership requires d=3, got d=7$"):
            in_gamma8(7, identity(7).xy())
