import random

import pytest

from bianchicert.congruence import (ClosureCapExceeded,
                                    enumerate_psl2, gamma8_generators,
                                    gamma8_level4_image,
                                    gamma8_prime_extra_generator,
                                    group_closure, in_gamma8, in_gamma_n,
                                    phi_n, reduce_level, residue_identity)
from bianchicert.psl2 import PslElement, parse_psl
from bianchicert.quadint import QuadInt

from test_psl2 import random_psl

MU = parse_psl("[[1,1],[0,1]]", 3)


class TestPhiN:
    def test_identity(self):
        assert phi_n(PslElement.identity(3), 4).is_identity()

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
        from bianchicert.pipeline import bezout_rt, build_h, validate_fig8
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
            h = build_h(4, 3, params.xi, r, t)
            assert phi_n(h, 4) == phi_n(g, 4)


class TestGammaN:
    def test_mu_levels(self):
        assert in_gamma_n(MU ** 4, 4)
        assert not in_gamma_n(MU, 4)

    def test_golden_g1_in_gamma4(self):
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        assert in_gamma_n(g1, 4)


class TestClosure:
    def test_identity_alone(self):
        group = group_closure([residue_identity(3, 4)])
        assert len(group) == 1

    def test_idempotent(self):
        h8 = gamma8_level4_image()
        again = group_closure(tuple(sorted(h8.elements, key=lambda m: m.coords())))
        assert again.elements == h8.elements

    def test_cap(self):
        g1, g2 = gamma8_generators()
        with pytest.raises(ClosureCapExceeded):
            group_closure([phi_n(g1, 4), phi_n(g2, 4)], cap=10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            group_closure([])


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
        for m in group.elements:
            assert m.inv() in group


class TestFiniteModel:
    def test_squares_of_level2_kernel(self):
        full = enumerate_psl2(3, 4)
        kernel = [m for m in full.elements if reduce_level(m, 2).is_identity()]
        assert len(kernel) == 32
        for m in kernel:
            assert (m * m).is_identity()

    def test_kernel_elementary_abelian(self):
        full = enumerate_psl2(3, 4)
        kernel = [m for m in full.elements if reduce_level(m, 2).is_identity()]
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
        assert h8.elements < h8p.elements


class TestGamma8Membership:
    def test_generators(self):
        for g in gamma8_generators():
            assert in_gamma8(g)
            assert in_gamma8(g.inv())

    def test_conjugator_for_20_7(self):
        h = parse_psl("[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]", 3)
        assert in_gamma8(h)

    def test_smoke_total(self):
        # no asserted ground truth; the test pins that the operation is total
        candidate = PslElement.from_entries(
            QuadInt.integer(3, 1), QuadInt.tau(3),
            QuadInt.integer(3, 0), QuadInt.integer(3, 1))
        assert in_gamma8(candidate) in (True, False)

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            in_gamma8(PslElement.identity(7))
