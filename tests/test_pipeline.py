import random
from dataclasses import dataclass, replace
from math import gcd

import pytest

from bianchicert.circles import circle_action, circle_at_origin, is_prime
from bianchicert.pipeline import (CHECKS, FIG8, GENERAL, InvalidParams,
                                  bezout_rt, build_h, construct_series,
                                  construct_witness, parse_witnesses,
                                  render_witnesses, sigma_from_xi, validate_fig8,
                                  validate_general, verify_witness,
                                  witness_word, xi_fig8)
from bianchicert.psl2 import Mat2, PslElement, eval_word, parse_psl
from bianchicert.quadint import QuadInt, parse_quadint

GENERAL_CHECKS = tuple(name for name in CHECKS if name != "gamma8_membership")


# -- oracles: the d=3 peripheral basis and the fig8 middle factor ------------


@dataclass(frozen=True)
class Slope:
    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise ValueError("slope 0/0 is not a slope")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not primitive")


def delta(alpha, beta):
    """Distance |p q' - p' q| between slopes."""
    return abs(alpha.p * beta.q - beta.p * alpha.q)


def mu():
    one, zero = QuadInt.integer(3, 1), QuadInt.integer(3, 0)
    return PslElement.from_entries(one, one, zero, one)


def lam():
    one, zero = QuadInt.integer(3, 1), QuadInt.integer(3, 0)
    omega = QuadInt.tau(3) - 1
    return PslElement.from_entries(one, 4 * omega + 2, zero, one)


def fig8_middle_closed_form(xi):
    """h sigma^6 h^-1 = (1 - 6n sqrt(-3), -18 xi; -6n conj(xi), 1 + 6n sqrt(-3))
    with n = |xi|^2."""
    n = xi.norm()
    root = QuadInt.sqrt_minus_d(3)
    one = QuadInt.integer(3, 1)
    return PslElement(Mat2(one - 6 * n * root, -18 * xi, -6 * n * xi.conj(), one + 6 * n * root))


def fig8_h(params):
    return build_h(4, 3, params.xi, *bezout_rt(3, 4 * params.xi.norm()))


def fig8_middle_factor(params):
    """h sigma^6 h^-1 by word evaluation."""
    gens = {"h": fig8_h(params), "sigma": sigma_from_xi(params.xi)}
    return eval_word(gens, (("h", 1), ("sigma", 6), ("h", -1)))


def bezout_rt_scan(d, c):
    """Oracle: scan t = 0, -1, 1, -2, 2, ... for the first t with d | 1 + c*t."""
    for magnitude in range(d + 1):
        for t in ((-magnitude, magnitude) if magnitude else (0,)):
            if (1 + c * t) % d == 0:
                return -(1 + c * t) // d, t
    raise AssertionError("no Bezout solution found")


def fig8_witness(p=20, q=7, k=1):
    return construct_witness(FIG8, validate_fig8(p, q), k)


def random_valid_slope(rng, bound=60):
    while True:
        p, q = 4 * rng.randint(-bound, bound), rng.randint(-bound, bound)
        try:
            return validate_fig8(p, q)
        except InvalidParams:
            continue


class TestSlopes:
    def test_delta_examples(self):
        assert delta(Slope(1, 0), Slope(20, 7)) == 7
        assert delta(Slope(2, 3), Slope(3, 5)) == 1
        assert delta(Slope(20, 7), Slope(20, 7)) == 0

    def test_nonprimitive_rejected(self):
        with pytest.raises(ValueError):
            Slope(2, 4)

    def test_sigma_is_mu_p_lambda_q(self):
        rng = random.Random(51)
        for _ in range(30):
            params = random_valid_slope(rng)
            sigma = sigma_from_xi(params.xi)
            direct = (mu() ** params.p) * (lam() ** params.q)
            assert sigma.psl_eq(direct)


class TestValidation:
    def test_fig8_rejections(self):
        with pytest.raises(InvalidParams, match="4 does not divide"):
            validate_fig8(6, 1)
        with pytest.raises(InvalidParams, match="3 divides"):
            validate_fig8(12, 1)
        with pytest.raises(InvalidParams, match="gcd"):
            validate_fig8(8, 2)

    def test_fig8_accepts_golden_slope(self):
        params = validate_fig8(20, 7)
        assert (params.p, params.q) == (20, 7)

    def test_fig8_is_the_level_4_preset(self):
        params = validate_fig8(20, 7)
        assert (params.mode, params.d, params.x, params.level) == (FIG8, 3, 2, 4)
        assert params.xi == xi_fig8(20, 7)
        assert validate_general(3, params.xi, 2).level == 1

    def test_general_rejections(self):
        eta = QuadInt.tau(7)
        with pytest.raises(InvalidParams, match="not a prime"):
            validate_general(4, eta)
        with pytest.raises(InvalidParams, match="divides"):
            validate_general(7, QuadInt(7, -1, 2))  # sqrt(-7), norm 7
        with pytest.raises(InvalidParams, match="residue"):
            validate_general(7, 1 + 7 * eta, x=2)  # 2 = 3^2 mod 7

    def test_general_default_nonresidue(self):
        eta = QuadInt.tau(7)
        assert validate_general(7, 1 + 7 * eta).x == 3


class TestXiAndBezout:
    def test_xi_4_1(self):
        assert xi_fig8(4, 1).norm() == 16 + 12

    def test_bezout_golden(self):
        # -3*1317 - 3952*(-1) = 1 with |xi|^2 = 988
        assert bezout_rt(3, 4 * 988) == (1317, -1)

    def test_bezout_small(self):
        assert bezout_rt(3, 4) == (1, -1)

    def test_bezout_identity(self):
        rng = random.Random(52)
        for _ in range(100):
            d = rng.choice((3, 7, 11))
            c = rng.randint(1, 10**6)
            if c % d == 0:
                continue
            r, t = bezout_rt(d, c)
            assert -d * r - c * t == 1
            assert abs(t) <= d

    def test_bezout_matches_scan(self):
        # every prime 3 <= d < 2000 (fig8 uses d=3, c=4|xi|^2), plus every
        # d < 200 so that even d and the tie |t| = d/2 are covered
        rng = random.Random(2000)
        checked = 0
        for d in range(1, 2000):
            if d >= 200 and not is_prime(d):
                continue
            wide = [rng.randint(1, 10**12) for _ in range(3)]
            for c in [*range(1, 9), d - 1, d + 1, 2 * d + 1, 4 * 988, *wide]:
                if c >= 1 and gcd(d, c) == 1:
                    assert bezout_rt(d, c) == bezout_rt_scan(d, c), (d, c)
                    checked += 1
        assert checked > 4000

    def test_bezout_rejects_bad_input(self):
        for d, c in ((3, 0), (0, 1), (-3, 1), (3, 6)):
            with pytest.raises(ValueError):
                bezout_rt(d, c)


class TestConjugator:
    def test_golden_h(self):
        h = fig8_h(validate_fig8(20, 7))
        assert h.render() == ("[[0+1*sqrt(-3),-80-56*sqrt(-3)],"
                              "[20-14*sqrt(-3),0+1317*sqrt(-3)]]")

    def test_unit_determinant_many(self):
        rng = random.Random(53)
        for _ in range(50):
            h = fig8_h(random_valid_slope(rng))
            assert h.rep.det() == QuadInt.integer(3, 1)


class TestMiddleFactor:
    def test_entries_20_7(self):
        params = validate_fig8(20, 7)
        xi = params.xi
        f = fig8_middle_factor(params)
        rep = f.canonical_rep()
        assert rep.a12 == -18 * xi
        assert rep.a21 == -6 * xi.norm() * xi.conj()
        assert f.trace() == QuadInt.integer(3, 2)

    def test_word_matches_closed_form(self):
        rng = random.Random(54)
        for _ in range(50):
            params = random_valid_slope(rng)
            f = fig8_middle_factor(params)
            assert f.psl_eq(fig8_middle_closed_form(params.xi))


class TestConstructFig8:
    def test_k1_golden_values(self):
        w = fig8_witness(k=1)
        assert (w.r, w.t) == (1317, -1)
        assert w.n_k == -14811
        assert w.D_k == 216733332353
        assert w.alpha_k == parse_quadint("86746012705-5928*sqrt(-3)", 3)
        assert w.beta_k == parse_quadint("-118560-82992*sqrt(-3)", 3)
        g1 = parse_psl(
            "[[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
            "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]", 3)
        assert PslElement(w.g_k).psl_eq(g1)
        assert w.all_checks_pass()
        assert tuple(w.checks) == CHECKS
        assert w.assumptions

    def test_k10_golden_values(self):
        w = fig8_witness(k=10)
        assert w.n_k == -94839
        assert w.D_k == 8886502689980

    def test_word_is_canonical(self):
        w = fig8_witness(k=2)
        assert w.word == witness_word(w.n_k, 6)

    def test_g_k_fixes_its_circle(self):
        w = fig8_witness(k=3)
        g = PslElement(w.g_k)
        c = circle_at_origin(3, w.D_k)
        assert circle_action(g, c) == c

    def test_bad_k(self):
        with pytest.raises(InvalidParams):
            fig8_witness(k=0)


class TestConstructGeneral:
    def test_d7_first_witness(self):
        eta = QuadInt.tau(7)
        params = validate_general(7, 1 + 7 * eta)
        w = construct_witness(GENERAL, params, 1)
        # oracles recomputed by hand: |xi|^2 = 106, n_1 = -7*106*10 + 49
        assert w.norm_xi == 106
        assert w.n_k == -7371
        assert w.D_k == 7371 ** 2 * 106 + 10
        assert w.D_k == 5759153956
        assert w.all_checks_pass()
        assert tuple(w.checks) == GENERAL_CHECKS
        assert not w.assumptions

    def test_general_word_reproduces_g(self):
        eta = QuadInt.tau(7)
        params = validate_general(7, 1 + 7 * eta)
        w = construct_witness(GENERAL, params, 2)
        sigma = sigma_from_xi(params.xi)
        r, t = bezout_rt(7, 106)
        h = build_h(1, 7, params.xi, r, t)
        g = eval_word({"sigma": sigma, "h": h}, w.word)
        assert g.psl_eq(PslElement(w.g_k))

    def test_several_fields(self):
        rng = random.Random(55)
        for d in (3, 7, 11, 19):
            built = 0
            while built < 5:
                xi = QuadInt(d, rng.randint(-20, 20), rng.randint(-20, 20))
                try:
                    params = validate_general(d, xi)
                except InvalidParams:
                    continue
                built += 1
                w = construct_witness(GENERAL, params, rng.randint(1, 6))
                assert w.all_checks_pass()


class TestFig8IsGeneralPreset:
    def test_fig8_equals_general_d3_x2(self):
        # the same witness but for the conjugator (r, t, h): its Bezout
        # modulus and top-right entry carry the level factor 4
        rng = random.Random(56)
        for _ in range(40):
            fig8 = random_valid_slope(rng, bound=2500)
            general = validate_general(3, fig8.xi, 2)
            k = rng.randint(1, 10**6)
            a = construct_witness(FIG8, fig8, k)
            b = construct_witness(GENERAL, general, k)
            for name in ("xi", "norm_xi", "k", "n_k", "D_k", "alpha_k", "beta_k",
                         "g_k", "word"):
                assert getattr(a, name) == getattr(b, name), name
            assert a.h != b.h
            for h in (a.h, b.h):
                assert h.det() == QuadInt.integer(3, 1)

    def test_mode_must_match_params(self):
        with pytest.raises(InvalidParams, match="does not match"):
            construct_witness(GENERAL, validate_fig8(20, 7), 1)
        with pytest.raises(InvalidParams, match="does not match"):
            construct_witness(FIG8, validate_general(3, xi_fig8(20, 7), 2), 1)


class TestSeries:
    def test_monotone(self):
        ws = construct_series(FIG8, validate_fig8(20, 7), range(1, 11))
        ds = [w.D_k for w in ws]
        assert ds == sorted(ds) and len(set(ds)) == 10

    def test_empty_range(self):
        with pytest.raises(InvalidParams):
            construct_series(FIG8, validate_fig8(20, 7), [])


class TestSerialization:
    def test_round_trip(self):
        ws = construct_series(FIG8, validate_fig8(20, 7), range(1, 4))
        ws += construct_series(
            GENERAL, validate_general(7, 1 + 7 * QuadInt.tau(7)), range(1, 3))
        text = render_witnesses(ws)
        back = parse_witnesses(text)
        assert back == ws

    def test_deterministic(self):
        a = render_witnesses([fig8_witness(k=1)])
        b = render_witnesses([fig8_witness(k=1)])
        assert a == b

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + fig8_witness(k=1).render()
        assert len(parse_witnesses(text)) == 1


class TestVerify:
    def test_clean_witness(self):
        report = verify_witness(fig8_witness(k=1))
        assert report.ok and not report.failures()

    def test_tampered_diagonal_digit(self):
        w = fig8_witness(k=1)
        tampered = w.render().replace("86746012705", "86746012706", 1)
        report = verify_witness(parse_witnesses(tampered)[0])
        assert not report.ok
        assert "check.unit_determinant" in report.failures() or \
            "check.closed_form" in report.failures()

    def test_tampered_D_k(self):
        w = fig8_witness(k=1)
        bad = replace(w, D_k=w.D_k + 3)
        report = verify_witness(bad)
        assert "field.D_k" in report.failures()
        failed = set(report.failures())
        assert failed & {"check.residue_class", "check.stabilizer_membership",
                         "check.unit_determinant"}

    def test_tampered_word(self):
        w = fig8_witness(k=1)
        bad = replace(w, word=witness_word(w.n_k + 1, 6))
        report = verify_witness(bad)
        assert "check.normal_closure_word" in report.failures()

    def test_invalid_params_reported(self):
        w = fig8_witness(k=1)
        bad = replace(w, p=12)
        report = verify_witness(bad)
        assert report.results == {"params": False}


def edited(text, key, value):
    """text with the `key:` line replaced by `key: value`, or dropped for None."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key}:")]
    if value is not None:
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


class TestVerifyIsTotal:
    """Malformed records get a failing report naming the entry at fault."""

    def verify_text(self, text):
        (w,) = parse_witnesses(text)
        return verify_witness(w)

    def test_fig8_record_without_p_or_q(self):
        text = fig8_witness(k=1).render()
        assert self.verify_text(edited(text, "p", None)).results == {"parse.p": False}
        assert self.verify_text(edited(text, "q", None)).results == {"parse.q": False}

    def test_general_record_without_x(self):
        w = construct_witness(GENERAL, validate_general(7, 1 + 7 * QuadInt.tau(7)), 1)
        assert self.verify_text(edited(w.render(), "x", None)).results == {"parse.x": False}

    def test_fig8_record_over_another_ring(self):
        text = fig8_witness(k=1).render().replace("sqrt(-3)", "sqrt(-7)")
        assert self.verify_text(edited(text, "d", 7)).results == {"field.d": False}

    def test_unbound_or_empty_word(self):
        text = fig8_witness(k=1).render()
        for word in ("tau^1 h^1 sigma^6 h^-1 tau^1", ""):
            report = self.verify_text(edited(text, "word", word))
            assert report.failures() == ["field.word"]

    def test_non_positive_D_k(self):
        text = fig8_witness(k=1).render()
        for D in (-5, 0):
            report = self.verify_text(edited(text, "D_k", D))
            failed = set(report.failures())
            assert {"field.D_k", "check.stabilizer_membership", "check.cocompact"} <= failed
            assert "field.g_k" not in failed
