import random
import re
import time
from collections import Counter
from unittest import mock
from dataclasses import dataclass
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bianchicert import pipeline
from bianchicert.circles import is_prime
from bianchicert.congruence import SURJECTIVITY_NOTE
from bianchicert.pipeline import (CHECKS, FIELDS, FIG8, GENERAL, LAYOUTS, CompressionWitness,
                                  InvalidParams,
                                  bezout_rt, construct_series,
                                  construct_witness, h_matrix, parse_witnesses,
                                  render_witnesses, run_checks, validate_fig8,
                                  validate_general, verify_witness,
                                  witness_word, xi_fig8)
from bianchicert.psl2 import Mat2, PslElement, canonical_sign, eval_word, render_word
from bianchicert.quadint import PRIME_LIMIT, QuadInt, parse_quadint

from oracles import IsometryClass, circle_action, circle_at_origin, classify, parse_psl

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
    return PslElement(h_matrix(4, 3, params.xi, *bezout_rt(3, 4 * params.xi.norm())))


def fig8_middle_factor(params):
    """h sigma^6 h^-1 by word evaluation."""
    return eval_word(params.xi, fig8_h(params), (0, 6, 0))


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
            one, zero = QuadInt.integer(3, 1), QuadInt.integer(3, 0)
            sigma = PslElement.from_entries(one, params.xi, zero, one)
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

    @pytest.mark.parametrize("xi, x, message", [
        (QuadInt.tau(3), None, r"xi lives over d=3, not d=7"),
        (QuadInt(7, 0, 0), None, r"xi must be nonzero"),
        (1 + 7 * QuadInt.tau(7), 1, r"x=1 is not in \(1, 7\)"),
        (1 + 7 * QuadInt.tau(7), 7, r"x=7 is not in \(1, 7\)"),
    ], ids=["xi-over-another-d", "xi-zero", "x-below-range", "x-at-d"])
    def test_general_rejection_names_the_condition(self, xi, x, message):
        with pytest.raises(InvalidParams, match=message):
            validate_general(7, xi, x)

    def test_divisible_norm_is_named_without_its_value(self):
        # |xi|^2 = 49 * 10^4400 has more digits than str() converts by default
        with pytest.raises(InvalidParams, match=r"^d=7 divides \|xi\|\^2$"):
            validate_general(7, QuadInt(7, 7 * 10 ** 2200, 0))


class TestXiAndBezout:
    def test_xi_4_1(self):
        assert xi_fig8(4, 1).norm() == 16 + 12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
    def test_xi_closed_form(self, p, q):
        # oracle: xi = p + q(4 omega + 2) in the ring arithmetic
        assume(gcd(p, q) == 1)
        omega = QuadInt.tau(3) - 1
        assert xi_fig8(p, q) == p + q * (4 * omega + 2)

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
        rep = canonical_sign(f.rep)
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
        assert tuple(w.checks) == CHECKS
        assert w.assumptions

    def test_k10_golden_values(self):
        w = fig8_witness(k=10)
        assert w.n_k == -94839
        assert w.D_k == 8886502689980

    def test_word_is_canonical(self):
        w = fig8_witness(k=2)
        assert w.word == witness_word(w.n_k, 6)

    # fig8 at d = 3; general mode with xi = 1 + d*tau at the other d: the
    # oracle's Moebius action stands behind stab_form's verdict
    @pytest.mark.parametrize("d, k", [(3, 3)] + [(d, k) for d in (5, 7, 11, 19) for k in (1, 2)])
    def test_g_k_fixes_its_circle(self, d, k):
        w = (fig8_witness(k=k) if d == 3
             else construct_witness(GENERAL, validate_general(d, 1 + d * QuadInt.tau(d)), k))
        g = PslElement(w.g_k)
        c = circle_at_origin(d, w.D_k)
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
        assert tuple(w.checks) == GENERAL_CHECKS
        assert not w.assumptions

    def test_general_word_reproduces_g(self):
        eta = QuadInt.tau(7)
        params = validate_general(7, 1 + 7 * eta)
        w = construct_witness(GENERAL, params, 2)
        r, t = bezout_rt(7, 106)
        h = PslElement(h_matrix(1, 7, params.xi, r, t))
        assert w.word == witness_word(w.n_k, 14)
        g = eval_word(params.xi, h, (w.n_k, 14, w.n_k))
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
                assert verify_witness(w).ok


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

    def test_comment_line_ends_a_record(self):
        lines = fig8_witness(k=1).render().splitlines()
        assert lines[5].startswith("norm_xi: ")
        text = "\n".join(lines[:5] + ["# a note"] + lines[5:]) + "\n"
        with pytest.raises(ValueError, match="missing witness key 'norm_xi'"):
            parse_witnesses(text)


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
        bad = w._replace(D_k=w.D_k + 3)
        report = verify_witness(bad)
        assert "field.D_k" in report.failures()
        failed = set(report.failures())
        assert failed & {"check.residue_class", "check.stabilizer_membership",
                         "check.unit_determinant"}

    def test_tampered_word(self):
        w = fig8_witness(k=1)
        bad = w._replace(word=witness_word(w.n_k + 1, 6))
        report = verify_witness(bad)
        assert "check.normal_closure_word" in report.failures()

    def test_invalid_params_reported(self):
        w = fig8_witness(k=1)
        bad = w._replace(p=12)
        report = verify_witness(bad)
        assert report.results == {"params": False}


# the general-wide-operands benchmark anchor: d = 7, xi = 999983 + 999979 tau
WIDE_PARAMS = validate_general(7, QuadInt(7, 999983, 999979))


class TestWordCost:
    """Constructing, rendering, parsing and verifying the honest witness takes
    no Mat2 or PslElement product, no Mat2 determinant, no inverse and no
    power: the matrix work runs on coordinates.  Each evaluated word builds
    one PslElement, and no check negates a matrix to compare up to sign."""

    @pytest.mark.parametrize("params, k", [(validate_fig8(20, 7), 1), (WIDE_PARAMS, 999997)],
                             ids=["fig8-20-7-k1", "wide-anchor"])
    def test_counts(self, params, k, monkeypatch):
        counts, in_word, in_checks = Counter(), Counter(), Counter()
        for cls, name in ((Mat2, "__mul__"), (Mat2, "det"), (Mat2, "__neg__"),
                          (PslElement, "__mul__"), (PslElement, "inv"),
                          (PslElement, "__pow__"), (PslElement, "__post_init__")):
            def counting(*args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(cls, name, counting)

        def counted(function, into):
            def wrapper(*args):
                before = Counter(counts)
                try:
                    return function(*args)
                finally:
                    into.update(counts - before)
            return wrapper

        monkeypatch.setattr(pipeline, "eval_word", counted(eval_word, in_word))
        monkeypatch.setattr(pipeline, "run_checks", counted(run_checks, in_checks))
        w = construct_witness(params.mode, params, k)
        [parsed] = parse_witnesses(render_witnesses([w]))
        assert parsed == w and verify_witness(parsed).ok
        for name in ("Mat2.__mul__", "Mat2.det", "PslElement.__mul__", "PslElement.inv",
                     "PslElement.__pow__"):
            assert counts[name] == 0, name
        assert in_word["PslElement.__post_init__"] == 2  # one word in construct, one in verify
        assert in_checks["Mat2.__neg__"] == 0


def hyperbolic_trace_oracle(record):
    """check.hyperbolic_trace as first stated: the claimed g_k is hyperbolic
    by `classify`, with rational trace of the expected size."""
    g = PslElement(record.g_k)
    m = record.word[2][1]
    expected = 2 - 2 * m * record.n_k * record.norm_xi ** 2
    tr = g.trace()
    return (classify(g) is IsometryClass.HYPERBOLIC and tr.is_rational()
            and abs(tr.rational_value()) == abs(expected))


class TestHyperbolicTrace:
    """Claimed n_k = 0 gives |expected trace| = 2, the trace of +-1 and of a
    parabolic; no pinned record reaches it."""

    @pytest.mark.parametrize("n_k", [None, 0, 1, -1], ids=["honest", "0", "1", "-1"])
    @pytest.mark.parametrize("g_k", [None, "[[1,0],[0,1]]", "[[-1,0],[0,-1]]", "[[1,1],[0,1]]"],
                             ids=["honest", "identity", "minus-identity", "parabolic"])
    def test_matches_classify(self, n_k, g_k):
        w = fig8_witness(k=1)
        claimed = w._replace(n_k=w.n_k if n_k is None else n_k,
                             g_k=w.g_k if g_k is None else parse_psl(g_k, 3).rep)
        got = verify_witness(claimed).results["check.hyperbolic_trace"]
        assert got == hyperbolic_trace_oracle(claimed)
        assert got == (n_k is None and g_k is None)


def edited(text, key, value):
    """text with the `key:` line replaced by `key: value`, or dropped for None."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key}:")]
    if value is not None:
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def inserted_ahead(text, key, line):
    """text with `line` inserted ahead of its first `key:` line."""
    lines = text.splitlines()
    at = next(i for i, old in enumerate(lines) if old.startswith(f"{key}:"))
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


# (key, a second line for it, put ahead of the first); each of these records
# passed verify_witness when the later line silently won
REPEATED_KEYS = {
    "false-g_k": ("g_k", "g_k: [[1,0],[0,1]]"),
    "failing-check": ("check.cocompact", "check.cocompact: fail"),
    "spaced-k": ("k", "k : 1"),
    "assumption": ("assumption", "assumption: another note"),
}


class TestRepeatedKeys:
    @pytest.mark.parametrize("key, line", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys())
    def test_repeated_key_is_malformed(self, key, line):
        text = inserted_ahead(fig8_witness(k=1).render(), key, line)
        with pytest.raises(ValueError, match=re.escape(f"repeated witness key {key!r}")):
            parse_witnesses(text)


class TestVerifyIsTotal:
    """Malformed records get a failing report naming the entry at fault."""

    def verify_text(self, text):
        (w,) = parse_witnesses(text)
        return verify_witness(w)

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

    @pytest.mark.parametrize("reshape", [
        lambda word: word.replace(" h^1 ", " h^65536 "),
        lambda word: word.replace(" h^1 ", " h^2 "),
        lambda word: word.replace("h^1", "h^+").replace("h^-1", "h^1").replace("h^+", "h^-1"),
        lambda word: word + " sigma^1",
        lambda word: word.rsplit(" ", 1)[0],
    ], ids=["h^65536", "h^2", "h-exponents-swapped", "sixth-term", "missing-term"])
    def test_word_of_another_shape_is_not_evaluated(self, reshape):
        w = fig8_witness(k=1)
        text = edited(w.render(), "word", reshape(render_word(w.word)))
        start = time.perf_counter()
        report = self.verify_text(text)
        assert time.perf_counter() - start < 0.5
        assert report.failures() == ["field.word"]


def tau_text(a):
    """a as x + y * tau, spaces around the operators: sugar, never rendered."""
    return f"{a.x} {'-' if a.y < 0 else '+'} {abs(a.y)} * tau"


def sugared(w):
    """The p=20, q=7 fig8 record of w with xi as 34+28*omega (which is
    20+14*sqrt(-3)) and alpha_k, beta_k and each entry of h and g_k in tau form."""
    text = w.render()
    assert "xi: 20+14*sqrt(-3)\n" in text
    text = text.replace("xi: 20+14*sqrt(-3)\n", "xi: 34+28*omega\n")
    for key in ("alpha_k", "beta_k"):
        text = edited(text, key, tau_text(getattr(w, key)))
    for key in ("h", "g_k"):
        m = getattr(w, key)
        text = edited(text, key, f"[[{tau_text(m.a11)}, {tau_text(m.a12)}], "
                                 f"[{tau_text(m.a21)}, {tau_text(m.a22)}]]")
    return text


class TestSugarRecord:
    """A record whose ring elements are not in render's form is read line by
    line, and gets the rendered record's value and report."""

    def test_same_record_and_report(self, monkeypatch):
        ws = construct_series(FIG8, validate_fig8(20, 7), range(1, 3))
        taken = Counter()  # how many blocks the one match read, and how many it left
        original = pipeline._read_rendered

        def counting(block):
            record = original(block)
            taken[record is not None] += 1
            return record

        monkeypatch.setattr(pipeline, "_read_rendered", counting)
        assert parse_witnesses(render_witnesses(ws)) == ws
        assert taken == Counter({True: 2})
        taken.clear()
        parsed = parse_witnesses("\n".join(sugared(w) for w in ws))
        assert taken == Counter({False: 2})
        assert parsed == ws
        assert [verify_witness(w).results for w in parsed] == [verify_witness(w).results
                                                                for w in ws]


def parse_outcome(text):
    """parse_witnesses' records of text, or its ValueError message."""
    try:
        return parse_witnesses(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def read_both(text):
    """(each block's (one-match record or None, line reader's record or
    error), parse_witnesses' outcome, its outcome with the line reader alone)."""
    blocks = []
    original = pipeline._read_rendered

    def spy(block):
        record = original(block)
        try:
            blocks.append((record, pipeline._parse_block(block)))
        except ValueError as exc:
            blocks.append((record, f"ValueError: {exc}"))
        return record

    with mock.patch.object(pipeline, "_read_rendered", spy):
        both = parse_outcome(text)
    with mock.patch.object(pipeline, "_read_rendered", lambda block: None):
        lines_only = parse_outcome(text)
    return blocks, both, lines_only


def assert_readers_agree(text):
    """The one match returns the line reader's record or defers, and
    parse_witnesses gives the line reader's records or its error."""
    blocks, both, lines_only = read_both(text)
    assert both == lines_only
    for record, line in blocks:
        assert record is None or record == line
    return blocks


ODD_PRIMES = (3, 5, 7, 11, 43, 1000003)  # d = 1 and 3 (mod 4)
COORD_256 = st.one_of(st.integers(-20, 20), st.integers(-2**256, 2**256))
INT_KEYS = ("d", "p", "q", "x", "norm_xi", "r", "t", "k", "n_k", "D_k")
ELEMENT_KEYS = ("xi", "alpha_k", "beta_k", "h", "g_k")


@st.composite
def rendered_record(draw):
    """A record of either mode with every integer and coordinate up to 2^256
    in size, and now and then a word of another shape: reading checks no
    parameter, so any values make a record."""
    mode = draw(st.sampled_from((FIG8, GENERAL)))
    d = draw(st.sampled_from(ODD_PRIMES))
    element = st.builds(lambda x, y: QuadInt(d, x, y), COORD_256, COORD_256)
    matrix = st.builds(Mat2, element, element, element, element)
    word = st.one_of(st.builds(witness_word, COORD_256, COORD_256),
                     st.lists(st.tuples(st.sampled_from(("sigma", "h")), COORD_256),
                              max_size=6).map(tuple))
    values = {key: draw(COORD_256) for key in INT_KEYS}
    values.update(mode=mode, d=d, word=draw(word),
                  **{key: draw(element) for key in ("xi", "alpha_k", "beta_k")},
                  **{key: draw(matrix) for key in ("h", "g_k")})
    for key in FIELDS.keys() - LAYOUTS[mode].keys():
        values[key] = None
    return CompressionWitness(**values)


def replace_value(lines, key, value):
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key}: "))
    lines[at] = f"{key}: {value}"


@st.composite
def one_edit_record(draw):
    """(record, the lines of its render with one edit): two lines swapped,
    one ring element in tau form, an int as +n, 00n or with a _, sqrt(-0d)
    or sqrt(-d') of another d' in one element, a /2 added or dropped on one
    number or on both of xi, alpha_k or beta_k, a space inside a line, or a
    `#` line put in."""
    w = draw(rendered_record())
    lines = w.render().splitlines()
    edit = draw(st.sampled_from(("swap", "sugar", "int", "zero-d", "other-d", "half",
                                 "halves", "space", "comment")))
    if edit == "swap":
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2,
                             unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "sugar":
        key = draw(st.sampled_from(ELEMENT_KEYS))
        value = getattr(w, key)
        if type(value) is QuadInt:
            replace_value(lines, key, tau_text(value))
        else:
            entries = [str(e) for e in value.entries()]
            at = draw(st.integers(0, 3))
            entries[at] = tau_text(value.entries()[at])
            replace_value(lines, key, "[[{},{}],[{},{}]]".format(*entries))
    elif edit == "int":
        key = draw(st.sampled_from([key for key in INT_KEYS if key in LAYOUTS[w.mode]]))
        text = str(getattr(w, key))
        form = draw(st.sampled_from(("plus", "zeros", "underscore")))
        if form == "plus":
            text = "+" + text
        elif form == "zeros":
            text = "00" + text
        else:
            at = draw(st.integers(1, max(1, len(text) - 1)))
            text = text[:at] + "_" + text[at:]
        replace_value(lines, key, text)
    elif edit in ("zero-d", "other-d", "half", "halves"):
        key = draw(st.sampled_from(ELEMENT_KEYS[:3] if edit == "halves" else ELEMENT_KEYS))
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{key}: "))
        line = lines[at]
        if edit in ("half", "halves"):  # on u or v, not the d inside sqrt(-d)
            spans = [m.span() for m in re.finditer(r"(?<=[-+,\[ ])\d+(/2)?(?!\d|/|\))", line)]
            if edit == "half":
                spans = [draw(st.sampled_from(spans))]
            for start, end in reversed(spans):
                number = line[start:end]
                number = number[:-2] if number.endswith("/2") else number + "/2"
                line = line[:start] + number + line[end:]
            lines[at] = line
        else:
            other = f"0{w.d}" if edit == "zero-d" else str(draw(st.sampled_from(
                [e for e in ODD_PRIMES if e != w.d])))
            lines[at] = line.replace(f"sqrt(-{w.d})", f"sqrt(-{other})", 1)
    elif edit == "space":
        at = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + " " + lines[at][cut:]
    else:
        lines.insert(draw(st.integers(0, len(lines))), "# a stray comment")
    return w, "\n".join(lines) + "\n"


class TestRecordReader:
    """A block that is exactly its mode's layout in render's form is read
    with one match; the line reader reads every other block.  The one match
    returns the line reader's record or defers, so parse_witnesses gives
    every text the same records or the same error as the line reader alone."""

    @settings(max_examples=200, deadline=None)
    @given(rendered_record())
    def test_rendered_record_takes_one_match(self, w):
        blocks = assert_readers_agree(w.render())
        shaped = pipeline._has_witness_shape(w.word)
        assert blocks == [(w if shaped else None, w)]

    @settings(max_examples=400, deadline=None)
    @given(one_edit_record())
    def test_one_edit_reads_as_the_line_reader(self, case):
        _, text = case
        assert_readers_agree(text)

    @pytest.mark.parametrize("mode", (FIG8, GENERAL))
    def test_both_modes_of_benchmark_size_take_one_match(self, mode):
        w = fig8_witness(k=3) if mode == FIG8 else construct_witness(
            GENERAL, validate_general(7, QuadInt(7, 999983, 999979)), 10**6)
        assert assert_readers_agree(w.render()) == [(w, w)]


class TestLongLine:
    """A long matrix line is refused in time linear in its length: neither
    the record pattern nor the matrix pattern backtracks."""

    @pytest.mark.parametrize("key", ("h", "g_k"))
    def test_200_kb_matrix_is_refused_at_once(self, key):
        value = "[[" + ",".join(["1"] * 100_000) + "]]"
        text = re.sub(f"^{key}: .*$", lambda m: f"{key}: {value}", fig8_witness(k=1).render(),
                      count=1, flags=re.M)
        assert len(text) > 200_000
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^cannot parse matrix "):
            parse_witnesses(text)
        assert time.perf_counter() - start < 0.5


# 1000000000100000000002379 is the product of the two primes after 10^12;
# 10^29 + 1 has 30 digits and lies past the proven primality bound
HOSTILE_D = {
    "d-9": (9, "d=9 is not a prime >= 3"),
    "square-free-d-15": (15, "d=15 is not a prime >= 3"),
    "prime-d-10^14+31": (10**14 + 31, "sqrt(-3) does not live in O_100000000000031"),
    "semiprime-25-digits": (1000000000100000000002379,
                            "d=1000000000100000000002379 is not a prime >= 3"),
    "30-digits": (10**29 + 1, f"{10**29 + 1} is too large: primality is proven only "
                              f"below {PRIME_LIMIT}"),
}


class TestRecordD:
    """A record's d is decided an odd prime before any of its elements is read,
    as reading them over O_d of a composite d costs a trial division to sqrt(d)."""

    @pytest.mark.parametrize("d, message", HOSTILE_D.values(), ids=HOSTILE_D.keys())
    def test_hostile_d_is_refused_at_once(self, d, message):
        text = fig8_witness(k=1).render().replace("d: 3\n", f"d: {d}\n")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_witnesses(text)
        assert time.perf_counter() - start < 0.1


FUZZ_RECORDS = {
    "golden": fig8_witness(k=1),
    "general-d7": construct_witness(GENERAL, validate_general(7, 1 + 7 * QuadInt.tau(7)), 2),
}
MEANING = {FIG8: ("mode", "d", "p", "q"), GENERAL: ("mode", "d", "x")}
DERIVED = ("xi", "norm_xi", "r", "t", "k", "n_k", "D_k", "alpha_k", "beta_k", "word")
FUZZ_CHARS = list("0123456789+-*/^:()[],. \n#_") + ["sqrt(-3)", "eta", "h^", "sigma^"]


# (record, edit of its text, the ValueError it raises).  Before the layout
# rule the first eight verified PASS, and a record without p, q or x got a
# parse.<key> FAIL instead of being malformed like one without xi.
LAYOUT_PROBES = {
    "fig8-with-x": ("golden", lambda text: text + "x: 5\n", "unexpected witness line 'x: 5'"),
    "general-with-p-q": ("general-d7", lambda text: text + "p: 20\nq: 7\n",
                         "unexpected witness line 'p: 20'"),
    "fig8-without-assumption": ("golden", lambda text: edited(text, "assumption", None),
                                "missing witness key 'assumption'"),
    "general-with-assumption": ("general-d7",
                                lambda text: text + f"assumption: {SURJECTIVITY_NOTE}\n",
                                "unexpected witness line 'assumption: "),
    "failing-check": ("golden", lambda text: edited(text, "check.closed_form", "fail"),
                      "unexpected witness line 'check.closed_form: fail'"),
    "general-without-cocompact": ("general-d7", lambda text: edited(text, "check.cocompact", None),
                                  "missing witness key 'check.cocompact'"),
    "invented-check": ("golden", lambda text: text + "check.made_up: pass\n",
                       "unexpected witness line 'check.made_up: pass'"),
    "unknown-key": ("golden", lambda text: text + "g_K: [[1,0],[0,1]]\n",
                    "unexpected witness line 'g_K: [[1,0],[0,1]]'"),
    "fig8-without-p": ("golden", lambda text: edited(text, "p", None), "missing witness key 'p'"),
    "fig8-without-q": ("golden", lambda text: edited(text, "q", None), "missing witness key 'q'"),
    "general-without-x": ("general-d7", lambda text: edited(text, "x", None),
                          "missing witness key 'x'"),
}


def params_of(w):
    return validate_fig8(w.p, w.q) if w.mode == FIG8 else validate_general(w.d, w.xi, w.x)


class TestLayout:
    """Each mode's LAYOUTS entry is the one statement of its record's lines."""

    @pytest.mark.parametrize("name, edit, message", LAYOUT_PROBES.values(),
                             ids=LAYOUT_PROBES.keys())
    def test_block_off_layout_is_malformed(self, name, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_witnesses(edit(FUZZ_RECORDS[name].render()))

    @pytest.mark.parametrize("name", sorted(FUZZ_RECORDS))
    def test_checks_run_are_the_trailer(self, name):
        w = FUZZ_RECORDS[name]
        assert tuple(run_checks(params_of(w), w, w)) == tuple(w.checks)

    @pytest.mark.parametrize("name", sorted(FUZZ_RECORDS))
    def test_record_built_in_code_gets_a_report(self, name):
        w = FUZZ_RECORDS[name]
        assert verify_witness(w._replace(mode="fig9")).results == {"params": False}
        for key in LAYOUTS[w.mode].keys() & FIELDS.keys():
            assert verify_witness(w._replace(**{key: None})).results == {"params": False}


def same_meaning(record, honest):
    """Equal on every field verification reads; h and g_k up to global sign."""
    return (all(getattr(record, f) == getattr(honest, f)
                for f in MEANING[honest.mode] + DERIVED)
            and all(getattr(record, f) in (getattr(honest, f), -getattr(honest, f))
                    for f in ("h", "g_k")))


@st.composite
def mutated_record(draw):
    """(honest witness, its text with one to three character-level edits)."""
    name = draw(st.sampled_from(sorted(FUZZ_RECORDS)))
    honest = FUZZ_RECORDS[name]
    text = honest.render()
    for _ in range(draw(st.integers(1, 3))):
        values = [m.span(1) for m in re.finditer(r": (.+)$", text, re.M)]
        if values and draw(st.integers(0, 3)):  # mostly inside a value
            start, end = draw(st.sampled_from(values))
            at = draw(st.integers(start, end - 1))
        else:
            at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        new = draw(st.sampled_from(FUZZ_CHARS)) if edit != "delete" else ""
        text = text[:at] + new + text[at + (edit != "insert"):]
    return honest, text


OTHER_MODE_LINES = {w.mode: [line for other in FUZZ_RECORDS.values() if other.mode != w.mode
                             for line in other.render().splitlines()]
                    for w in FUZZ_RECORDS.values()}
INVENTED_LINES = ("check.made_up: pass", "check.gamma8: pass", "g_K: [[1,0],[0,1]]", "note: 1")


@st.composite
def line_edited_record(draw):
    """(honest witness, its text with one or two whole-line edits: a line
    dropped, duplicated or moved, a line of the other mode's record put in, a
    `pass` flipped to `fail`, or an invented check or unknown key put in)."""
    honest = FUZZ_RECORDS[draw(st.sampled_from(sorted(FUZZ_RECORDS)))]
    lines = honest.render().splitlines()
    for _ in range(draw(st.integers(1, 2))):
        at, to = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("drop", "duplicate", "move", "other-mode", "fail",
                                     "invented")))
        if edit == "drop":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(to, lines[at])
        elif edit == "move":
            lines.insert(to, lines.pop(at))
        elif edit == "other-mode":
            lines.insert(to, draw(st.sampled_from(OTHER_MODE_LINES[honest.mode])))
        elif edit == "fail":
            at = draw(st.sampled_from([i for i, line in enumerate(lines)
                                       if line.endswith(": pass")]))
            lines[at] = lines[at].removesuffix("pass") + "fail"
        else:
            lines.insert(to, draw(st.sampled_from(INVENTED_LINES)))
    return honest, "\n".join(lines) + "\n"


class TestVerifyFuzz:
    """Verification is total on mutated witness text and passes no record
    whose meaning changed."""

    @settings(max_examples=300, deadline=None)
    @given(mutated_record())
    def test_mutated_record(self, case):
        honest, text = case
        try:
            records = parse_witnesses(text)
        except ValueError:  # mapped to exit 2 by `bianchicert verify`
            return
        for record in records:
            if record.mode not in MEANING:
                assert verify_witness(record).results == {"params": False}
                continue
            if verify_witness(record).ok:
                assert same_meaning(record, honest)

    @settings(max_examples=300, deadline=None)
    @given(line_edited_record())
    def test_line_edited_record(self, case):
        honest, text = case
        try:
            records = parse_witnesses(text)
        except ValueError:  # mapped to exit 2 by `bianchicert verify`
            return
        (record,) = records  # a line edit adds no blank line
        # what parses is, up to line order, what render writes for it
        assert sorted(text.splitlines()) == sorted(record.render().splitlines())
        if verify_witness(record).ok:
            assert same_meaning(record, honest)
