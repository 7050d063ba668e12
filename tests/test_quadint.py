import operator
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bianchicert import quadint
from bianchicert.circles import is_quadratic_nonresidue
from bianchicert.pipeline import (FIG8, GENERAL, CompressionWitness, construct_series,
                                  validate_fig8, validate_general, witness_word)
from bianchicert.psl2 import Mat2
from bianchicert.quadint import PRIME_LIMIT, QuadInt, is_prime, is_squarefree, parse_quadint

from oracles import reduced
from test_pipeline import ODD_PRIMES, assert_readers_agree


def qi(text, d):
    return parse_quadint(text, d)


def random_element(rng, d, bound=10**6):
    return QuadInt(d, rng.randint(-bound, bound), rng.randint(-bound, bound))


class TestRingOps:
    def test_omega_squared(self):
        omega = QuadInt.tau(3) - 1
        assert omega * omega == -(1 + omega)  # omega^2 + omega + 1 = 0

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


class TestOperandTypes:
    """An operand of +, - or * is an int or a QuadInt of the same ring; a
    float or a Fraction on either side is a TypeError (no floats, no rationals)."""

    @pytest.mark.parametrize("other", [1.5, Fraction(1, 2), Fraction(3)],
                             ids=["float", "fraction", "integral-fraction"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                             ids=["add", "sub", "mul"])
    def test_foreign_operand_raises(self, op, other):
        a = QuadInt(7, 2, -1)
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)

    def test_int_operands(self):
        a = QuadInt(7, 2, -1)
        assert -a + 1 == QuadInt(7, -1, 1)
        assert a - 1 == QuadInt(7, 1, -1)
        assert 3 * a == a * 3 == QuadInt(7, 6, -3)
        assert sum([a, a]) == QuadInt(7, 4, -2)


# -- oracle: the basis conversions as one d % 4 == 3 branch each --------------

BASIS_DS = (1, 2, 3, 5, 7, 11, 43, 1000003)  # d = 1, 2 and 3 (mod 4)
BASIS_COORD = st.integers(-2**80, 2**80)


def oracle_half_pair(a):
    return (2 * a.x + a.y, a.y) if a.d % 4 == 3 else (2 * a.x, 2 * a.y)


def oracle_from_half_pair(d, b1, b2):
    """(x, y) of (b1 + b2*sqrt(-d))/2, or the ValueError message."""
    if (b1 - b2) % 2 != 0:
        return "half coordinates must have equal parity"
    if d % 4 == 3:
        return ((b1 - b2) // 2, b2)
    if b1 % 2 != 0:
        return f"half-integer coordinates are not in O_{d}"
    return (b1 // 2, b2 // 2)


def oracle_sqrt_minus_d(d):
    return (-1, 2) if d % 4 == 3 else (0, 1)  # sqrt(-d) = 2*tau - 1 or tau


def from_half_pair_outcome(d, b1, b2):
    try:
        a = QuadInt.from_half_pair(d, b1, b2)
    except ValueError as exc:
        return str(exc)
    return (a.x, a.y)


class TestBasisConventions:
    """`_tau_square` decides the basis; every conversion agrees with the
    branch on d % 4 that it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BASIS_DS), BASIS_COORD, BASIS_COORD)
    def test_half_pair_round_trip(self, d, x, y):
        a = QuadInt(d, x, y)
        assert a.half_pair() == oracle_half_pair(a)
        assert QuadInt.from_half_pair(d, *a.half_pair()) == a

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BASIS_DS), BASIS_COORD, BASIS_COORD)
    # both errors, in order: an odd/even pair fails on parity for either basis
    @example(5, 1, 2)
    @example(5, 1, 1)
    @example(7, 1, 2)
    @example(7, -3, 5)
    @example(2, -1, 3)
    def test_from_half_pair_matches_oracle(self, d, b1, b2):
        assert from_half_pair_outcome(d, b1, b2) == oracle_from_half_pair(d, b1, b2)

    @pytest.mark.parametrize("d", BASIS_DS)
    def test_sqrt_minus_d(self, d):
        r = QuadInt.sqrt_minus_d(d)
        assert (r.x, r.y) == oracle_sqrt_minus_d(d)
        assert r * r == QuadInt.integer(d, -d)


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
        quadint._tau_square.cache_clear()
        construct_series(FIG8, validate_fig8(20, 7), range(1, 11))
        xi = parse_quadint("1+7*eta", 7)
        construct_series(GENERAL, validate_general(7, xi), range(1, 11))
        assert calls == Counter({3: 1, 7: 1})


# A014233: the least strong pseudoprime to each of the first k prime bases, k <= 12;
# Miller-Rabin over 13 bases must call each one composite
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461)


class TestIsPrime:
    """Miller-Rabin over the first 13 prime bases against sympy.isprime."""

    def test_small_n(self):
        assert [n for n in range(-3, 30000) if is_prime(n)] == list(sympy.primerange(30000))

    def test_near_the_proven_bound(self):
        window = range(PRIME_LIMIT - 3000, PRIME_LIMIT)
        assert [n for n in window if is_prime(n)] == [n for n in window if sympy.isprime(n)]

    def test_strong_pseudoprimes_are_composite(self):
        assert not any(is_prime(n) for n in STRONG_PSEUDOPRIMES)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(2, 10**7), st.integers(2, PRIME_LIMIT - 1)))
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("n", [PRIME_LIMIT, PRIME_LIMIT + 2, 10**30 + 57])
    def test_past_the_bound_is_refused(self, n):
        with pytest.raises(ValueError, match=f"proven only below {PRIME_LIMIT}$"):
            is_prime(n)

    @pytest.mark.parametrize("d", [10**14 + 31, sympy.prevprime(PRIME_LIMIT)])
    def test_a_large_prime_is_square_free_at_once(self, d):
        start = time.perf_counter()
        assert is_squarefree(d) and QuadInt.sqrt_minus_d(d).norm() == d
        assert time.perf_counter() - start < 0.1  # trial division to sqrt(d) takes seconds


class TestIsSquarefree:
    """Trial division to the cube root of d against sympy.factorint."""

    def test_small_d(self):
        assert [d for d in range(-3, 20000) if is_squarefree(d)] == [
            d for d in range(1, 20000) if all(e == 1 for e in sympy.factorint(d).values())]

    @pytest.mark.parametrize("d, squarefree", [
        (10000019 * 10000079, True), (10000019 ** 2, False), (7 * 10000019 ** 2, False),
        (2 * 10000019 * 10000079, True), (4 * 10000019 * 10000079, False)])
    def test_composite_of_two_large_primes_at_once(self, d, squarefree):
        start = time.perf_counter()
        assert is_squarefree(d) == squarefree
        assert time.perf_counter() - start < 0.5  # trial division to sqrt(d) takes seconds


class TestKernel:
    """Arithmetic results are plain slotted QuadInts built without revalidating
    d, so QuadInt matrix products validate nothing."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 1000003])
    def test_results_equal_public_construction(self, d):
        a, b = QuadInt(d, 5, -3), QuadInt(d, -2**70, 11)
        results = [a + b, a - b, -a, a * b, a * 7, 7 * a, a + 2, a - 2, a.conj()]
        for r in results:
            assert type(r) is QuadInt
            public = QuadInt(r.d, r.x, r.y)
            assert r == public and hash(r) == hash(public) and repr(r) == repr(public)
            assert not hasattr(r, "__dict__")

    def test_matrix_product_skips_ring_operators_and_validation(self, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(QuadInt, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        m = Mat2(QuadInt(7, 1, 2), QuadInt(7, 3, -1), QuadInt(7, 0, 5), QuadInt(7, -4, 1))
        a, b = m.a11, m.a12
        for name in ("__mul__", "__rmul__", "__post_init__"):
            monkeypatch.setattr(QuadInt, name, counting(name))
        m * m
        assert calls["__post_init__"] == 0
        calls.clear()
        a + b, a - b, -a, a * 3, a.conj()  # results inherit d
        QuadInt(7, 0, 0)  # a public construction validates
        assert calls == Counter({"__mul__": 1, "__post_init__": 1})

    @pytest.mark.parametrize("d", [4, 0])
    def test_public_construction_still_validates(self, d):
        with pytest.raises(ValueError):
            QuadInt(d, 1, 0)


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
        assert product == QuadInt.integer(7, 106)
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
    """The field trace a + conj(a) is the first half coordinate."""

    def test_purely_imaginary(self):
        assert QuadInt.sqrt_minus_d(3).half_pair()[0] == 0

    def test_rational(self):
        assert QuadInt.integer(3, 7).half_pair()[0] == 14

    def test_golden_diagonal(self):
        # oracle: twice the rational part
        a = qi("86746012705-5928*sqrt(-3)", 3)
        assert a.half_pair()[0] == 2 * 86746012705


class TestReduceMod:
    """Congruences mod (n), read on the reduced coordinates."""

    def test_xi_bar_mod_4(self):
        # 4 | p and q = 7 force conj(xi) = 2q = 2 (mod (4))
        a = qi("20-14*sqrt(-3)", 3)
        assert reduced(a, 4) == reduced(QuadInt.integer(3, 2), 4)

    def test_ideal_membership(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.choice((1, 2, 3, 7))
            n = rng.choice((2, 3, 4, 5))
            a = random_element(rng, d, 10**4)
            assert reduced(a * n, n).is_zero()

    def test_sqrt_minus_3_shift(self):
        assert reduced(qi("-4+1*sqrt(-3)", 3), 4) == reduced(QuadInt.sqrt_minus_d(3), 4)

    def test_homomorphism(self):
        rng = random.Random(6)
        for _ in range(300):
            d = rng.choice((1, 2, 3, 7))
            n = rng.choice((2, 4, 5))
            a, b = random_element(rng, d, 10**4), random_element(rng, d, 10**4)
            assert reduced(a * b, n) == reduced(reduced(a, n) * reduced(b, n), n)
            assert reduced(a + b, n) == reduced(reduced(a, n) + reduced(b, n), n)


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


# -- oracle: the Fraction-based parser the integer one replaced ---------------


ORACLE_TERM_RE = re.compile(
    r"([+-]?)"
    r"(?:"
    r"(\d+(?:/2)?)\*(sqrt\(-(\d+)\)|tau|eta|omega)"
    r"|(sqrt\(-(\d+)\)|tau|eta|omega)"
    r"|(\d+(?:/2)?)"
    r")"
)


def _oracle_coeff(tok):
    if tok.endswith("/2"):
        return Fraction(int(tok[:-2]), 2)
    return Fraction(int(tok))


def oracle_parse_quadint(text, d):
    half_case = quadint._tau_square(d)[0] == 1
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element text")
    u = Fraction(0)
    v = Fraction(0)
    pos = 0
    first = True
    while pos < len(s):
        m = ORACLE_TERM_RE.match(s, pos)
        if m is None or (not first and m.group(1) == ""):
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(7) is not None:
            u += sign * _oracle_coeff(m.group(7))
        else:
            coeff = _oracle_coeff(m.group(2)) if m.group(2) else Fraction(1)
            sym = m.group(3) or m.group(5)
            if sym.startswith("sqrt"):
                dd = int(m.group(4) or m.group(6))
                if dd != d:
                    raise ValueError(f"sqrt(-{dd}) does not live in O_{d}")
                v += sign * coeff
            elif sym == "tau":
                if half_case:
                    u += sign * coeff / 2
                    v += sign * coeff / 2
                else:
                    v += sign * coeff
            elif sym == "eta":
                if not half_case:
                    raise ValueError(f"eta = (1+sqrt(-d))/2 is not integral for d={d}")
                u += sign * coeff / 2
                v += sign * coeff / 2
            else:
                if d != 3:
                    raise ValueError("omega is only defined for d=3")
                u -= sign * coeff / 2
                v += sign * coeff / 2
        pos = m.end()
        first = False
    b1, b2 = 2 * u, 2 * v
    if b1.denominator != 1 or b2.denominator != 1:
        raise ValueError(f"{text!r} is not in O_{d}")
    return QuadInt.from_half_pair(d, int(b1), int(b2))


def outcome(parse, text, d):
    """The parsed element, or the ValueError message."""
    try:
        return parse(text, d)
    except ValueError as exc:
        return f"ValueError: {exc}"


PARSE_DS = (1, 2, 3, 5, 7, 11, 43)
NATURAL = st.one_of(st.integers(0, 20), st.integers(0, 2**80))
COEFF = st.one_of(NATURAL.map(str), NATURAL.map(lambda n: f"{n}/2"))


@st.composite
def symbol(draw, d):
    return draw(st.sampled_from((
        f"sqrt(-{d})", f"sqrt(-{draw(st.sampled_from(PARSE_DS))})", "tau", "eta", "omega")))


@st.composite
def element_text(draw):
    """(text, d): a run of terms from the element grammar with up to three
    inserted spaces or stray characters, and now and then a missing sign."""
    d = draw(st.sampled_from(PARSE_DS))
    terms = []
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(("+", "-", "") if i == 0 or draw(st.integers(0, 19)) == 0
                                    else ("+", "-")))
        shape = draw(st.integers(0, 2))
        if shape == 0:
            body = draw(COEFF)
        elif shape == 1:
            body = draw(symbol(d))
        else:
            body = f"{draw(COEFF)}*{draw(symbol(d))}"
        terms.append(sign + body)
    text = "".join(terms)
    stray = st.sampled_from([" "] * 10 + list("*/^()x.+-0"))
    inserts = draw(st.lists(st.tuples(st.integers(0, len(text)), stray), max_size=3))
    for at, ch in sorted(inserts, reverse=True):
        text = text[:at] + ch + text[at:]
    return text, d


class TestIntegerParser:
    """parse_quadint against the Fraction-based oracle it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(element_text())
    def test_same_result_or_same_error(self, case):
        text, d = case
        assert outcome(parse_quadint, text, d) == outcome(oracle_parse_quadint, text, d)

    @pytest.mark.parametrize("d", PARSE_DS)
    def test_edge_cases(self, d):
        for text in ("", " ", "1/2", "3/2+1/2*sqrt(-3)", "1/2+1/2*tau", "1/2*eta",
                     "1/2*omega", "1+-2", "1 2", "2*sqrt(-5)", "+eta", "-omega", "0/2",
                     "1/2+1/2"):
            assert outcome(parse_quadint, text, d) == outcome(oracle_parse_quadint, text, d)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PARSE_DS), st.integers(-2**256, 2**256),
           st.integers(-2**256, 2**256))
    def test_wide_round_trip(self, d, x, y):
        a = QuadInt(d, x, y)
        assert parse_quadint(a.render(), d) == a == oracle_parse_quadint(a.render(), d)



# -- the term grammar before its two number alternatives were merged --------


class OldPatternMatch:
    """A match of ORACLE_TERM_RE with its groups in the merged pattern's
    layout: a bare number is a coefficient without a symbol."""

    def __init__(self, m):
        self.m = m

    def group(self, i):
        return self.m.group(i)

    def end(self):
        return self.m.end()

    def groups(self):
        sign, coeff, sym, dd, bare_sym, bare_dd, number = self.m.groups()
        return sign, coeff or number, sym, dd, bare_sym, bare_dd


class OldTermPattern:
    def match(self, s, pos):
        m = ORACLE_TERM_RE.match(s, pos)
        return None if m is None else OldPatternMatch(m)


def parse_with_old_pattern(text, d):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadint, "_TERM_RE", OldTermPattern())
        return parse_quadint(text, d)


MERGE_DS = (1, 2, 3, 7, 89)
WIDE_COORD = st.one_of(st.integers(-20, 20), st.integers(-2**110, 2**110))


@st.composite
def term_text(draw):
    """(text, d): a canonical rendering, a sum of tau/eta/omega sugar terms,
    or either one with up to three characters inserted, deleted or replaced."""
    d = draw(st.sampled_from(MERGE_DS))
    if draw(st.booleans()):
        text = QuadInt(d, draw(WIDE_COORD), draw(WIDE_COORD)).render()
    else:
        terms = [draw(st.sampled_from(("", "-"))) + draw(COEFF)]
        for _ in range(draw(st.integers(1, 3))):
            sym = draw(st.sampled_from(("tau", "eta", "omega")))
            body = sym if draw(st.booleans()) else f"{draw(COEFF)}*{sym}"
            terms.append(draw(st.sampled_from(("+", "-"))) + body)
        text = "".join(terms)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(list("0123456789*/+-()x") + ["", "/2", "tau", "sqrt(-"]))
        text = text[:at] + new + text[at + draw(st.integers(0, 1)):]
    return text, d


def oracle_render(a):
    """The rendering through half_pair that QuadInt.render replaced."""
    b1, b2 = a.half_pair()

    def coeff(b):
        return str(b // 2) if b % 2 == 0 else f"{b}/2"

    if b2 == 0:
        return coeff(b1)
    return f"{coeff(b1)}{'+' if b2 > 0 else '-'}{coeff(abs(b2))}*sqrt(-{a.d})"


class TestMergedTermPattern:
    """The term grammar reads a number with an optional *symbol in one
    alternative; it accepts the same language as the three-alternative
    pattern, with the same values and errors."""

    @settings(max_examples=400, deadline=None)
    @given(term_text())
    def test_same_result_or_same_error(self, case):
        text, d = case
        assert outcome(parse_quadint, text, d) == outcome(parse_with_old_pattern, text, d)

    @pytest.mark.parametrize("d", MERGE_DS)
    def test_edge_cases(self, d):
        for text in ("12", "12*", "12*tau", "3/2", "3/2*", "3/2*eta", "3/*tau", "1/2/2",
                     "7*omega", "omega", "-tau", "2*sqrt(-89)", "2sqrt(-89)", "1+*tau"):
            assert outcome(parse_quadint, text, d) == outcome(parse_with_old_pattern, text, d)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MERGE_DS + (11, 1000003)), WIDE_COORD, WIDE_COORD)
    def test_render_is_the_half_pair_form(self, d, x, y):
        a = QuadInt(d, x, y)
        assert a.render() == oracle_render(a)


# -- the one match of a record in render's form against the line reader -------


def one_match(text, d):
    """The element that a record's one match reads from text: `from_rendered`
    on the groups of RENDERED, after d's text, or None where the record
    reader defers."""
    m = re.fullmatch(rf"(?P<d>\d+):{quadint.RENDERED}", f"{d}:{text}", re.ASCII)
    try:
        return None if m is None else quadint.from_rendered(d, *m.groups()[1:])
    except ValueError:  # past the digit limit
        return None


def record_with(text, d):
    """The render of a general record over d whose ring elements are all 1,
    with text as its alpha_k: reading checks no parameter, so any values
    make a record."""
    one = QuadInt(d, 1, 0)
    w = CompressionWitness(GENERAL, d, None, None, 2, one, 1, 0, 0, Mat2(one, one, one, one), 1,
                           0, 0, Mat2(one, one, one, one), one, one, witness_word(1, 2))
    return w.render().replace("alpha_k: 1\n", f"alpha_k: {text}\n")


COORD_256 = st.one_of(st.integers(-20, 20), st.integers(-2**256, 2**256))


@st.composite
def near_rendered(draw):
    """(text, d): render() of an element over one of BASIS_DS with one edit: a
    leading +, u as 0/2 or -0, /2 added or dropped on one side, sqrt(-d') of
    another d', or a space inside."""
    d = draw(st.sampled_from(BASIS_DS))
    text = QuadInt(d, draw(COORD_256), draw(COORD_256)).render()
    edit = draw(st.sampled_from(("plus", "zero-half", "minus-zero", "one-half", "other-d",
                                 "space")))
    if edit == "plus":
        return "+" + text, d
    if edit == "zero-half":
        return re.sub(r"^-?\d+(/2)?", "0/2", text), d
    if edit == "minus-zero":
        return re.sub(r"^-?\d+(/2)?", draw(st.sampled_from(("-0", "-0/2"))), text), d
    if edit == "one-half":  # u or v, not the d inside sqrt(-d)
        m = draw(st.sampled_from(list(re.finditer(r"\d+(/2)?(?!\d|/|\))", text))))
        number = m.group()[:-2] if m.group(1) else m.group() + "/2"
        return text[:m.start()] + number + text[m.end():], d
    if edit == "other-d":
        other = draw(st.sampled_from([str(e) for e in BASIS_DS] + [f"0{d}"]))
        return text.replace(f"sqrt(-{d})", f"sqrt(-{other})"), d
    at = draw(st.integers(0, len(text)))
    return text[:at] + " " + text[at:], d


class TestOneMatchReader:
    """A record in render's form is read with one match, whose ring elements
    `from_rendered` reads from the groups of RENDERED; any other record is
    read line by line, its elements by `parse_quadint`.  Placed as alpha_k
    of a record, every element text gets the same record or the same error
    either way."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(BASIS_DS), COORD_256, COORD_256)
    def test_rendered_text_takes_one_match(self, d, x, y):
        a = QuadInt(d, x, y)
        text = a.render()
        assert one_match(text, d) == a == parse_quadint(text, d)
        ((record, line),) = assert_readers_agree(record_with(text, d))
        if d in ODD_PRIMES:  # a record's d is an odd prime
            assert record.alpha_k == a == line.alpha_k
        else:
            assert record is None and line == f"ValueError: d={d} is not a prime >= 3"

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(near_rendered(), term_text(), element_text()))
    def test_same_result_or_same_error(self, case):
        text, d = case
        assert one_match(text, d) in (None, outcome(parse_quadint, text, d))
        assert_readers_agree(record_with(text, d))

    @pytest.mark.parametrize("d", BASIS_DS)
    def test_edge_cases(self, d):
        other = 3 if d != 3 else 7
        for text in ("0", "-0", "+7", "007", "3/2", "4/2", "-0/2", "3/2+1*sqrt(-3)",
                     "3+1/2*sqrt(-3)", "1/2+1/2*sqrt(-3)", "2/2+4/2*sqrt(-1)",
                     "1/2+1/2*sqrt(-7)", f"1+2*sqrt(-0{d})", f"1+2*sqrt(-{other})",
                     f"1 +2*sqrt(-{d})", f"1+2*sqrt(-{d}) ", f"1+2*sqrt(-{d})\n",
                     f"1+-2*sqrt(-{d})", f"1+2*sqrt(-{d})+1", "9" * 5000,
                     f"1+{'9' * 5000}*sqrt(-{d})", f"1+2*sqrt(-{'9' * 5000})",
                     f"{'9' * 5000}+2*sqrt(-{'9' * 4400})"):
            assert one_match(text, d) in (None, outcome(parse_quadint, text, d)), text
            assert_readers_agree(record_with(text, d))

    @pytest.mark.parametrize("text, d", [("1+7*eta", 7), ("34+28*omega", 3), ("3+2*tau", 3),
                                         ("1 + 2*sqrt(-5)", 5), ("+1+2*sqrt(-5)", 5)])
    def test_sugar_is_read_term_by_term(self, text, d):
        assert one_match(text, d) is None
        ((record, line),) = assert_readers_agree(record_with(text, d))
        assert record is None and line.alpha_k == parse_quadint(text, d)

