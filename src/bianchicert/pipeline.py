"""Constructive engines producing certified compression witnesses.

Two modes share one skeleton.  Figure-eight mode (d=3) starts from a
surgery slope p/q with 4|p, 3 not dividing p, gcd(p,q)=1; general mode
works over any prime d >= 3 from a parabolic translation xi with
d not dividing |xi|^2 and a chosen quadratic non-residue x mod d.

A witness packages (params, r, t, h, k, n_k, D_k, g_k, alpha_k, beta_k),
a generator word certifying g_k lies in the normal closure of sigma, and
a battery of named exactness checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Optional, Sequence

from . import circles, congruence
from .circles import cocompact_certificate, is_prime, is_quadratic_nonresidue, stab_form
from .psl2 import (IsometryClass, Mat2, PslElement, Word, canonical_sign,
                   eval_word, parse_mat2, parse_word, render_mat2, render_word)
from .quadint import QuadInt, parse_quadint

FIG8 = "fig8"
GENERAL = "general"

FIG8_CHECKS = (
    "closed_form", "unit_determinant", "residue_class", "nontrivial",
    "hyperbolic_trace", "stabilizer_membership", "normal_closure_word",
    "gamma8_membership", "cocompact",
)
GENERAL_CHECKS = tuple(c for c in FIG8_CHECKS if c != "gamma8_membership")


class InvalidParams(ValueError):
    """Rejected construction input, with the failed condition named."""


class ConsistencyError(RuntimeError):
    """A witness check failed; the construction guarantees success on
    valid input, so this signals an implementation bug, not bad input."""


# -- slopes -----------------------------------------------------------------


@dataclass(frozen=True)
class Slope:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == 0 and self.q == 0:
            raise ValueError("slope 0/0 is not a slope")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not primitive")


def delta(alpha: Slope, beta: Slope) -> int:
    """Distance |p q' - p' q| between slopes."""
    return abs(alpha.p * beta.q - beta.p * alpha.q)


# -- parameters -------------------------------------------------------------


@dataclass(frozen=True)
class SlopeParams:
    """Validated figure-eight surgery slope: sigma = mu^p lambda^q."""

    p: int
    q: int


def validate_fig8(p: int, q: int) -> SlopeParams:
    if p % 4 != 0:
        raise InvalidParams(f"4 does not divide p={p}")
    if p % 3 == 0:
        raise InvalidParams(f"3 divides p={p}")
    if gcd(p, q) != 1:
        raise InvalidParams(f"gcd(p, q) = {gcd(p, q)} != 1 for p={p}, q={q}")
    return SlopeParams(p, q)


@dataclass(frozen=True)
class GeneralParams:
    """Prime d >= 3, parabolic translation xi with d not dividing |xi|^2,
    and a quadratic non-residue x mod d."""

    d: int
    xi: QuadInt
    x: int


def validate_general(d: int, xi: QuadInt, x: Optional[int] = None) -> GeneralParams:
    if d < 3 or not is_prime(d):
        raise InvalidParams(f"d={d} is not a prime >= 3")
    if xi.d != d:
        raise InvalidParams(f"xi lives over d={xi.d}, not d={d}")
    if xi.is_zero():
        raise InvalidParams("xi must be nonzero")
    if xi.norm() % d == 0:
        raise InvalidParams(f"d={d} divides |xi|^2 = {xi.norm()}")
    if x is None:
        x = circles.smallest_nonresidue(d)
    if not (1 < x < d):
        raise InvalidParams(f"x={x} is not in (1, {d})")
    if not is_quadratic_nonresidue(x, d):
        raise InvalidParams(f"x={x} is a quadratic residue mod {d}")
    return GeneralParams(d, xi, x)


# -- fixed generators (d=3 peripheral basis) --------------------------------


def mu() -> PslElement:
    one = QuadInt.integer(3, 1)
    zero = QuadInt.integer(3, 0)
    return PslElement.from_entries(one, one, zero, one, word=(("mu", 1),))


def lam() -> PslElement:
    one = QuadInt.integer(3, 1)
    zero = QuadInt.integer(3, 0)
    omega = QuadInt.tau(3) - 1
    return PslElement.from_entries(one, 4 * omega + 2, zero, one, word=(("lambda", 1),))


def xi_fig8(params: SlopeParams) -> QuadInt:
    """xi = p + q(4 omega + 2); |xi|^2 = p^2 + 12 q^2."""
    omega = QuadInt.tau(3) - 1
    xi = params.p + params.q * (4 * omega + 2)
    assert xi.norm() == params.p ** 2 + 12 * params.q ** 2
    return xi


def sigma_from_xi(xi: QuadInt) -> PslElement:
    one = QuadInt.integer(xi.d, 1)
    zero = QuadInt.integer(xi.d, 0)
    return PslElement.from_entries(one, xi, zero, one, word=(("sigma", 1),))


# -- the Bezout step and the conjugator h -----------------------------------


def bezout_rt(d: int, c: int) -> tuple[int, int]:
    """Solve -d*r - c*t = 1 with t of minimal |t|, ties broken toward
    negative t; r is then determined."""
    if d < 1 or c < 1:
        raise ValueError(f"d and c must be positive, got d={d}, c={c}")
    if gcd(d, c) != 1:
        raise ValueError(f"gcd({d}, {c}) != 1")
    t = -pow(c, -1, d) % d  # the least t >= 0 with d | 1 + c*t
    if d - t <= t:  # t - d is as short or shorter
        t -= d
    r = -(1 + c * t) // d
    assert -d * r - c * t == 1
    return r, t


def build_h(mode: str, d: int, xi: QuadInt, r: int, t: int) -> PslElement:
    """The conjugator:

        fig8:    (sqrt(-3), 4 xi t; conj(xi), sqrt(-3) r)
        general: (sqrt(-d), xi t;   conj(xi), sqrt(-d) r)
    """
    root = QuadInt.sqrt_minus_d(d)
    top = 4 * xi * t if mode == FIG8 else xi * t
    h = PslElement.from_entries(root, top, xi.conj(), root * r, word=(("h", 1),))
    if mode == FIG8 and not congruence.in_gamma8(h):
        raise ConsistencyError("conjugator fell outside the figure-eight group")
    return h


def middle_exponent(mode: str, d: int) -> int:
    return 6 if mode == FIG8 else 2 * d


def middle_factor(mode: str, h: PslElement, sigma: PslElement) -> PslElement:
    """h sigma^m h^-1 with m = 6 (fig8) or 2d (general), word-evaluated and,
    in fig8 mode, checked against its closed form."""
    d = h.d
    m = middle_exponent(mode, d)
    result = eval_word({"h": h, "sigma": sigma}, (("h", 1), ("sigma", m), ("h", -1)))
    if mode == FIG8:
        xi = sigma.rep.a12
        n = xi.norm()
        root = QuadInt.sqrt_minus_d(3)
        one = QuadInt.integer(3, 1)
        closed = Mat2(one - 6 * n * root, -18 * xi, -6 * n * xi.conj(), one + 6 * n * root)
        if not result.psl_eq(PslElement(closed)):
            raise ConsistencyError("middle factor does not match its closed form")
    return result


# -- witnesses --------------------------------------------------------------


@dataclass(frozen=True)
class CompressionWitness:
    mode: str
    d: int
    p: Optional[int]
    q: Optional[int]
    x: Optional[int]
    xi: QuadInt
    norm_xi: int
    r: int
    t: int
    h: Mat2  # stored matrix; det is re-checked at verification time
    k: int
    n_k: int
    D_k: int
    g_k: Mat2
    alpha_k: QuadInt
    beta_k: QuadInt
    word: Word
    checks: dict[str, bool] = field(default_factory=dict)
    assumptions: tuple[str, ...] = ()

    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def render(self) -> str:
        lines = [f"mode: {self.mode}", f"d: {self.d}"]
        if self.mode == FIG8:
            lines += [f"p: {self.p}", f"q: {self.q}"]
        else:
            lines += [f"x: {self.x}"]
        lines += [
            f"xi: {self.xi}",
            f"norm_xi: {self.norm_xi}",
            f"r: {self.r}",
            f"t: {self.t}",
            f"h: {render_mat2(self.h)}",
            f"k: {self.k}",
            f"n_k: {self.n_k}",
            f"D_k: {self.D_k}",
            f"alpha_k: {self.alpha_k}",
            f"beta_k: {self.beta_k}",
            f"g_k: {render_mat2(self.g_k)}",
            f"word: {render_word(self.word)}",
        ]
        order = FIG8_CHECKS if self.mode == FIG8 else GENERAL_CHECKS
        for name in order:
            lines.append(f"check.{name}: {'pass' if self.checks.get(name) else 'fail'}")
        for note in self.assumptions:
            lines.append(f"assumption: {note}")
        return "\n".join(lines) + "\n"


def _derive(mode: str, params: SlopeParams | GeneralParams, k: int):
    """Shared exact derivation: (xi, sigma, r, t, h, m, n_k, D_k, alpha, beta)."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if mode == FIG8:
        assert isinstance(params, SlopeParams)
        d = 3
        xi = xi_fig8(params)
        n_xi = xi.norm()
        r, t = bezout_rt(d, 4 * n_xi)
        n_k = -3 * n_xi * (2 + 3 * k) + 9
        D_k = n_xi * n_k ** 2 + 2 + 3 * k
        scale = 6
    elif mode == GENERAL:
        assert isinstance(params, GeneralParams)
        d = params.d
        xi = params.xi
        n_xi = xi.norm()
        r, t = bezout_rt(d, n_xi)
        n_k = -d * n_xi * (d * k + params.x) + d * d
        D_k = n_xi * n_k ** 2 + d * k + params.x
        scale = 2 * d
    else:
        raise InvalidParams(f"unknown mode {mode!r}")
    root = QuadInt.sqrt_minus_d(d)
    one = QuadInt.integer(d, 1)
    alpha = one - scale * n_k * n_xi ** 2 - scale * n_xi * root
    beta = -scale * n_xi * xi
    sigma = sigma_from_xi(xi)
    h = build_h(mode, d, xi, r, t)
    return d, xi, n_xi, sigma, r, t, h, scale, n_k, D_k, alpha, beta


def witness_word(n_k: int, m: int) -> Word:
    return (("sigma", n_k), ("h", 1), ("sigma", m), ("h", -1), ("sigma", n_k))


def run_checks(mode: str, d: int, x: Optional[int], sigma: PslElement, h: PslElement,
               n_xi: int, n_k: int, D_k: int, g_word: PslElement, g_closed: PslElement,
               alpha: QuadInt, beta: QuadInt, word: Word) -> dict[str, bool]:
    m = middle_exponent(mode, d)
    checks: dict[str, bool] = {}
    checks["closed_form"] = g_word.psl_eq(g_closed)
    checks["unit_determinant"] = alpha.norm() - D_k * beta.norm() == 1
    if mode == FIG8:
        checks["residue_class"] = D_k % 3 == 2
    else:
        checks["residue_class"] = (x is not None and D_k % d == x
                                   and is_quadratic_nonresidue(x, d))
    checks["nontrivial"] = not g_closed.psl_eq(PslElement.identity(d))
    expected_trace = 2 - 2 * m * n_k * n_xi ** 2
    tr = g_closed.trace()
    checks["hyperbolic_trace"] = (g_closed.classify() is IsometryClass.HYPERBOLIC
                                  and tr.is_rational()
                                  and abs(tr.rational_value()) == abs(expected_trace))
    checks["stabilizer_membership"] = stab_form(g_closed, D_k) is not None
    checks["normal_closure_word"] = word == witness_word(n_k, m)
    if mode == FIG8:
        checks["gamma8_membership"] = congruence.in_gamma8(g_closed) and congruence.in_gamma8(h)
    checks["cocompact"] = cocompact_certificate(d, D_k).certified
    return checks


def construct_witness(mode: str, params: SlopeParams | GeneralParams, k: int) -> CompressionWitness:
    """Build and fully check the witness for one k.  Any failed check is an
    internal consistency error."""
    d, xi, n_xi, sigma, r, t, h, scale, n_k, D_k, alpha, beta = _derive(mode, params, k)
    m = middle_exponent(mode, d)
    word = witness_word(n_k, m)
    g_word = eval_word({"sigma": sigma, "h": h}, word)
    g_closed = PslElement(
        Mat2(alpha, beta * D_k, beta.conj(), alpha.conj()), word)
    x = params.x if isinstance(params, GeneralParams) else None
    checks = run_checks(mode, d, x, sigma, h, n_xi, n_k, D_k, g_word, g_closed,
                        alpha, beta, word)
    for name, ok in checks.items():
        if not ok:
            raise ConsistencyError(f"witness check failed: {name}")
    assumptions = (congruence.SURJECTIVITY_NOTE,) if mode == FIG8 else ()
    return CompressionWitness(
        mode=mode, d=d,
        p=params.p if isinstance(params, SlopeParams) else None,
        q=params.q if isinstance(params, SlopeParams) else None,
        x=x, xi=xi, norm_xi=n_xi, r=r, t=t, h=h.canonical_rep(),
        k=k, n_k=n_k, D_k=D_k,
        g_k=g_closed.canonical_rep(), alpha_k=alpha, beta_k=beta, word=word,
        checks=checks, assumptions=assumptions)


def construct_series(mode: str, params: SlopeParams | GeneralParams,
                     k_range: Iterable[int]) -> list[CompressionWitness]:
    """Witnesses for each k, with a strict-monotonicity certificate on D_k."""
    ks = list(k_range)
    if not ks:
        raise InvalidParams("empty k range")
    witnesses = [construct_witness(mode, params, k) for k in ks]
    for prev, cur in zip(witnesses, witnesses[1:]):
        if not cur.D_k > prev.D_k:
            raise ConsistencyError(
                f"D_k not strictly increasing: D_{prev.k}={prev.D_k}, D_{cur.k}={cur.D_k}")
    return witnesses


# -- serialization and verification -----------------------------------------


def render_witnesses(witnesses: Sequence[CompressionWitness]) -> str:
    return "\n".join(w.render() for w in witnesses)


def _parse_block(lines: list[str]) -> CompressionWitness:
    fields: dict[str, str] = {}
    checks: dict[str, bool] = {}
    assumptions: list[str] = []
    for line in lines:
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed witness line {line!r}")
        key, value = key.strip(), value.strip()
        if key.startswith("check."):
            checks[key[len("check."):]] = value == "pass"
        elif key == "assumption":
            assumptions.append(value)
        else:
            fields[key] = value
    mode = fields["mode"]
    d = int(fields["d"])
    return CompressionWitness(
        mode=mode, d=d,
        p=int(fields["p"]) if "p" in fields else None,
        q=int(fields["q"]) if "q" in fields else None,
        x=int(fields["x"]) if "x" in fields else None,
        xi=parse_quadint(fields["xi"], d),
        norm_xi=int(fields["norm_xi"]),
        r=int(fields["r"]), t=int(fields["t"]),
        h=parse_mat2(fields["h"], d),
        k=int(fields["k"]), n_k=int(fields["n_k"]), D_k=int(fields["D_k"]),
        g_k=parse_mat2(fields["g_k"], d),
        alpha_k=parse_quadint(fields["alpha_k"], d),
        beta_k=parse_quadint(fields["beta_k"], d),
        word=parse_word(fields["word"]),
        checks=checks, assumptions=tuple(assumptions))


def parse_witnesses(text: str) -> list[CompressionWitness]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line)
    if current:
        blocks.append(current)
    return [_parse_block(b) for b in blocks]


@dataclass(frozen=True)
class VerificationReport:
    results: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def failures(self) -> list[str]:
        return [name for name, ok in self.results.items() if not ok]


def verify_witness(w: CompressionWitness) -> VerificationReport:
    """Re-derive everything from (mode, params, k) and the stored word;
    never trust stored alpha_k, beta_k, D_k, g_k."""
    results: dict[str, bool] = {}
    try:
        if w.mode == FIG8:
            params: SlopeParams | GeneralParams = validate_fig8(w.p, w.q)  # type: ignore[arg-type]
        else:
            params = validate_general(w.d, w.xi, w.x)
        d, xi, n_xi, sigma, r, t, h, scale, n_k, D_k, alpha, beta = _derive(w.mode, params, w.k)
    except (InvalidParams, ValueError):
        return VerificationReport({"params": False})
    results["field.xi"] = xi == w.xi
    results["field.norm_xi"] = n_xi == w.norm_xi
    results["field.r"] = r == w.r
    results["field.t"] = t == w.t
    results["field.h"] = h.canonical_rep() == canonical_sign(w.h)
    results["field.n_k"] = n_k == w.n_k
    results["field.D_k"] = D_k == w.D_k
    results["field.alpha_k"] = alpha == w.alpha_k
    results["field.beta_k"] = beta == w.beta_k
    g_word = eval_word({"sigma": sigma, "h": h}, w.word)
    try:
        g_stored: Optional[PslElement] = PslElement(w.g_k)
    except ValueError:
        g_stored = None
    results["field.g_k"] = g_stored is not None and g_word.psl_eq(g_stored)
    # run the named checks against the *stored* D_k and g_k, so tampering
    # with either is caught by the corresponding check as well
    checks = run_checks(w.mode, w.d, w.x if w.mode == GENERAL else None, sigma, h,
                        n_xi, w.n_k, w.D_k, g_word, g_stored or g_word,
                        w.alpha_k, w.beta_k, w.word)
    if g_stored is None:
        checks["closed_form"] = False  # stored matrix is not even unimodular
    for name, ok in checks.items():
        results[f"check.{name}"] = ok
    return VerificationReport(results)
