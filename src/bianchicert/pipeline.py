"""The constructive engine producing certified compression witnesses.

One engine works over any prime d >= 3 from a parabolic translation xi with
d not dividing |xi|^2, a quadratic non-residue x mod d and a level (1, or 4
for the figure-eight group).  Figure-eight mode is its preset d = 3, x = 2,
level 4, with xi read off a surgery slope p/q (4|p, 3 not dividing p,
gcd(p, q) = 1) and the Gamma_8 level-4 certificate added to the checks.

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

# render order; gamma8_membership applies at level 4 only
CHECKS = (
    "closed_form", "unit_determinant", "residue_class", "nontrivial",
    "hyperbolic_trace", "stabilizer_membership", "normal_closure_word",
    "gamma8_membership", "cocompact",
)
GAMMA8_LEVEL = 4


class InvalidParams(ValueError):
    """Rejected construction input, with the failed condition named."""


class ConsistencyError(RuntimeError):
    """A witness check failed; the construction guarantees success on
    valid input, so this signals an implementation bug, not bad input."""


# -- parameters -------------------------------------------------------------


@dataclass(frozen=True)
class Params:
    """Validated input: prime d >= 3, parabolic translation xi with d not
    dividing |xi|^2, a quadratic non-residue x mod d, and the level (4 for
    the figure-eight preset, else 1).  p and q record the preset's slope."""

    mode: str
    d: int
    xi: QuadInt
    x: int
    level: int
    p: Optional[int] = None
    q: Optional[int] = None


def validate_fig8(p: int, q: int) -> Params:
    """The figure-eight preset for the surgery slope p/q: sigma = mu^p lambda^q."""
    if p % 4 != 0:
        raise InvalidParams(f"4 does not divide p={p}")
    if p % 3 == 0:
        raise InvalidParams(f"3 divides p={p}")
    if gcd(p, q) != 1:
        raise InvalidParams(f"gcd(p, q) = {gcd(p, q)} != 1 for p={p}, q={q}")
    return Params(FIG8, 3, xi_fig8(p, q), 2, GAMMA8_LEVEL, p, q)


def validate_general(d: int, xi: QuadInt, x: Optional[int] = None) -> Params:
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
    return Params(GENERAL, d, xi, x, 1)


def xi_fig8(p: int, q: int) -> QuadInt:
    """xi = p + q(4 omega + 2); |xi|^2 = p^2 + 12 q^2."""
    omega = QuadInt.tau(3) - 1
    xi = p + q * (4 * omega + 2)
    assert xi.norm() == p ** 2 + 12 * q ** 2
    return xi


def sigma_from_xi(xi: QuadInt) -> PslElement:
    one = QuadInt.integer(xi.d, 1)
    zero = QuadInt.integer(xi.d, 0)
    return PslElement.from_entries(one, xi, zero, one)


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


def build_h(level: int, d: int, xi: QuadInt, r: int, t: int) -> PslElement:
    """The conjugator (sqrt(-d), level xi t; conj(xi), sqrt(-d) r), of
    determinant 1 when -d r - level |xi|^2 t = 1."""
    root = QuadInt.sqrt_minus_d(d)
    return PslElement.from_entries(root, xi * (level * t), xi.conj(), root * r)


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
        for name in CHECKS:
            if name in self.checks:
                lines.append(f"check.{name}: {'pass' if self.checks[name] else 'fail'}")
        for note in self.assumptions:
            lines.append(f"assumption: {note}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Derivation:
    """Everything (params, k) determine exactly."""

    sigma: PslElement
    norm_xi: int
    r: int
    t: int
    h: PslElement
    m: int  # the middle exponent of the word
    n_k: int
    D_k: int
    alpha: QuadInt
    beta: QuadInt


def _derive(params: Params, k: int) -> Derivation:
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    d, xi, x = params.d, params.xi, params.x
    n_xi = xi.norm()
    r, t = bezout_rt(d, params.level * n_xi)
    m = 2 * d
    n_k = -d * n_xi * (d * k + x) + d * d
    D_k = n_xi * n_k ** 2 + d * k + x
    root = QuadInt.sqrt_minus_d(d)
    one = QuadInt.integer(d, 1)
    alpha = one - m * n_k * n_xi ** 2 - m * n_xi * root
    beta = -m * n_xi * xi
    h = build_h(params.level, d, xi, r, t)
    return Derivation(sigma_from_xi(xi), n_xi, r, t, h, m, n_k, D_k, alpha, beta)


def witness_word(n_k: int, m: int) -> Word:
    return (("sigma", n_k), ("h", 1), ("sigma", m), ("h", -1), ("sigma", n_k))


def run_checks(params: Params, der: Derivation, n_k: int, D_k: int, alpha: QuadInt,
               beta: QuadInt, word: Word, g_word: PslElement,
               g_closed: PslElement) -> dict[str, bool]:
    """The named checks on claimed (n_k, D_k, alpha, beta, word, g_closed),
    with sigma, h and |xi|^2 taken from the derivation."""
    d, x = params.d, params.x
    checks: dict[str, bool] = {}
    checks["closed_form"] = g_word.psl_eq(g_closed)
    checks["unit_determinant"] = alpha.norm() - D_k * beta.norm() == 1
    checks["residue_class"] = D_k % d == x and is_quadratic_nonresidue(x, d)
    checks["nontrivial"] = not g_closed.psl_eq(PslElement.identity(d))
    expected_trace = 2 - 2 * der.m * n_k * der.norm_xi ** 2
    tr = g_closed.trace()
    checks["hyperbolic_trace"] = (g_closed.classify() is IsometryClass.HYPERBOLIC
                                  and tr.is_rational()
                                  and abs(tr.rational_value()) == abs(expected_trace))
    # a claimed D_k < 1 names no circle; both circle checks then fail
    checks["stabilizer_membership"] = D_k >= 1 and stab_form(g_closed, D_k) is not None
    checks["normal_closure_word"] = word == witness_word(n_k, der.m)
    if params.level == GAMMA8_LEVEL:
        checks["gamma8_membership"] = (congruence.in_gamma8(g_closed)
                                       and congruence.in_gamma8(der.h))
    checks["cocompact"] = D_k >= 1 and cocompact_certificate(d, D_k).certified
    return checks


def construct_witness(mode: str, params: Params, k: int) -> CompressionWitness:
    """Build and fully check the witness for one k.  Any failed check is an
    internal consistency error."""
    if mode != params.mode:
        raise InvalidParams(f"mode {mode!r} does not match {params.mode!r} parameters")
    der = _derive(params, k)
    word = witness_word(der.n_k, der.m)
    g_word = eval_word({"sigma": der.sigma, "h": der.h}, word)
    alpha, beta = der.alpha, der.beta
    g_closed = PslElement(Mat2(alpha, beta * der.D_k, beta.conj(), alpha.conj()))
    checks = run_checks(params, der, der.n_k, der.D_k, alpha, beta, word, g_word, g_closed)
    for name, ok in checks.items():
        if not ok:
            raise ConsistencyError(f"witness check failed: {name}")
    return CompressionWitness(
        mode=mode, d=params.d, p=params.p, q=params.q,
        x=params.x if mode == GENERAL else None,  # the fig8 record carries p/q
        xi=params.xi, norm_xi=der.norm_xi, r=der.r, t=der.t, h=der.h.canonical_rep(),
        k=k, n_k=der.n_k, D_k=der.D_k, g_k=g_closed.canonical_rep(),
        alpha_k=alpha, beta_k=beta, word=word, checks=checks,
        assumptions=((congruence.SURJECTIVITY_NOTE,) if params.level == GAMMA8_LEVEL
                     else ()))


def construct_series(mode: str, params: Params,
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
    never trust stored alpha_k, beta_k, D_k, g_k.  Every record, however
    malformed, gets a report; a failed entry names what is at fault."""
    needed = {FIG8: ("p", "q"), GENERAL: ("x",)}.get(w.mode)
    if needed is None:
        return VerificationReport({"params": False})  # unknown mode
    for key in needed:
        if getattr(w, key) is None:
            return VerificationReport({f"parse.{key}": False})
    try:
        if w.mode == FIG8:
            params = validate_fig8(w.p, w.q)  # type: ignore[arg-type]
        else:
            params = validate_general(w.d, w.xi, w.x)
        der = _derive(params, w.k)
    except InvalidParams:
        return VerificationReport({"params": False})
    if params.d != w.d:
        return VerificationReport({"field.d": False})
    results: dict[str, bool] = {}
    results["field.xi"] = params.xi == w.xi
    results["field.norm_xi"] = der.norm_xi == w.norm_xi
    results["field.r"] = der.r == w.r
    results["field.t"] = der.t == w.t
    results["field.h"] = der.h.canonical_rep() == canonical_sign(w.h)
    results["field.n_k"] = der.n_k == w.n_k
    results["field.D_k"] = der.D_k == w.D_k
    results["field.alpha_k"] = der.alpha == w.alpha_k
    results["field.beta_k"] = der.beta == w.beta_k
    try:
        g_word = eval_word({"sigma": der.sigma, "h": der.h}, w.word)
    except (KeyError, ValueError):  # an unbound generator, or no term at all
        results["field.word"] = False
        return VerificationReport(results)
    try:
        g_stored: Optional[PslElement] = PslElement(w.g_k)
    except ValueError:
        g_stored = None
    results["field.g_k"] = g_stored is not None and g_word.psl_eq(g_stored)
    # run the named checks against the *stored* D_k and g_k, so tampering
    # with either is caught by the corresponding check as well
    checks = run_checks(params, der, w.n_k, w.D_k, w.alpha_k, w.beta_k, w.word,
                        g_word, g_stored or g_word)
    if g_stored is None:
        checks["closed_form"] = False  # stored matrix is not even unimodular
    for name, ok in checks.items():
        results[f"check.{name}"] = ok
    return VerificationReport(results)
