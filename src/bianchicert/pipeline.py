"""The constructive engine producing certified compression witnesses.

One engine works over any prime d >= 3 from a parabolic translation xi with
d not dividing |xi|^2, a quadratic non-residue x mod d and a level (1, or 4
for the figure-eight group).  Figure-eight mode is its preset d = 3, x = 2,
level 4, with xi read off a surgery slope p/q (4|p, 3 not dividing p,
gcd(p, q) = 1) and the Gamma_8 level-4 certificate added to the checks.

A witness packages (params, r, t, h, k, n_k, D_k, g_k, alpha_k, beta_k),
a generator word certifying g_k lies in the normal closure of sigma, and
named exactness checks.  `witness_values` and `h_xy` give the closed form by
ring operations alone, on ints or symbols; `_derive` gives the honest values
as ints and coordinates, `run_checks(params, honest, claimed)` decides the
checks on them and the claimed record's coordinates, and `verify_witness`
compares each claimed field with them.  `parse_witnesses` reads a block in
render's form with one match of its mode's pattern, any other line by line.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import circles, congruence
from .circles import check_odd_prime, cocompact_certificate, is_quadratic_nonresidue, stab_form
from .psl2 import (_PLUS_MINUS_ONE, Mat2, Word, canonical_sign, eval_word, parse_mat2,
                   parse_word, psl_xy, render_mat2, render_word)
from .quadint import RENDERED, QuadInt, _tau_square, from_rendered, from_xy, parse_quadint

FIG8 = "fig8"
GENERAL = "general"

# render order; only the fig8 layout runs gamma8_membership
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


class Params(NamedTuple):
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
    try:
        check_odd_prime(d)
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None
    if xi.d != d:
        raise InvalidParams(f"xi lives over d={xi.d}, not d={d}")
    if xi.is_zero():
        raise InvalidParams("xi must be nonzero")
    if xi.norm() % d == 0:
        raise InvalidParams(f"d={d} divides |xi|^2")  # |xi|^2 may exceed str()'s digit limit
    if x is None:
        x = circles.smallest_nonresidue(d)
    if not (1 < x < d):
        raise InvalidParams(f"x={x} is not in (1, {d})")
    if not is_quadratic_nonresidue(x, d):
        raise InvalidParams(f"x={x} is a quadratic residue mod {d}")
    return Params(GENERAL, d, xi, x, 1)


def xi_fig8(p: int, q: int) -> QuadInt:
    """xi = p + q(4 omega + 2) = (p - 2q) + 4q tau, as 4 omega + 2 = 4 tau - 2;
    |xi|^2 = (p - 2q)^2 + 4q(p - 2q) + 16q^2 = p^2 + 12 q^2, as tau^2 = tau - 1."""
    return QuadInt(3, p - 2 * q, 4 * q)


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


def h_xy(s: Any, level: Any, xi: tuple[Any, Any], r: Any, t: Any) -> tuple[Any, ...]:
    """The coordinates of the conjugator (sqrt(-d), level xi t; conj(xi), sqrt(-d) r),
    of determinant 1 when -d r - level |xi|^2 t = 1, with sqrt(-d) = -s + (1 + s) tau
    and conj(x + y tau) = x + s y - y tau.  Ring operations alone, as `witness_values`."""
    x, y = xi
    return (-s, 1 + s, level * t * x, level * t * y, x + s * y, -y, -s * r, (1 + s) * r)


# -- witnesses --------------------------------------------------------------

def _read_mat2(g: Iterator[str], d: int) -> Optional[Mat2]:
    entries = [from_rendered(d, next(g), next(g), next(g), next(g)) for _ in range(4)]
    return Mat2(*entries) if all(entries) else None  # a QuadInt is true, None false


# The kinds of value a record holds: (the line reader's parser (text, d) -> value,
# the renderer, the pattern of render's form, the record reader's conversion
# (iterator over the match groups, d) -> value, which takes its pattern's groups,
# or None where render would not have written the text, and the kind's type).
# The parsers look parse_* up when called, so a tracer sees every call.
_INT = (lambda text, d: int(text), str, r"(-?\d+)", lambda g, d: int(next(g)), int)
_QUADINT = (lambda text, d: parse_quadint(text, d), str, RENDERED,
            lambda g, d: from_rendered(d, next(g), next(g), next(g), next(g)), QuadInt)
_MAT2 = (lambda text, d: parse_mat2(text, d), render_mat2,
         rf"\[\[{RENDERED},{RENDERED}\],\[{RENDERED},{RENDERED}\]\]", _read_mat2, Mat2)
_WORD = (lambda text, d: parse_word(text), render_word,  # the witness shape alone
         r"sigma\^(-?\d+) h\^1 sigma\^(-?\d+) h\^-1 sigma\^(-?\d+)",
         lambda g, d: (("sigma", int(next(g))), ("h", 1), ("sigma", int(next(g))), ("h", -1),
                       ("sigma", int(next(g)))), tuple)
# Every key a record may carry, in render order: key -> its kind, then whether
# verify_witness compares the claimed value with the honest one as field.<key>.
FIELDS: dict[str, tuple] = {
    "mode": (lambda text, d: text, str, r"(\w+)", lambda g, d: next(g), str, False),
    "d": (*_INT[:2], r"(?P<d>-?\d+)", *_INT[3:], False),  # sqrt(-(?P=d)) refers to it
    "p": (*_INT, False), "q": (*_INT, False), "x": (*_INT, False),
    "xi": (*_QUADINT, True), "norm_xi": (*_INT, True), "r": (*_INT, True), "t": (*_INT, True),
    "h": (*_MAT2, True),  # compared up to sign
    "k": (*_INT, False), "n_k": (*_INT, True), "D_k": (*_INT, True),
    "alpha_k": (*_QUADINT, True), "beta_k": (*_QUADINT, True), "g_k": (*_MAT2, False),
    "word": (*_WORD, False),
}
# Each mode's record: its keys in render order -> None, then its trailer,
# each check the mode runs -> "pass" and the fig8 finite-model note.  A record
# exists only when all its checks pass, so its mode fixes its trailer; render
# writes this, the record readers read nothing else and run_checks runs its checks;
# TRAILERS holds each trailer alone.
LAYOUTS: dict[str, dict[str, Optional[str]]] = {
    mode: {**dict.fromkeys(key for key in FIELDS if key not in absent),
           **{f"check.{name}": "pass" for name in CHECKS if name not in absent}, **notes}
    for mode, absent, notes in (
        (FIG8, ("x",), {"assumption": congruence.SURJECTIVITY_NOTE}),
        (GENERAL, ("p", "q", "gamma8_membership"), {}))}
TRAILERS = {mode: {key: value for key, value in layout.items() if value is not None}
            for mode, layout in LAYOUTS.items()}
# verify_witness's entries: FIELDS decides which keys it compares, in render order
_COMPARED = tuple((f"field.{key}", key) for key, (*_, compared) in FIELDS.items() if compared)
# verify_witness's kind gate: per mode, a reader of its layout's fields and their types
_KINDS = {mode: (attrgetter(*filter(layout.__contains__, FIELDS)),
                 tuple(kind[4] for key, kind in FIELDS.items() if key in layout))
          for mode, layout in LAYOUTS.items()}


class CompressionWitness(NamedTuple):
    mode: str
    d: int
    p: Optional[int]
    q: Optional[int]
    x: Optional[int]
    xi: QuadInt
    norm_xi: int
    r: int
    t: int
    h: Mat2  # verify_witness compares it with the honest h up to sign
    k: int
    n_k: int
    D_k: int
    g_k: Mat2
    alpha_k: QuadInt
    beta_k: QuadInt
    word: Word

    @property
    def checks(self) -> dict[str, bool]:
        """The layout's checks, all passed: construction raises on a failed one."""
        return {key.removeprefix("check."): True for key in LAYOUTS[self.mode]
                if key.startswith("check.")}

    @property
    def assumptions(self) -> tuple[str, ...]:
        return tuple(value for key, value in LAYOUTS[self.mode].items() if key == "assumption")

    def render(self) -> str:
        return "".join(f"{key}: {FIELDS[key][1](getattr(self, key)) if value is None else value}\n"
                       for key, value in LAYOUTS[self.mode].items())


def witness_values(s: Any, n: Any, d: Any, xi: tuple[Any, Any], x: Any,
                   k: Any) -> dict[str, Any]:
    """The closed form for (d, xi, x, k) over the ring with tau^2 = s*tau - n, by
    ring operations alone, so ints and symbols both work: |xi|^2, n_k, the word's
    middle exponent m = 2d, D_k, and alpha_k, beta_k and g_k = (alpha, D beta;
    conj(beta), conj(alpha)) as coordinates, with sqrt(-d) = -s + (1 + s) tau."""
    xx, xy = xi
    n_xi = xx * xx + s * xx * xy + n * xy * xy
    m = 2 * d
    n_k = -d * n_xi * (d * k + x) + d * d
    D_k = n_xi * n_k ** 2 + d * k + x
    u = m * n_xi  # alpha = 1 - u n_k |xi|^2 - u sqrt(-d), beta = -u xi
    ax, ay, bx, by = 1 - u * n_k * n_xi + u * s, -u * (1 + s), -u * xx, -u * xy
    return {"norm_xi": n_xi, "n_k": n_k, "m": m, "D_k": D_k, "alpha_k": (ax, ay),
            "beta_k": (bx, by),
            "g_k": (ax, ay, D_k * bx, D_k * by, bx + s * by, -by, ax + s * ay, -ay)}


def _derive(params: Params, k: int) -> dict[str, Any]:
    """The honest values for (params, k) by key, no object built: `witness_values`
    on the ring's integer coordinates, then the Bezout step, r, t and h."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    (s, n), xi = _tau_square(params.d), (params.xi.x, params.xi.y)
    honest = witness_values(s, n, params.d, xi, params.x, k)
    r, t = bezout_rt(params.d, params.level * honest["norm_xi"])
    return {**honest, "xi": xi, "r": r, "t": t, "h": h_xy(s, params.level, xi, r, t)}


def witness_word(n_k: int, m: int) -> Word:
    return (("sigma", n_k), ("h", 1), ("sigma", m), ("h", -1), ("sigma", n_k))


def _has_witness_shape(word: Word) -> bool:
    """True for sigma^a h^1 sigma^b h^-1 sigma^c with any integers a, b, c.
    sigma is unipotent, so such a word evaluates in time polynomial in the
    digits of a, b, c."""
    return (tuple(gen for gen, _ in word) == ("sigma", "h", "sigma", "h", "sigma")
            and word[1][1] == 1 and word[3][1] == -1)


def run_checks(params: Params, honest: dict[str, Any],
               claimed: CompressionWitness) -> dict[str, bool]:
    """The named checks on the claimed n_k, D_k, alpha_k, beta_k, word and
    g_k, with h, |xi|^2 and the middle exponent from `_derive`'s `honest`
    values.  The claimed g_k, read as coordinates by `psl_xy`, is checked for
    determinant 1; h has it by `bezout_rt`, and x is a non-residue mod d by
    `validate_*`.  The claimed word is evaluated from its sigma exponents, and
    every check decides on coordinates, with no group element built."""
    d, x = params.d, params.x
    n_k, D_k, alpha, beta = claimed.n_k, claimed.D_k, claimed.alpha_k, claimed.beta_k
    m, h = honest["m"], honest["h"]
    (_, a), _, (_, b), _, (_, c) = claimed.word  # sigma^a h sigma^b h^-1 sigma^c
    g_word = eval_word(*_tau_square(d), honest["xi"], h, (a, b, c))
    try:
        g_closed: Optional[tuple[int, ...]] = psl_xy(claimed.g_k)
    except ValueError:
        g_closed = None  # not even unimodular: closed_form fails
    g = g_closed or g_word
    checks: dict[str, bool] = {}
    # equal up to sign, over O_d: a g_k over another ring fails
    checks["closed_form"] = (g_closed is not None and claimed.g_k.a11.d == d
                             and (g_word == g_closed or g_word == tuple([-v for v in g_closed])))
    checks["unit_determinant"] = alpha.norm() - D_k * beta.norm() == 1
    checks["residue_class"] = D_k % d == x
    checks["nontrivial"] = g not in _PLUS_MINUS_ONE
    expected_trace = 2 - 2 * m * n_k * honest["norm_xi"] ** 2
    # the trace is (x11 + x22) + (y11 + y22) tau; |trace| > 2 is hyperbolic,
    # and it also excludes +-1, whose trace is +-2
    checks["hyperbolic_trace"] = g[1] + g[7] == 0 and abs(g[0] + g[6]) == abs(expected_trace) > 2
    # a claimed D_k < 1 names no circle; both circle checks then fail
    checks["stabilizer_membership"] = D_k >= 1 and stab_form(d, g, D_k)
    checks["normal_closure_word"] = claimed.word == witness_word(n_k, m)
    if "check.gamma8_membership" in LAYOUTS[params.mode]:
        checks["gamma8_membership"] = congruence.in_gamma8(d, g) and congruence.in_gamma8(d, h)
    checks["cocompact"] = D_k >= 1 and cocompact_certificate(d, D_k)
    return checks


def construct_witness(mode: str, params: Params, k: int) -> CompressionWitness:
    """Build and fully check the witness for one k.  Any failed check is an
    internal consistency error."""
    if mode != params.mode:
        raise InvalidParams(f"mode {mode!r} does not match {params.mode!r} parameters")
    honest = _derive(params, k)
    xi, n_k, D_k, m = params.xi, honest["n_k"], honest["D_k"], honest["m"]
    *h, alpha, g12, g21, g22, beta = from_xy(xi, honest["h"] + honest["g_k"] + honest["beta_k"])
    # canonical as built: h's a11 sqrt(-d) has y > 0, alpha's 1 - m n_k |xi|^2 > 0 as n_k < 0
    w = CompressionWitness(  # positional, as keywords cost a microsecond here
        mode, params.d, params.p, params.q, params.x if "x" in LAYOUTS[mode] else None, xi,
        honest["norm_xi"], honest["r"], honest["t"], Mat2(*h), k, n_k, D_k,
        Mat2(alpha, g12, g21, g22), alpha, beta, witness_word(n_k, m))
    for name, ok in run_checks(params, honest, w).items():
        if not ok:
            raise ConsistencyError(f"witness check failed: {name}")
    return w


def construct_series(mode: str, params: Params,
                     k_range: Iterable[int]) -> list[CompressionWitness]:
    """Witnesses for each k, k_range listed first: one past memory raises
    MemoryError at once.  D_k = N n_k^2 + d k + x rises strictly with k, as
    n_k <= -2d falls by d^2 N per step (N = |xi|^2 >= 1), so it is unchecked."""
    ks = list(k_range)
    if not ks:
        raise InvalidParams("empty k range")
    return [construct_witness(mode, params, k) for k in ks]


# -- serialization and verification -----------------------------------------


def render_witnesses(witnesses: Sequence[CompressionWitness]) -> str:
    return "\n".join(w.render() for w in witnesses)


@cache  # compiled on the first record of each mode
def _rendered_record(mode: str) -> tuple[re.Pattern[str], list[tuple[int, Callable]]]:
    """The pattern of mode's block in render's form, and per field of the mode
    its place in a CompressionWitness and its conversion, which takes the
    field's groups in turn."""
    lines, reads = [], []
    for key, value in LAYOUTS[mode].items():
        pattern, read = FIELDS[key][2:4] if value is None else (re.escape(value), None)
        lines.append(f"{re.escape(key)}: {pattern}")
        if read:
            reads.append((CompressionWitness._fields.index(key), read))
    return re.compile("\n".join(lines), re.ASCII), reads


def _read_rendered(block: list[str]) -> Optional[CompressionWitness]:
    """The record of a block that is exactly its mode's layout in render's
    form, read with one match.  None for any other block, which `_parse_block`
    reads (sugar, spaces, reordered lines) or names the fault of."""
    key, _, mode = block[0].partition(": ")
    if key != "mode" or mode not in LAYOUTS:
        return None
    pattern, reads = _rendered_record(mode)
    m = pattern.fullmatch("\n".join(block))
    if m is None:
        return None
    groups, values = iter(m.groups()), [None] * len(CompressionWitness._fields)
    try:
        d = int(m["d"])
        check_odd_prime(d)  # before any element, as in _parse_block
        for at, read in reads:
            value = values[at] = read(groups, d)
            if value is None:
                return None
    except ValueError:  # an integer past the digit limit, or d not an odd prime
        return None
    return CompressionWitness._make(values)


def _parse_block(lines: list[str]) -> CompressionWitness:
    """The record of a block with exactly its mode's keys, each once, and the
    trailer render writes; a line the verifier does not read could show what
    it never checked, so any other block raises ValueError naming the fault."""
    fields: dict[str, str] = {}
    for line in lines:
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed witness line {line!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"repeated witness key {key!r}")
        fields[key] = value.strip()
    layout = LAYOUTS.get(fields.get("mode", ""))
    if layout is None:
        raise ValueError(f"unknown witness mode {fields['mode']!r}" if "mode" in fields
                         else "missing witness key 'mode'")
    if fields.keys() != layout.keys() or not TRAILERS[fields["mode"]].items() <= fields.items():
        for key, value in fields.items():  # name the fault
            if key not in layout or layout[key] not in (None, value):
                raise ValueError(f"unexpected witness line {f'{key}: {value}'!r}")
        missing = next(key for key in layout if key not in fields)
        raise ValueError(f"missing witness key {missing!r}")
    d = int(fields["d"])
    check_odd_prime(d)  # before any element, as an O_d test of a composite d is trial division
    return CompressionWitness(**{key: parse(fields[key], d) if key in fields else None
                                 for key, (parse, *_) in FIELDS.items()})


def parse_witnesses(text: str) -> list[CompressionWitness]:
    """The records of text, each parsed as soon as its block ends; blank and
    `#` comment lines end a block."""
    records: list[CompressionWitness] = []
    lines = [line.strip() for line in text.splitlines()]
    start = 0
    for end, line in enumerate([*lines, ""]):  # the blank line ends the last block
        if not line or line[0] == "#":
            if end > start:
                block = lines[start:end]
                records.append(_read_rendered(block) or _parse_block(block))
            start = end + 1
    return records


class VerificationReport(NamedTuple):
    results: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.results.values())


def _coordinates(value: object, d: int) -> object:
    """A claimed value as `_derive` gives it, or None over a ring other than O_d."""
    if type(value) is QuadInt:
        return (value.x, value.y) if value.d == d else None
    if type(value) is Mat2:
        return value.xy() if value.a11.d == value.a12.d == value.a21.d == value.a22.d == d else None
    return value


def verify_witness(w: CompressionWitness) -> VerificationReport:
    """Compare each claimed field with the honest values of (mode, params, k)
    on coordinates, ring included, then run the named checks on the claimed
    values.  Every record, however malformed, gets a report naming any fault."""
    kinds = _KINDS.get(w.mode) if type(w.mode) is str else None
    # parse_witnesses returns no such record, but one built in code may be
    if not (kinds and tuple(map(type, kinds[0](w))) == kinds[1]
            and {*map(type, w.h.entries() + w.g_k.entries())} == {QuadInt}
            and all(type(t) is tuple and tuple(map(type, t)) == (str, int) for t in w.word)):
        return VerificationReport({"params": False})
    try:
        params = validate_fig8(w.p, w.q) if w.mode == FIG8 else validate_general(w.d, w.xi, w.x)
        honest = _derive(params, w.k)
    except InvalidParams:
        return VerificationReport({"params": False})
    if params.d != w.d:
        return VerificationReport({"field.d": False})
    results = {name: _coordinates(canonical_sign(w.h) if key == "h" else getattr(w, key), params.d)
               == honest[key] for name, key in _COMPARED}
    if not _has_witness_shape(w.word):  # h^N has entries of ~N bits: evaluate no other word
        results["field.word"] = False
        return VerificationReport(results)
    # the checks read the claimed values, so a tampered D_k or g_k fails a check as well
    checks = run_checks(params, honest, w)
    results["field.g_k"] = checks["closed_form"]  # the stored g_k is the word's value
    results.update({f"check.{name}": ok for name, ok in checks.items()})
    return VerificationReport(results)
