"""Seeded inputs for the three benchmark workloads.

Each workload is a list of witness inputs (mode, parameters, k).  The same
seed always gives the same list.  Every list ends with a few fixed anchor
inputs that do not depend on the seed: the golden slope p=20, q=7 for
fig8-series, and fixed (d, xi) points for the two general workloads.  The
last anchors are the slice that the CLI subprocess pair builds and checks.
Every list has INPUTS inputs, so that at least ten lie beyond each 90th
percentile.

A witness's cost grows with the sizes of its parameters, so seeds must not
differ in how many large ones they draw: each log-uniform parameter of the
seeded inputs takes one value from each of as many equal strata as there
are inputs, in a seeded order (a Latin hypercube).  Every seed then spreads
its work over the range in nearly the same way.  Where one input can cost
hundreds of times another (general-large-d), the seeded part follows a
low-discrepancy sequence in log d instead, so every prefix of the list is
spread too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from bianchicert.pipeline import FIG8, GENERAL
from bianchicert.quadint import QuadInt

INPUTS = 100  # seeded inputs plus anchors, in every workload
_GOLDEN_RATIO_STEP = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class WitnessInput:
    mode: str
    k: int
    p: Optional[int] = None
    q: Optional[int] = None
    d: Optional[int] = None
    xi: Optional[QuadInt] = None

    def describe(self) -> str:
        if self.mode == FIG8:
            return f"fig8 p={self.p} q={self.q} k={self.k}"
        return f"general d={self.d} xi={self.xi} k={self.k}"


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: list[WitnessInput]  # seeded inputs, then the anchors
    anchors: list[WitnessInput]  # the fixed tail of inputs
    cli_inputs: list[WitnessInput]  # the anchors that `cli_args` rebuilds, in order
    cli_args: list[str]  # `construct` arguments


def _log_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers log-uniform over [lo, hi], one from each of n equal
    strata of log [lo, hi], in a seeded order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    span = math.log(hi) - math.log(lo)
    return [min(hi, max(lo, round(lo * math.exp(v * span)))) for v in u]


def _is_prime(n: int) -> bool:
    """The benchmark's own test, so that a change to the library's primality
    code cannot change the inputs."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_at_least(n: int, residue_mod_4: int) -> int:
    while not (n % 4 == residue_mod_4 and _is_prime(n)):
        n += 1
    return n


def _admissible_xi(d: int, x: int, y: int) -> bool:
    return (x, y) != (0, 0) and QuadInt(d, x, y).norm() % d != 0


def _general_anchor(d: int, x: int, y: int, ks: range) -> tuple[list[WitnessInput], list[str]]:
    xi = QuadInt(d, x, y)
    anchors = [WitnessInput(GENERAL, k, d=d, xi=xi) for k in ks]
    cli = ["general", "--d", str(d), "--xi", xi.render(), "--k", f"{ks[0]}..{ks[-1]}"]
    return anchors, cli


def fig8_series(seed: int) -> Workload:
    """d=3: the golden slope p=20, q=7, k=1..10, after seeded admissible
    slopes (4 | p, 3 does not divide p, gcd(p, q) = 1) with |p|, |q| and k
    log-uniform up to 10^3."""
    anchors = [WitnessInput(FIG8, k, p=20, q=7) for k in range(1, 11)]
    rng = random.Random(seed)
    n = INPUTS - len(anchors)
    inputs = []
    for p, q, k in zip(_log_strata(rng, n, 4, 1000), _log_strata(rng, n, 1, 1000),
                       _log_strata(rng, n, 1, 1000)):
        p = 4 * max(1, round(p / 4))
        if p % 3 == 0:
            p += 4
        while math.gcd(p, q) != 1:
            q -= 1
        sign_p, sign_q = rng.choice((-1, 1)), rng.choice((-1, 1))
        inputs.append(WitnessInput(FIG8, k, p=sign_p * p, q=sign_q * q))
    cli = ["fig8", "--p", "20", "--q", "7", "--k", "1..10"]
    return Workload("fig8-series", inputs + anchors, anchors, anchors, cli)


def general_large_d(seed: int) -> Workload:
    """Primes d log-uniform over 10^3..10^6, alternating d = 1 and d = 3
    (mod 4), with xi coordinates in [-10, 10] and k in 1..10; anchors at
    d = 1009, 100003 and 1000003.

    BENCHMARK.json does not list this workload.  Its witnesses take 10 to
    600 ms each, so a run sees each input once or twice, and on a shared
    host its figures then move by 20-30% from run to run, more than any
    regression bound allows.  Run it by name to study the d axis."""
    small, _ = _general_anchor(1009, 2, 1, range(1, 2))
    middle, cli = _general_anchor(100003, 2, 1, range(1, 2))
    large, _ = _general_anchor(1000003, 2, 1, range(1, 2))
    anchors = small + large + middle
    rng = random.Random(seed)
    start = rng.random()
    inputs = []
    for i in range(INPUTS - len(anchors)):
        u = (start + i * _GOLDEN_RATIO_STEP) % 1.0
        d = _prime_at_least(round(10 ** (3 + 3 * u)), 1 if i % 2 == 0 else 3)
        while True:
            x, y = rng.randint(-10, 10), rng.randint(-10, 10)
            if _admissible_xi(d, x, y):
                break
        inputs.append(WitnessInput(GENERAL, rng.randint(1, 10), d=d, xi=QuadInt(d, x, y)))
    return Workload("general-large-d", inputs + anchors, anchors, middle, cli)


_SMALL_PRIMES = [n for n in range(3, 100) if _is_prime(n)]


def general_wide_operands(seed: int) -> Workload:
    """Primes d < 100, alternating d = 1 and d = 3 (mod 4), with |xi|
    coordinates and k log-uniform up to 10^6; anchor at d = 7 with
    k = 999997..1000000."""
    anchors, cli = _general_anchor(7, 999983, 999979, range(999997, 1000001))
    rng = random.Random(seed)
    by_class = {r: [d for d in _SMALL_PRIMES if d % 4 == r] for r in (1, 3)}
    n = INPUTS - len(anchors)
    inputs = []
    for i, (x, y, k) in enumerate(zip(_log_strata(rng, n, 1, 10**6),
                                      _log_strata(rng, n, 1, 10**6),
                                      _log_strata(rng, n, 1, 10**6))):
        d = rng.choice(by_class[1 if i % 2 == 0 else 3])
        x, y = x * rng.choice((-1, 1)), y * rng.choice((-1, 1))
        while not _admissible_xi(d, x, y):
            x -= 1
        inputs.append(WitnessInput(GENERAL, k, d=d, xi=QuadInt(d, x, y)))
    return Workload("general-wide-operands", inputs + anchors, anchors, anchors, cli)


WORKLOADS = {
    "fig8-series": fig8_series,
    "general-large-d": general_large_d,  # run by name only; see its docstring
    "general-wide-operands": general_wide_operands,
}
