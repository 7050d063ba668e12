"""Pinned output: the same witnesses, byte for byte, and the same verdicts.

A fixed seeded list of inputs covers the golden slope, random figure-eight
slopes and general inputs over primes d < 2000 in both classes mod 4.  The
rendered witnesses and every verification result, for the honest records and
for one tampered copy of each, hash to the values below.  A change to either
hash changes what the library writes or decides, so it must be deliberate.
"""

import hashlib
import random
from dataclasses import replace

from bianchicert.circles import is_prime, is_quadratic_nonresidue
from bianchicert.pipeline import (FIG8, GENERAL, InvalidParams, construct_witness,
                                  parse_witnesses, render_witnesses, validate_fig8,
                                  validate_general, verify_witness)
from bianchicert.psl2 import Mat2
from bianchicert.quadint import QuadInt, parse_quadint

WITNESS_SHA256 = "5a5913776ff091ba4c4aa31111a58a49d472230d92ba16ab57b80e3fba6eccd4"
VERDICT_SHA256 = "f6970e099b50b9f6c52dce796ae147e1019a719e3797b6c84be5b8608030f53a"

TAMPERED_FIELDS = ("n_k", "D_k", "alpha_k", "beta_k", "r", "t", "h", "g_k", "word",
                   "xi", "norm_xi")
PRIMES = [d for d in range(3, 2000) if is_prime(d)]


def pinned_inputs():
    """(mode, params, k) for about 200 witnesses, from a fixed seed."""
    rng = random.Random(20260)
    golden = validate_fig8(20, 7)
    inputs = [(FIG8, golden, k) for k in range(1, 11)]
    eta7 = QuadInt.tau(7)
    inputs += [(GENERAL, validate_general(7, 1 + 7 * eta7), k) for k in (1, 2)]
    inputs += [(GENERAL, validate_general(3, parse_quadint("20+14*sqrt(-3)", 3), 2), k)
               for k in (1, 2)]
    while len(inputs) < 100:
        p, q = 4 * rng.randint(-2500, 2500), rng.randint(-10**4, 10**4)
        try:
            inputs.append((FIG8, validate_fig8(p, q), rng.randint(1, 10**6)))
        except InvalidParams:
            continue
    while len(inputs) < 200:
        residue = 1 if len(inputs) % 2 else 3  # alternate the classes mod 4
        d = rng.choice([d for d in PRIMES if d % 4 == residue])
        xi = QuadInt(d, rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        x = None
        if len(inputs) % 3 == 0:  # an explicit non-residue, not the default
            x = rng.choice([x for x in range(2, d) if is_quadratic_nonresidue(x, d)])
        try:
            params = validate_general(d, xi, x)
        except InvalidParams:
            continue
        inputs.append((GENERAL, params, rng.randint(1, 10**6)))
    return inputs


def tamper(w, field_name, delta):
    """A copy of w with one field moved by delta (an entry, for matrices;
    the middle exponent, for the word)."""
    value = getattr(w, field_name)
    if field_name in ("h", "g_k"):
        entries = list(value.entries())
        entries[abs(delta) % 4] = entries[abs(delta) % 4] + delta
        value = Mat2(*entries)
    elif field_name == "word":
        gen, exponent = value[2]
        value = value[:2] + ((gen, exponent + delta),) + value[3:]
    else:
        value = value + delta
    return replace(w, **{field_name: value})


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_witnesses_and_verdicts_are_pinned():
    witnesses = [construct_witness(mode, params, k) for mode, params, k in pinned_inputs()]
    text = render_witnesses(witnesses)
    records = parse_witnesses(text)
    assert records == witnesses
    rng = random.Random(20261)
    records += [tamper(w, TAMPERED_FIELDS[i % len(TAMPERED_FIELDS)],
                       rng.choice((-2, -1, 1, 2, 3)))
                for i, w in enumerate(witnesses)]
    reports = [verify_witness(w) for w in records]
    assert all(r.ok for r in reports[:len(witnesses)])
    assert not any(r.ok for r in reports[len(witnesses):])
    verdicts = "\n".join(" ".join(f"{name}={int(ok)}" for name, ok in r.results.items())
                         for r in reports)
    assert sha256(text) == WITNESS_SHA256
    assert sha256(verdicts) == VERDICT_SHA256
