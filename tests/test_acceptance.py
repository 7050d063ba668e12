"""End-to-end acceptance suite.

Each criterion prints its own pass/fail line; run with `pytest -v -s
tests/test_acceptance.py` to see them.  All comparisons are exact.
"""

import random
from fractions import Fraction
from itertools import product

from bianchicert.circles import stab_form
from bianchicert.congruence import (enumerate_psl2, gamma8_generators,
                                    gamma8_level4_image,
                                    gamma8_prime_extra_generator,
                                    group_closure, in_gamma8, phi_n,
                                    reduce_level)
from bianchicert.golden import (GOLDEN_P, GOLDEN_Q, golden_h, golden_rows)
from bianchicert.pipeline import (FIG8, GENERAL, InvalidParams, construct_series,
                                  construct_witness, parse_witnesses,
                                  render_witnesses, validate_fig8,
                                  validate_general, verify_witness)
from bianchicert.psl2 import PslElement
from bianchicert.quadint import QuadInt

from oracles import (QuatAlgebra, Quaternion, circle_action, discriminant,
                     order_unit_to_stab, parse_psl, rho)
from test_circles import random_circle
from test_pipeline import fig8_h, random_valid_slope
from test_psl2 import random_psl
from test_quat import random_quaternion


def report(number, title, passed):
    print(f"criterion {number} ({title}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({title}) failed"


def random_general_params(rng, d):
    while True:
        xi = QuadInt(d, rng.randint(-25, 25), rng.randint(-25, 25))
        try:
            return validate_general(d, xi)
        except InvalidParams:
            continue


def test_criterion_1_golden_table_reproduction():
    params = validate_fig8(GOLDEN_P, GOLDEN_Q)
    ok = fig8_h(params).rep == golden_h()
    witnesses = construct_series(FIG8, params, range(1, 11))
    for w, row in zip(witnesses, golden_rows()):
        ok = ok and w.k == row.k and w.D_k == row.D_k and w.g_k == row.g_k
    report(1, "golden-table reproduction", ok)


def test_criterion_2_closed_form_identity():
    # construct_witness word-evaluates g_k and compares it against the
    # closed form (alpha, D beta; conj(beta), conj(alpha)); a mismatch
    # raises, so building the witness is the assertion
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        w = construct_witness(FIG8, random_valid_slope(rng), rng.randint(1, 20))
        ok = ok and w.checks["closed_form"]
    for d in (3, 7, 11, 19):
        for _ in range(13):
            w = construct_witness(GENERAL, random_general_params(rng, d),
                                  rng.randint(1, 20))
            ok = ok and w.checks["closed_form"]
    report(2, "closed-form identity", ok)


def test_criterion_3_stabilizer_norm_equation():
    rng = random.Random(102)
    ok = True
    for _ in range(40):
        w = construct_witness(FIG8, random_valid_slope(rng), rng.randint(1, 12))
        ok = ok and w.alpha_k.norm() - w.D_k * w.beta_k.norm() == 1
    for d in (3, 7, 11):
        w = construct_witness(GENERAL, random_general_params(rng, d), 2)
        ok = ok and w.alpha_k.norm() - w.D_k * w.beta_k.norm() == 1
    report(3, "stabilizer norm equation", ok)


def test_criterion_4_residue_conditions():
    rng = random.Random(103)
    ok = True
    for _ in range(20):
        ws = construct_series(FIG8, random_valid_slope(rng), range(1, 8))
        ok = ok and all(w.D_k % 3 == 2 for w in ws)
        ok = ok and all(a.D_k < b.D_k for a, b in zip(ws, ws[1:]))
    for d in (7, 11, 19):
        params = random_general_params(rng, d)
        ws = construct_series(GENERAL, params, range(1, 8))
        ok = ok and all(w.D_k % d == params.x for w in ws)
        ok = ok and all(a.D_k < b.D_k for a, b in zip(ws, ws[1:]))
    report(4, "residue conditions", ok)


def test_criterion_5_congruence_claim():
    omega = QuadInt.tau(3) - 1
    a = parse_psl("[[1,2],[0,1]]", 3)
    b = PslElement.from_entries(QuadInt.integer(3, 1), QuadInt.integer(3, 0),
                                omega, QuadInt.integer(3, 1))
    g = (a * b) ** 2
    target = phi_n(g, 4)
    rng = random.Random(104)
    ok = True
    for _ in range(20):
        h = fig8_h(random_valid_slope(rng))
        ok = ok and phi_n(h, 4) == target and in_gamma8(h)
    report(5, "congruence claim", ok)


def test_criterion_6_finite_model_suite():
    full = enumerate_psl2(3, 4)
    kernel = [m for m in full if reduce_level(m, 2).is_identity()]
    ok = len(kernel) == 32
    ok = ok and all((m * m).is_identity() for m in kernel)
    ok = ok and all(x * y == y * x for x in kernel for y in kernel)
    ok = ok and 32 == 2 ** 5  # elementary abelian of rank 5
    h8 = gamma8_level4_image()
    ok = ok and len(full) == 12 * len(h8)
    g1, g2 = gamma8_generators()
    g3 = gamma8_prime_extra_generator()
    h8p = group_closure((phi_n(g1, 4), phi_n(g2, 4), phi_n(g3, 4)))
    ok = ok and len(h8p) == 2 * len(h8)
    w = construct_witness(FIG8, validate_fig8(20, 7), 1)
    ok = ok and any("surjective" in note for note in w.assumptions)
    ok = ok and "assumption:" in w.render()
    report(6, "finite-model congruence suite", ok)


def test_criterion_7_discriminant_invariance():
    rng = random.Random(107)
    ok = True
    for _ in range(1000):
        d = rng.choice((1, 2, 3, 7))
        t = random_psl(rng, d)
        c = random_circle(rng, d)
        ok = ok and discriminant(circle_action(t, c)) == discriminant(c)
    report(7, "discriminant invariance", ok)


def test_criterion_8_quaternion_correspondence():
    rng = random.Random(108)
    ok = True
    for _ in range(1000):
        A = QuatAlgebra(rng.choice((-1, -2, -3, -7)), rng.randint(1, 25))
        x = random_quaternion(rng, A)
        y = random_quaternion(rng, A)
        mx = rho(x)
        tr = mx.trace()
        det = mx.det()
        ok = ok and tr.y == 0 and tr.trace() / 2 == x.reduced_trace()
        ok = ok and det.y == 0 and det.trace() / 2 == x.reduced_norm()
        ok = ok and mx * rho(y) == rho(x * y)
    for d, D in ((3, 2), (7, 3)):
        A = QuatAlgebra(-d, D)
        found = 0
        for u in product(range(-6, 7), repeat=4):
            if (u[0] - u[1]) % 2 or (u[2] - u[3]) % 2:
                continue
            x = Quaternion(A, *(Fraction(c, 2) for c in u))
            if x.reduced_norm() != 1:
                continue
            found += 1
            m = order_unit_to_stab(x, d, D)
            ok = ok and stab_form(m, D) is not None
        ok = ok and found >= 2
    report(8, "quaternion correspondence", ok)


def test_criterion_9_verifier_integrity():
    witnesses = construct_series(FIG8, validate_fig8(20, 7), range(1, 4))
    witnesses += construct_series(
        GENERAL, validate_general(7, 1 + 7 * QuadInt.tau(7)), range(1, 3))
    parsed = parse_witnesses(render_witnesses(witnesses))
    ok = parsed == witnesses
    ok = ok and all(verify_witness(w).ok for w in parsed)
    # tamper every scalar field of a witness in turn; each must be caught
    w = witnesses[0]
    for field_name in ("norm_xi", "r", "t", "n_k", "D_k", "k"):
        bad = w._replace(**{field_name: getattr(w, field_name) + 1})
        ok = ok and not verify_witness(bad).ok
    ok = ok and not verify_witness(w._replace(xi=w.xi + 1)).ok
    ok = ok and not verify_witness(w._replace(alpha_k=w.alpha_k + 1)).ok
    ok = ok and not verify_witness(w._replace(beta_k=w.beta_k + 1)).ok
    ok = ok and not verify_witness(w._replace(word=w.word[1:])).ok
    report(9, "verifier integrity", ok)
