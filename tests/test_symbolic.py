"""The paper's identity for every slope and every k, on the library's own
kernel.  `witness_values`, `h_xy` and `eval_word` use ring operations alone,
so they run on sympy symbols as they run on ints.

For each family below, with every parameter a free symbol:

- the word's value sigma^{n_k} h sigma^m h^-1 sigma^{n_k} equals the closed
  form g_k = (alpha, D beta; conj(beta), conj(alpha)), coordinate by
  coordinate;
- |alpha|^2 - D|beta|^2 = 1;
- (D_k - x)/d is a polynomial with integer coefficients, so D_k = x (mod d).

r and t are free symbols too: the word reads only h's first column
(sqrt(-d); conj(xi)), so no Bezout relation enters.  The families are

- fig8: d = 3, (s, n) = (1, 1), xi = (p - 2q) + 4q tau, x = 2, level 4, in Z[p, q, k];
- d = 4e + 3: (s, n) = (1, e + 1), xi = u + v tau, in Z[e, u, v, x, k];
- d = 4e + 1: (s, n) = (0, d), xi = u + v tau, in Z[e, u, v, x, k].

An identity of polynomials holds at every integer point, so each holds for
every admissible slope, d, xi, x and k.  The word's determinant is 1 for any
first column of h, any xi and any exponents, over any (s, n).
"""

import pytest
import sympy

from bianchicert.pipeline import h_xy, witness_values
from bianchicert.psl2 import det_xy, eval_word

p, q, e, u, v, x, k, r, t = sympy.symbols("p q e u v x k r t", integer=True)

# name -> (d, s, n, xi, x, level, the generators of the family's polynomial ring)
FAMILIES = {
    "fig8": (3, 1, 1, (p - 2 * q, 4 * q), 2, 4, (p, q, k)),
    "d=4e+3": (4 * e + 3, 1, e + 1, (u, v), x, 1, (e, u, v, x, k)),
    "d=4e+1": (4 * e + 1, 0, 4 * e + 1, (u, v), x, 1, (e, u, v, x, k)),
}


def norm(s, n, a):
    """|a|^2 = a conj(a) = x^2 + s x y + n y^2 for a = x + y tau."""
    ax, ay = a
    return ax * ax + s * ax * ay + n * ay * ay


@pytest.mark.parametrize("family", FAMILIES)
def test_word_is_the_closed_form(family):
    d, s, n, xi, x_, level, gens = FAMILIES[family]
    honest = witness_values(s, n, d, xi, x_, k)
    n_k, m, D_k = honest["n_k"], honest["m"], honest["D_k"]
    word = eval_word(s, n, xi, h_xy(s, level, xi, r, t), (n_k, m, n_k))
    assert [sympy.expand(a - b) for a, b in zip(word, honest["g_k"])] == [0] * 8
    alpha, beta = honest["alpha_k"], honest["beta_k"]
    assert sympy.expand(norm(s, n, alpha) - D_k * norm(s, n, beta)) == 1
    quotient, remainder = sympy.div(sympy.Poly(D_k - x_, *gens), sympy.Poly(d, *gens),
                                    domain=sympy.QQ)
    assert remainder.is_zero and all(c.is_integer for c in quotient.coeffs())


def test_word_has_determinant_one():
    s, n, a, b, c = sympy.symbols("s n a b c", integer=True)
    xi = sympy.symbols("xi_x xi_y", integer=True)
    h = sympy.symbols("h1:9", integer=True)
    assert [sympy.expand(w) for w in det_xy(s, n, eval_word(s, n, xi, h, (a, b, c)))] == [1, 0]
