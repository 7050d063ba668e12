"""Walk through the figure-eight construction for the slope 20/7.

Builds the conjugator h, the middle factor h sigma^6 h^-1 for the parabolic
sigma = mu^20 lambda^7, and the first three certified witnesses, printing
every intermediate exactly.

Run:  python3 demos/demo_fig8.py
"""

from bianchicert.pipeline import FIG8, bezout_rt, construct_series, h_matrix, validate_fig8
from bianchicert.psl2 import PslElement, eval_word, render_word


def main() -> None:
    params = validate_fig8(20, 7)
    xi = params.xi
    n = xi.norm()
    print(f"slope p/q = {params.p}/{params.q}")
    print(f"xi = {xi}   |xi|^2 = {n}")

    r, t = bezout_rt(3, 4 * n)
    print(f"Bezout: -3*{r} - {4 * n}*({t}) = {-3 * r - 4 * n * t}")

    h = PslElement(h_matrix(params.level, 3, xi, r, t))
    print(f"h = {h.render()}")

    f = eval_word(xi, h, (0, 6, 0))  # sigma^0 h sigma^6 h^-1 sigma^0
    print(f"h sigma^6 h^-1 = {f.render()}   trace = {f.trace()}")

    print()
    for w in construct_series(FIG8, params, range(1, 4)):
        print(f"k = {w.k}")
        print(f"  n_k   = {w.n_k}")
        print(f"  D_k   = {w.D_k}")
        print(f"  word  = {render_word(w.word)}")
        print(f"  alpha = {w.alpha_k}")
        print(f"  beta  = {w.beta_k}")
        print(f"  checks passed: {', '.join(w.checks)}")


if __name__ == "__main__":
    main()
