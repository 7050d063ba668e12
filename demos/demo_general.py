"""The general-mode construction over O_7.

Starts from the translation xi = 1 + 7*eta (eta = (1+sqrt(-7))/2), picks
the smallest quadratic non-residue mod 7, and emits two witnesses whose
discriminants are non-residues mod 7 — the co-compactness certificate.

Run:  python3 demos/demo_general.py
"""

from bianchicert.circles import cocompact_certificate, smallest_nonresidue
from bianchicert.pipeline import (GENERAL, construct_series, validate_general,
                                  verify_witness)
from bianchicert.quadint import QuadInt, parse_quadint


def main() -> None:
    d = 7
    xi = parse_quadint("1+7*eta", d)
    params = validate_general(d, xi)
    print(f"d = {d}, xi = {xi}, |xi|^2 = {xi.norm()}")
    print(f"chosen non-residue x = {params.x} (smallest is {smallest_nonresidue(d)})")

    for w in construct_series(GENERAL, params, range(1, 3)):
        print(f"k = {w.k}: D_k = {w.D_k} = {w.D_k % d} (mod {d}), "
              f"co-compact stabilizer: {cocompact_certificate(d, w.D_k)}")
        report = verify_witness(w)
        print(f"  independent re-verification: {'PASS' if report.ok else 'FAIL'}")


if __name__ == "__main__":
    main()
