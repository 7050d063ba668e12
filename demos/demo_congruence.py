"""The finite congruence model over O_3 at level 4.

Enumerates PSL_2(O_3/(4)), isolates the kernel of reduction to level 2,
and sizes the figure-eight subgroup image and its index-2 overgroup.

Run:  python3 demos/demo_congruence.py
"""

from bianchicert.congruence import (enumerate_psl2, gamma8_generators,
                                    gamma8_level4_image,
                                    gamma8_prime_extra_generator,
                                    group_closure, phi_n, reduce_level)


def main() -> None:
    full = enumerate_psl2(3, 4)
    print(f"|PSL_2(O_3/(4))| = {len(full)}")

    level2 = enumerate_psl2(3, 2)
    print(f"|PSL_2(O_3/(2))| = {len(level2)}")

    kernel = [m for m in full if reduce_level(m, 2).is_identity()]
    squares_trivial = all((m * m).is_identity() for m in kernel)
    abelian = all(a * b == b * a for a in kernel for b in kernel)
    print(f"kernel of level-4 -> level-2 reduction: {len(kernel)} elements, "
          f"abelian={abelian}, exponent 2={squares_trivial}")

    h8 = gamma8_level4_image()
    print(f"figure-eight image: {len(h8)} elements, index {len(full) // len(h8)}")

    g1, g2 = gamma8_generators()
    g3 = gamma8_prime_extra_generator()
    h8p = group_closure((phi_n(g1, 4), phi_n(g2, 4), phi_n(g3, 4)))
    print(f"with the extra generator: {len(h8p)} elements "
          f"({len(h8p) // len(h8)}x the subgroup)")


if __name__ == "__main__":
    main()
