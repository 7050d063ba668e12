"""Published reference values for the figure-eight construction at
p = 20, q = 7: the conjugator h and the ten rows (k, D_k, g_k).

These are the acceptance anchor for the whole pipeline; the regression
command rebuilds the series and diffs it against this table bit-exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .psl2 import Mat2, parse_mat2
from .quadint import parse_quadint

GOLDEN_P = 20
GOLDEN_Q = 7

GOLDEN_H = "[[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]"

# (k, D_k, a11, a12, a21, a22); a22 = conj(a11), a21 fixed across k
_ROWS = [
    (1, 216733332353,
     "86746012705-5928*sqrt(-3)", "-25695903883771680-17987132718640176*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "86746012705+5928*sqrt(-3)"),
    (2, 555090222500,
     "138825247393-5928*sqrt(-3)", "-65811496779600000-46068047745720000*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "138825247393+5928*sqrt(-3)"),
    (3, 1049684816711,
     "190904482081-5928*sqrt(-3)", "-124450631869256160-87115442308479312*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "190904482081+5928*sqrt(-3)"),
    (4, 1700517114986,
     "242983716769-5928*sqrt(-3)", "-201613309152740160-141129316406918112*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "242983716769+5928*sqrt(-3)"),
    (5, 2507587117325,
     "295062951457-5928*sqrt(-3)", "-297299528630052000-208109670041036400*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "295062951457+5928*sqrt(-3)"),
    (6, 3470894823728,
     "347142186145-5928*sqrt(-3)", "-411509290301191680-288056503210834176*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "347142186145+5928*sqrt(-3)"),
    (7, 4590440234195,
     "399221420833-5928*sqrt(-3)", "-544242594166159200-380969815916311440*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "399221420833+5928*sqrt(-3)"),
    (8, 5866223348726,
     "451300655521-5928*sqrt(-3)", "-695499440224954560-486849608157468192*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "451300655521+5928*sqrt(-3)"),
    (9, 7298244167321,
     "503379890209-5928*sqrt(-3)", "-865279828477577760-605695879934304432*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "503379890209+5928*sqrt(-3)"),
    (10, 8886502689980,
     "555459124897-5928*sqrt(-3)", "-1053583758924028800-737508631246820160*sqrt(-3)",
     "-118560+82992*sqrt(-3)", "555459124897+5928*sqrt(-3)"),
]


class GoldenRow(NamedTuple):
    k: int
    D_k: int
    g_k: Mat2


def golden_h() -> Mat2:
    return parse_mat2(GOLDEN_H, 3)


def golden_rows() -> list[GoldenRow]:
    rows = []
    for k, D, *entries in _ROWS:
        mat = Mat2(*(parse_quadint(e, 3) for e in entries))
        rows.append(GoldenRow(k, D, mat))
    return rows
