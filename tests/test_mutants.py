"""A mutation gate on the witness checks: each clause that can change a
verdict has a test that fails without it.

`MUTANTS` names single edits of the library, each a row (file, old text, new
text, killing node).  The old text occurs exactly once in its file, so a row
whose text has gone or been repeated fails.  Every clause of
`pipeline.run_checks` has a row, and so does each part of `verify_witness`'s
kind gate.  A mutant is applied to a copy of `src`, `tests`, `demos` and
`pyproject.toml` in a temporary directory, and its node runs there in a fresh
interpreter with that copy as the working directory and its `src` and
`tests` on PYTHONPATH, so no import reaches the unmutated tree; the node must
fail.  A control run of every node on an unmutated copy must pass.  No node
may be in `test_hygiene.py`: its unused-import and reachability checks see a
deleted call, not a wrong verdict.

A row with no node survives every test.  It is kept only with a proof that it
changes no verdict, in `EQUIVALENT`, in the style of `test_hygiene.ORACLES`.

Run alone:  PYTHONPATH=src:tests python -m pytest -q tests/test_mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "pyproject.toml")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
PIPELINE, CIRCLES = "src/bianchicert/pipeline.py", "src/bianchicert/circles.py"

PINNED = "tests/test_pinned.py::test_witnesses_and_verdicts_are_pinned"
CLAIMED = "tests/test_pipeline.py::TestClaimedG_k::"
COCOMPACT = "tests/test_pipeline.py::TestCocompactIsItsOwnCheck::test_tampered_D_k"
TRACE = "tests/test_pipeline.py::TestHyperbolicTrace::test_matches_classify"
NON_POSITIVE_D_K = "tests/test_pipeline.py::TestVerifyIsTotal::test_non_positive_D_k"
BUILT_IN_CODE = "tests/test_pipeline.py::TestLayout::test_record_built_in_code_gets_a_report"
CLOSED = "(g_word == g_closed or g_word == tuple([-v for v in g_closed]))"

# name -> (file, old text, new text, the node that must fail, or None for a
# survivor that EQUIVALENT keeps)
MUTANTS = {
    "closed_form passes a g_k over another ring":
        (PIPELINE, "g_closed is not None and claimed.g_k.a11.d == d", "g_closed is not None",
         "tests/test_pipeline.py::TestRunChecksOracle::"
         "test_g_k_over_another_ring_fails_closed_form"),
    "closed_form fails -g_k": (PIPELINE, CLOSED, "(g_word == g_closed)",
                               CLAIMED + "test_other_sign_verifies_as_written"),
    "closed_form passes any unimodular g_k": (PIPELINE, CLOSED, "True", PINNED),
    "closed_form passes a g_k of determinant other than 1":
        (PIPELINE, 'checks["closed_form"] = (g_closed is not None and',
         'checks["closed_form"] = (g_closed is None or', PINNED),
    "unit_determinant forced true": (PIPELINE, "alpha.norm() - D_k * beta.norm() == 1", "True",
                                     "tests/test_pipeline.py::TestVerify::"
                                     "test_tampered_diagonal_digit"),
    "residue_class forced true": (PIPELINE, 'checks["residue_class"] = D_k % d == x',
                                  'checks["residue_class"] = True', COCOMPACT),
    "nontrivial forced true": (PIPELINE, "g not in _PLUS_MINUS_ONE", "True",
                               CLAIMED + "test_plus_minus_one_is_trivial"),
    "hyperbolic_trace with >= 2": (PIPELINE, "abs(expected_trace) > 2",
                                   "abs(expected_trace) >= 2", TRACE),
    "hyperbolic_trace passes a non-rational trace":
        (PIPELINE, 'checks["hyperbolic_trace"] = g[1] + g[7] == 0 and ',
         'checks["hyperbolic_trace"] = ', TRACE),
    "hyperbolic_trace reads no trace": (PIPELINE, "abs(g[0] + g[6]) == abs(expected_trace) > 2",
                                        "abs(expected_trace) > 2", PINNED),
    "stabilizer_membership without stab_form": (PIPELINE, "D_k >= 1 and stab_form(d, g, D_k)",
                                                "D_k >= 1", PINNED),
    "stabilizer_membership without D_k >= 1":
        (PIPELINE, 'checks["stabilizer_membership"] = D_k >= 1 and ',
         'checks["stabilizer_membership"] = ', NON_POSITIVE_D_K),
    "normal_closure_word forced true": (PIPELINE, "claimed.word == witness_word(n_k, m)", "True",
                                        "tests/test_pipeline.py::TestVerify::test_tampered_word"),
    "gamma8_membership without in_gamma8(d, g)":
        (PIPELINE, "congruence.in_gamma8(d, g) and congruence.in_gamma8(d, h)",
         "congruence.in_gamma8(d, h)", CLAIMED + "test_unimodular_g_k_outside_gamma8"),
    "gamma8_membership without in_gamma8(d, h)":
        (PIPELINE, "congruence.in_gamma8(d, g) and congruence.in_gamma8(d, h)",
         "congruence.in_gamma8(d, g)", None),
    "cocompact forced true": (PIPELINE, "D_k >= 1 and cocompact_certificate(d, D_k)",
                              "D_k >= 1", COCOMPACT),
    "cocompact := residue_class's verdict":
        (PIPELINE, 'checks["cocompact"] = D_k >= 1 and cocompact_certificate(d, D_k)',
         'checks["cocompact"] = checks["residue_class"]', COCOMPACT),
    "cocompact without D_k >= 1": (PIPELINE, 'checks["cocompact"] = D_k >= 1 and ',
                                   'checks["cocompact"] = ', NON_POSITIVE_D_K),
    "stab_form without ey == -ay": (CIRCLES, "ey == -ay and ", "", None),
    "stab_form with >= 1": (CIRCLES, "n * cy * cy) == 1)", "n * cy * cy) >= 1)", None),
    "kind gate without the field types": (PIPELINE, "tuple(map(type, kinds[0](w))) == kinds[1]",
                                          "True", BUILT_IN_CODE),
    "kind gate without the matrix entries":
        (PIPELINE, "{*map(type, w.h.entries() + w.g_k.entries())} == {QuadInt}", "True",
         BUILT_IN_CODE),
    "kind gate without the word's pairs":
        (PIPELINE, "all(type(t) is tuple and tuple(map(type, t)) == (str, int) for t in w.word)",
         "True", BUILT_IN_CODE),
}
# Each survivor kept, with the proof that it changes no verdict.
EQUIVALENT = {
    "gamma8_membership without in_gamma8(d, h)":
        "h is the honest conjugator, one class mod 4 for every valid slope: q is odd as 4 | p "
        "and gcd(p, q) = 1, and -3r - 4|xi|^2 t = 1 gives r = 1 (mod 4), so h = (sqrt(-3), 0; "
        "2, sqrt(-3)) mod 4, coordinates (3, 2, 0, 0, 2, 0, 3, 2), which is in Gamma_8's image "
        "(TestSettledFacts::test_h_is_one_class_mod_4).  Kept until ROADMAP item 1 certifies h.",
    "stab_form without ey == -ay":
        "run_checks passes stab_form only determinant-1 coordinates (psl_xy's g_k, or the "
        "word's value).  With a12 = D conj(a21), det = a11 a22 - D|a21|^2 = 1 and the norm "
        "equation |a11|^2 - D|a21|^2 = 1 give a11 a22 = a11 conj(a11), a11 != 0, so a22 = "
        "conj(a11), whose tau part is -ay.",
    "stab_form with >= 1":
        "under determinant 1, a12 = D conj(a21) and a22 = conj(a11), the norm |a11|^2 - "
        "D|a21|^2 is det = 1 itself, so >= 1 and == 1 agree.",
}
GATE_TIMEOUT = 120  # seconds per subprocess; a node here takes about one


def copy_tree(target: Path) -> Path:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, target / name)
    return target


def run_in(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """`python args` in tree, which it imports bianchicert and the oracles from."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(tree / top) for top in ("src", "tests"))}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=GATE_TIMEOUT)


@pytest.mark.parametrize("name", MUTANTS)
def test_row_is_well_formed(name):
    path, old, new, node = MUTANTS[name]
    assert (ROOT / path).read_text().count(old) == 1, f"{name}: its old text is not there once"
    assert old != new
    assert (node is None) == (name in EQUIVALENT), f"{name}: a survivor needs a proof"
    assert node is None or not node.startswith("tests/test_hygiene.py")


def test_every_equivalent_names_a_row():
    assert EQUIVALENT.keys() <= MUTANTS.keys()


def test_every_check_has_a_row():
    source = (ROOT / PIPELINE).read_text()
    run_checks = next(node for node in ast.parse(source).body
                      if isinstance(node, ast.FunctionDef) and node.name == "run_checks")
    olds = [old for path, old, *_ in MUTANTS.values() if path == PIPELINE]
    for node in ast.walk(run_checks):
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "checks"):
            statement = ast.get_source_segment(source, node)
            assert any(old in statement for old in olds), statement


def test_killing_nodes_pass_unmutated(tmp_path):
    tree = copy_tree(tmp_path)
    where = run_in(tree, "-c", "import bianchicert, oracles; print(bianchicert.__file__); "
                               "print(oracles.__file__)")
    assert [Path(p).parents[1] for p in where.stdout.splitlines()] == [tree / "src", tree], where
    nodes = sorted({node for *_, node in MUTANTS.values() if node})
    proc = run_in(tree, *PYTEST, *nodes)
    assert proc.returncode == 0, proc.stdout[-3000:]


@pytest.mark.parametrize("name", [name for name, row in MUTANTS.items() if row[3]])
def test_mutant_is_killed(name, tmp_path):
    path, old, new, node = MUTANTS[name]
    source = copy_tree(tmp_path) / path
    source.write_text(source.read_text().replace(old, new))
    proc = run_in(tmp_path, *PYTEST, node)
    # 1: a test ran and failed; 0 would be a survivor, 2-5 an error before any test ran
    assert proc.returncode == 1, f"{name} survives {node}:\n{proc.stdout[-3000:]}"
