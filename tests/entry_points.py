"""What the commands must do: the one statement of it, and the entry points
of the reachability gate in `test_hygiene.py`.

`run()` calls `bianchicert.cli.main` in this process over each command and
edited witness file, asserts each exit code, the `: fail` lines of each
verdict and the `error:` line of each refusal, and then runs the three
demos.  It works in the current directory, where it writes the witness
files and their edited copies.  The CI workflow `.github/workflows/tier1.yml`
runs it as one step; the workflow's own steps check only what needs a
shell: the installed console script, the time limits of the refusals and a
reader that closes the pipe early.

Run:  PYTHONPATH=src:tests python -c "import entry_points; entry_points.run()"
"""

import contextlib
import io
import re
import runpy
from pathlib import Path

from bianchicert.cli import EXIT_BAD_INPUT, EXIT_MISMATCH, EXIT_OK, main

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
F_WORD = "word: sigma^-14811 h^1 sigma^6 h^-1 sigma^-14811"
F_H = "h: [[0+1*sqrt(-3),-80-56*sqrt(-3)],[20-14*sqrt(-3),0+1317*sqrt(-3)]]"
F_H_NEGATED = "h: [[0-1*sqrt(-3),80+56*sqrt(-3)],[-20+14*sqrt(-3),0-1317*sqrt(-3)]]"
F_ALPHA = "alpha_k: 86746012705-5928*sqrt(-3)"
F_G_K = ("g_k: [[86746012705-5928*sqrt(-3),-25695903883771680-17987132718640176*sqrt(-3)],"
         "[-118560+82992*sqrt(-3),86746012705+5928*sqrt(-3)]]")
F_G_K_NEGATED = ("g_k: [[-86746012705+5928*sqrt(-3),25695903883771680+17987132718640176*sqrt(-3)],"
                 "[118560-82992*sqrt(-3),-86746012705-5928*sqrt(-3)]]")


def bianchicert(*argv: str, want: int = EXIT_OK) -> str:
    """The stdout of `bianchicert argv`, which must exit with `want`, and
    name its fault on a line `error: ...` if that is bad input."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(list(argv))
    assert got == want, f"bianchicert {' '.join(argv)} exited {got}, not {want}: {err.getvalue()}"
    assert want != EXIT_BAD_INPUT or err.getvalue().startswith("error:"), err.getvalue()
    return out.getvalue()


def edited(source: str, target: str, line: str, new: str, count: int = 0) -> str:
    """Write target: source with every line that is exactly `line`, or the
    first `count` of them, replaced by `new`."""
    text, found = re.subn(f"^{re.escape(line)}$", lambda _: new, Path(source).read_text(),
                          count=count, flags=re.M)
    assert found, f"no line {line!r} in {source}"
    Path(target).write_text(text)
    return target


def run() -> None:
    for xi, d, path in (("1+7*eta", "7", "w.txt"), ("1+2*sqrt(-5)", "5", "w5.txt")):
        bianchicert("construct", "general", "--d", d, "--xi", xi, "--k", "1..3", "--out", path)
        bianchicert("verify", path)
    bianchicert("construct", "fig8", "--p", "20", "--q", "7", "--k", "1..10", "--out", "f.txt")
    verdict = bianchicert("verify", "f.txt")
    bianchicert("construct", "fig8", "--p", "20", "--q", "7", "--k", "1..3", "--format", "text")
    bianchicert("construct", "fig8", "--p", "20", "--q", "7", "--k", "1..100000000000000",
                want=EXIT_BAD_INPUT)

    for source, line, new, fails in (
            ("f.txt", "D_k: 216733332353", "D_k: 216733332354", ("field.D_k",)),
            ("w.txt", "D_k: 5759153956", "D_k: 5759153957", ("field.D_k",)),
            ("f.txt", F_WORD, "word: h^3", ("field.word",)),
            ("f.txt", F_WORD, F_WORD.replace("sigma^6", "sigma^7"),
             ("check.closed_form", "check.normal_closure_word"))):
        shown = bianchicert("verify", edited(source, "bad.txt", line, new), want=EXIT_MISMATCH)
        assert all(f"  {name}: fail" in shown.splitlines() for name in fails), shown
    # the first g_k with a11 off by one is not unimodular: exactly two entries fail
    shown = bianchicert("verify", edited("f.txt", "f_bad_gk.txt", F_G_K,
                                         F_G_K.replace("[[86746012705-", "[[86746012706-"), 1),
                        want=EXIT_MISMATCH)
    assert [line for line in shown.splitlines() if line.endswith(": fail")] == [
        "  field.g_k: fail", "  check.closed_form: fail"], shown
    # the first alpha_k off by one fails its field and the unit determinant; h's
    # a12 off by one fails its field alone, as the checks read the honest h
    for path, line, new, fails in (
            ("f_bad_alpha.txt", F_ALPHA, F_ALPHA.replace(": 86746012705-", ": 86746012706-"),
             ["  field.alpha_k: fail", "  check.unit_determinant: fail"]),
            ("f_bad_h.txt", F_H, F_H.replace(",-80-", ",-81-"), ["  field.h: fail"])):
        shown = bianchicert("verify", edited("f.txt", path, line, new, 1), want=EXIT_MISMATCH)
        assert [row for row in shown.splitlines() if row.endswith(": fail")] == fails, shown
    bianchicert("verify", edited("f.txt", "f_omega.txt", "xi: 20+14*sqrt(-3)", "xi: 34+28*omega"))
    # verify validates x again: a residue x reads no verdict, and the first
    # record's x another non-residue fails what x derives and residue_class
    shown = bianchicert("verify", edited("w.txt", "w_residue_x.txt", "x: 3", "x: 2"),
                        want=EXIT_MISMATCH)
    assert [row for row in shown.splitlines() if row.startswith("  ")] == ["  params: fail"] * 3
    shown = bianchicert("verify", edited("w.txt", "w_other_x.txt", "x: 3", "x: 5", 1),
                        want=EXIT_MISMATCH)
    assert [row for row in shown.splitlines() if row.endswith(": fail")] == [
        "  field.n_k: fail", "  field.D_k: fail", "  field.alpha_k: fail",
        "  check.residue_class: fail"], shown

    crlf = []
    for number, line in enumerate(Path("f.txt").read_text().splitlines()):
        if number and line.startswith("mode: "):
            crlf.append("# the next record\r\n")
        crlf.append(f"{line}  \r\n")
    Path("f_crlf.txt").write_bytes("".join(crlf).encode())
    assert bianchicert("verify", "f_crlf.txt") == verdict
    Path("f_bom.txt").write_bytes(b"\xef\xbb\xbf" + Path("f.txt").read_bytes())
    assert bianchicert("verify", "f_bom.txt") == verdict
    # h is compared up to sign, so the first record's h of the other sign passes
    assert bianchicert("verify", edited("f.txt", "f_neg_h.txt", F_H, F_H_NEGATED, 1)) == verdict
    # g_k is compared up to sign too
    assert bianchicert("verify", edited("f.txt", "f_neg_gk.txt", F_G_K, F_G_K_NEGATED, 1)) == verdict

    long_g_k = "g_k: [[" + ",".join(["1"] * 100000) + "]]"  # the first record's, 200 KB
    Path("f_long.txt").write_text(re.sub(r"^g_k: .*$", lambda _: long_g_k,
                                         Path("f.txt").read_text(), count=1, flags=re.M))
    Path("empty.txt").write_text("")
    for path in ("f_long.txt", edited("f.txt", "f_big_d.txt", "d: 3", "d: 100000000000031"),
                 "empty.txt"):
        bianchicert("verify", path, want=EXIT_BAD_INPUT)

    assert "smallest non-residue: 5" in bianchicert("residues", "--d", "97").splitlines()
    bianchicert("appendix")

    with contextlib.redirect_stdout(io.StringIO()):
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
