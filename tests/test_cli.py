import ast
import contextlib
import io
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchicert import cli, golden
from bianchicert.cli import (EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK,
                             main, parse_k_range)
from bianchicert.pipeline import (LAYOUTS, ConsistencyError, InvalidParams, parse_witnesses,
                                  verify_witness)

from test_pipeline import (FUZZ_RECORDS, HOSTILE_D, LAYOUT_PROBES, REPEATED_KEYS, edited,
                           inserted_ahead, sugared)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def process_env():
    """The environment of a `python` child against src/, with the int-to-str
    digit limit pinned at CPython's default."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": pythonpath, "PYTHONINTMAXSTRDIGITS": "4300"}


def run_process(*args):
    """`python *args` in `process_env()`."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=process_env(), timeout=120)


class ClosedPipe(io.StringIO):
    """A stdout whose reader stopped early, as `| head -1` does."""

    def write(self, _text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("construct", "fig8", "--p", "20", "--q", "7", "--k", "1..3"),
    ("construct", "fig8", "--p", "20", "--q", "7", "--k", "1..3", "--format", "text"),
    ("residues", "--d", "7"),
    ("appendix",),
], ids=["construct", "construct-text", "residues", "appendix"])
def test_closed_stdout_is_not_a_crash(capsys, monkeypatch, argv):
    # the rest of the output goes to os.devnull, and the exit code stands
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(list(argv))
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


def test_commands_import_no_rational_arithmetic(tmp_path):
    # a fresh interpreter runs every command; none of them needs the fractions
    # and decimal modules, and none pays for dataclasses and the inspect module
    # it imports.  Only `appendix` reads the golden table, so the other
    # commands do not import it.  Only what the commands add counts: a site
    # hook may have loaded any of these.
    script = ("import sys\nbare = set(sys.modules)\n"
              "import contextlib, io\nfrom bianchicert.cli import main\n"
              "path = sys.argv[1]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(['construct', 'fig8', '--p', '20', '--q', '7', '--out', path]),\n"
              "             main(['verify', path]),\n"
              "             main(['construct', 'general', '--d', '7', '--xi', '1+7*eta',\n"
              "                   '--k', '1..2', '--out', path]),\n"
              "             main(['verify', path]),\n"
              "             main(['residues', '--d', '7'])]\n"
              "    before_appendix = set(sys.modules) - bare\n"
              "    codes.append(main(['appendix']))\n"
              "added = set(sys.modules) - bare\n"
              "print(codes, sorted({'fractions', 'decimal', 'dataclasses', 'inspect'} & added),\n"
              "      sorted({'bianchicert.golden'} & before_appendix))\n")
    proc = run_process("-c", script, str(tmp_path / "w.txt"))
    assert proc.stderr == ""
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] [] []\n"


class TestKRange:
    def test_range(self):
        assert list(parse_k_range("1..10")) == list(range(1, 11))

    def test_single(self):
        assert list(parse_k_range("4")) == [4]

    def test_bad(self):
        for text in ("0..3", "5..2", "x..y", ""):
            with pytest.raises(InvalidParams):
                parse_k_range(text)


class TestConstruct:
    def test_fig8_machine(self, capsys):
        code, out, _ = run(capsys, "construct", "fig8", "--p", "20", "--q", "7",
                           "--k", "1..2")
        assert code == EXIT_OK
        assert "D_k: 216733332353" in out
        assert out.count("mode: fig8") == 2
        assert "check.gamma8_membership: pass" in out

    def test_fig8_text(self, capsys):
        code, out, _ = run(capsys, "construct", "fig8", "--p", "20", "--q", "7",
                           "--k", "1", "--format", "text")
        assert code == EXIT_OK
        assert "checks=ok" in out

    def test_general(self, capsys):
        code, out, _ = run(capsys, "construct", "general", "--d", "7",
                           "--xi", "1+7*eta", "--k", "1")
        assert code == EXIT_OK
        assert "D_k: 5759153956" in out
        assert "gamma8" not in out

    def test_bad_slope(self, capsys):
        code, _, err = run(capsys, "construct", "fig8", "--p", "12", "--q", "1",
                           "--k", "1")
        assert code == EXIT_BAD_INPUT
        assert "3 divides p=12" in err

    def test_composite_d_is_refused_before_xi(self, capsys):
        # 10000019 * 10000079: square-free, so reading --xi over O_d first would cost
        # a trial division to sqrt(d), seconds
        d = "100000980001501"
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "general", "--d", d, "--xi", f"1+sqrt(-{d})")
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"error: d={d} is not a prime >= 3\n")

    def test_bad_xi_expression(self, capsys):
        code, _, err = run(capsys, "construct", "general", "--d", "7",
                           "--xi", "nonsense", "--k", "1")
        assert code == EXIT_BAD_INPUT
        assert err

    def test_k_range_past_any_memory_is_bad_input(self):
        # 10^14 values are more than any address space holds, so nothing is allocated
        proc = run_process("-m", "bianchicert.cli", "construct", "fig8", "--p", "20", "--q", "7",
                           "--k", "1..100000000000000")
        assert (proc.returncode, proc.stdout) == (EXIT_BAD_INPUT, "")
        assert proc.stderr == "error: k range '1..100000000000000' is too large to construct\n"

    def test_crash_is_internal(self):
        # a ValueError escaping construction, in a whole interpreter process
        crash = ("import sys\nfrom bianchicert import cli\n"
                 "def crash(*_args):\n    raise ValueError('boom')\n"
                 "cli.construct_series = crash\nsys.exit(cli.main(sys.argv[1:]))\n")
        proc = run_process("-c", crash, "construct", "fig8", "--p", "20", "--q", "7")
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("internal error: ValueError: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["machine", "text"])
    def test_digit_limit_is_bad_input(self, fmt):
        # xi = 10^1200 gives D_k of more than 4300 digits, which str() refuses
        # to render under CPython's default int conversion limit
        proc = run_process("-m", "bianchicert.cli", "construct", "general", "--d", "7",
                           "--xi", "1" + "0" * 1200, "--k", "1", "--format", fmt)
        assert proc.returncode == EXIT_BAD_INPUT
        assert proc.stdout == ""
        assert proc.stderr == ("error: a witness integer exceeds the interpreter's int-to-str "
                               "digit limit (4300; see PYTHONINTMAXSTRDIGITS)\n")

    @pytest.mark.parametrize("argv", [
        ("construct", "fig8", "--p", "20", "--q", "7", "--k", "1..2"),
        ("appendix",),
    ], ids=["construct", "appendix"])
    def test_consistency_error_is_internal(self, capsys, monkeypatch, argv):
        def inconsistent(*_args):
            raise ConsistencyError("witness check failed: closed_form")

        monkeypatch.setattr(cli, "construct_series", inconsistent)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "internal error: ConsistencyError: witness check failed: closed_form\n"

    def test_unwritable_out_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "missing" / "w.txt"
        code, out, err = run(capsys, "construct", "fig8", "--p", "20", "--q", "7",
                             "--out", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1
        assert not path.exists()

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "construct", "fig8", "--p", "20", "--q", "7",
                         "--k", "1..3")
        _, out2, _ = run(capsys, "construct", "fig8", "--p", "20", "--q", "7",
                         "--k", "1..3")
        assert out1 == out2


class TestVerify:
    def witness_file(self, tmp_path, capsys, *extra):
        path = tmp_path / "w.txt"
        code, _, _ = run(capsys, "construct", "fig8", "--p", "20", "--q", "7",
                         "--k", "1..2", "--out", str(path), *extra)
        assert code == EXIT_OK
        return path

    def test_round_trip(self, tmp_path, capsys):
        path = self.witness_file(tmp_path, capsys)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert out.count("PASS") == 2
        assert "fail" not in out

    def test_tampered_digit(self, tmp_path, capsys):
        path = self.witness_file(tmp_path, capsys)
        text = path.read_text().replace("86746012705", "86746012706", 1)
        path.write_text(text)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_MISMATCH
        assert "FAIL" in out
        assert "check.unit_determinant: fail" in out or "check.closed_form: fail" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/w.txt")
        assert code == EXIT_BAD_INPUT
        assert "cannot read" in err

    def test_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a witness\n")
        code, _, _ = run(capsys, "verify", str(path))
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("text", ["", "# a comment\n\n  # another\n"],
                             ids=["empty", "comments-only"])
    def test_no_records_is_bad_input(self, tmp_path, capsys, text):
        path = tmp_path / "w.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: cannot read witness file: no witness records found\n"

    @pytest.mark.parametrize("key, value, failed", [
        ("word", "tau^1 h^1 sigma^6 h^-1 tau^1", "field.word"),
        ("word", "", "field.word"),
        ("D_k", "-5", "field.D_k"),
        ("D_k", "0", "field.D_k"),
    ], ids=["unbound-word", "empty-word", "negative-D_k", "zero-D_k"])
    def test_malformed_record_is_a_mismatch(self, tmp_path, capsys, key, value, failed):
        path = self.witness_file(tmp_path, capsys)
        path.write_text(edited(path.read_text().split("\n\n")[0], key, value))
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_MISMATCH
        assert "witness k=1 mode=fig8: FAIL" in out
        assert f"  {failed}: fail" in out
        assert err == ""

    @pytest.mark.parametrize("key, line", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys())
    def test_repeated_key_is_bad_input(self, tmp_path, capsys, key, line):
        path = self.witness_file(tmp_path, capsys)
        path.write_text(inserted_ahead(path.read_text(), key, line))
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == f"error: cannot read witness file: repeated witness key {key!r}\n"

    @pytest.mark.parametrize("key", ["xi", "d", "p"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        path = self.witness_file(tmp_path, capsys)
        path.write_text(edited(path.read_text().split("\n\n")[0], key, None))
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == f"error: cannot read witness file: missing witness key {key!r}\n"

    @pytest.mark.parametrize("name, edit, message", LAYOUT_PROBES.values(),
                             ids=LAYOUT_PROBES.keys())
    def test_block_off_layout_is_bad_input(self, tmp_path, capsys, name, edit, message):
        path = tmp_path / "w.txt"
        path.write_text(edit(FUZZ_RECORDS[name].render()))
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith(f"error: cannot read witness file: {message}")
        assert err.count("\n") == 1

    def test_byte_order_mark_is_not_text(self, tmp_path, capsys):
        # an editor that saves UTF-8 with a BOM: the same records, the same verdict
        path = self.witness_file(tmp_path, capsys)
        _, expected, _ = run(capsys, "verify", str(path))
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "verify", str(bom)) == (EXIT_OK, expected, "")
        assert expected.count("PASS") == 2

    def test_sugar_record_gets_the_rendered_report(self, tmp_path, capsys):
        rendered = self.witness_file(tmp_path, capsys)
        _, expected, _ = run(capsys, "verify", str(rendered))
        path = tmp_path / "sugar.txt"
        path.write_text("\n".join(sugared(w) for w in parse_witnesses(rendered.read_text())))
        proc = run_process("-m", "bianchicert.cli", "verify", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("d, message", HOSTILE_D.values(), ids=HOSTILE_D.keys())
    def test_hostile_d_is_bad_input(self, tmp_path, capsys, d, message):
        path = self.witness_file(tmp_path, capsys)
        path.write_text(path.read_text().replace("d: 3\n", f"d: {d}\n"))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == f"error: cannot read witness file: {message}\n"

    def test_non_prime_square_free_d_is_bad_input(self, tmp_path, capsys):
        # the record is well formed over O_15, yet no valid record has a d that is not prime
        record = FUZZ_RECORDS["general-d7"].render().replace("d: 7\n", "d: 15\n")
        path = tmp_path / "w.txt"
        path.write_text(record.replace("sqrt(-7)", "sqrt(-15)"))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out, err) == (EXIT_BAD_INPUT, "",
                                    "error: cannot read witness file: d=15 is not a prime >= 3\n")

    def test_huge_xi_gets_a_verdict(self, tmp_path, capsys):
        # 7 divides |xi|^2 = 49 * 10^4400, a number past the 4300-digit str() limit
        _, record, _ = run(capsys, "construct", "general", "--d", "7", "--xi", "1+7*eta")
        path = tmp_path / "w.txt"
        path.write_text(edited(record, "xi", "7" + "0" * 2200))
        proc = run_process("-m", "bianchicert.cli", "verify", str(path))
        assert proc.returncode == EXIT_MISMATCH
        assert proc.stdout == "witness k=1 mode=general: FAIL\n  params: fail\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("tampered, verdict", [(False, EXIT_OK), (True, EXIT_MISMATCH)],
                             ids=["pass", "fail"])
    def test_closed_stdout_is_not_a_crash(self, tmp_path, capsys, monkeypatch, tampered,
                                          verdict):
        path = self.witness_file(tmp_path, capsys)
        if tampered:
            path.write_text(path.read_text().replace("86746012705", "86746012706", 1))
        verified = []
        monkeypatch.setattr(cli, "verify_witness",
                            lambda w: verified.append(w.k) or verify_witness(w))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["verify", str(path)])
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert (code, verified) == (verdict, [1, 2])
        assert capsys.readouterr().err == ""

    def test_escaped_exception_is_internal(self, tmp_path, capsys, monkeypatch):
        def crash(_w):
            raise RuntimeError("boom")

        path = self.witness_file(tmp_path, capsys)
        monkeypatch.setattr(cli, "verify_witness", crash)
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_INTERNAL
        assert err == "internal error: RuntimeError: boom\n"


class TestResidues:
    def test_d7(self, capsys):
        code, out, _ = run(capsys, "residues", "--d", "7")
        assert code == EXIT_OK
        assert "quadratic residues: [1, 2, 4]" in out
        assert "non-residues: [3, 5, 6]" in out
        assert "smallest non-residue: 3" in out

    def test_composite(self, capsys):
        code, _, err = run(capsys, "residues", "--d", "9")
        assert code == EXIT_BAD_INPUT
        assert "not a prime" in err

    @staticmethod
    def lines(out):
        """The printed lines of `residues`, by label."""
        return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)

    @classmethod
    def tables(cls, out):
        """The two printed lists of `residues`."""
        lines = cls.lines(out)
        return (ast.literal_eval(lines["quadratic residues"]),
                ast.literal_eval(lines["non-residues"]))

    def test_tables_match_squares(self, capsys):
        for d in (n for n in range(3, 200) if all(n % f for f in range(2, n))):
            squares = {x * x % d for x in range(1, d)}
            code, out, _ = run(capsys, "residues", "--d", str(d))
            assert code == EXIT_OK
            assert self.tables(out) == (sorted(squares),
                                        sorted(set(range(1, d)) - squares)), d
            smallest = min(set(range(1, d)) - squares)
            assert self.lines(out)["smallest non-residue"] == str(smallest), d

    def test_reader_that_stops_early(self):
        # the tables of d = 100003 (about 800 KB) overfill the pipe, whose
        # reader closes it after 5 bytes
        with subprocess.Popen([sys.executable, "-m", "bianchicert.cli", "residues", "--d",
                               "100003"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=process_env()) as proc:
            assert proc.stdout.read(5) == b"d = 1"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (EXIT_OK, b"")

    def test_large_prime_is_fast(self, capsys):
        # a scan of the residue list for each x took about 9 s at this d
        start = time.perf_counter()
        code, out, _ = run(capsys, "residues", "--d", "40009")
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_OK
        residues, nonresidues = self.tables(out)
        assert len(residues) == len(nonresidues) == 20004
        assert sorted(residues + nonresidues) == list(range(1, 40009))


class TestAppendix:
    def test_regression(self, capsys):
        code, out, _ = run(capsys, "appendix")
        assert code == EXIT_OK
        assert "all 10 rows and h match bit-exactly" in out

    @pytest.mark.parametrize("target, tamper, message", [
        ("golden_h", lambda h: -h, "MISMATCH in h: got [[0+1*sqrt(-3),"),
        ("golden_rows", lambda rows: rows[:3] + [rows[3]._replace(D_k=rows[3].D_k + 1)],
         "MISMATCH in D_4: got "),
        ("golden_rows", lambda rows: rows[:6] + [rows[6]._replace(g_k=-rows[6].g_k)],
         "MISMATCH in g_7\n"),
    ], ids=["h", "D_k", "g_k"])
    def test_mismatch_is_named(self, capsys, monkeypatch, target, tamper, message):
        reference = getattr(golden, target)
        monkeypatch.setattr(golden, target, lambda: tamper(reference()))
        code, out, err = run(capsys, "appendix")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1


# the fields the magnitude gate scales: the leading digits of an integer field,
# of xi's rational part or of the first word exponent get 10^3 to 10^5 more
MAGNIFIED = ("k", "p", "q", "n_k", "D_k", "r", "t", "norm_xi", "x", "xi", "word")


def magnified(text, key, digits, negate=False):
    """text with `digits` put ahead of the first digit run of its `key:` value,
    and an integer field negated when asked; `d:` is set to `digits`."""
    line = re.search(rf"^{key}: (.*)$", text, re.M)
    value = digits if key == "d" else re.sub(r"\d+", lambda m: digits + m[0], line[1], count=1)
    if negate and key not in ("d", "xi", "word"):
        value = value[1:] if value.startswith("-") else "-" + value
    return text[:line.start(1)] + value + text[line.end(1):]


def verify_exit(path):
    """verify's exit code on path and its wall time, under CPython's default
    4300-digit limit on int() and str()."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = main(["verify", str(path)])
            return code, time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def magnitude_case(draw):
    name = draw(st.sampled_from(sorted(FUZZ_RECORDS)))
    text = FUZZ_RECORDS[name].render()
    if draw(st.integers(0, 11)) == 0:
        return magnified(text, "d", str(draw(st.integers(1, 10**30 - 1))))
    layout = LAYOUTS[FUZZ_RECORDS[name].mode]
    key = draw(st.sampled_from([key for key in MAGNIFIED if key in layout]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.integers(10**3, 4300) | st.integers(4301, 10**5))  # both sides of the limit
    digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=size - 1))
    return magnified(text, key, digits, draw(st.booleans()))


class TestMagnitudeFuzz:
    """A record with one field scaled to 10^3-10^5 digits, or a d of up to
    30 digits, gets a verdict or is bad input, never a crash, within 1 s."""

    @settings(max_examples=150, deadline=None)
    @given(magnitude_case())
    def test_scaled_field_is_never_a_crash(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("magnitude") / "w.txt"
        path.write_text(text)
        code, seconds = verify_exit(path)
        assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_BAD_INPUT)
        assert seconds < 1.0

    @pytest.mark.parametrize("name, key", [(name, key) for name in sorted(FUZZ_RECORDS)
                                           for key in MAGNIFIED
                                           if key in LAYOUTS[FUZZ_RECORDS[name].mode]])
    def test_verdict_below_the_digit_limit_and_bad_input_past_it(self, tmp_path, name, key):
        for size, expected in ((4000, EXIT_MISMATCH), (4400, EXIT_BAD_INPUT)):
            path = tmp_path / f"w{size}.txt"
            path.write_text(magnified(FUZZ_RECORDS[name].render(), key, "7" * size))
            code, seconds = verify_exit(path)
            assert code == expected and seconds < 1.0
