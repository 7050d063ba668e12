import pytest

from bianchicert import cli
from bianchicert.cli import (EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK,
                             main, parse_k_range)
from bianchicert.pipeline import InvalidParams

from test_pipeline import edited


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_xi_expression(self, capsys):
        code, _, err = run(capsys, "construct", "general", "--d", "7",
                           "--xi", "nonsense", "--k", "1")
        assert code == EXIT_BAD_INPUT
        assert err

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

    @pytest.mark.parametrize("key, value, failed", [
        ("p", None, "parse.p"),
        ("word", "tau^1 h^1 sigma^6 h^-1 tau^1", "field.word"),
        ("word", "", "field.word"),
        ("D_k", "-5", "field.D_k"),
        ("D_k", "0", "field.D_k"),
    ], ids=["no-p", "unbound-word", "empty-word", "negative-D_k", "zero-D_k"])
    def test_malformed_record_is_a_mismatch(self, tmp_path, capsys, key, value, failed):
        path = self.witness_file(tmp_path, capsys)
        path.write_text(edited(path.read_text().split("\n\n")[0], key, value))
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_MISMATCH
        assert "witness k=1 mode=fig8: FAIL" in out
        assert f"  {failed}: fail" in out
        assert err == ""

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


class TestAppendix:
    def test_regression(self, capsys):
        code, out, _ = run(capsys, "appendix")
        assert code == EXIT_OK
        assert "all 10 rows and h match bit-exactly" in out
