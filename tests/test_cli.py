import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resmat
from resmat import higher, matrices, qr
from resmat.cli import (
    MatrixParseError,
    _format_freq,
    build_parser,
    main,
    parse_matrix_text,
)
from resmat.matrices import COUNT_MAX_N
from resmat.rational import MR_LIMIT

QR_TEXT = "0 -1 1\n1 0 -1\n1 -1 0\n"
NON_QR_TEXT = "0 -1 -1\n-1 0 -1\n1 1 0\n"
CUBIC_TEXT = "0 w\nw 0\n"
QUARTIC_TEXT = "0 1\n-1 0\n"
QUARTIC_BAD_TEXT = "0 i\n1 0\n"


def run_cli(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseMatrixText:
    def test_commas_and_spaces(self):
        assert parse_matrix_text("0, -1, 1\n1 0 -1\n1,-1,0", 2) == \
            parse_matrix_text(QR_TEXT, 2)

    def test_reports_position(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_text("0 -1\nx 0\n", 2)
        assert "line 2, entry 1" in str(exc.value)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("0 1\n1 1\n", "line 2, entry 2: diagonal entry must be 0, got '1'"),
            ("0 0\n1 0\n", "line 1, entry 2: off-diagonal entry must not be 0"),
            ("0 1 1\n1 0 1\n1 1\n", "line 3, entry 3: row 3 has 2 entries, expected 3"),
            ("0 1 1 1\n1 0 1\n1 1 0\n", "line 1, entry 4: row 1 has 4 entries, expected 3"),
            # blank lines count in the numbering
            ("\n\n0 1\n1 x\n", "line 4, entry 2: invalid entry 'x'"),
            ("0 1\n\n1 1\n", "line 3, entry 2: diagonal entry"),
        ],
    )
    def test_reports_the_bad_entry(self, capsys, text, where):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_text(text, 2)
        assert str(exc.value).startswith(where)
        code, out, err = run_cli(capsys, ["check"], stdin=text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {where}")
        assert "None" not in err

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("0 w\nw 0\n", 2)

    def test_rejects_ragged(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("0 1\n-1 0 1\n", 2)

    def test_rejects_empty(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("  \n", 2)


class TestByteOrderMark:
    # some editors start a UTF-8 file with U+FEFF; one is dropped
    BOM = "\ufeff"

    def test_parse_drops_one(self):
        assert parse_matrix_text(self.BOM + QR_TEXT, 2) == parse_matrix_text(QR_TEXT, 2)
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_text(2 * self.BOM + QR_TEXT, 2)
        assert str(exc.value).startswith(
            f"line 1, entry 1: invalid entry {self.BOM + '0'!r}"
        )

    def test_positions_unchanged(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_text(self.BOM + "0 -1\nx 0\n", 2)
        assert str(exc.value).startswith("line 2, entry 1: invalid entry 'x'")

    @pytest.mark.parametrize("text, code", [(QR_TEXT, 0), (NON_QR_TEXT, 1)])
    def test_file_and_stdin_get_the_verdict(self, capsys, tmp_path, text, code):
        path = tmp_path / "matrix.txt"
        path.write_bytes((self.BOM + text).encode("utf-8"))
        plain = run_cli(capsys, ["check"], stdin=text)
        assert plain[0] == code
        assert run_cli(capsys, ["check", "--file", str(path)]) == plain
        assert run_cli(capsys, ["check"], stdin=self.BOM + text) == plain


class TestCheck:
    def test_member_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--file", "-"], stdin=QR_TEXT)
        assert code == 0
        assert "verdict: yes" in out
        assert "s: 2" in out

    def test_non_member_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, ["check"], stdin=NON_QR_TEXT)
        assert code == 1
        assert "verdict: no" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["check"], stdin="0 2\n2 0\n")
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["check", "--file", "/no/such/file"])
        assert code == 2

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--json"], stdin=QR_TEXT)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["s"] == 2
        assert payload["diag"] == [0, 0, 2]
        assert payload["perm"] == [1, 2, 3]

    def test_cubic(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--m", "3"], stdin=CUBIC_TEXT)
        assert code == 0
        code, _, _ = run_cli(capsys, ["check", "--m", "3"], stdin="0 w\nw2 0\n")
        assert code == 1

    @pytest.mark.parametrize(
        "text, code, printed, payload",
        [
            (
                "0 w w2\nw 0 1\nw2 1 0\n",
                0,
                "verdict: yes\ns: 1\ndiag: 2 2 2\nperm: 1 2 3\n",
                '{"diag": [2, 2, 2], "pairwise_ok": true, "perm": [1, 2, 3], '
                '"s": 1, "verdict": true}\n',
            ),
            (
                # the pair (2, 3) has the term w, so it adds to no row
                "0 w 1\nw 0 w2\n1 w 0\n",
                1,
                "verdict: no\ndiag: 2 1 1\n",
                '{"diag": [2, 1, 1], "pairwise_ok": false, "perm": null, '
                '"s": null, "verdict": false}\n',
            ),
        ],
    )
    def test_cubic_output(self, capsys, text, code, printed, payload):
        assert run_cli(capsys, ["check", "--m", "3"], stdin=text) == (code, printed, "")
        assert run_cli(capsys, ["check", "--m", "3", "--json"], stdin=text) == (
            code, payload, ""
        )

    @pytest.mark.parametrize(
        "m, text, code",
        [
            (2, QR_TEXT, 0),
            (2, NON_QR_TEXT, 1),
            (3, CUBIC_TEXT, 0),
            (3, "0 w\nw2 0\n", 1),
            (4, QUARTIC_TEXT, 0),
            (4, QUARTIC_BAD_TEXT, 1),
        ],
    )
    def test_one_pair_pass(self, capsys, monkeypatch, m, text, code):
        calls = []
        pair_diagonal = qr._pair_diagonal

        def counted(matrix):
            calls.append(matrix)
            return pair_diagonal(matrix)

        monkeypatch.setattr(qr, "_pair_diagonal", counted)
        assert run_cli(capsys, ["check", "--m", str(m)], stdin=text)[0] == code
        assert len(calls) == 1

    def test_quartic(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "--m", "4", "--json"], stdin=QUARTIC_TEXT
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pairwise_ok"] is True and payload["s"] == 2
        code, _, _ = run_cli(capsys, ["check", "--m", "4"], stdin=QUARTIC_BAD_TEXT)
        assert code == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, ["check", "--json"], stdin=QR_TEXT)
        _, out2, _ = run_cli(capsys, ["check", "--json"], stdin=QR_TEXT)
        assert out1 == out2


class TestClosedStdin:
    # Python sets sys.stdin to None when the process starts with fd 0 closed
    ERR = "error: standard input is closed; give the matrix with --file\n"

    @pytest.mark.parametrize("argv", [["check"], ["witness"]])
    def test_in_process_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(capsys, argv) == (2, "", self.ERR)

    @pytest.mark.parametrize("command", ["check", "witness"])
    def test_closed_fd_0_exit_2(self, command):
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "resmat.cli", command],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: os.close(0),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", self.ERR)


class TestClosedStdout:
    # `resmat ... | head` where head has already exited: the write end of a
    # pipe whose read end is closed fails with EPIPE at the first write
    # (unbuffered) or at the flush (buffered)
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_broken_pipe_exit_1(self, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "resmat.cli", "freq", "--exact"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_closed_fd_1_exit_1(self):
        # Python sets sys.stdout to None: the output is lost, as for a pipe
        # whose reader has gone
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "resmat.cli", "count", "--n", "3"],
            stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (1, "")


class TestClosedStderr:
    # the error line is written if it can be; the exit code stands either way
    ARGV = ["count", "--n", "0"]

    def run(self, **streams):
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "resmat.cli", *self.ARGV],
            stdout=subprocess.PIPE, text=True, timeout=60, env=env, **streams,
        )

    def test_closed_fd_2_exit_2(self):
        # sys.stderr is None, and print(file=None) would write to stdout
        proc = self.run(preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_read_only_fd_2_exit_2(self):
        with open(os.devnull, "rb") as read_only:
            proc = self.run(stderr=read_only)
        assert (proc.returncode, proc.stdout) == (2, "")


class TestArgparseClosedStream:
    # argparse sends help to stdout and usage to stderr; with one of them
    # closed it would write to the other, which must stay empty
    @staticmethod
    def run(argv, fd):
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "resmat.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: os.close(fd),
        )

    @pytest.mark.parametrize("argv", [["count"], ["count", "--n", "x"], ["bogus"]])
    def test_usage_error_with_fd_2_closed(self, argv):
        proc = self.run(argv, 2)
        assert (proc.returncode, proc.stdout) == (2, "")

    @pytest.mark.parametrize("argv", [["-h"], ["count", "-h"]])
    def test_help_with_fd_1_closed(self, argv):
        proc = self.run(argv, 1)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestWitness:
    def test_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, ["witness"], stdin=QR_TEXT)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["3", "7", "13", "VERIFIED"]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_non_member_exit_1(self, capsys, m):
        text = {2: NON_QR_TEXT, 3: "0 w\nw2 0\n", 4: QUARTIC_BAD_TEXT}[m]
        code, out, err = run_cli(capsys, ["witness", "--m", str(m)], stdin=text)
        assert code == 1 and out == ""
        assert err == f"error: not a residue matrix for m={m}\n"

    def test_exhausted_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, ["witness", "--limit", "4"], stdin=QR_TEXT
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("m, text", [(2, QR_TEXT), (3, CUBIC_TEXT), (4, QUARTIC_TEXT)])
    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_limit_below_one_exit_2(self, capsys, m, text, limit):
        code, out, err = run_cli(
            capsys, ["witness", "--m", str(m), "--limit", limit], stdin=text
        )
        assert code == 2 and out == ""
        assert err == f"error: --limit must be at least 1, got {limit}\n"

    def test_limit_one_is_a_search_bound(self, capsys):
        code, out, err = run_cli(capsys, ["witness", "--limit", "1"], stdin=QR_TEXT)
        assert code == 3 and out == ""
        assert err == "error: no prime of norm <= 1 realizes column 1\n"

    @pytest.mark.parametrize("m, text", [(2, QR_TEXT), (3, CUBIC_TEXT), (4, QUARTIC_TEXT)])
    @pytest.mark.parametrize("error", [MemoryError, OverflowError])
    def test_limit_too_large_exit_2(self, capsys, monkeypatch, m, text, error):
        # every witness search sieves its candidates through odd_prime_flags;
        # past a small bound it fails as a machine out of memory would, since
        # the blocks a search keeps do not grow with the limit
        from resmat import rational

        original = rational.odd_prime_flags

        def failing(bound, lo=1):
            if bound > 100:
                raise error
            return original(bound, lo)

        monkeypatch.setattr(rational, "odd_prime_flags", failing)
        argv = ["witness", "--m", str(m), "--limit", str(10**12)]
        code, out, err = run_cli(capsys, argv, stdin=text)
        assert (code, out, err) == (2, "", f"error: --limit {10**12} is too large to search\n")
        # without --limit there is no bound to name
        code, out, err = run_cli(capsys, argv[:-2], stdin=text)
        assert (code, out, err) == (2, "", "error: the witness search ran out of memory\n")

    @pytest.mark.parametrize(
        "m, module, name",
        [
            (2, qr, "witness_primes"),
            (3, higher, "cubic_witness"),
            (4, higher, "quartic_witness"),
        ],
    )
    @pytest.mark.parametrize("flags, limit", [([], math.inf), (["--limit", "12345"], 12345)])
    def test_search_gets_the_limit(self, capsys, monkeypatch, m, module, name, flags, limit):
        # no --limit is no bound for every m; --limit N caps the search at N
        calls = []

        def recording(matrix, limit):
            calls.append((matrix.m, limit))
            return []

        monkeypatch.setattr(module, name, recording)
        text = {2: QR_TEXT, 3: CUBIC_TEXT, 4: QUARTIC_TEXT}[m]
        code, out, _ = run_cli(capsys, ["witness", "--m", str(m), *flags], stdin=text)
        assert (code, out) == (0, "VERIFIED\n")
        assert calls == [(m, limit)]
        assert type(calls[0][1]) is type(limit)  # 12345, not 12345.0

    def test_cubic(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--m", "3"], stdin=CUBIC_TEXT)
        assert code == 0
        assert out.strip().splitlines()[-1] == "VERIFIED"

    def test_quartic(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--m", "4"], stdin=QUARTIC_TEXT)
        assert code == 0
        assert out.strip().splitlines()[-1] == "VERIFIED"


class TestWitnessVerifiedOnce:
    # the search's own post-condition is the only recomputation of the matrix
    BUILDERS = pytest.mark.parametrize(
        "m, text, module, name",
        [
            (2, QR_TEXT, resmat.qr, "qr_matrix_from_primes"),
            (3, CUBIC_TEXT, resmat.higher, "cubic_matrix"),
            (4, QUARTIC_TEXT, resmat.higher, "quartic_matrix"),
        ],
    )

    @BUILDERS
    def test_matrix_built_once(self, capsys, monkeypatch, m, text, module, name):
        calls = []
        original = getattr(module, name)

        def counted(primes):
            calls.append(primes)
            return original(primes)

        monkeypatch.setattr(module, name, counted)
        code, out, err = run_cli(capsys, ["witness", "--m", str(m)], stdin=text)
        assert (code, err) == (0, "") and out.endswith("\nVERIFIED\n")
        assert len(calls) == 1

    @BUILDERS
    def test_mismatch_raises(self, capsys, monkeypatch, m, text, module, name):
        # a post-condition that fails is a RuntimeError, never a printed
        # verdict, with one message for every m
        monkeypatch.setattr(module, name, lambda primes: None)
        message = r"^witnesses \[.+\] do not reproduce the matrix$"
        with pytest.raises(RuntimeError, match=message):
            run_cli(capsys, ["witness", "--m", str(m)], stdin=text)


class TestHigherWitnessOptimized:
    # python -O strips asserts; the m=3/4 post-conditions must survive it
    CASES = [("3", CUBIC_TEXT), ("4", QUARTIC_TEXT)]

    @staticmethod
    def run_optimized(argv, stdin):
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-O", "-m", "resmat.cli", *argv],
            input=stdin, capture_output=True, text=True, timeout=60, env=env,
        )

    @pytest.mark.parametrize("m, text", CASES)
    def test_verified(self, capsys, m, text):
        argv = ["witness", "--m", m]
        code, out, _ = run_cli(capsys, argv, stdin=text)
        proc = self.run_optimized(argv, text)
        assert code == 0 and proc.returncode == 0
        assert proc.stdout == out and proc.stderr == ""
        assert out.endswith("\nVERIFIED\n")

    @pytest.mark.parametrize("m, text", CASES)
    def test_exhausted(self, m, text):
        proc = self.run_optimized(["witness", "--m", m, "--limit", "1"], text)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: no prime of norm <= 1 realizes column 1\n"


class TestCount:
    def test_qr_matrices(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--n", "3"])
        assert code == 0 and out.strip() == "40"

    def test_qr_classes(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--n", "4", "--classes"])
        assert code == 0 and out.strip() == "47"

    def test_symmetric_and_skew_classes(self, capsys):
        _, out, _ = run_cli(
            capsys, ["count", "--n", "5", "--kind", "symmetric", "--classes"]
        )
        assert out.strip() == "34"
        _, out, _ = run_cli(
            capsys, ["count", "--n", "5", "--kind", "skew", "--classes"]
        )
        assert out.strip() == "12"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--n", "2", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "n": 2,
            "kind": "qr",
            "classes": False,
            "count": 4,
        }

    def test_out_of_range_exit_2(self, capsys):
        for n in (-1, 0, COUNT_MAX_N + 1):
            for kind in ("qr", "symmetric", "skew"):
                for flags in ([], ["--classes"]):
                    argv = ["count", "--n", str(n), "--kind", kind, *flags]
                    code, out, err = run_cli(capsys, argv)
                    assert code == 2 and out == ""
                    assert err == f"error: n must be in 1..{COUNT_MAX_N}, got {n}\n"

    # `resmat count` must reach each counter through its module attribute,
    # where a tracer that rebinds it sees the call
    COUNTERS = (
        (qr, "count_qr_matrices"),
        (qr, "count_qr_classes"),
        (matrices, "count_symmetric_classes"),
        (matrices, "count_skew_classes"),
    )

    @pytest.mark.parametrize(
        "kind,classes,counter,value",
        [
            ("qr", False, "count_qr_matrices", 27648),
            ("qr", True, "count_qr_classes", 314),
            # symmetric or skew members: one free sign per pair, no counter
            ("symmetric", False, None, 1024),
            ("symmetric", True, "count_symmetric_classes", 34),
            ("skew", False, None, 1024),
            ("skew", True, "count_skew_classes", 12),
        ],
    )
    def test_calls_public_counter(
        self, capsys, monkeypatch, kind, classes, counter, value
    ):
        calls = []
        for module, name in self.COUNTERS:

            def counted(n, name=name, func=getattr(module, name)):
                calls.append(name)
                return func(n)

            monkeypatch.setattr(module, name, counted)
        argv = ["count", "--n", "5", "--kind", kind] + ["--classes"] * classes
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and int(out) == value
        assert calls == ([counter] if counter else [])

    def test_largest_n(self, capsys):
        for kind in ("qr", "symmetric", "skew"):
            code, out, err = run_cli(
                capsys,
                ["count", "--n", str(COUNT_MAX_N), "--kind", kind, "--classes"],
            )
            assert code == 0 and err == ""
            assert int(out) > 0


class TestFreq:
    def test_exact(self, capsys):
        code, out, _ = run_cli(capsys, ["freq", "--exact"])
        assert code == 0
        fracs = sorted(
            line.split(": ")[1] for line in out.strip().splitlines()[:-1]
        )
        assert sorted(fracs) == sorted(
            ["1/32", "1/16", "1/16", "3/32", "3/32", "3/32", "3/32", "3/32",
             "3/16", "3/16"]
        )
        assert out.strip().splitlines()[-1] == "total: 64"

    def test_bound(self, capsys):
        code, out, _ = run_cli(capsys, ["freq", "--bound", "105"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "total: 1"
        assert "frequency 1.000000" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, ["freq", "--bound", "1000", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert sum(c["count"] for c in payload["classes"]) == payload["total"]
        for c in payload["classes"]:
            num, den = c["frequency"]
            assert num * payload["total"] == c["count"] * den

    def test_format_freq_examples(self):
        assert _format_freq(Fraction(0)) == "0.000000"
        assert _format_freq(Fraction(1)) == "1.000000"
        assert _format_freq(Fraction(1, 3)) == "0.333333"
        assert _format_freq(Fraction(2, 3)) == "0.666667"
        assert _format_freq(Fraction(1, 2_000_000)) == "0.000000"  # tie, to even
        assert _format_freq(Fraction(3, 2_000_000)) == "0.000002"  # tie, to even

    def test_format_freq_matches_decimal_half_even(self):
        def oracle(frac):
            # 60 digits hold c/t exactly enough for t < 10^12: a quotient
            # that is no tie lies at least 1/(2*10^6*t) from one
            with localcontext() as ctx:
                ctx.prec = 60
                d = Decimal(frac.numerator) / Decimal(frac.denominator)
                return str(d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))

        # exact ties k + 1/2 millionths, and the fractions around them
        fracs = [Fraction(2 * k + 1, 2_000_000) for k in range(1000)]
        fracs += [Fraction(2 * k + 1, 2_000_000) for k in range(999_000, 1_000_000)]
        fracs += [f + Fraction(s, 10**11) for f in fracs[:50] for s in (-1, 1)]
        fracs += [Fraction(0), Fraction(1)]
        rng = random.Random(4)
        for _ in range(5000):
            t = rng.randrange(1, 10**10)
            fracs.append(Fraction(rng.randrange(t + 1), t))
        fracs += [Fraction(c, t) for t in range(1, 300) for c in range(t + 1)]
        assert [_format_freq(f) for f in fracs] == [oracle(f) for f in fracs]

    def test_requires_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["freq"])
        assert exc.value.code == 2

    def test_bad_bound_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["freq", "--bound", "10"])
        assert code == 2

    @pytest.mark.parametrize("bound", [10**20, 10**30])
    def test_bound_too_large_exit_2(self, capsys, bound):
        # the sieve's B/30 bytes fail at allocation, before any is touched:
        # MemoryError at 10**20, OverflowError (not an index) at 10**30
        code, out, err = run_cli(capsys, ["freq", "--bound", str(bound)])
        assert code == 2 and out == ""
        assert err == f"error: --bound {bound} is too large to scan\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_optimized_run_prints_the_same(self, capsys, flags):
        # python -O strips asserts; the scan's output must not depend on them
        argv = ["freq", "--bound", "2457615", *flags]
        code, out, _ = run_cli(capsys, argv)
        env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "resmat.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert code == 0 and proc.returncode == 0
        assert proc.stdout == out and proc.stderr == ""


class TestSymbol:
    def test_legendre(self, capsys):
        code, out, _ = run_cli(
            capsys, ["symbol", "--kind", "legendre", "--num", "3", "--den", "7"]
        )
        assert code == 0 and out.strip() == "-1"

    def test_legendre_rejects_composite(self, capsys):
        code, _, err = run_cli(
            capsys, ["symbol", "--kind", "legendre", "--num", "3", "--den", "9"]
        )
        assert code == 2

    def test_legendre_beyond_primality_bound_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["symbol", "--kind", "legendre", "--num", "2", "--den", str(MR_LIMIT)],
        )
        assert code == 2 and out == ""
        assert err.startswith("error: is_prime is exact only below")

    @pytest.mark.parametrize("kind", ["cubic", "quartic"])
    def test_operand_norm_beyond_primality_bound_names_operand(self, capsys, kind):
        a = 600_000_000_001  # the norm a^2 - a + 1 resp. a^2 + 1 is no square
        assert a < MR_LIMIT <= a * a - a + 1
        den = f"{a}+{'w' if kind == 'cubic' else 'i'}"
        for extra in ([], ["--primary"]):
            code, out, err = run_cli(
                capsys,
                ["symbol", "--kind", kind, "--num", "2", "--den", den] + extra,
            )
            assert code == 2 and out == ""
            assert err == (
                f"error: cannot decide whether {den} is prime: is_prime is exact "
                f"only for norms below {MR_LIMIT}\n"
            )

    @pytest.mark.parametrize("kind", ["cubic", "quartic"])
    def test_square_norm_outside_inert_class_is_not_prime(self, capsys, kind):
        # 600000000001 = 1 mod 4 and 1 mod 3 splits, so it is not prime, and
        # its square norm shows that without a primality test
        den = "600000000001"
        code, out, err = run_cli(
            capsys, ["symbol", "--kind", kind, "--num", "2", "--den", den]
        )
        assert (code, out) == (2, "")
        assert err == f"error: denominator must be a primary prime element: {den}\n"
        code, out, err = run_cli(
            capsys, ["symbol", "--kind", kind, "--num", "2", "--den", den, "--primary"]
        )
        assert (code, out, err) == (2, "", f"error: not a prime element: {den}\n")

    @pytest.mark.parametrize(
        "kind, den", [("quartic", "-564504967151"), ("cubic", "-564504967223")]
    )
    def test_inert_prime_with_norm_beyond_primality_bound(self, capsys, kind, den):
        p = -int(den)  # prime, 3 mod 4 resp. 2 mod 3, with p^2 above MR_LIMIT
        assert p < MR_LIMIT <= p * p
        code, out, err = run_cli(
            capsys, ["symbol", "--kind", kind, "--num", "2", "--den", den]
        )
        assert (code, out, err) == (0, "1\n", "")

    @pytest.mark.parametrize("kind", ["legendre", "jacobi"])
    @pytest.mark.parametrize(
        "num, den, flag, value",
        [("x", "7", "--num", "x"), ("3", "7.0", "--den", "7.0")],
    )
    def test_integer_operand_names_option(self, capsys, kind, num, den, flag, value):
        argv = ["symbol", "--kind", kind, "--num", num, "--den", den]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be an integer, got {value!r}\n"

    def test_jacobi(self, capsys):
        code, out, _ = run_cli(
            capsys, ["symbol", "--kind", "jacobi", "--num", "7", "--den", "15"]
        )
        assert code == 0 and out.strip() == "-1"

    def test_cubic_with_leading_dash(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["symbol", "--kind", "cubic", "--num", "-2-3w", "--den", "4+3w"],
        )
        assert code == 0 and out.strip() == "w"

    def test_quartic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["symbol", "--kind", "quartic", "--num", "3+2i", "--den", "-1+2i"],
        )
        assert code == 0 and out.strip() == "-1"

    def test_primary_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "symbol", "--kind", "quartic", "--num", "3+2i",
                "--den", "2+i", "--primary",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "primary: 3+2i -1+2i"
        assert lines[1] == "-1"

    def test_non_primary_denominator_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["symbol", "--kind", "quartic", "--num", "3", "--den", "2+i"],
        )
        assert code == 2

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["symbol", "--kind", "cubic", "--num", "zz", "--den", "4+3w"],
        )
        assert code == 2


class TestSymbolErrors:
    # one line on stderr and exit 2 for every malformed cubic/quartic operand
    @pytest.mark.parametrize(
        "kind, num, den, message",
        [
            ("cubic", "2", "1-9w", "denominator must be a primary prime element: 1-9w"),
            ("cubic", "2", "3+w", "denominator must be a primary prime element: 3+w"),
            ("cubic", "2", "1", "zero or unit is neither prime nor composite: 1"),
            ("cubic", "-3+w", "4+3w", "-3+w is divisible by 4+3w; symbol undefined"),
            ("cubic", "0", "4+3w", "0 is divisible by 4+3w; symbol undefined"),
            ("cubic", "2", "3+2i", "expected 'w' in a eisenstein element, got '3+2i'"),
            ("quartic", "2", "-7+4i", "denominator must be a primary prime element: -7+4i"),
            ("quartic", "2", "2+i", "denominator must be a primary prime element: 2+i"),
            ("quartic", "6+4i", "3+2i", "6+4i is divisible by 3+2i; symbol undefined"),
            ("quartic", "1+w", "3+2i", "expected 'i' in a gaussian element, got '1+w'"),
        ],
    )
    def test_one_error_line(self, capsys, kind, num, den, message):
        code, out, err = run_cli(
            capsys, ["symbol", "--kind", kind, "--num", num, "--den", den]
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "kind, num, den, message",
        [
            ("cubic", "7", "3+w", "7 is divisible by -2-3w; symbol undefined"),
            ("cubic", "-3+w", "4+3w", "4+3w is divisible by 4+3w; symbol undefined"),
            ("cubic", "0", "4+3w", "0 is divisible by 4+3w; symbol undefined"),
            ("quartic", "5", "1+2i", "5 is divisible by -1-2i; symbol undefined"),
            ("quartic", "2+3i", "3-2i", "3-2i is divisible by 3-2i; symbol undefined"),
            ("quartic", "6+4i", "3+2i", "6+4i is divisible by 3+2i; symbol undefined"),
        ],
    )
    def test_one_error_line_with_primary(self, capsys, kind, num, den, message):
        # the primary associates are printed only once the symbol is defined
        argv = ["symbol", "--kind", kind, "--num", num, "--den", den, "--primary"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "kind, num, den", [("cubic", "-2-3w", "4+3w"), ("quartic", "3+2i", "-1+2i")]
    )
    def test_denominator_proved_once(self, capsys, monkeypatch, kind, num, den):
        from resmat import cli, cyclotomic

        calls = []
        original = cyclotomic.is_prime_element

        def counted(x):
            calls.append(str(x))
            return original(x)

        monkeypatch.setattr(cli, "is_prime_element", counted)
        monkeypatch.setattr(cyclotomic, "is_prime_element", counted)
        code, _, _ = run_cli(capsys, ["symbol", "--kind", kind, "--num", num, "--den", den])
        assert code == 0 and calls == [den]

    @pytest.mark.parametrize(
        "kind, num, den, primary",
        [
            ("quartic", "3+2i", "2+i", "primary: 3+2i -1+2i"),
            ("quartic", "2+3i", "-1+2i", "primary: 3-2i -1+2i"),
            ("cubic", "2+3w", "4+3w", "primary: -2-3w 4+3w"),
        ],
    )
    def test_primary_proves_each_operand_once(
        self, capsys, monkeypatch, kind, num, den, primary
    ):
        from resmat import cli, cyclotomic

        calls = []
        original = cyclotomic.is_prime_element

        def counted(x):
            calls.append(str(x))
            return original(x)

        monkeypatch.setattr(cli, "is_prime_element", counted)
        monkeypatch.setattr(cyclotomic, "is_prime_element", counted)
        code, out, _ = run_cli(
            capsys, ["symbol", "--kind", kind, "--num", num, "--den", den, "--primary"]
        )
        assert code == 0 and out.splitlines()[0] == primary
        assert calls == [den, num]

    @pytest.mark.parametrize("kind", ["cubic", "quartic"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--num", "--", "--den", "7"], "--num"),
            (["--num", "7", "--den", "--"], "--den"),
        ],
    )
    def test_end_of_options_as_operand_is_a_usage_error(self, capsys, kind, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["symbol", "--kind", kind, *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert [ln for ln in captured.err.splitlines() if "error:" in ln] == [
            f"resmat symbol: error: argument {flag}: expected one argument"
        ]


class TestDispatch:
    """main reads a well-formed call off its option table, and hands any other
    to argparse's top-level parser; the table gives what argparse would."""

    # (argv, stdin): every subcommand well formed, then usage errors, help,
    # argv that does not start with a subcommand, and argv that argparse
    # accepts but the table does not read: an "=" form, an abbreviation, a
    # repeated option, a value other than "-" that starts with "-"
    TABLE = [
        (["check"], QR_TEXT),
        (["witness"], QR_TEXT),
        (["count", "--n", "4", "--kind", "skew", "--classes"], None),
        (["freq", "--exact"], None),
        (["symbol", "--kind", "cubic", "--num", "-2-3w", "--den", "4+3w"], None),
        (["count"], None),
        (["count", "--n", "x"], None),
        (["count", "--n", "3", "--kind", "foo"], None),
        (["count", "--n", "3", "--bogus"], None),
        (["symbol", "--kind", "cubic", "--num", "--", "--den", "7"], None),
        (["count", "-h"], None),
        ([], None),
        (["frobnicate"], None),
        (["--threads", "4", "count", "--n", "3"], None),
        (["count", "--n=4"], None),
        (["count", "--cl", "--kind", "symmetric", "--n", "6"], None),
        (["count", "--n", "4", "--n", "5"], None),
        (["witness", "--m=3"], CUBIC_TEXT),
        (["witness", "--limit", "-5"], QR_TEXT),
        (["check", "--file", "-", "--m", "2", "--json"], QR_TEXT),
        (["check", "--m", "2", "--json"], QR_TEXT),
        (["freq", "--bound", "105", "--json"], None),
        (["freq", "--exact", "--bound", "105"], None),
        (["freq", "--exact", "--exact"], None),
        (["symbol", "--kind", "quartic", "--num", "3+2i", "--den", "2+i", "--primary"], None),
        (["symbol", "--kind", "legendre", "--num", "3"], None),
        (["symbol", "-h"], None),
    ]

    @staticmethod
    def call(capsys, argv, stdin):
        try:
            return run_cli(capsys, argv, stdin)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    @pytest.mark.parametrize("argv, stdin", TABLE)
    def test_matches_full_parse(self, capsys, monkeypatch, argv, stdin):
        from resmat import cli

        direct = self.call(capsys, argv, stdin)
        # with the table's path off, argparse parses every argv
        monkeypatch.setattr(cli, "_exact_parse", lambda argv: None)
        assert self.call(capsys, argv, stdin) == direct
        # a success prints its result, a usage error its message
        assert direct[1 if direct[0] == 0 else 2] != ""

    def test_table_reads_the_well_formed(self):
        from resmat import cli

        read = [argv for argv, _ in self.TABLE if cli._exact_parse(argv) is not None]
        assert read == [
            ["check"],
            ["witness"],
            ["count", "--n", "4", "--kind", "skew", "--classes"],
            ["freq", "--exact"],
            ["check", "--file", "-", "--m", "2", "--json"],
            ["check", "--m", "2", "--json"],
            ["freq", "--bound", "105", "--json"],
            ["symbol", "--kind", "quartic", "--num", "3+2i", "--den", "2+i", "--primary"],
        ]

    def test_leftover_tokens(self, capsys):
        code, out, err = self.call(capsys, ["count", "--n", "3", "--bogus"], None)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: resmat [-h] {check,witness,count,freq,symbol} ...",
            "resmat: error: unrecognized arguments: --bogus",
        ]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_removed_threads_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "4", "count", "--n", "3"])
        assert exc.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestParserReuse:
    """main builds its parser once; no parse may leave state for the next."""

    CALLS = [
        (["count", "--n", "4", "--json"], None),
        (["count", "--n", "4"], None),
        (["freq", "--exact"], None),
        (["freq", "--bound", "105"], None),
        (["count"], None),  # --n is required: usage error
        (["count", "--n", "3", "--kind", "skew", "--classes"], None),
        (["witness", "--limit", "4"], QR_TEXT),
        (["witness"], QR_TEXT),
        (["symbol", "--kind", "cubic", "--num", "2", "--den", "3+w", "--primary"], None),
        (["symbol", "--kind", "cubic", "--num", "2", "--den", "3+w"], None),
    ]

    @staticmethod
    def call(capsys, argv, stdin):
        try:
            return run_cli(capsys, argv, stdin)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        from resmat import cli

        exact = [self.call(capsys, argv, stdin) for argv, stdin in self.CALLS]
        # with the table's path off, argparse parses every call
        monkeypatch.setattr(cli, "_exact_parse", lambda argv: None)
        fresh = []
        for argv, stdin in self.CALLS:
            build_parser.cache_clear()
            fresh.append(self.call(capsys, argv, stdin))
        assert [r[0] for r in fresh] == [0, 0, 0, 0, 2, 0, 3, 0, 0, 2]
        assert exact == fresh
        build_parser.cache_clear()
        # forwards, then backwards, so each call of a pair also follows the other
        order = list(range(len(self.CALLS)))
        for i in order + order[::-1]:
            assert self.call(capsys, *self.CALLS[i]) == fresh[i], self.CALLS[i]
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(self.CALLS) - 1)


# Option values for the argv fuzz: ones that the option's type and choices
# accept, and ones that they reject, that start with "-", or that are no
# ASCII digits.
_DASHED = ["-", "--", "-h", "--json", "-1"]
_INTEGERS = ["0", "5", "21", "x", "", "3.0", "+3", "1_0", " 4", "\u0663", "\uff13", *_DASHED]
_KINDS = ["qr", "symmetric", "skew", "legendre", "jacobi", "cubic", "quartic", "foo", ""]
_OPERANDS = ["0", "3", "7", "3+2i", "-1+2i", "2+i", "4+3w", "-2-3w", "x", "", *_DASHED]
_FILES = ["no-such-file", *_DASHED]
# each subcommand's options: None for a flag, else (good values, all values)
_FUZZ_OPTIONS = {
    "check": {
        "--file": (_FILES[:1], _FILES),
        "--m": (["2", "3", "4"], _INTEGERS),
        "--json": None,
    },
    "witness": {
        "--file": (_FILES[:1], _FILES),
        "--m": (["2", "3", "4"], _INTEGERS),
        "--limit": (["1", "4", "100"], _INTEGERS),
    },
    "count": {
        "--n": (["1", "4", "20"], _INTEGERS),
        "--kind": (["qr", "symmetric", "skew"], _KINDS),
        "--classes": None,
        "--json": None,
    },
    "freq": {
        "--bound": (["105", "1000"], _INTEGERS),
        "--exact": None,
        "--json": None,
    },
    "symbol": {
        "--kind": (["legendre", "jacobi", "cubic", "quartic"], _KINDS),
        "--num": (["2", "3+2i", "4+3w"], _OPERANDS),
        "--den": (["7", "-1+2i", "4+3w"], _OPERANDS),
        "--primary": None,
    },
}
_FLAGS = sorted({flag for options in _FUZZ_OPTIONS.values() for flag in options})
# every value of every option, as a stray token or after "="
_VALUES = st.sampled_from(
    sorted(
        {
            value
            for options in _FUZZ_OPTIONS.values()
            for pools in options.values()
            if pools is not None
            for value in pools[0] + pools[1]
        }
    )
)
_TOKENS = st.one_of(
    st.sampled_from(_FLAGS),
    # abbreviations, down to "-" and "--"
    st.sampled_from(_FLAGS).flatmap(
        lambda flag: st.integers(1, len(flag) - 1).map(lambda k: flag[:k])
    ),
    st.tuples(st.sampled_from(_FLAGS), _VALUES).map("=".join),
    _VALUES,
    st.sampled_from(["--", "-h", "--help", "--bogus", "-n"]),
    st.text(alphabet="-=ab3 \u0663", max_size=4),
)


@st.composite
def _argv(draw):
    """A well-formed call, or one up to two edits away from it: a value the
    option's type or choices reject, a repeated option, a stray token.  Or
    an argv that names no subcommand."""
    command = draw(st.sampled_from([*_FUZZ_OPTIONS, *_FUZZ_OPTIONS, "frobnicate", "-h"]))
    options = _FUZZ_OPTIONS.get(command, {})
    groups = [
        [flag] if values is None else [flag, draw(st.sampled_from(values[0]))]
        for flag, values in options.items()
        if draw(st.sampled_from([False, True, True, True]))
    ]
    groups = draw(st.permutations(groups))
    strays = []
    edits = st.sampled_from(["value", "value", "repeat", "stray"])
    for edit in draw(st.lists(edits, max_size=2)):
        if edit == "stray" or not groups:
            strays.append(draw(_TOKENS))
            continue
        i = draw(st.integers(0, len(groups) - 1))
        flag = groups[i][0]
        if edit == "value" and options[flag] is not None:
            groups[i] = [flag, draw(st.sampled_from(options[flag][1]))]
        else:
            groups.insert(draw(st.integers(0, len(groups))), groups[i])
    argv = [command, *sum(groups, [])]
    for token in strays:
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


class TestArgvFuzz:
    @staticmethod
    def run(call):
        """call() with QR_TEXT on stdin, and its output; SystemExit is a return."""
        out, err = io.StringIO(), io.StringIO()
        old = sys.stdin
        sys.stdin = io.StringIO(QR_TEXT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = call()
                except SystemExit as exc:
                    result = SystemExit(exc.code)
        finally:
            sys.stdin = old
        return result, out.getvalue(), err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def test_table_agrees_with_argparse(self, argv):
        from resmat import cli

        exact = cli._exact_parse(argv)
        if exact is not None:
            parse = cli.build_parser().parse_args
            full, _, err = self.run(lambda: parse(cli._join_value_flags(argv)))
            assert not isinstance(full, SystemExit), err
            assert vars(exact) == vars(full)
        # every argv ends in an exit code, never in a traceback
        code, _, _ = self.run(lambda: main(argv))
        if isinstance(code, SystemExit):  # argparse's, after help or a usage error
            code = code.code
        assert code in (0, 1, 2, 3)
