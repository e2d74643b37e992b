import io
import json
import os
import random
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import resmat
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

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("0 w\nw 0\n", 2)

    def test_rejects_ragged(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("0 1\n-1 0 1\n", 2)

    def test_rejects_empty(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("  \n", 2)


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


class TestWitness:
    def test_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, ["witness"], stdin=QR_TEXT)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["3", "7", "13", "VERIFIED"]

    def test_non_member_exit_1(self, capsys):
        code, _, err = run_cli(capsys, ["witness"], stdin=NON_QR_TEXT)
        assert code == 1

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
        assert err == "error: no prime <= 1 realizes column 1\n"

    def test_cubic(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--m", "3"], stdin=CUBIC_TEXT)
        assert code == 0
        assert out.strip().splitlines()[-1] == "VERIFIED"

    def test_quartic(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--m", "4"], stdin=QUARTIC_TEXT)
        assert code == 0
        assert out.strip().splitlines()[-1] == "VERIFIED"


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
        for n in (1, COUNT_MAX_N + 1):
            code, out, err = run_cli(capsys, ["count", "--n", str(n)])
            assert code == 2 and out == ""
            assert err == f"error: --n must be in 2..{COUNT_MAX_N}, got {n}\n"

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

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        fresh = []
        for argv, stdin in self.CALLS:
            build_parser.cache_clear()
            fresh.append(self.call(capsys, argv, stdin))
        assert [r[0] for r in fresh] == [0, 0, 0, 0, 2, 0, 3, 0, 0, 2]
        build_parser.cache_clear()
        # forwards, then backwards, so each call of a pair also follows the other
        order = list(range(len(self.CALLS)))
        for i in order + order[::-1]:
            assert self.call(capsys, *self.CALLS[i]) == fresh[i], self.CALLS[i]
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(self.CALLS) - 1)
