"""Command-line front end: check, witness, count, freq, symbol subcommands.

Exit codes: 0 success/member, 1 non-member, 2 parse or usage error,
3 witness search exhausted.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import frequencies, higher, matrices, qr
from .cyclotomic import (
    is_primary,
    is_prime_element,
    parse_element,
    primary_generator,
)
from .errors import (
    NotAResidueMatrixError,
    RamifiedPrimeError,
    SearchExhaustedError,
    UnsupportedDimensionError,
)
from .matrices import SignMatrix
from .rational import is_prime, jacobi, legendre

_ALPHABETS = {
    2: {"0": None, "1": 0, "-1": 1},
    3: {"0": None, "1": 0, "w": 1, "w2": 2},
    4: {"0": None, "1": 0, "i": 1, "-1": 2, "-i": 3},
}

_SYMBOL_TOKENS = {
    2: ("1", "-1"),
    3: ("1", "w", "w2"),
    4: ("1", "i", "-1", "-i"),
}


class MatrixParseError(ValueError):
    def __init__(self, line, column, message):
        super().__init__(f"line {line}, entry {column}: {message}")


def parse_matrix_text(text, m):
    """Parse one matrix row per line, entries separated by spaces or commas."""
    alphabet = _ALPHABETS[m]
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixParseError(1, 1, "empty matrix")
    for li, line in enumerate(lines, start=1):
        tokens = line.replace(",", " ").split()
        row = []
        for ci, tok in enumerate(tokens, start=1):
            if tok not in alphabet:
                raise MatrixParseError(
                    li, ci, f"invalid entry {tok!r} for m={m} "
                    f"(expected one of {sorted(alphabet)})"
                )
            row.append(alphabet[tok])
        rows.append(tuple(row))
    try:
        return SignMatrix(m, tuple(rows))
    except ValueError as exc:
        raise MatrixParseError(1, 1, str(exc)) from exc


def _read_matrix(path, m):
    if path == "-":
        if sys.stdin is None:  # the process was started with fd 0 closed
            raise ValueError("standard input is closed; give the matrix with --file")
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_matrix_text(text, m)


def _entry_token(m, exponent):
    return _SYMBOL_TOKENS[m][exponent]


def _perm_1based(perm):
    return [p + 1 for p in perm]


def _print_json(payload):
    import json  # imported here so that runs without --json do not load it

    print(json.dumps(payload, sort_keys=True))


def cmd_check(args):
    matrix = _read_matrix(args.file, args.m)
    if args.m == 2:
        dec = qr.is_qr_matrix(matrix)
        perm = qr.block_form(matrix).perm if dec.verdict else None
        payload = {
            "verdict": dec.verdict,
            "s": dec.s,
            "diag": list(dec.diag),
            "perm": _perm_1based(perm) if perm else None,
        }
    elif args.m == 3:
        verdict = higher.is_cubic_residue_matrix(matrix)
        payload = {"verdict": verdict}
    else:
        dec = higher.is_quartic_residue_matrix(matrix)
        perm = higher.quartic_block_form(matrix).perm if dec.verdict else None
        payload = {
            "verdict": dec.verdict,
            "s": dec.s,
            "pairwise_ok": dec.pairwise_ok,
            "diag": list(dec.diag),
            "perm": _perm_1based(perm) if perm else None,
        }
    if args.json:
        _print_json(payload)
    else:
        print(f"verdict: {'yes' if payload['verdict'] else 'no'}")
        if payload.get("s") is not None:
            print(f"s: {payload['s']}")
        if "diag" in payload:
            print("diag:", " ".join(str(d) for d in payload["diag"]))
        if payload.get("perm"):
            print("perm:", " ".join(str(p) for p in payload["perm"]))
    return 0 if payload["verdict"] else 1


def cmd_witness(args):
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    matrix = _read_matrix(args.file, args.m)
    if args.m == 2:
        limit = args.limit if args.limit is not None else qr.DEFAULT_PRIME_LIMIT
        primes = qr.witness_primes(matrix, limit)
    else:
        limit = args.limit if args.limit is not None else higher.DEFAULT_NORM_LIMIT
        if args.m == 3:
            primes = higher.cubic_witness(matrix, limit)
        else:
            primes = higher.quartic_witness(matrix, limit)
    for p in primes:
        print(p)
    # recompute as an end-to-end verification
    if args.m == 2:
        again = qr.qr_matrix_from_primes(primes)
    elif args.m == 3:
        again = higher.cubic_matrix(primes)
    else:
        again = higher.quartic_matrix(primes)
    print("VERIFIED" if again == matrix else "MISMATCH")
    return 0 if again == matrix else 1


def cmd_count(args):
    n = args.n
    if not qr.COUNT_MIN_N <= n <= matrices.COUNT_MAX_N:
        print(
            f"error: --n must be in {qr.COUNT_MIN_N}..{matrices.COUNT_MAX_N}, got {n}",
            file=sys.stderr,
        )
        return 2
    if args.kind == "qr":
        value = qr.count_qr_classes(n) if args.classes else qr.count_qr_matrices(n)
    elif args.kind == "symmetric":
        value = (
            matrices.count_symmetric_classes(n)
            if args.classes
            else 1 << (n * (n - 1) // 2)
        )
    else:
        value = (
            matrices.count_skew_classes(n) if args.classes else 1 << (n * (n - 1) // 2)
        )
    if args.json:
        _print_json({"n": n, "kind": args.kind, "classes": args.classes, "count": value})
    else:
        print(value)
    return 0


def _format_freq(frac):
    """A fraction in [0, 1] to six decimal places, ties rounded to even."""
    q = round(frac * 10**6)  # Fraction.__round__ is exact and rounds half to even
    return f"{q // 10**6}.{q % 10**6:06d}"


def cmd_freq(args):
    if args.exact:
        report = frequencies.exact_frequencies()
    else:
        try:
            report = frequencies.empirical_scan(args.bound)
        except (MemoryError, OverflowError):
            # the scan's bitsets grow linearly with the bound
            print(f"error: --bound {args.bound} is too large to scan", file=sys.stderr)
            return 2
    freqs = report.frequencies
    if args.json:
        payload = {
            "total": report.total,
            "classes": [
                {
                    "id": i + 1,
                    "count": report.counts[i],
                    "frequency": [freqs[i].numerator, freqs[i].denominator],
                }
                for i in range(len(report.counts))
            ],
        }
        _print_json(payload)
        return 0
    for i, (count, frac) in enumerate(zip(report.counts, freqs), start=1):
        if args.exact:
            print(f"class {i}: {frac.numerator}/{frac.denominator}")
        else:
            print(f"class {i}: count {count} frequency {_format_freq(frac)}")
    print(f"total: {report.total}")
    return 0


def cmd_symbol(args):
    kind = args.kind
    if kind in ("legendre", "jacobi"):
        a, n = int(args.num), int(args.den)
        if kind == "legendre":
            if n < 3 or n % 2 == 0 or not is_prime(n):
                raise ValueError(f"denominator must be an odd prime, got {n}")
            v = legendre(a, n)
        else:
            v = jacobi(a, n)
        print({1: "1", -1: "-1", 0: "0"}[v])
        return 0
    m = 3 if kind == "cubic" else 4
    ring = "eisenstein" if kind == "cubic" else "gaussian"
    num = parse_element(args.num, ring)
    den = parse_element(args.den, ring)
    if args.primary:
        den = primary_generator(den)
        if not (num.is_zero() or num.is_unit()) and is_prime_element(num):
            try:
                num = primary_generator(num)
            except RamifiedPrimeError:
                pass
        print(f"primary: {num} {den}")
    if not is_prime_element(den) or not is_primary(den):
        raise ValueError(f"denominator must be a primary prime element: {den}")
    if kind == "cubic":
        from .cyclotomic import cubic_symbol

        e = cubic_symbol(num, den)
    else:
        from .cyclotomic import quartic_symbol

        e = quartic_symbol(num, den)
    print(_entry_token(m, e))
    return 0


@lru_cache(maxsize=1)
def build_parser():
    """The `resmat` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="resmat",
        description="Quadratic, cubic, and quartic residue matrix toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide residue-matrix membership")
    p.add_argument("--file", default="-", help="matrix file, or - for stdin")
    p.add_argument("--m", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("witness", help="construct prime witnesses")
    p.add_argument("--file", default="-", help="matrix file, or - for stdin")
    p.add_argument("--m", type=int, choices=(2, 3, 4), default=2)
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        help="search bound: prime limit for m=2 (default 10^7), norm limit "
        "for m=3,4 (default 10^6)",
    )
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("count", help="count matrices or equivalence classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("qr", "symmetric", "skew"), default="qr")
    p.add_argument("--classes", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("freq", help="splitting-configuration frequencies")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bound", type=int, help="triple product bound")
    group.add_argument("--exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("symbol", help="evaluate a residue symbol")
    p.add_argument(
        "--kind", choices=("legendre", "jacobi", "cubic", "quartic"), required=True
    )
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument(
        "--primary",
        action="store_true",
        help="replace operands by their primary associates first",
    )
    p.set_defaults(func=cmd_symbol)
    return parser


def _join_value_flags(argv):
    # fold "--num -2-3w" into "--num=-2-3w" so argparse does not read the
    # element as an option
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--num", "--den"):
            try:
                out.append(f"{tok}={next(it)}")
            except StopIteration:
                out.append(tok)
        else:
            out.append(tok)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_value_flags(argv))
    try:
        return args.func(args)
    except NotAResidueMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        MatrixParseError,
        UnsupportedDimensionError,
        RamifiedPrimeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
