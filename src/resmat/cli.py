"""Command-line front end: check, witness, count, freq, symbol subcommands.

Exit codes: 0 success/member, 1 non-member or a closed standard output
(`resmat ... | head`, or fd 1 closed), 2 parse or usage error (or a --bound
too large for memory, or a witness search out of memory), 3 witness search
exhausted at its --limit.  main writes every "error: ..." line, and drops it
when fd 2 is closed or not writable.  Without --limit a witness search has
no bound: every admissible column is realized by some prime.  All output is
deterministic.
A well-formed call is read off the table of subcommands (_exact_parse);
argparse, built from it, is loaded only for help (to stdout), usage and
errors (to stderr), each dropped when its stream is closed.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from math import inf
from types import SimpleNamespace

from . import frequencies, higher, matrices, qr
from .cyclotomic import (
    _primary_associate,
    _residue_symbol,
    is_primary,
    is_prime_element,
    parse_element,
    primary_generator,
)
from .errors import NotAResidueMatrixError, SearchExhaustedError
from .matrices import SignMatrix
from .rational import is_prime, jacobi, legendre

_SYMBOL_TOKENS = {
    2: ("1", "-1"),
    3: ("1", "w", "w2"),
    4: ("1", "i", "-1", "-i"),
}

# matrix entries: "0" on the diagonal, each token as its exponent of zeta
_ALPHABETS = {
    m: {"0": None, **{tok: k for k, tok in enumerate(tokens)}}
    for m, tokens in _SYMBOL_TOKENS.items()
}


class MatrixParseError(ValueError):
    def __init__(self, line, column, message):
        super().__init__(f"line {line}, entry {column}: {message}")


def parse_matrix_text(text, m):
    """Parse one matrix row per line, entries separated by spaces or commas.

    One leading byte order mark (U+FEFF), as some editors write at the start
    of a UTF-8 file, is dropped.  Errors name the line as numbered in the
    text, blank lines included.
    """
    alphabet = _ALPHABETS[m]
    text = text.removeprefix("\ufeff")
    lines = [(li, ln) for li, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MatrixParseError(1, 1, "empty matrix")
    n = len(lines)
    rows = []
    for i, (li, line) in enumerate(lines):
        tokens = line.replace(",", " ").split()
        for ci, tok in enumerate(tokens[:n], start=1):
            if tok not in alphabet:
                raise MatrixParseError(
                    li, ci, f"invalid entry {tok!r} for m={m} "
                    f"(expected one of {sorted(alphabet)})"
                )
            if ci == i + 1 and tok != "0":
                raise MatrixParseError(li, ci, f"diagonal entry must be 0, got {tok!r}")
            if ci != i + 1 and tok == "0":
                raise MatrixParseError(li, ci, "off-diagonal entry must not be 0")
        if len(tokens) != n:
            raise MatrixParseError(
                li, min(len(tokens), n) + 1,
                f"row {i + 1} has {len(tokens)} entries, expected {n}",
            )
        rows.append(tuple(alphabet[tok] for tok in tokens))
    return SignMatrix(m, tuple(rows))


def _read_matrix(path, m):
    if path == "-":
        if sys.stdin is None:  # the process was started with fd 0 closed
            raise ValueError("standard input is closed; give the matrix with --file")
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_matrix_text(text, m)


def _perm_1based(perm):
    return [p + 1 for p in perm]


def _print_json(payload):
    import json  # imported here so that runs without --json do not load it

    print(json.dumps(payload, sort_keys=True))


def cmd_check(args):
    matrix = _read_matrix(args.file, args.m)
    dec = qr.decide(matrix)
    payload = {
        "verdict": dec.verdict,
        "s": dec.s,
        "diag": list(dec.diag),
        "perm": _perm_1based(dec.perm) if dec.perm else None,
    }
    if args.m != 2:  # every pair term of an m=2 matrix is +-1
        payload["pairwise_ok"] = dec.pairwise_ok
    if args.json:
        _print_json(payload)
    else:
        print(f"verdict: {'yes' if dec.verdict else 'no'}")
        if dec.s is not None:
            print(f"s: {dec.s}")
        print("diag:", " ".join(str(d) for d in dec.diag))
        if dec.perm:
            print("perm:", " ".join(str(p) for p in payload["perm"]))
    return 0 if dec.verdict else 1


def cmd_witness(args):
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    matrix = _read_matrix(args.file, args.m)
    # looked up per call, so that a tracer that rebinds a search sees it
    search = {2: qr.witness_primes, 3: higher.cubic_witness, 4: higher.quartic_witness}
    try:
        primes = search[args.m](matrix, inf if args.limit is None else args.limit)
    except (MemoryError, OverflowError):
        # the search keeps a bounded set of sieve blocks, but memory can run out
        if args.limit is None:
            raise ValueError("the witness search ran out of memory") from None
        raise ValueError(f"--limit {args.limit} is too large to search") from None
    for p in primes:
        print(p)
    # each witness search has recomputed the primes' matrix, every symbol in
    # both directions, and raises RuntimeError when it differs from the input
    print("VERIFIED")
    return 0


def cmd_count(args):
    n = args.n
    if args.kind == "qr":
        value = qr.count_qr_classes(n) if args.classes else qr.count_qr_matrices(n)
    elif not args.classes:
        # symmetric or skew members: the identity term, one free sign per pair
        value = matrices.identity_term(n, matrices.fixed_symmetric)
    elif args.kind == "symmetric":
        value = matrices.count_symmetric_classes(n)
    else:
        value = matrices.count_skew_classes(n)
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
            raise ValueError(f"--bound {args.bound} is too large to scan") from None
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


def _integer_option(flag, text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} must be an integer, got {text!r}") from None


def cmd_symbol(args):
    kind = args.kind
    if kind in ("legendre", "jacobi"):
        a, n = _integer_option("--num", args.num), _integer_option("--den", args.den)
        if kind == "legendre":
            if n < 3 or n % 2 == 0 or not is_prime(n):
                raise ValueError(f"denominator must be an odd prime, got {n}")
            v = legendre(a, n)
        else:
            v = jacobi(a, n)
        print(v)
        return 0
    ring_kind = "eisenstein" if kind == "cubic" else "gaussian"
    num = parse_element(args.num, ring_kind)
    den = parse_element(args.den, ring_kind)
    ring = type(den)  # EisensteinInt resp. GaussianInt
    if args.primary:
        den = primary_generator(den)  # a primary prime, or it raises
        # a prime numerator is proved once; a ramified one is kept as given
        if (
            not (num.is_zero() or num.is_unit())
            and is_prime_element(num)
            and num.norm() % ring.RAMIFIED
        ):
            num = _primary_associate(num)
    elif not is_prime_element(den) or not is_primary(den):
        raise ValueError(f"denominator must be a primary prime element: {den}")
    # den is a primary prime of num's ring; the symbol raises if den divides
    # num, so it is taken before anything is printed
    e = _residue_symbol(num, den)
    if args.primary:
        print(f"primary: {num} {den}")
    print(_SYMBOL_TOKENS[ring.M][e])
    return 0


# the options of the subcommands that read a matrix
_MATRIX_OPTIONS = {
    "--file": {"default": "-", "help": "matrix file, or - for stdin"},
    "--m": {"type": int, "choices": (2, 3, 4), "default": 2},
}

# Each subcommand's help, the function that runs it, its options as
# add_argument keywords, and the options of which exactly one is required
# (freq's modes).  build_parser builds argparse's parsers from this table and
# _exact_parse reads a well-formed call off it, so each option is declared once.
_COMMANDS = {
    "check": (
        "decide residue-matrix membership",
        cmd_check,
        {**_MATRIX_OPTIONS, "--json": {"action": "store_true"}},
        (),
    ),
    "witness": (
        "construct prime witnesses",
        cmd_witness,
        {
            **_MATRIX_OPTIONS,
            "--limit": {
                "type": int,
                "help": "cap the search: prime limit for m=2, norm limit for m=3,4; "
                "exit 3 when a column has no witness up to it (default: no cap)",
            },
        },
        (),
    ),
    "count": (
        "count matrices or equivalence classes",
        cmd_count,
        {
            "--n": {"type": int, "required": True},
            "--kind": {"choices": ("qr", "symmetric", "skew"), "default": "qr"},
            "--classes": {"action": "store_true"},
            "--json": {"action": "store_true"},
        },
        (),
    ),
    "freq": (
        "splitting-configuration frequencies",
        cmd_freq,
        {
            "--bound": {"type": int, "help": "triple product bound"},
            "--exact": {"action": "store_true"},
            "--json": {"action": "store_true"},
        },
        ("--bound", "--exact"),
    ),
    "symbol": (
        "evaluate a residue symbol",
        cmd_symbol,
        {
            "--kind": {
                "choices": ("legendre", "jacobi", "cubic", "quartic"),
                "required": True,
            },
            "--num": {"required": True},
            "--den": {"required": True},
            "--primary": {
                "action": "store_true",
                "help": "replace operands by their primary associates first",
            },
        },
        (),
    ),
}


@lru_cache(maxsize=1)
def build_parser():
    """The `resmat` parser, with one subcommand parser per entry of _COMMANDS.

    Built on first use and shared by later calls: only help, usage and
    errors need it, so a well-formed call, a lone "-" value included, is
    read off the same table by _exact_parse and imports no argparse.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="resmat",
        description="Quadratic, cubic, and quartic residue matrix toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options, one_of) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True) if one_of else None
        for flag, keywords in options.items():
            (group if flag in one_of else p).add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _exact_parse(argv):
    """The attributes argparse would set for a well-formed argv, or None.

    Well formed: argv[0] names a subcommand, and every later token is one of
    its option strings, each at most once; a value option is followed by a
    value that is "-" itself or does not start with "-", which its type
    converts and its choices hold; and every required option, and exactly
    one of freq's modes, is given.  Any other argv (help, abbreviations, "=" forms, errors)
    is argparse's to parse.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, options, one_of = entry
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or (text.startswith("-") and text != "-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):  # what argparse reports as invalid
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    if one_of and sum(flag in given for flag in one_of) != 1:
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        elif keywords.get("action") == "store_true":
            value = False
        else:
            value = keywords.get("default")
        setattr(args, flag[2:], value)
    return args


def _join_value_flags(argv):
    # fold "--num -2-3w" into "--num=-2-3w" so argparse does not read the
    # element as an option; a missing value and "--" (the end of options)
    # stay apart, so argparse reports the missing value as a usage error
    out = []
    it = iter(argv)
    for tok in it:
        out.append(tok)
        if tok in ("--num", "--den"):
            value = next(it, None)
            if value == "--":
                out.append(value)
            elif value is not None:
                out[-1] = f"{tok}={value}"
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _exact_parse(argv)
    if args is None:
        # argparse falls back to the other stream for a closed one (None)
        from contextlib import redirect_stderr, redirect_stdout
        with open(os.devnull, "w") as null, redirect_stdout(sys.stdout or null):
            with redirect_stderr(sys.stderr or null):
                args = build_parser().parse_args(_join_value_flags(argv))
    try:
        code = args.func(args)
        if sys.stdout is None:  # started with fd 1 closed: the output is lost
            return 1
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull so the flush at
        # exit succeeds (the SIGPIPE note of the Python signal docs)
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except NotAResidueMatrixError as exc:
        error, code = exc, 1
    except SearchExhaustedError as exc:
        error, code = exc, 3
    # parse, dimension, ramified-prime and out-of-memory errors are ValueErrors too
    except (ValueError, OSError) as exc:
        error, code = exc, 2
    if sys.stderr is not None:  # fd 2 closed: print(file=None) would use stdout
        try:
            print(f"error: {error}", file=sys.stderr)
        except OSError:  # fd 2 not writable: the line is lost
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
