"""Benchmark entry point: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 30 --trace 0

It builds nothing: the package is pure Python and is imported from the
``src`` directory of the checkout this file sits in.  The last line of
standard output is one JSON object with the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("witness", "census", "freq"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "resmat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    return measure.main(args, ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
