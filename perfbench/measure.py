"""Timed and traced runs of one workload, and the metrics derived from them."""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from resmat import frequencies

import spans
from hostspeed import REFERENCE_S, HostClock
from workloads import PASSES

SETUP_RUNS = 30
# Imports the package and fills its lazy tables, in a fresh interpreter, and
# times the reference loop (see hostspeed, best of 3) just before and just after.
SETUP_CODE = """\
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
from hostspeed import reference_s
before = min(reference_s() for _ in range(3))
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import resmat.cli
from resmat import frequencies
frequencies.class_representatives()
elapsed = perf_counter() - t0
print(elapsed, before, min(reference_s() for _ in range(3)))
"""

# Traced run: passes taken from the start of the seeded stream, run once
# untraced and once traced.  The count depends on the workload and on
# --seconds only, never on timing, so call counts repeat exactly.
TRACE_SECONDS_PER_PASS = {"witness": 2.0, "census": 4.0, "freq": 60.0}


@dataclass
class Result:
    op: object
    start: float
    end: float
    output: object = None
    error: str | None = None
    scaled: float = 0.0  # seconds at nominal host speed, see hostspeed

    @property
    def seconds(self):
        return self.end - self.start


def run_pass(ops, tracer=None, first_op=0):
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + k
        start = perf_counter()
        try:
            output, error = op.run(), None
        except (Exception, SystemExit) as exc:  # argparse exits on bad usage
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append(Result(op, start, perf_counter(), output, error))
    return results


def check(results):
    """Run each call's check; a failed check marks the call as failed."""
    for r in results:
        if r.error is None:
            try:
                r.op.check(r.output)
            except Exception as exc:
                r.error = f"{type(exc).__name__}: {exc}"


def setup_seconds(src):
    """Median scaled time to import resmat.cli and fill its tables, each in
    a fresh process."""
    samples = []
    for k in range(SETUP_RUNS + 1):  # the first run warms the file cache
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(src), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, before, after = map(float, proc.stdout.split())
        if k:
            samples.append(elapsed * 2 * REFERENCE_S / (before + after))
    return statistics.median(samples)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(workload, seed, seconds, src):
    """Whole passes until ``seconds`` have gone by; end-to-end metrics."""
    setup_s = setup_seconds(src)
    frequencies.class_representatives()
    passes = PASSES[workload](random.Random(seed))
    done = []
    clock = HostClock()
    with clock.running():
        deadline = perf_counter() + seconds
        while not done or perf_counter() < deadline:
            done.append(run_pass(next(passes)))
    results = [r for p in done for r in p]
    for r in results:
        r.scaled = clock.scaled(r.start, r.end)
    check(results)
    # A call's latency is its scaled time; where the same input recurs in
    # the run (every census count and every freq bound), the median of that
    # input's calls, so that a moment of host noise is not read as the tail.
    by_input = {}
    for r in results:
        by_input.setdefault(r.op.key, []).append(r.scaled)
    median = {key: statistics.median(times) for key, times in by_input.items()}
    latency = [median[r.op.key] for r in results]
    failed = sum(r.error is not None for r in results)
    ok = sorted(t for t, r in zip(latency, results) if r.error is None) or [0.0]
    busy = sum(latency)
    raw_busy = sum(r.seconds for r in results)
    p90 = nearest_rank(ok, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (busy / len(done), "s"),
        "ops_per_s": ((len(results) - failed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"workload {workload}: {len(done)} passes of {len(done[0])} ops, "
        f"{len(results)} ops in {busy:.3f} s of calls",
        f"setup_s is the median of {SETUP_RUNS} fresh processes; wall_s the mean "
        f"pass; op_p50_ms and op_p90_ms are over {len(ok)} correct ops with "
        f"{len(by_input)} distinct inputs, {sum(v > p90 for v in ok)} of the ops beyond p90",
        f"timings are scaled to nominal host speed; unscaled they are "
        f"{raw_busy / busy:.4f} times as long (wall_s {raw_busy / len(done):.6g} s)",
    ]
    triples = sum(r.op.meta.get("triples", 0) for r in results if r.error is None)
    extra = {"failed_frac": (failed / len(results), "1")}
    if triples:
        extra["triples_per_s"] = (triples / busy, "1/s")
    lines += [_metric_line(k, v, u) for k, (v, u) in {**metrics, **extra}.items()]
    return results, metrics, lines


def traced_run(workload, seed, seconds, out_dir):
    """One batch, each call run untraced and then traced right after it, so
    that both see the same host speed; per-layer metrics from the spans."""
    frequencies.class_representatives()
    gen = PASSES[workload](random.Random(seed))
    count = max(1, int(seconds // TRACE_SECONDS_PER_PASS[workload]))
    ops = [op for _ in range(count) for op in next(gen)]
    tracer = spans.Tracer()
    untraced, traced = [], []
    for k, op in enumerate(ops):
        untraced += run_pass([op])
        with tracer.installed():
            traced += run_pass([op], tracer, k)
    check(untraced + traced)
    tracer.write(out_dir / f"spans-{workload}")
    metrics = layer_metrics(tracer, traced, sum(r.seconds for r in untraced))
    lines = [
        f"workload {workload}: traced {count} passes, {len(tracer)} spans "
        f"written to {out_dir.name}/spans-{workload}.bin",
        "no call waits on a queue or a lock here, so no wait-time metric applies",
    ]
    lines += [_metric_line(k, v, u) for k, (v, u) in metrics.items()]
    return untraced + traced, metrics, lines


def layer_metrics(tracer, results, untraced_s):
    calls, self_s, edges = tracer.summary()
    metrics = {}
    for span in spans.SPAN_NAMES:
        metrics[f"{span}.calls"] = (calls[span], "count")
        metrics[f"{span}.self_s"] = (self_s[span], "s")

    def under(child, *parents):
        return sum(edges[child, p] for p in parents)

    def ratio(a, b):
        return a / b if b else 0.0

    ok = [r for r in results if r.error is None]
    qr_cols = sum(r.op.meta["n"] for r in ok if r.op.meta.get("m") == 2)
    higher_cols = sum(r.op.meta["n"] for r in ok if r.op.meta.get("m") in (3, 4))
    witnesses = ("higher.cubic_witness", "higher.quartic_witness")
    candidates = under("cyclotomic.primary_generator", *witnesses)
    symbols = under("cyclotomic.cubic_symbol", *witnesses) + under(
        "cyclotomic.quartic_symbol", *witnesses
    )
    triples = sum(r.op.meta.get("triples", 0) for r in ok)
    traced_s = sum(r.seconds for r in results)
    metrics.update(
        {
            "qr.witness.columns": (qr_cols, "count"),
            "qr.witness.candidates_per_column": (
                ratio(under("rational.is_prime", "qr.witness_primes"), qr_cols),
                "ratio",
            ),
            "higher.witness.columns": (higher_cols, "count"),
            "higher.witness.candidates": (candidates, "count"),
            "higher.witness.candidates_per_column": (ratio(candidates, higher_cols), "ratio"),
            "higher.witness.symbols_per_candidate": (ratio(symbols, candidates), "ratio"),
            "frequencies.triples": (triples, "count"),
            "frequencies.legendre_per_triple": (
                ratio(under("rational.legendre", "frequencies.empirical_scan"), triples),
                "ratio",
            ),
            "trace.untraced_wall_s": (untraced_s, "s"),
            "trace.traced_wall_s": (traced_s, "s"),
            "trace.overhead": (ratio(traced_s, untraced_s), "ratio"),
        }
    )
    return metrics


def _metric_line(name, value, unit):
    shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    return f"  {name:44s} {shown:>16s} {unit}"


def result_json(results, metrics, wanted):
    """The final line: exactly the metrics ``wanted`` lists, with their units."""
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit}, BENCHMARK.json has {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    failed = sum(r.error is not None for r in results)
    return {"correct": not failed, "attempted": len(results), "failed": failed, "metrics": out}


def main(args, root, src):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = Path(__file__).resolve().parent / "out"
    if args.trace:
        results, metrics, lines = traced_run(args.workload, args.seed, args.seconds, out_dir)
        wanted = spec["per_layer"]
    else:
        results, metrics, lines = timed_run(args.workload, args.seed, args.seconds, src)
        wanted = spec["end_to_end"]
    print("\n".join(lines))
    for r in [r for r in results if r.error is not None][:5]:
        print(f"FAILED {r.op.label}: {r.error}", file=sys.stderr)
    print(json.dumps(result_json(results, metrics, wanted)))
    return 0
