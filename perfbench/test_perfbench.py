"""Tests of the benchmark itself: smoke runs, checkers, tracer and inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from resmat import higher, matrices, qr  # noqa: E402
from resmat.cyclotomic import EisensteinInt, GaussianInt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metrics the report prints by name although the last line cannot carry
# them for every workload: failed_frac is failed / attempted there, and
# triples_per_s exists for freq only.
REPORT_ONLY = {"failed_frac": "1", "triples_per_s": "1/s"}


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    printed = {line.split()[0]: line.split()[-1] for line in report if line.startswith("  ")}
    for m in wanted:
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert printed["failed_frac"] == REPORT_ONLY["failed_frac"]
        assert ("triples_per_s" in printed) == (workload == "freq")


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run(op):
    (result,) = measure.run_pass([op])
    assert result.error is None, result.error
    return result.output


@pytest.mark.parametrize("m,n", [(2, 8), (3, 4), (4, 4)])
def test_witness_check_rejects_an_altered_witness(m, n):
    entries = workloads.random_admissible(random.Random(5), m, n)
    op = workloads.witness_op(m, entries)
    code, text = _run(op)
    op.check((code, text))
    lines = text.splitlines()
    if m == 2:
        lines[1] = str(int(lines[1]) + 4)  # same class mod 4, another prime or none
    else:
        a, b = checks.parse_element(lines[1], "w" if m == 3 else "i")
        ring = EisensteinInt if m == 3 else GaussianInt
        lines[1] = str(ring(a + 12, b))  # stays primary
    with pytest.raises(checks.CheckError):
        op.check((code, "\n".join(lines) + "\n"))
    with pytest.raises(checks.CheckError):
        op.check((1, text))


def test_count_check_rejects_an_altered_count():
    op = workloads.count_op("qr", True, 4)
    code, text = _run(op)
    op.check((code, text))
    assert text == "47\n"
    with pytest.raises(checks.CheckError):
        op.check((code, "46\n"))


def test_classes_check_rejects_an_altered_partition():
    rng = random.Random(2)
    base = workloads.random_sign_matrix(rng, 3, 4)
    batch = [base, workloads.permuted(base, (1, 0, 3, 2)),
             workloads.random_sign_matrix(rng, 3, 4)]
    op = workloads.classes_op(3, batch)
    out = _run(op)
    op.check(out)
    assert sorted(count for _, count in out) == [1, 2]
    altered = [(rep, 1) for rep, _ in out]
    with pytest.raises(checks.CheckError):
        op.check(altered)
    with pytest.raises(checks.CheckError):
        op.check(list(reversed(out)))


def test_freq_check_rejects_altered_counts():
    op = workloads.freq_op(checks.PAPER_BOUND)
    code, text = _run(op)
    op.check((code, text))
    assert "total: 306386" in text
    first = f"count {checks.SEED_CLASS_COUNTS[checks.PAPER_BOUND][0]} "
    for altered in (
        text.replace(first, first.replace("count 1", "count 2"), 1),
        text.replace("total: 306386", "total: 306387"),
    ):
        with pytest.raises(checks.CheckError):
            op.check((code, altered))


def test_triple_count_matches_brute_force():
    for bound in (105, 1000, 5000):
        primes = [p for p in range(3, bound // 15 + 1, 2) if checks.is_prime(p)]
        brute = sum(
            1
            for i, p in enumerate(primes)
            for j, q in enumerate(primes[i + 1 :], i + 1)
            for r in primes[j + 1 :]
            if p * q * r <= bound
        )
        assert checks.triple_count(bound) == brute


def test_parse_element_inverts_the_printed_form():
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert checks.parse_element(str(GaussianInt(a, b)), "i") == (a, b)
            assert checks.parse_element(str(EisensteinInt(a, b)), "w") == (a, b)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_random_matrices_are_admissible(m):
    rng = random.Random(m)
    for n in range(2, 9):
        for _ in range(20):
            mat = matrices.SignMatrix(m, workloads.random_admissible(rng, m, n))
            if m == 2:
                assert qr.is_qr_matrix(mat).verdict
            elif m == 3:
                assert higher.is_cubic_residue_matrix(mat)
            else:
                assert higher.is_quartic_residue_matrix(mat).verdict


def test_tracer_rebinds_every_namespace_and_restores_it():
    import resmat

    originals = {}
    for span in spans.SPAN_NAMES:
        layer, name = span.split(".")
        originals[id(getattr(getattr(resmat, layer), name))] = span
    modules = [m for k, m in sys.modules.items() if k == "resmat" or k.startswith("resmat.")]

    def bound_originals():
        return sorted(
            (module.__name__, name)
            for module in modules
            for name, value in vars(module).items()
            if id(value) in originals
        )

    before = bound_originals()
    assert ("resmat.higher", "cubic_symbol") in before
    assert ("resmat.frequencies", "legendre") in before
    with spans.Tracer().installed():
        assert bound_originals() == []
    assert bound_originals() == before


def test_traced_counts_repeat_and_spans_round_trip(tmp_path):
    runs = [measure.traced_run("census", 7, 1, tmp_path) for _ in range(2)]
    counts = [
        {k: v for k, (v, unit) in metrics.items() if unit == "count"} for _, metrics, _ in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["matrices.canonical_form.calls"] == 32
    names, fields = spans.read_spans(tmp_path / "spans-census")
    assert names == spans.SPAN_NAMES
    assert len(fields["start"]) == sum(
        v for k, v in counts[1].items() if k.endswith(".calls")
    )
    assert all(e >= s for s, e in zip(fields["start"], fields["end"]))


def test_host_clock_scales_by_the_samples_around_a_call():
    clock = hostspeed.HostClock()
    ref = hostspeed.REFERENCE_S
    # samples end at 1, 2 (inside the call, costing 0.1 s) and 4
    clock.ends, clock.refs, clock.costs = [1.0, 2.0, 4.0], [ref, 3 * ref, 2 * ref], [0, 0.1, 0]
    assert clock.scaled(1.5, 3.5) == pytest.approx((2.0 - 0.1) / 2)
    assert clock.scaled(2.5, 3.0) == pytest.approx(0.5 * 2 / 5)


def test_host_clock_samples_while_running():
    clock = hostspeed.HostClock()
    with clock.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * hostspeed.SAMPLE_S:
            pass
    assert len(clock.ends) >= 4
    assert clock.ends == sorted(clock.ends)
    assert all(0 < c < hostspeed.SAMPLE_S for c in clock.costs)
