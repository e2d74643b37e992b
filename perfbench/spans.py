"""Span tracing by rebinding the package's public functions.

Each traced function is replaced by a wrapper in *every* module namespace
that binds it.  Wrapping only the defining module would miss most calls:
``qr``, ``higher``, ``cyclotomic``, ``frequencies`` and ``cli`` import names
with ``from .x import name``, and ``higher._scan_witnesses`` reads
``cubic_symbol`` from its own globals.  Spans (name, start, end, parent,
op id) go into flat arrays, so the million ``legendre`` spans of a ``freq``
pass cost about 35 bytes each.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layer (module of the package) -> the public functions traced in it.
TRACED = {
    "rational": ("is_prime", "legendre", "sqrt_mod", "sieve_primes"),
    "cyclotomic": (
        "cubic_symbol",
        "quartic_symbol",
        "gcd_element",
        "primary_generator",
        "same_ideal",
        "is_prime_element",
    ),
    "matrices": (
        "equivalence_classes",
        "canonical_form",
        "conjugate",
        "orbit_class_count",
        "count_symmetric_classes",
        "count_skew_classes",
    ),
    "qr": (
        "count_qr_classes",
        "count_qr_matrices",
        "witness_primes",
        "block_form",
        "qr_matrix_from_primes",
    ),
    "higher": ("cubic_witness", "quartic_witness", "cubic_matrix", "quartic_matrix"),
    "frequencies": ("empirical_scan",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)

# Field name -> array typecode, in the order the fields are written out.
FIELDS = {"name": "H", "parent": "q", "op": "q", "start": "d", "end": "d"}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.fields = {field: array(code) for field, code in FIELDS.items()}
        self.op = 0  # id of the operation being run, set by the caller
        self._stack = [-1]
        self._patches = []

    def _wrap(self, code, func):
        names, parents, ops, starts, ends = self.fields.values()
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = {}
        for code, span in enumerate(SPAN_NAMES):
            layer, name = span.split(".")
            func = getattr(importlib.import_module(f"resmat.{layer}"), name)
            originals[id(func)] = (func, self._wrap(code, func))
        for modname, module in list(sys.modules.items()):
            if modname != "resmat" and not modname.startswith("resmat."):
                continue
            for name, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])
        try:
            yield self
        finally:
            for module, name, value in reversed(self._patches):
                setattr(module, name, value)
            self._patches.clear()

    def __len__(self):
        return len(self.fields["start"])

    def write(self, stem):
        """Write the spans as ``stem.json`` (layout) and ``stem.bin`` (arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        layout = {"names": SPAN_NAMES, "fields": FIELDS, "spans": len(self)}
        stem.with_suffix(".json").write_text(json.dumps(layout) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for values in self.fields.values():
                values.tofile(fh)

    def summary(self):
        """Calls and self seconds per span name, and (child, parent) name counts.

        A span's self time is its duration minus its children's durations;
        children of one span never overlap, since the run is one thread.
        """
        calls = Counter()
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        edges = Counter()
        names, parents = self.fields["name"], self.fields["parent"]
        for code, parent, start, end in zip(
            names, parents, self.fields["start"], self.fields["end"]
        ):
            span, dur = SPAN_NAMES[code], end - start
            calls[span] += 1
            self_s[span] += dur
            if parent >= 0:
                up = SPAN_NAMES[names[parent]]
                self_s[up] -= dur
                edges[span, up] += 1
        return calls, self_s, edges


def read_spans(stem):
    """Read back what ``Tracer.write`` wrote: (span names, {field: array})."""
    layout = json.loads(stem.with_suffix(".json").read_text())
    fields = {}
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for field, code in layout["fields"].items():
            fields[field] = array(code)
            fields[field].fromfile(fh, layout["spans"])
    return tuple(layout["names"]), fields
