"""Span recorder for the traced run, and the table of qcsim layers it wraps.

The recorder replaces a function at the name its caller looks it up by
(for example `qcsim.engines.gate_tensor_on`, not `qcsim.gates.gate_tensor_on`)
with a wrapper that records a span: name, start, end and parent. Spans stay
in memory and are written as JSONL at the end. No code under `src/` changes.

A name that no longer exists is skipped with a note on stderr, and the
metrics it feeds read 0, so a refactor of qcsim does not break the
benchmark; the note says which span to move.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patches = []

    def wrap(self, path, span, on_call=None):
        """Record a span around every call of the function at dotted `path`.

        `path` is "<package>.<module>.<name>[.<attr>...]". `on_call(recorder,
        args)` runs before the call, outside the span, to update counters.
        """
        parts = path.split(".")
        try:
            owner = importlib.import_module(".".join(parts[:2]))
        except ImportError:
            owner = None
        for part in parts[2:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(path)
            print(f"note: {path} not found; span {span} reads 0", file=sys.stderr)
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            index = len(spans)
            spans.append([span, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time skips spans nested in a span of the same name, so
        recursion is not counted twice. Self time is a span's duration
        minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return calls, total, own

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# qcsim layers
# ---------------------------------------------------------------------------


def _count_run(rec, args):
    rec.counters["engines.runs"] += 1


def _count_embed(rec, args):
    # gate_tensor_on(gate, targets, n) and embed_operator(mat, targets, n)
    # both build one 2^n x 2^n complex128 matrix.
    rec.counters["gates.embed_bytes"] += 16 * 4 ** args[2]


def _record_bond(rec, args):
    bonds = args[0].bond_dims()
    rec.counters["mps.max_bond"] = max(rec.counters["mps.max_bond"], max(bonds, default=1))


# (call site as the caller looks it up, span name, counter hook)
CALL_SITES = [
    ("qcsim.cli.main", "cli.main", None),
    ("qcsim.cli.parse_qasm", "cli.parse", None),
    ("qcsim.cli.run", "cli.simulate", _count_run),
    ("qcsim.cli.run_shots", "cli.simulate", None),
    ("qcsim.cli.fidelity_sweep", "cli.simulate", None),
    ("qcsim.engines.run", "engines.run", _count_run),
    ("qcsim.engines.instruction_layers", "circuit.schedule", None),
    ("qcsim.engines.gate_tensor_on", "gates.embed", _count_embed),
    ("qcsim.noise.gate_tensor_on", "gates.embed", _count_embed),
    ("qcsim.noise.embed_operator", "gates.embed", _count_embed),
    ("qcsim.state.PureState.__post_init__", "state.check", None),
    ("qcsim.state.DensityMatrix.__post_init__", "state.check", None),
    ("qcsim.state.tensor_product", "state.merge", None),
    ("qcsim.state.measure_qubit", "state.measure", None),
    ("qcsim.noise.partial_trace", "state.partial_trace", None),
    ("qcsim.bench.fidelity", "state.fidelity", None),
    ("qcsim.engines.apply_noisy_gate", "noise.channel", None),
    ("qcsim.mps.MPSState.apply_2q", "mps.gate2", None),
    ("qcsim.mps.MPSState.apply_1q", "mps.gate1", None),
    ("qcsim.mps.MPSState.prob_zero", "mps.measure", None),
    ("qcsim.mps.MPSState.collapse", "mps.measure", None),
    ("qcsim.mps.MPSState.to_pure_state", "mps.densify", _record_bond),
]


def install(rec: SpanRecorder):
    """Wrap every qcsim call site that a per-layer metric reads."""
    for path, span, on_call in CALL_SITES:
        rec.wrap(path, span, on_call)


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer metric values from one traced pass (names as in BENCHMARK.json)."""
    calls, total, own = rec.summary()
    c = rec.counters
    return {
        "cli.parse_s": total["cli.parse"],
        "cli.simulate_s": total["cli.simulate"],
        "cli.serialize_s": own["cli.main"],
        "circuit.schedule_s": total["circuit.schedule"],
        "engines.runs": c["engines.runs"],
        "gates.embed_s": total["gates.embed"],
        "gates.embed_calls": calls["gates.embed"],
        "gates.embed_bytes": c["gates.embed_bytes"],
        "state.check_s": total["state.check"],
        "state.states_built": calls["state.check"],
        "state.merge_s": total["state.merge"],
        "state.measure_s": total["state.measure"],
        "state.partial_trace_s": total["state.partial_trace"],
        "state.fidelity_s": total["state.fidelity"],
        "noise.channel_s": own["noise.channel"],
        "noise.calls": calls["noise.channel"],
        "mps.gate2_s": total["mps.gate2"],
        "mps.gate1_s": total["mps.gate1"],
        "mps.measure_s": total["mps.measure"],
        "mps.densify_s": total["mps.densify"],
        "mps.max_bond": c["mps.max_bond"],
    }
