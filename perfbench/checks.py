"""Checks of every CLI output against the independent reference.

Each check returns a list of failure messages; an empty list is a pass.
The tolerances are fixed here, not per run:

* amplitudes and density-matrix entries within 1e-8 of the reference;
* a density matrix has trace 1 and is Hermitian within 1e-10, and its
  smallest eigenvalue is at least -1e-10;
* a noise-sweep fidelity is within 1e-8 of the reference, lies in [0, 1]
  and does not rise with epsilon (1e-12 slack for roundoff);
* shot counts sum to the shot count, fall only on outcomes the reference
  gives positive probability, and sit within a total-variation distance
  of the reference Born distribution that holds with probability
  1 - 1e-9 for that shot count (see `tvd_bound`).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import reference

AMPLITUDE_ATOL = 1e-8
STATE_ATOL = 1e-10
ROUNDOFF = 1e-12
TVD_DELTA = 1e-9
# Clbit strings longer than this are checked on blocks of this many bits.
TVD_BLOCK = 6


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def tvd_bound(probs, shots: int) -> float:
    """Bound on the TVD of `shots` samples from `probs`, failing w.p. <= TVD_DELTA.

    E[TVD] <= 1/2 sum_i sqrt(p_i (1 - p_i) / N) by Jensen, and one sample
    moves the TVD by at most 1/N, so McDiarmid adds sqrt(ln(1/delta) / 2N).
    """
    p = np.asarray(probs, dtype=float)
    mean = 0.5 * float(np.sum(np.sqrt(p * (1 - p) / shots)))
    return mean + math.sqrt(math.log(1 / TVD_DELTA) / (2 * shots))


def _marginal(dist: dict, positions) -> dict:
    out: dict = {}
    for key, p in dist.items():
        k = "".join(key[-1 - i] for i in positions)
        out[k] = out.get(k, 0.0) + p
    return out


class Checker:
    """Checks the outputs in one work directory, caching reference states."""

    def __init__(self, workdir, circuits, configs):
        self.workdir = workdir
        self.circuits = circuits
        self.configs = configs
        self._cache = {}

    def _ref(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _circuit(self, name):
        if name not in self.circuits:
            text = (self.workdir / f"{name}.qasm").read_text(encoding="utf-8")
            self.circuits[name] = reference.read_qasm(text)
        return self.circuits[name]

    def check(self, inv) -> list:
        spec = inv["check"]
        path = self.workdir / inv["out"]
        try:
            return getattr(self, "_check_" + spec["kind"])(path, spec)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{inv['out']}: unreadable output ({type(exc).__name__}: {exc})"]

    def _check_wave(self, path, spec):
        doc = json.loads(path.read_text(encoding="utf-8"))
        circuit = self._circuit(spec["circuit"])
        cut = spec.get("max_depth")
        want, layers = self._ref(("wave", spec["circuit"], cut),
                                 lambda: reference.wave_state(circuit, cut))
        errors = []
        if doc["final_state"]["kind"] != "wave":
            errors.append(f"{path.name}: state kind {doc['final_state']['kind']!r}")
        got = _complex(doc["final_state"]["amplitudes"])
        if got.shape != want.shape:
            return errors + [f"{path.name}: {got.shape} amplitudes, want {want.shape}"]
        err = float(np.max(np.abs(got - want)))
        if err > AMPLITUDE_ATOL:
            errors.append(f"{path.name}: amplitudes differ from reference by {err:.3g}")
        if doc["layers_executed"] != layers:
            errors.append(f"{path.name}: layers_executed {doc['layers_executed']}, want {layers}")
        return errors

    def _check_density(self, path, spec):
        doc = json.loads(path.read_text(encoding="utf-8"))
        circuit = self._circuit(spec["circuit"])
        config = self.configs[spec["noise"]]
        want = self._ref(("density", spec["circuit"], spec["noise"]),
                         lambda: reference.density_state(circuit, config))
        got = _complex(doc["final_state"]["matrix"])
        if got.shape != want.shape:
            return [f"{path.name}: matrix shape {got.shape}, want {want.shape}"]
        errors = []
        err = float(np.max(np.abs(got - want)))
        if err > AMPLITUDE_ATOL:
            errors.append(f"{path.name}: matrix differs from reference by {err:.3g}")
        trace = complex(np.trace(got))
        if abs(trace - 1) > STATE_ATOL:
            errors.append(f"{path.name}: trace {trace}")
        herm = float(np.max(np.abs(got - got.conj().T)))
        if herm > STATE_ATOL:
            errors.append(f"{path.name}: not Hermitian by {herm:.3g}")
        low = float(np.min(np.linalg.eigvalsh((got + got.conj().T) / 2)))
        if low < -STATE_ATOL:
            errors.append(f"{path.name}: eigenvalue {low:.3g}")
        return errors

    def _check_sweep(self, path, spec):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        circuit = self._circuit(spec["circuit"])
        eps = spec["epsilons"]
        if [float(r["epsilon"]) for r in rows] != eps:
            return [f"{path.name}: epsilons {[r['epsilon'] for r in rows]}, want {eps}"]
        pure = self._ref(("density", spec["circuit"], None),
                         lambda: reference.density_state(circuit))
        errors = []
        fids = [float(r["fidelity"]) for r in rows]
        for e, got in zip(eps, fids):
            noisy = self._ref(
                ("density", spec["circuit"], spec["noise"], e),
                lambda: reference.density_state(
                    circuit, {"global": {"kind": spec["noise"], "epsilon": e}}))
            want = reference.fidelity(pure, noisy)
            if abs(got - want) > AMPLITUDE_ATOL:
                errors.append(f"{path.name}: fidelity {got!r} at eps {e}, reference {want!r}")
            if not -ROUNDOFF <= got <= 1 + ROUNDOFF:
                errors.append(f"{path.name}: fidelity {got!r} outside [0, 1]")
        for a, b in zip(fids, fids[1:]):
            if b > a + ROUNDOFF:
                errors.append(f"{path.name}: fidelity rises with epsilon ({a!r} -> {b!r})")
        if any(r["noise"] != spec["noise"] for r in rows):
            errors.append(f"{path.name}: wrong noise column")
        return errors

    def _check_counts(self, path, spec):
        doc = json.loads(path.read_text(encoding="utf-8"))
        circuit = self._circuit(spec["circuit"])
        dist = self._ref(("dist", spec["circuit"]),
                         lambda: reference.outcome_distribution(circuit))
        counts = doc["counts"]
        shots = spec["shots"]
        errors = []
        if doc["shots"] != shots or sum(counts.values()) != shots:
            errors.append(f"{path.name}: counts sum to {sum(counts.values())}, want {shots}")
        for key in counts:
            if dist.get(key, 0.0) <= ROUNDOFF:
                errors.append(f"{path.name}: outcome {key!r} has reference probability 0")
        if spec["circuit"] == "teleport" and any(k[0] != "0" for k in counts):
            errors.append(f"{path.name}: the teleported qubit read 1")
        width = circuit.num_clbits
        blocks = [list(range(width))] if width <= TVD_BLOCK else [
            list(range(i, min(i + TVD_BLOCK, width))) for i in range(0, width, TVD_BLOCK)]
        observed = {k: v / shots for k, v in counts.items()}
        for block in blocks:
            want = _marginal(dist, block)
            got = _marginal(observed, block)
            tvd = 0.5 * sum(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(want) | set(got))
            bound = tvd_bound(list(want.values()), shots)
            if tvd > bound:
                errors.append(f"{path.name}: TVD {tvd:.4f} on bits {block} exceeds {bound:.4f}")
        return errors


def perturb(path, kind: str):
    """Corrupt one value of an output, for the self-test of the checks."""
    if kind == "sweep":
        lines = path.read_text(encoding="utf-8").splitlines()
        head, *rest, last = lines
        cells = last.split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)
        path.write_text("\n".join([head, *rest, ",".join(cells)]) + "\n", encoding="utf-8")
        return
    doc = json.loads(path.read_text(encoding="utf-8"))
    if kind == "wave":
        doc["final_state"]["amplitudes"][0][0] += 1e-6
    elif kind == "density":
        doc["final_state"]["matrix"][0][1][0] += 1e-6
    else:
        key = next(iter(doc["counts"]))
        doc["counts"][key] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")
