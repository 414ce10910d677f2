"""Independent reference simulator for the benchmark's output checks.

Nothing here imports qcsim. It follows the conventions the qcsim README
documents, written out again from the textbook definitions:

* qubit 0 is the least significant bit of a basis index, and for a
  two-qubit gate the first target is the more significant local bit;
* a state is a tensor with one axis per qubit (two per qubit for a density
  matrix), and gates and Kraus operators act on their axes with
  `tensordot`, never as full-register matrices;
* dephasing and amplitude damping act on a gate's qubits before the gate,
  depolarizing after it;
* instructions are scheduled greedily: each lands one layer past the
  deepest layer already used by any qubit or classical bit it touches.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import Circuit, Op

_SQ2 = 1.0 / math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Textbook matrix of a QASM gate; CX is |control target> ordered."""
    fixed = {
        "id": _I2, "x": _X, "y": _Y, "z": _Z,
        "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
        "s": np.diag([1, 1j]), "sdg": np.diag([1, -1j]),
        "t": np.diag([1, np.exp(1j * math.pi / 4)]),
        "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
        "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
        "cz": np.diag([1, 1, 1, -1]).astype(complex),
        "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    }
    if name in fixed:
        return fixed[name]
    if name == "rx":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.diag([np.exp(-1j * params[0] / 2), np.exp(1j * params[0] / 2)])
    if name == "u3":
        return _u3(*params)
    raise ValueError(f"reference has no gate {name!r}")


def kraus_ops(kind: str, epsilon: float):
    """Textbook single-qubit Kraus set of a named channel."""
    if kind == "dephasing":
        return [math.sqrt(1 - epsilon) * _I2, math.sqrt(epsilon) * _Z]
    if kind == "amplitude_damping":
        return [
            np.array([[1, 0], [0, math.sqrt(1 - epsilon)]], dtype=complex),
            np.array([[0, math.sqrt(epsilon)], [0, 0]], dtype=complex),
        ]
    if kind == "depolarizing":
        # (1-eps) rho + eps I/2 (x) tr_q(rho), as a Pauli mixture.
        return [math.sqrt(1 - 3 * epsilon / 4) * _I2] + [
            math.sqrt(epsilon / 4) * p for p in (_X, _Y, _Z)
        ]
    raise ValueError(f"reference has no channel {kind!r}")


# ---------------------------------------------------------------------------
# axis-local application
# ---------------------------------------------------------------------------


def _apply(tensor, op, axes):
    """Contract a 2^k x 2^k operator into the given tensor axes."""
    k = len(axes)
    g = op.reshape([2] * (2 * k))
    out = np.tensordot(g, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _row_axes(n, targets):
    return [n - 1 - t for t in targets]


def apply_wave(psi, op, targets, n):
    return _apply(psi, op, _row_axes(n, targets))


def apply_density(rho, op, targets, n):
    """op rho op^dagger on a (2,)*2n tensor: rows with op, columns with conj(op)."""
    rows = _row_axes(n, targets)
    rho = _apply(rho, op, rows)
    return _apply(rho, op.conj(), [a + n for a in rows])


def apply_kraus(rho, ops, qubit, n):
    return sum(apply_density(rho, k, [qubit], n) for k in ops)


def schedule(circuit) -> list:
    """Greedy 1-based layer of each op, over qubits and classical bits."""
    qubit_layer = [0] * circuit.num_qubits
    clbit_layer = [0] * circuit.num_clbits
    layers = []
    for op in circuit.ops:
        clbits = [op.clbit] if op.name == "measure" else (
            [op.condition[0]] if op.condition else [])
        layer = 1 + max([qubit_layer[q] for q in op.targets] + [clbit_layer[c] for c in clbits])
        for q in op.targets:
            qubit_layer[q] = layer
        for c in clbits:
            clbit_layer[c] = layer
        layers.append(layer)
    return layers


def _zero(n, density=False):
    t = np.zeros([2] * (2 * n if density else n), dtype=complex)
    t[(0,) * t.ndim] = 1.0
    return t


def wave_state(circuit, max_depth=None):
    """(amplitude vector, layers executed) for a circuit without measurement."""
    n = circuit.num_qubits
    layers = schedule(circuit)
    total = max(layers, default=0)
    stop = total if max_depth is None else min(max_depth, total)
    psi = _zero(n)
    for op, layer in zip(circuit.ops, layers):
        if op.name == "measure" or op.condition:
            raise ValueError("wave_state takes unconditioned gates only")
        if layer <= stop:
            psi = apply_wave(psi, gate_matrix(op.name, op.params), op.targets, n)
    return psi.reshape(-1), stop


def density_state(circuit, noise_config=None):
    """Density matrix of a gate-only circuit under a qcsim noise config.

    The config is the CLI's sidecar: an optional "global" channel on every
    qubit of every gate, and "overrides" that replace the noise of one
    instruction with channels on given target slots.
    """
    n = circuit.num_qubits
    noise_config = noise_config or {}
    overrides = {}
    for entry in noise_config.get("overrides", []):
        slots = overrides.setdefault(entry["instruction"], {})
        slots[entry["slot"]] = (entry["kind"], entry["epsilon"])
    glob = noise_config.get("global")
    rho = _zero(n, density=True)
    for index, op in enumerate(circuit.ops):
        if op.name == "measure" or op.condition:
            raise ValueError("density_state takes unconditioned gates only")
        if index in overrides:
            slots = overrides[index]
        elif glob:
            slots = {s: (glob["kind"], glob["epsilon"]) for s in range(len(op.targets))}
        else:
            slots = {}
        for slot, (kind, eps) in slots.items():
            if kind != "depolarizing":
                rho = apply_kraus(rho, kraus_ops(kind, eps), op.targets[slot], n)
        rho = apply_density(rho, gate_matrix(op.name, op.params), op.targets, n)
        for slot, (kind, eps) in slots.items():
            if kind == "depolarizing":
                rho = apply_kraus(rho, kraus_ops(kind, eps), op.targets[slot], n)
    return rho.reshape(2**n, 2**n)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """(tr sqrt(sqrt(a) b sqrt(a)))^2 with square roots from `eigh`."""
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = sqrt_a @ b @ sqrt_a
    ev = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2), 0.0, None)
    # Roundoff leaves ~1e-17 eigenvalues where the exact ones are 0; their
    # square roots would add ~1e-9 each.
    ev[ev < ev.max() * 1e-12] = 0.0
    return float(np.sum(np.sqrt(ev)) ** 2)


def outcome_distribution(circuit) -> dict:
    """Exact probability of each classical-bit string (bit 0 rightmost).

    Branches on every mid-circuit measurement; a trailing block of plain
    measurements is read off |psi|^2 directly.
    """
    n = circuit.num_qubits
    dist: dict = {}

    def key(bits):
        return "".join(str(b) for b in reversed(bits))

    def walk(psi, start, bits, weight):
        for i in range(start, len(circuit.ops)):
            op = circuit.ops[i]
            if op.name != "measure":
                if op.condition is None or bits[op.condition[0]] == op.condition[1]:
                    psi = apply_wave(psi, gate_matrix(op.name, op.params), op.targets, n)
                continue
            rest = circuit.ops[i:]
            if all(o.name == "measure" for o in rest):
                probs = (np.abs(psi) ** 2).reshape(-1)
                for x in np.nonzero(probs > 0)[0]:
                    out = list(bits)
                    for o in rest:
                        out[o.clbit] = (int(x) >> o.targets[0]) & 1
                    k = key(out)
                    dist[k] = dist.get(k, 0.0) + weight * float(probs[x])
                return
            axis = n - 1 - op.targets[0]
            for outcome in (0, 1):
                branch = np.zeros_like(psi)
                sl = [slice(None)] * n
                sl[axis] = outcome
                branch[tuple(sl)] = psi[tuple(sl)]
                p = float(np.sum(np.abs(branch) ** 2))
                if p > 1e-15:
                    out = list(bits)
                    out[op.clbit] = outcome
                    walk(branch / math.sqrt(p), i + 1, out, weight * p)
            return
        k = key(bits)
        dist[k] = dist.get(k, 0.0) + weight

    walk(_zero(n), 0, [0] * circuit.num_clbits, 1.0)
    return dist


# ---------------------------------------------------------------------------
# reading back the circuit `qcsim random` emits
# ---------------------------------------------------------------------------

_LINE = re.compile(
    r"^(?:if \(c(?P<cbit>\d+) == (?P<val>\d)\) )?(?P<name>[a-z0-9]+)"
    r"(?:\((?P<params>[^)]*)\))? (?P<args>[^;]+);$"
)


def read_qasm(text: str) -> Circuit:
    """Parse the flat QASM subset qcsim emits: one qreg, 1-bit cregs."""
    num_qubits, num_clbits, ops = 0, 0, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include")):
            continue
        if line.startswith("qreg"):
            num_qubits = int(re.search(r"\[(\d+)\]", line).group(1))
            continue
        if line.startswith("creg"):
            num_clbits += 1
            continue
        if line.startswith("measure"):
            q, c = re.match(r"measure q\[(\d+)\] -> c(\d+)\[0\];", line).groups()
            ops.append(Op("measure", (int(q),), clbit=int(c)))
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"reference cannot read QASM line {line!r}")
        params = tuple(float(p) for p in m["params"].split(",")) if m["params"] else ()
        targets = tuple(int(t) for t in re.findall(r"q\[(\d+)\]", m["args"]))
        cond = (int(m["cbit"]), int(m["val"])) if m["cbit"] is not None else None
        ops.append(Op(m["name"], targets, params, cond))
    return Circuit(num_qubits, num_clbits, ops)
