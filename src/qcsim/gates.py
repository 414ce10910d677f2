"""Standard gate library: named unitaries and the axis-local kernel applying them.

Two-qubit gate matrices are indexed with the first target as the more
significant local bit, so ``CX`` with targets (control, target) uses the
textbook matrix with basis order |control target>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNITARY_ATOL = 1e-12

_SQ2 = 1.0 / np.sqrt(2.0)

_FIXED_1Q = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "Tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=np.complex128),
}

_FIXED_2Q = {
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    ),
}

# name -> (arity, number of angle parameters)
GATE_SIGNATURES = {
    **{name: (1, 0) for name in _FIXED_1Q},
    **{name: (2, 0) for name in _FIXED_2Q},
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "U3": (1, 3),
}


@dataclass(frozen=True)
class Gate:
    """Named unitary of arity 1 or 2 with optional rotation angles."""

    name: str
    arity: int
    params: tuple = field(default_factory=tuple)
    matrix: np.ndarray = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = 2**self.arity
        if mat.shape != (d, d):
            raise ValueError(f"gate {self.name}: matrix shape {mat.shape} != ({d},{d})")
        if not np.abs(mat @ mat.conj().T - np.eye(d)).max() <= UNITARY_ATOL:
            raise ValueError(f"gate {self.name}: matrix is not unitary")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


def _rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta):
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]],
        dtype=np.complex128,
    )


def _u3(theta, phi, lam):
    # OpenQASM 2.0 u3 convention.
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def make_gate(name: str, params=()) -> Gate:
    """Construct a gate by name; `params` are angles in radians."""
    params = tuple(float(p) for p in params)
    if name not in GATE_SIGNATURES:
        raise ValueError(f"unknown gate {name!r}")
    arity, nparams = GATE_SIGNATURES[name]
    if len(params) != nparams:
        raise ValueError(
            f"gate {name} takes {nparams} parameter(s), got {len(params)}"
        )
    if name in _FIXED_1Q:
        mat = _FIXED_1Q[name]
    elif name in _FIXED_2Q:
        mat = _FIXED_2Q[name]
    elif name == "RX":
        mat = _rx(params[0])
    elif name == "RY":
        mat = _ry(params[0])
    elif name == "RZ":
        mat = _rz(params[0])
    else:
        mat = _u3(*params)
    return Gate(name, arity, params, mat)


def apply_local(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Contract a 2^k x 2^k operator into `tensor` on the bit axes `axes`.

    Bit axis 0 is the most significant bit of the C-order index; axes[0]
    carries the operator's most significant local bit. Runs of other bits
    stay merged, as numpy copies many length-2 axes in tiny inner loops.
    """
    shape, where, start = [], {}, 0
    for a in sorted(axes):
        shape += [2 ** (a - start), 2]
        where[a] = len(shape) - 1
        start = a + 1
    shape.append(tensor.size // 2**start)
    local = [where[a] for a in axes]
    k = len(axes)
    op = np.reshape(mat, [2] * (2 * k))
    out = np.tensordot(op, tensor.reshape(shape), (list(range(k, 2 * k)), local))
    return np.moveaxis(out, list(range(k)), local).reshape(tensor.shape)


def apply_on_qubits(state: np.ndarray, op: np.ndarray, targets) -> np.ndarray:
    """Contract `op` into a raw state on the axes of `targets`, in one pass.

    Qubit q is bit axis n-1-q of a 2^n vector, and row axis n-1-q and
    column axis 2n-1-q of a 2^n x 2^n density matrix, on which `op` is a
    superoperator on the rows then the columns (`noise.step_operator`).
    """
    n = state.shape[0].bit_length() - 1
    axes = [n - 1 - q for q in targets]
    if state.ndim == 2:
        axes += [n + a for a in axes]
    return apply_local(state, op, axes)


def embed_operator(mat: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Embed a 2^k x 2^k operator on `targets` into the full register.

    The operator's local index treats targets[0] as the most significant
    local bit. Identity on all other qubits. Works for any (distinct)
    target order and non-adjacent targets; the operator need not be
    unitary. A test oracle for `apply_on_qubits`.
    """
    targets = list(targets)
    n = num_qubits
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError("targets must be distinct")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    if mat.shape != (2**k, 2**k):
        raise ValueError("operator dimension does not match target count")
    rest = [q for q in reversed(range(n)) if q not in targets]
    full = np.kron(np.asarray(mat, dtype=np.complex128), np.eye(2 ** (n - k)))
    # full acts on qubit order targets + rest (most to least significant);
    # permute axes so qubit q sits at significance q.
    cur = targets + rest
    perm = [cur.index(q) for q in reversed(range(n))]
    t = full.reshape([2] * (2 * n))
    t = t.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def gate_tensor_on(gate: Gate, targets, num_qubits: int) -> np.ndarray:
    """Full-register unitary acting as `gate` on `targets`, identity elsewhere."""
    targets = list(targets)
    if len(targets) != gate.arity:
        raise ValueError(
            f"gate {gate.name} has arity {gate.arity}, got {len(targets)} targets"
        )
    return embed_operator(gate.matrix, targets, num_qubits)
