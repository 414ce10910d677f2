"""Standard gate library: the gate tables and the Liouville builder.

Two tables hold the library. `_FIXED_GATES` has each fixed gate, whose
arity comes from the size of its matrix; `_ROTATIONS` has each rotation's
matrix builder and its number of angles. `GATE_SIGNATURES` is derived
from the two, fixed gates first.

Two-qubit gate matrices are indexed with the first target as the more
significant local bit, so ``CX`` with targets (control, target) uses the
textbook matrix with basis order |control target>.

Every superoperator comes from one builder, `liouville`: a gate's step on a
density matrix applies `liouville((U,))` (`step_operator`), and a noise
channel's step applies `liouville` of its Kraus operators
(`noise.NoiseChannel`). This module is gate algebra only: the kernel that
contracts an operator into a raw state is `state.apply_local`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

UNITARY_ATOL = 1e-12

_SQ2 = 1.0 / np.sqrt(2.0)


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


# name -> (matrix builder, number of angle parameters)
_ROTATIONS = {"RX": (_rx, 1), "RY": (_ry, 1), "RZ": (_rz, 1), "U3": (_u3, 3)}

# each fixed gate is built, and its unitarity checked, once; a 2^k x 2^k
# matrix acts on k qubits
_FIXED_GATES = {name: Gate(name, len(mat).bit_length() - 1, (), mat) for name, mat in {
    "I": np.eye(2),
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "H": [[_SQ2, _SQ2], [_SQ2, -_SQ2]],
    "S": [[1, 0], [0, 1j]],
    "Sdg": [[1, 0], [0, -1j]],
    "T": [[1, 0], [0, np.exp(1j * np.pi / 4)]],
    "Tdg": [[1, 0], [0, np.exp(-1j * np.pi / 4)]],
    "CX": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "CZ": np.diag([1, 1, 1, -1]),
    "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
}.items()}

# name -> (arity, number of angle parameters)
GATE_SIGNATURES = {**{name: (gate.arity, 0) for name, gate in _FIXED_GATES.items()},
                   **{name: (1, nparams) for name, (_, nparams) in _ROTATIONS.items()}}


def make_gate(name: str, params=()) -> Gate:
    """Construct a gate by name; `params` are angles in radians.

    A fixed gate is one shared `Gate` per name. A parameter must be a real
    number: a bool or a string is refused, not read as one.
    """
    for p in params:
        if isinstance(p, bool) or not isinstance(p, numbers.Real):
            raise ValueError(f"gate {name}: parameter {p!r} is not a real number")
        # NaN, an infinity, or an int too large for a float
        if not (abs(p) <= sys.float_info.max if isinstance(p, int) else math.isfinite(p)):
            raise ValueError(f"gate {name}: parameter is not a finite number")
    params = tuple(map(float, params))
    if name not in GATE_SIGNATURES:
        raise ValueError(f"unknown gate {name!r}")
    arity, nparams = GATE_SIGNATURES[name]
    if len(params) != nparams:
        raise ValueError(
            f"gate {name} takes {nparams} parameter(s), got {len(params)}"
        )
    if name in _FIXED_GATES:
        return _FIXED_GATES[name]
    return Gate(name, arity, params, _ROTATIONS[name][0](*params))


def liouville(ops) -> np.ndarray:
    """The superoperator sum_k E_k (x) conj(E_k) of the operators `ops`, on
    their row bits, then their column bits: it takes vec(rho) to
    vec(sum_k E_k rho E_k^+)."""
    # kron(E, conj(E)) without np.kron's per-call overhead; a set of one
    # operator is that one product, zeros keeping their signs
    terms = [(op[:, None, :, None] * op.conj()[None, :, None, :]).reshape(len(op) ** 2, -1)
             for op in ops]
    return sum(terms[1:], terms[0])


def step_operator(gate: Gate, density: bool) -> np.ndarray:
    """The operator that a step of `gate` applies: U on a wave state, and
    `liouville((U,))` on a density matrix."""
    return liouville((gate.matrix,)) if density else gate.matrix
