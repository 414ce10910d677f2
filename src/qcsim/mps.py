"""Matrix product state backend for the MPS execution engine.

The state is a chain of rank-3 tensors, one per qubit, with shape
(left_bond, 2, right_bond). Site i holds qubit i. Single-qubit gates
contract locally; two-qubit gates on adjacent sites contract the shared
bond, apply the 4x4 gate, and re-split with an SVD, discarding singular
values below the truncation threshold and beyond the bond cap.
Non-adjacent gates are routed by inserting SWAP pairs.
"""

from __future__ import annotations

import numpy as np

from .state import PureState

_SWAP_4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


class BondOverflowError(RuntimeError):
    """Raised when a split needs more singular values than the bond cap allows."""


class MPSState:
    def __init__(self, num_qubits, max_bond=None, truncation_threshold=1e-12):
        self.num_qubits = num_qubits
        self.max_bond = max_bond
        self.truncation_threshold = truncation_threshold
        zero = np.zeros((1, 2, 1), dtype=np.complex128)
        self.tensors = [zero.copy() for _ in range(num_qubits)]
        for t in self.tensors:
            t[0, 0, 0] = 1.0

    def bond_dims(self):
        return [t.shape[2] for t in self.tensors[:-1]]

    def apply_1q(self, matrix, site):
        self.tensors[site] = np.einsum(
            "ps,asb->apb", matrix, self.tensors[site]
        )

    def apply(self, op, targets):
        """Apply a 2x2 operator on one qubit or a 4x4 one on two."""
        if len(op) == 2:
            self.apply_1q(op, targets[0])
        else:
            self.apply_2q(op, targets[0], targets[1])

    def apply_2q(self, matrix, q0, q1):
        """Apply a 4x4 gate whose local index has q0 as the more significant bit."""
        lo, hi = min(q0, q1), max(q0, q1)
        # Route the lower qubit up next to the higher one, apply, route back.
        for s in range(lo, hi - 1):
            self._apply_adjacent(_SWAP_4, s)
        # After routing, sites (hi-1, hi) hold qubits (lo, hi). The adjacent
        # flattening puts the lower site's bit most significant, matching the
        # gate convention when q0 is the lower qubit; otherwise exchange the
        # gate's local qubits.
        if q0 < q1:
            self._apply_adjacent(matrix, hi - 1)
        else:
            self._apply_adjacent(_swap_gate_qubits(matrix), hi - 1)
        for s in reversed(range(lo, hi - 1)):
            self._apply_adjacent(_SWAP_4, s)

    def _apply_adjacent(self, matrix, site):
        """Contract sites (site, site+1), apply gate, re-split via SVD.

        The gate's 4x4 index is flattened as 2*bit(site) + bit(site+1).
        """
        a, b = self.tensors[site], self.tensors[site + 1]
        chi_l = a.shape[0]
        chi_r = b.shape[2]
        theta = np.tensordot(a, b, axes=(2, 0))  # (chi_l, s0, s1, chi_r)
        theta = theta.reshape(chi_l, 4, chi_r)
        theta = np.einsum("pq,aqb->apb", matrix, theta)
        theta = theta.reshape(chi_l * 2, 2 * chi_r)
        u, s, vh = np.linalg.svd(theta, full_matrices=False)
        keep = s > self.truncation_threshold
        chi = int(np.count_nonzero(keep))
        chi = max(chi, 1)
        if self.max_bond is not None and chi > self.max_bond:
            raise BondOverflowError(
                f"bond dimension {chi} exceeds cap {self.max_bond} at site {site}"
            )
        s = s[:chi]
        s = s / np.linalg.norm(s)  # keep the state normalized after truncation
        self.tensors[site] = u[:, :chi].reshape(chi_l, 2, chi)
        self.tensors[site + 1] = (s[:, None] * vh[:chi]).reshape(chi, 2, chi_r)

    def _transfer(self, site_matrices=None):
        """Contract <psi| M |psi> with optional per-site 2x2 operators."""
        env = np.ones((1, 1), dtype=np.complex128)
        for i, t in enumerate(self.tensors):
            op = None if site_matrices is None else site_matrices.get(i)
            top = t if op is None else np.einsum("ps,asb->apb", op, t)
            env = np.einsum("ac,asb,csd->bd", env, top, t.conj())
        return complex(env[0, 0])

    def norm_squared(self):
        return float(np.real(self._transfer()))

    def prob_zero(self, qubit):
        proj = np.diag([1.0, 0.0]).astype(np.complex128)
        return float(np.real(self._transfer({qubit: proj}))) / self.norm_squared()

    def collapse(self, qubit, outcome):
        """Project one site onto |outcome> and renormalize the chain."""
        proj = np.zeros((2, 2), dtype=np.complex128)
        proj[outcome, outcome] = 1.0
        self.apply_1q(proj, qubit)
        norm = np.sqrt(self.norm_squared())
        self.tensors[qubit] = self.tensors[qubit] / norm

    def export(self):
        return self.to_pure_state()

    def to_pure_state(self):
        """Contract the chain into a full state vector."""
        v = self.tensors[0]  # (1, 2, chi)
        v = v.reshape(2, -1)
        acc = v  # axes: (q0, ..., q_{i}), bond
        shape = [2]
        for t in self.tensors[1:]:
            acc = np.tensordot(acc, t, axes=(-1, 0))
            shape.append(2)
        acc = acc.reshape(shape)  # axes q0..q_{n-1}
        # numpy's C order makes axis 0 most significant; qubit 0 must be least.
        vec = np.transpose(acc, axes=list(reversed(range(self.num_qubits))))
        vec = vec.reshape(-1)
        vec = vec / np.linalg.norm(vec)
        return PureState(self.num_qubits, vec)


def _swap_gate_qubits(matrix):
    """Exchange the two local qubits of a 4x4 gate matrix."""
    t = matrix.reshape(2, 2, 2, 2)
    return np.ascontiguousarray(t.transpose(1, 0, 3, 2).reshape(4, 4))
