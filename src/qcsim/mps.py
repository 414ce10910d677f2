"""Matrix product state backend for the MPS execution engine.

The state is a chain of rank-3 tensors (left_bond, 2, right_bond), one per
site; site s holds qubit `qubits[s]`. A two-qubit gate moves one of its
qubits next to the other with SWAP splits and leaves it there; then it
contracts the shared bond, applies the 4x4 gate and re-splits with an SVD,
dropping singular values at or below TRUNCATION_THRESHOLD (roundoff) and
raising BondOverflowError past the bond cap. Tensors left of the
orthogonality centre are left-isometric and those right of it
right-isometric (Schollwöck, arXiv:1008.3477 §4); a split keeps this by
putting the singular values on the tensor nearer the centre.
Measurements move the centre onto their site with QR steps and read it.
A collapse at a site whose left bond is 1 leaves the outcome there as a
product and absorbs the rest into the next site, which becomes the
centre (Ferris & Vidal, arXiv:1201.3974), so measurements in ascending
site order need no QR.
The dense export cuts the chain at the bond that makes the two half-chains
smallest and multiplies their contractions into the vector, site s on bit
s: it holds the vector plus two half-chains, and a routed chain, whose
sites are out of qubit order, one reordered copy as well.
"""

from __future__ import annotations

import numpy as np

from .gates import make_gate
from .state import PureState, to_qubit_order

_SWAP_4 = make_gate("SWAP").matrix

TRUNCATION_THRESHOLD = 1e-12


class BondOverflowError(RuntimeError):
    """Raised when a split needs more singular values than the bond cap allows."""


class MPSState:
    def __init__(self, num_qubits, max_bond=None):
        self.num_qubits = num_qubits
        self.max_bond = max_bond
        zero = np.zeros((1, 2, 1), dtype=np.complex128)
        zero[0, 0, 0] = 1.0
        self.tensors = [zero.copy() for _ in range(num_qubits)]
        self.qubits = list(range(num_qubits))
        self.centre = 0

    def copy(self):
        """An independent copy: the tensors, the qubit-to-site map and the centre."""
        new = object.__new__(MPSState)
        new.__dict__.update(self.__dict__)
        new.tensors = [t.copy() for t in self.tensors]
        new.qubits = list(self.qubits)
        return new

    def bond_dims(self):
        return [t.shape[2] for t in self.tensors[:-1]]

    def apply_1q(self, matrix, qubit):
        site = self.qubits.index(qubit)
        self.tensors[site] = np.einsum("ps,asb->apb", matrix, self.tensors[site])

    def apply(self, op, targets):
        """Apply a 2x2 operator on one qubit or a 4x4 one on two."""
        if len(op) == 2:
            self.apply_1q(op, targets[0])
        else:
            self.apply_2q(op, targets[0], targets[1])

    def apply_2q(self, matrix, q0, q1):
        """Apply a 4x4 gate whose local index has q0 as the more significant bit."""
        lo, hi = sorted((self.qubits.index(q0), self.qubits.index(q1)))
        # Move the qubit on the higher site down next to the other; it stays.
        for s in reversed(range(lo + 1, hi)):
            self._apply_adjacent(_SWAP_4, s)
            self.qubits[s : s + 2] = self.qubits[s + 1], self.qubits[s]
        # The adjacent flattening puts the lower site's bit most significant,
        # matching the gate convention when q0 is on the lower site;
        # otherwise exchange the gate's local qubits.
        if self.qubits[lo] == q0:
            self._apply_adjacent(matrix, lo)
        else:
            self._apply_adjacent(_swap_gate_qubits(matrix), lo)

    def _apply_adjacent(self, matrix, site):
        """Contract sites (site, site+1), apply gate, re-split via SVD.

        The gate's 4x4 index is flattened as 2*bit(site) + bit(site+1).
        The singular values go on the tensor nearer the centre, so both
        tensors stay isometric towards it and the centre stays put.
        """
        a, b = self.tensors[site], self.tensors[site + 1]
        chi_l, chi_r = a.shape[0], b.shape[2]
        theta = np.tensordot(a, b, axes=(2, 0)).reshape(chi_l, 4, chi_r)
        theta = np.einsum("pq,aqb->apb", matrix, theta).reshape(chi_l * 2, 2 * chi_r)
        u, s, vh = np.linalg.svd(theta, full_matrices=False)
        chi = max(int(np.count_nonzero(s > TRUNCATION_THRESHOLD)), 1)
        if self.max_bond is not None and chi > self.max_bond:
            raise BondOverflowError(
                f"bond dimension {chi} exceeds cap {self.max_bond} between "
                f"qubits {self.qubits[site]} and {self.qubits[site + 1]}"
            )
        if self.centre > site:
            u, vh = u[:, :chi], s[:chi, None] * vh[:chi]
        else:
            u, vh = u[:, :chi] * s[:chi], vh[:chi]
        self.tensors[site] = u.reshape(chi_l, 2, chi)
        self.tensors[site + 1] = vh.reshape(chi, 2, chi_r)

    def _centre_on(self, qubit):
        """Move the centre onto the qubit's site by QR steps; return its tensor."""
        site, t = self.qubits.index(qubit), self.tensors
        while self.centre < site:
            c = self.centre
            q, r = np.linalg.qr(t[c].reshape(-1, t[c].shape[2]))
            t[c] = q.reshape(t[c].shape[0], 2, -1)
            t[c + 1] = np.tensordot(r, t[c + 1], axes=(1, 0))
            self.centre += 1
        while self.centre > site:
            c = self.centre
            q, r = np.linalg.qr(t[c].reshape(t[c].shape[0], -1).T)
            t[c] = q.T.reshape(-1, 2, t[c].shape[2])
            t[c - 1] = np.tensordot(t[c - 1], r.T, axes=(2, 0))
            self.centre -= 1
        return t[site]

    def prob_zero(self, qubit):
        a = self._centre_on(qubit)
        return float(np.linalg.norm(a[:, 0]) ** 2 / np.linalg.norm(a) ** 2)

    def collapse(self, qubit, outcome):
        """Project the qubit onto |outcome> at the centre and renormalize.

        If the centre's left bond is 1 and a site lies to its right, the
        projected state is |outcome> on the centre times the normalized
        projected row contracted into the next site (Ferris & Vidal,
        arXiv:1201.3974): the site becomes |outcome> with bond 1, the row
        is absorbed into its right neighbour with one matmul, and the
        centre moves there. A sweep of ascending measurements then needs
        no QR, and the bonds behind it drop to 1.
        """
        a, c = self._centre_on(qubit), self.centre
        if a.shape[0] == 1 and c + 1 < self.num_qubits:
            row, b = a[0, outcome], self.tensors[c + 1]
            site = np.zeros((1, 2, 1), dtype=a.dtype)
            site[0, outcome, 0] = 1.0
            self.tensors[c] = site
            self.tensors[c + 1] = (row / np.linalg.norm(row) @ b.reshape(len(b), -1)
                                   ).reshape(1, 2, -1)
            self.centre = c + 1
            return
        kept = np.zeros_like(a)
        kept[:, outcome] = a[:, outcome]
        self.tensors[c] = kept / np.linalg.norm(kept)

    def trace(self):
        """The state's norm squared: that of the centre tensor, as the chain is mixed-canonical."""
        return float(np.vdot(self.tensors[self.centre], self.tensors[self.centre]).real)

    def export(self):
        return self.to_pure_state()

    def to_pure_state(self):
        """Contract the chain into the state vector, in qubit order; unscaled.

        The chain is cut at the site m whose left bond chi_m minimizes
        chi_m * (2^m + 2^(n-m)). Sites below the cut contract into L
        (chi_m x 2^m, site 0 the least significant bit), the rest into R
        (2^(n-m) x chi_m, site n-1 the most significant), one matmul a site;
        R @ L is the vector with site s on bit s. The vector is the only
        full-size array allocated, unless the chain is routed: then
        to_qubit_order makes one reordered copy.
        """
        n, t = self.num_qubits, self.tensors
        m = min(range(1, n), key=lambda k: t[k].shape[0] * ((1 << k) + (1 << (n - k))),
                default=n)
        # The half-chains are temporaries, freed before a reordered copy is made.
        vector = (_right_half(t[m:]) @ _left_half(t[:m])).reshape(-1)
        return PureState(n, to_qubit_order(vector, self.qubits))


def _left_half(tensors):
    """Contract sites into a (chi, 2^k) matrix, the first site the least significant bit."""
    left = np.ones((1, 1), dtype=np.complex128)
    for a in tensors:
        chi_l, _, chi_r = a.shape
        left = (a.transpose(2, 1, 0).reshape(2 * chi_r, chi_l) @ left).reshape(chi_r, -1)
    return left


def _right_half(tensors):
    """Contract sites into a (2^k, chi) matrix, the last site the most significant bit."""
    right = np.ones((1, 1), dtype=np.complex128)
    for a in reversed(tensors):
        chi_l, _, chi_r = a.shape
        right = (right @ a.transpose(2, 1, 0).reshape(chi_r, 2 * chi_l)).reshape(-1, chi_l)
    return right


def _swap_gate_qubits(matrix):
    """Exchange the two local qubits of a 4x4 gate matrix."""
    t = matrix.reshape(2, 2, 2, 2)
    return np.ascontiguousarray(t.transpose(1, 0, 3, 2).reshape(4, 4))
