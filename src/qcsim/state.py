"""Quantum states, and the one module that addresses a dense raw array.

Two representations are supported: a pure state as a complex amplitude
vector of length 2^n, and a mixed state as a 2^n x 2^n density matrix.
Qubit 0 is the least significant bit of the basis-state index throughout
the package, so for two qubits the basis order is |00>, |01>, |10>, |11>
with the right-hand bit belonging to qubit 0.

`PureState` and `DensityMatrix` are the validated states a run returns:
their invariants are checked once, where a state leaves an engine, and
each invariant has its type as its one owner. `DensityMatrix` checks the
matrix it is given, engine output included, against Hermiticity, then
stores its Hermitian part, whose trace and spectrum it checks; `fidelity`
takes that PSD property as given and checks nothing again. The
engines carry raw numpy arrays between those checks, and every function
here that takes a raw `state` works on a vector and a density matrix
alike. The layout of those arrays is known here only: the bit axes of a
qubit (`bit_axes`), the axis-local kernel that contracts an operator into
them (`apply_local`), measurement (`prob_zero`, `collapse`), the export's
reorder (`to_qubit_order`), and the dense backend that the `simple` and
`depth` engines drive (`DenseGroups`). The full-register reference
algebra (embedding, partial trace, |psi><psi|) is a test oracle and lives
with the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
ZERO_PROB_ATOL = 1e-14


@dataclass(frozen=True)
class PureState:
    """Wave function over 2^num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state rho: Hermitian, positive semidefinite, trace one.

    A matrix Hermitian within NORM_ATOL is stored as its Hermitian part,
    (rho + rho^H) / 2, and an exactly Hermitian one as it is. A NaN or
    infinite entry fails the Hermiticity check, whose error then names it.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = 2**self.num_qubits
        if mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {mat.shape}")
        if not np.abs(mat - mat.conj().T).max() <= NORM_ATOL:  # a NaN or inf fails too
            bad = np.argwhere(~np.isfinite(mat))
            where = f": entry ({bad[0][0]}, {bad[0][1]}) is not finite" if len(bad) else ""
            raise ValueError(f"density matrix is not Hermitian{where}")
        mat = (mat + mat.conj().T) / 2
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= NORM_ATOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        eigs = np.linalg.eigvalsh(mat)
        if not eigs.min() >= -NORM_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class MeasurementRecord:
    """One mid-circuit measurement event."""

    qubit_index: int
    classical_bit: int
    outcome: int
    probability_of_outcome: float

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        if not 0.0 <= self.probability_of_outcome <= 1.0:
            raise ValueError("probability must lie in [0, 1]")


def bit_axes(num_qubits: int, qubits, ndim: int) -> list:
    """The axes of `qubits` in a raw state reshaped to [2] * (ndim * num_qubits).

    Qubit q is bit axis n-1-q of a 2^n vector, and row axis n-1-q and
    column axis 2n-1-q of a 2^n x 2^n density matrix.
    """
    axes = [num_qubits - 1 - q for q in qubits]
    return axes + [num_qubits + a for a in axes] if ndim == 2 else axes


def apply_local(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Contract a 2^k x 2^k operator into `tensor` on the bit axes `axes`.

    Bit axis 0 is the most significant bit of the C-order index; axes[0]
    carries the operator's most significant local bit. Runs of other bits
    stay merged, as numpy copies many length-2 axes in tiny inner loops.
    One transpose brings the target axes to the front, one matmul applies
    the operator, and one transpose puts the axes back.
    """
    shape, where, start = [], {}, 0
    for a in sorted(axes):
        shape += [2 ** (a - start), 2]
        where[a] = len(shape) - 1
        start = a + 1
    shape.append(tensor.size // 2**start)
    order = [where[a] for a in axes]
    order += [i for i in range(len(shape)) if i not in order]
    front = tensor.reshape(shape).transpose(order)
    out = np.matmul(mat, front.reshape(len(mat), -1)).reshape(front.shape)
    back = [0] * len(order)
    for i, axis in enumerate(order):
        back[axis] = i
    return out.transpose(back).reshape(tensor.shape)


def to_qubit_order(state: np.ndarray, qubits) -> np.ndarray:
    """Reorder a raw vector or density matrix whose bit j holds qubits[j] so bit q holds q.

    Returns `state` itself, uncopied, when the order is already the identity.
    """
    n = len(qubits)
    if qubits == list(range(n)):
        return state
    axes = bit_axes(n, [qubits.index(q) for q in reversed(range(n))], state.ndim)
    return state.reshape([2] * (n * state.ndim)).transpose(axes).reshape(state.shape)


def sample_outcomes(p0: float, rng_samples: np.ndarray):
    """Born-rule draws of one measurement's outcome from the probability of 0.

    p0 is clamped to [0, 1] against roundoff and a sample draws outcome 0
    when it is below p0. An outcome less likely than ZERO_PROB_ATOL is
    refused if any sample draws it, because its post state cannot be
    renormalized. Returns (p0, ones): ones[i] is True where sample i draws 1.
    """
    p0 = min(max(p0, 0.0), 1.0)
    ones = ~(rng_samples < p0)
    for outcome, p_out, drawn in ((0, p0, ~ones), (1, 1.0 - p0, ones)):
        if p_out < ZERO_PROB_ATOL and drawn.any():
            raise ValueError(
                f"cannot collapse onto outcome {outcome} with probability {p_out}"
            )
    return p0, ones


def _halves(state: np.ndarray, qubit: int) -> np.ndarray:
    """A (high, 2, low) view of a vector, or (high, 2, ·, 2, low) of a matrix, on `qubit`."""
    low = 1 << qubit
    high = state.shape[0] // (2 * low)
    if state.ndim == 1:
        return state.reshape(high, 2, low)
    return state.reshape(high, 2, low * high, 2, low)


def prob_zero(state: np.ndarray, qubit: int) -> float:
    """Probability that `qubit` reads 0 in a raw state vector or density matrix."""
    if state.ndim == 1:
        return float(np.sum(np.abs(_halves(state, qubit)[:, 0]) ** 2))
    return float(np.real(np.sum(_halves(np.diagonal(state), qubit)[:, 0])))


def collapse(state: np.ndarray, qubit: int, outcome: int) -> np.ndarray:
    """Project a raw state onto `qubit` = outcome and renormalize, unvalidated."""
    kept = np.zeros_like(state)
    kept_bit = (slice(None), outcome) * state.ndim  # the bit's row, and its column
    _halves(kept, qubit)[kept_bit] = _halves(state, qubit)[kept_bit]
    kept /= np.linalg.norm(kept) if state.ndim == 1 else np.real(np.trace(kept))
    return kept


@dataclass
class _Group:
    """An independent block of qubits with its own small raw state.

    qubits are kept in merge order, unsorted; qubits[j] occupies local bit j.
    """

    qubits: list
    state: np.ndarray

    def local(self, qubit: int) -> int:
        return self.qubits.index(qubit)


def _merge_groups(a: _Group, b: _Group) -> _Group:
    """One group of both, with a's qubits on the low local bits; nothing moves."""
    return _Group(a.qubits + b.qubits, np.kron(b.state, a.state))


class DenseGroups:
    """Dense backend: raw state vectors or density matrices over qubit groups.

    Each group holds the state of its qubits, unentangled with the other
    groups; a two-qubit gate that spans two groups merges them first, and
    no merge moves a qubit. Started from one group per qubit (the depth
    engine), unentangled qubits stay factored; started from one group of all
    qubits (the simple engine), every gate is contracted into the full state.
    `representation` is "wave" or "density". States are carried
    unvalidated, and `export` reorders and checks once.
    """

    def __init__(self, blocks, representation: str):
        self.owner = [None] * sum(map(len, blocks))  # owner[q]: the group of q
        for qubits in blocks:  # each in |0...0>
            d = 2 ** len(qubits)
            g = _Group(qubits, np.zeros(d if representation == "wave" else (d, d), np.complex128))
            g.state.flat[0] = 1.0
            for q in qubits:
                self.owner[q] = g

    def apply(self, op, targets):
        """Contract `op` into the group of `targets` on their axes: on a density
        matrix, a superoperator on the rows then the columns."""
        g = self.owner[targets[0]]
        if len(targets) == 2 and self.owner[targets[1]] is not g:
            g = _merge_groups(g, self.owner[targets[1]])
            for q in g.qubits:
                self.owner[q] = g
        axes = bit_axes(len(g.qubits), [g.local(q) for q in targets], g.state.ndim)
        g.state = apply_local(g.state, op, axes)

    def _groups(self):
        """Each distinct group once, in order of its lowest qubit."""
        return {id(g): g for g in self.owner}.values()

    def copy(self) -> DenseGroups:
        """An independent copy: one new group per group, each array copied once."""
        new = object.__new__(DenseGroups)
        copies = {id(g): _Group(list(g.qubits), g.state.copy()) for g in self._groups()}
        new.owner = [copies[id(g)] for g in self.owner]
        return new

    def prob_zero(self, qubit: int) -> float:
        g = self.owner[qubit]
        return prob_zero(g.state, g.local(qubit))

    def collapse(self, qubit: int, outcome: int):
        g = self.owner[qubit]
        g.state = collapse(g.state, g.local(qubit), outcome)

    def trace(self) -> float:
        """The norm squared of the state, or its trace: the product over the groups."""
        return float(np.prod([np.real(np.vdot(g.state, g.state) if g.state.ndim == 1
                                      else np.trace(g.state)) for g in self._groups()]))

    def export(self):
        """Merge the groups in order of their lowest qubit, reorder once, and validate."""
        full = functools.reduce(_merge_groups, self._groups())
        state = to_qubit_order(full.state, full.qubits)
        return (PureState if state.ndim == 1 else DensityMatrix)(len(full.qubits), state)


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Mixed-state fidelity F = (tr sqrt(sqrt(B) A sqrt(B)))^2."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("density matrices must have the same dimension")
    eigs, vecs = np.linalg.eigh(b.matrix)  # b is PSD; roundoff negatives are clamped
    sqrt_b = (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    inner = sqrt_b @ a.matrix @ sqrt_b
    eigs = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # Roundoff turns structurally-zero eigenvalues into ~1e-16 junk whose
    # square roots would pollute the trace; clip relative to the largest.
    eigs[eigs < eigs.max() * 1e-13] = 0.0
    return float(np.sum(np.sqrt(eigs)) ** 2)
