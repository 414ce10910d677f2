"""Quantum state representations and the operations shared by every engine.

Two representations are supported: a pure state as a complex amplitude
vector of length 2^n, and a mixed state as a 2^n x 2^n density matrix.
Qubit 0 is the least significant bit of the basis-state index throughout
the package, so for two qubits the basis order is |00>, |01>, |10>, |11>
with the right-hand bit belonging to qubit 0.

All operations are pure functions returning new states; states are
immutable after construction.
"""

from __future__ import annotations

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
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def zero(num_qubits: int) -> "PureState":
        """The all-zeros computational basis state |0...0>."""
        amps = np.zeros(2**num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return PureState(num_qubits, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state rho: Hermitian, positive semidefinite, trace one."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = 2**self.num_qubits
        if mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {mat.shape}")
        if not np.abs(mat - mat.conj().T).max() <= NORM_ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(mat)
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -NORM_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        object.__setattr__(self, "matrix", mat)

    @staticmethod
    def zero(num_qubits: int) -> "DensityMatrix":
        """|0...0><0...0|."""
        mat = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
        mat[0, 0] = 1.0
        return DensityMatrix(num_qubits, mat)


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


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi|, bridging the two representations."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(psi.num_qubits, mat)


def tensor_product(a, b):
    """Combine two states, with `a` occupying the more significant qubits.

    Both operands must be the same representation kind.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(
            a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes)
        )
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.num_qubits + b.num_qubits, np.kron(a.matrix, b.matrix))
    raise TypeError(
        f"cannot combine {type(a).__name__} with {type(b).__name__}; "
        "operands must share a representation"
    )


def _check_keep(keep, num_qubits):
    if len(keep) == 0:
        raise ValueError("keep must be nonempty")
    if sorted(set(keep)) != list(keep):
        raise ValueError("keep must be sorted and free of duplicates")
    if keep[-1] >= num_qubits or keep[0] < 0:
        raise ValueError(f"keep indices must lie in [0, {num_qubits})")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the qubits in `keep` (sorted, distinct).

    Qubit keep[j] becomes bit j of the reduced matrix index.
    """
    keep = list(keep)
    n = rho.num_qubits
    _check_keep(keep, n)
    # Reshape to a rank-2n tensor; axis n-1-q indexes the row bit of qubit q
    # and axis 2n-1-q the column bit.
    t = rho.matrix.reshape([2] * (2 * n))
    row = [0] * n
    col = [0] * n
    out_row = []
    out_col = []
    next_label = 0
    for q in range(n):
        row[q] = next_label
        next_label += 1
    for q in range(n):
        if q in keep:
            col[q] = next_label
            next_label += 1
        else:
            col[q] = row[q]  # contract traced qubits
    for q in reversed(range(n)):
        if q in keep:
            out_row.append(row[q])
    for q in reversed(range(n)):
        if q in keep:
            out_col.append(col[q])
    subscripts = (
        [row[q] for q in reversed(range(n))] + [col[q] for q in reversed(range(n))]
    )
    reduced = np.einsum(t, subscripts, out_row + out_col)
    m = len(keep)
    return DensityMatrix(m, reduced.reshape(2**m, 2**m))


def _projector_diag(num_qubits: int, qubit: int, outcome: int) -> np.ndarray:
    """Diagonal of the projector onto `outcome` for one qubit, as a bool mask."""
    idx = np.arange(2**num_qubits)
    return ((idx >> qubit) & 1) == outcome


def measure_qubit(state, qubit: int, rng_sample: float):
    """Projective Z-measurement of one qubit.

    Returns (outcome, post_state, prob) where prob is the Born probability
    of outcome 0 and the post state is the full system collapsed onto the
    sampled outcome and renormalized.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    raw = state.amplitudes if isinstance(state, PureState) else state.matrix
    p0, ones = sample_outcomes(prob_zero(raw, qubit), np.array([rng_sample]))
    outcome = int(ones[0])
    return outcome, type(state)(n, collapse(raw, qubit, outcome)), p0


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


def prob_zero(state: np.ndarray, qubit: int) -> float:
    """Probability that `qubit` reads 0 in a raw state vector or density matrix."""
    mask0 = _projector_diag(state.shape[0].bit_length() - 1, qubit, 0)
    if state.ndim == 1:
        return float(np.sum(np.abs(state[mask0]) ** 2))
    return float(np.real(np.sum(np.diag(state)[mask0])))


def collapse(state: np.ndarray, qubit: int, outcome: int) -> np.ndarray:
    """Project a raw state onto `qubit` = outcome and renormalize, unvalidated."""
    mask = _projector_diag(state.shape[0].bit_length() - 1, qubit, outcome)
    if state.ndim == 1:
        amps = np.where(mask, state, 0.0)
        return amps / np.linalg.norm(amps)
    mat = np.where(np.outer(mask, mask), state, 0.0)
    return mat / np.real(np.trace(mat))


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Scrub roundoff so the DensityMatrix invariants see a clean matrix."""
    return (mat + mat.conj().T) / 2


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below -1e-10 are an invariant violation; small negative
    values from roundoff are clamped to zero.
    """
    eigs, vecs = np.linalg.eigh(mat)
    if eigs.min() < -NORM_ATOL:
        raise ValueError(f"matrix is not PSD: eigenvalue {eigs.min()}")
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Mixed-state fidelity F = (tr sqrt(sqrt(B) A sqrt(B)))^2."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("density matrices must have the same dimension")
    sqrt_b = _psd_sqrt(b.matrix)
    inner = sqrt_b @ a.matrix @ sqrt_b
    eigs = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # Roundoff turns structurally-zero eigenvalues into ~1e-16 junk whose
    # square roots would pollute the trace; clip relative to the largest.
    eigs[eigs < eigs.max() * 1e-13] = 0.0
    return float(np.sum(np.sqrt(eigs)) ** 2)
