"""Quantum state representations and the operations shared by every engine.

Two representations are supported: a pure state as a complex amplitude
vector of length 2^n, and a mixed state as a 2^n x 2^n density matrix.
Qubit 0 is the least significant bit of the basis-state index throughout
the package, so for two qubits the basis order is |00>, |01>, |10>, |11>
with the right-hand bit belonging to qubit 0.

`PureState` and `DensityMatrix` are the validated states a run returns:
their invariants are checked once, where a state leaves an engine. The
engines carry raw numpy arrays between those checks, and the functions
here that take a raw `state` (`prob_zero`, `collapse`, `to_qubit_order`)
work on a vector and a density matrix alike. The full-register
reference algebra (embedding, partial trace, |psi><psi|) is a test
oracle and lives with the tests.
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
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        object.__setattr__(self, "amplitudes", amps)


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
    src, dst = _halves(state, qubit), _halves(kept, qubit)
    if state.ndim == 1:
        dst[:, outcome] = src[:, outcome]
        kept /= np.linalg.norm(kept)
    else:
        dst[:, outcome, :, outcome] = src[:, outcome, :, outcome]
        kept /= np.real(np.trace(kept))
    return kept


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Scrub roundoff so the DensityMatrix invariants see a clean matrix."""
    return (mat + mat.conj().T) / 2


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below -1e-10 are an invariant violation; small negative
    values from roundoff are clamped to zero.
    """
    eigs, vecs = np.linalg.eigh(mat)
    if not eigs.min() >= -NORM_ATOL:
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
