"""Kraus noise channels and their application to gates on density matrices.

Three named channels are provided, each parametrized by a strength
``epsilon`` in [0, 1]:

* dephasing:          rho -> (1-eps) rho + eps Z rho Z
* depolarizing:       rho -> (1-3eps/4) rho + eps/4 (X rho X + Y rho Y + Z rho Z)
                      = (1-eps) rho + eps (I/2 on the qubit) x (trace over it)
* amplitude damping:  rho -> A0 rho A0^+ + A1 rho A1^+

Dephasing and amplitude damping act on the target qubit before the gate;
depolarizing acts after it. For two-qubit gates the per-slot channels
combine as a tensor product. Every channel carries an explicit Kraus
decomposition satisfying sum_k E_k^+ E_k = I, and acts on the qubit's row
and column axes as one operator, sum_k E_k (x) conj(E_k), through the
kernel that applies gates (`gates.apply_local`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import Gate, apply_local, apply_on_qubits
from .state import DensityMatrix, hermitize

COMPLETENESS_ATOL = 1e-12

DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
AMPLITUDE_DAMPING = "amplitude_damping"

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class NoiseChannel:
    """Single-qubit channel given by 2x2 Kraus operators."""

    kind: str
    epsilon: float
    kraus_ops: tuple = field(default_factory=tuple)
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        ops = tuple(np.asarray(op, dtype=np.complex128) for op in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        total = sum(op.conj().T @ op for op in ops)
        if not np.allclose(total, np.eye(2), atol=COMPLETENESS_ATOL, rtol=0):
            raise ValueError("Kraus operators do not satisfy sum E_k^+ E_k = I")
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(
            self, "superoperator", sum(np.kron(op, op.conj()) for op in ops)
        )


def _check_epsilon(epsilon: float) -> None:
    # Validate before taking square roots so out-of-range strengths raise
    # cleanly instead of emitting NaN warnings first.
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


def dephasing(epsilon: float) -> NoiseChannel:
    """Phase-flip channel: Kraus set {sqrt(1-eps) I, sqrt(eps) Z}."""
    _check_epsilon(epsilon)
    return NoiseChannel(
        DEPHASING,
        epsilon,
        (np.sqrt(1 - epsilon) * np.eye(2), np.sqrt(epsilon) * _PAULI_Z),
    )


def depolarizing(epsilon: float) -> NoiseChannel:
    """Mix toward I/2 with weight eps, applied after the gate.

    The affine form (1-eps) rho + eps I/2 equals the Pauli-twirl Kraus set
    stored here, so the completeness invariant is checkable like any other
    channel.
    """
    _check_epsilon(epsilon)
    return NoiseChannel(
        DEPOLARIZING,
        epsilon,
        (
            np.sqrt(1 - 3 * epsilon / 4) * np.eye(2),
            np.sqrt(epsilon / 4) * _PAULI_X,
            np.sqrt(epsilon / 4) * _PAULI_Y,
            np.sqrt(epsilon / 4) * _PAULI_Z,
        ),
    )


def amplitude_damping(epsilon: float) -> NoiseChannel:
    """Energy decay |1> -> |0> with strength eps."""
    _check_epsilon(epsilon)
    a0 = np.array([[1, 0], [0, np.sqrt(1 - epsilon)]], dtype=np.complex128)
    a1 = np.array([[0, np.sqrt(epsilon)], [0, 0]], dtype=np.complex128)
    return NoiseChannel(AMPLITUDE_DAMPING, epsilon, (a0, a1))


_FACTORIES = {
    DEPHASING: dephasing,
    DEPOLARIZING: depolarizing,
    AMPLITUDE_DAMPING: amplitude_damping,
}


def channel_from_kind(kind: str, epsilon: float) -> NoiseChannel:
    if kind not in _FACTORIES:
        raise ValueError(f"unknown noise kind {kind!r}")
    return _FACTORIES[kind](epsilon)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-qubit-slot channels for one gate application.

    Slot 0 is the gate's first target, slot 1 the second. A missing slot
    means no noise on that qubit.
    """

    per_qubit_channels: dict

    def __post_init__(self):
        chans = dict(self.per_qubit_channels)
        if any(slot not in (0, 1) for slot in chans):
            raise ValueError("slots must be 0 or 1")
        object.__setattr__(self, "per_qubit_channels", chans)

    def to_dict(self) -> dict:
        return {
            str(slot): {"kind": ch.kind, "epsilon": ch.epsilon}
            for slot, ch in sorted(self.per_qubit_channels.items())
        }

    @staticmethod
    def from_dict(data: dict) -> "NoiseSpec":
        return NoiseSpec(
            {
                int(slot): channel_from_kind(entry["kind"], entry["epsilon"])
                for slot, entry in data.items()
            }
        )

    @staticmethod
    def uniform(kind: str, epsilon: float, arity: int) -> "NoiseSpec":
        """Same channel on every slot of a gate with the given arity."""
        return NoiseSpec(
            {slot: channel_from_kind(kind, epsilon) for slot in range(arity)}
        )


def apply_gate(state: np.ndarray, gate: Gate, targets, spec: NoiseSpec | None):
    """`apply_noisy_gate` on a raw state vector or density matrix, unvalidated.

    Noise needs a density matrix.
    """
    if spec is None:
        return apply_on_qubits(state, gate.matrix, targets)
    extra = [s for s in spec.per_qubit_channels if s >= gate.arity]
    if extra:
        raise ValueError(
            f"noise slots {extra} invalid for arity-{gate.arity} gate {gate.name}"
        )
    channels = sorted(spec.per_qubit_channels.items())
    for slot, ch in channels:
        if ch.kind != DEPOLARIZING:
            state = _apply_channel(state, ch, targets[slot])
    state = apply_on_qubits(state, gate.matrix, targets)
    for slot, ch in channels:
        if ch.kind == DEPOLARIZING:
            state = _apply_channel(state, ch, targets[slot])
    return state


def _apply_channel(rho: np.ndarray, channel: NoiseChannel, qubit: int) -> np.ndarray:
    """sum_k E_k rho E_k^+ on `qubit`, summed over k inside one contraction."""
    n = rho.shape[0].bit_length() - 1
    return apply_local(rho, channel.superoperator, [n - 1 - qubit, 2 * n - 1 - qubit])


def apply_noisy_gate(
    rho: DensityMatrix, gate: Gate, targets, spec: NoiseSpec | None
) -> DensityMatrix:
    """Apply `gate` on `targets` with per-slot noise channels.

    Dephasing and amplitude damping act on their qubit before the unitary;
    depolarizing slots act on their qubit after it. spec=None means a
    noiseless gate.
    """
    targets = list(targets)
    n = rho.num_qubits
    if len(targets) != gate.arity or len(set(targets) & set(range(n))) != gate.arity:
        raise ValueError(f"gate {gate.name}: bad targets {targets} for {n} qubits")
    mat = apply_gate(rho.matrix, gate, targets, spec)
    return DensityMatrix(n, hermitize(mat))
