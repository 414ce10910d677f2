"""Kraus noise channels and the operator that each gate step applies.

Three named channels are provided, each parametrized by a strength
``epsilon`` in [0, 1]:

* dephasing:          rho -> (1-eps) rho + eps Z rho Z
* depolarizing:       rho -> (1-3eps/4) rho + eps/4 (X rho X + Y rho Y + Z rho Z)
                      = (1-eps) rho + eps (I/2 on the qubit) x (trace over it)
* amplitude damping:  rho -> A0 rho A0^+ + A1 rho A1^+

Dephasing and amplitude damping act on the target qubit before the gate;
depolarizing acts after it. For two-qubit gates the per-slot channels
combine as a tensor product. Every channel carries an explicit Kraus
decomposition satisfying sum_k E_k^+ E_k = I, and its superoperator
sum_k E_k (x) conj(E_k) on the qubit's row and column bits; `step_operator`
folds a gate and its channels into one such operator per gate step.
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
        _check_epsilon(self.epsilon)
        ops = tuple(np.asarray(op, dtype=np.complex128) for op in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        total = sum(op.conj().T @ op for op in ops)
        if not np.abs(total - np.eye(2)).max() <= COMPLETENESS_ATOL:
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


def check_slots(gate: Gate, spec: NoiseSpec | None) -> None:
    """Raise ValueError if `spec` has a slot past the targets of `gate`."""
    slot = max(spec.per_qubit_channels, default=0) if spec else 0
    if slot >= gate.arity:
        raise ValueError(f"gate {gate.name} has no target for noise slot {slot}")


def step_operator(gate: Gate, spec: NoiseSpec | None, density: bool) -> np.ndarray:
    """The operator that one step of `gate` under noise `spec` applies.

    A wave state gets the unitary U. A density matrix gets the Liouville
    superoperator D_post (U (x) conj(U)) N_pre on the targets' row bits,
    then their column bits: each slot's channel acts on its qubit's (row,
    column) bits, dephasing and amplitude damping before U, depolarizing after.
    """
    if not density:
        return gate.matrix
    k = gate.arity
    pre = post = np.eye(4**k, dtype=np.complex128)
    for slot, ch in (spec.per_qubit_channels if spec else {}).items():
        if ch.kind == DEPOLARIZING:
            post = apply_local(post, ch.superoperator, [slot, k + slot])
        else:
            pre = apply_local(pre, ch.superoperator, [slot, k + slot])
    return post @ np.kron(gate.matrix, gate.matrix.conj()) @ pre


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
    check_slots(gate, spec)
    mat = apply_on_qubits(rho.matrix, step_operator(gate, spec, True), targets)
    return DensityMatrix(n, hermitize(mat))
