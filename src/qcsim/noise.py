"""Kraus noise channels and the per-gate noise attachment.

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
sum_k E_k (x) conj(E_k) on the qubit's row and column bits.

The engines apply each slot's channel as a 1-qubit step of its own, with
that superoperator as its operator, before or after the gate's step as
`NoiseChannel.after_gate` says; fusion then folds it into the steps around
it like any other 1-qubit step (`engines._fuse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import Gate, make_gate

COMPLETENESS_ATOL = 1e-12

DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
AMPLITUDE_DAMPING = "amplitude_damping"
NOISE_KINDS = (DEPHASING, DEPOLARIZING, AMPLITUDE_DAMPING)

_PAULI_X, _PAULI_Y, _PAULI_Z = (make_gate(name).matrix for name in ("X", "Y", "Z"))


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

    @property
    def after_gate(self) -> bool:
        """True if the channel acts after its gate (depolarizing), False if
        before it (dephasing, amplitude damping)."""
        return self.kind == DEPOLARIZING


def _check_epsilon(epsilon: float) -> None:
    # Validate before taking square roots so out-of-range strengths raise
    # cleanly instead of emitting NaN warnings first.
    if isinstance(epsilon, bool) or not 0.0 <= epsilon <= 1.0:
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


_FACTORIES = dict(zip(NOISE_KINDS, (dephasing, depolarizing, amplitude_damping)))


def channel_from_kind(kind: str, epsilon: float) -> NoiseChannel:
    if kind not in _FACTORIES:
        raise ValueError(f"unknown noise kind {kind!r}")
    return _FACTORIES[kind](epsilon)


def channel_from_entry(entry) -> NoiseChannel:
    """The channel of a noise entry, `{"kind": ..., "epsilon": ...}`: each
    slot of circuit JSON's noise, and each entry of a noise config."""
    return channel_from_kind(entry["kind"], entry["epsilon"])


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
        """Each slot's entry; raises ValueError for a channel that no entry
        names: one of a kind without a factory, or whose Kraus operators
        act otherwise than those its kind's factory builds at its epsilon."""
        for ch in self.per_qubit_channels.values():
            if not np.array_equal(channel_from_kind(ch.kind, ch.epsilon).superoperator,
                                  ch.superoperator):
                raise ValueError(f"the {ch.kind} channel at epsilon {ch.epsilon} is not "
                                 "its kind's channel, so no entry names it")
        return {
            str(slot): {"kind": ch.kind, "epsilon": ch.epsilon}
            for slot, ch in sorted(self.per_qubit_channels.items())
        }

    @staticmethod
    def from_dict(data: dict) -> "NoiseSpec":
        if not isinstance(data, dict):
            raise ValueError(f"noise must be a JSON object, not {type(data).__name__}")
        return NoiseSpec({int(slot): channel_from_entry(entry) for slot, entry in data.items()})

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
