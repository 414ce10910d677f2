"""Kraus noise channels and the per-gate noise attachment.

Three named channels are provided, each parametrized by a strength
``epsilon`` in [0, 1]:

* dephasing:          rho -> (1-eps) rho + eps Z rho Z
* depolarizing:       rho -> (1-3eps/4) rho + eps/4 (X rho X + Y rho Y + Z rho Z)
                      = (1-eps) rho + eps (I/2 on the qubit) x (trace over it)
* amplitude damping:  rho -> A0 rho A0^+ + A1 rho A1^+

One table, `_KRAUS`, maps each kind to the builder of its Kraus operators;
`channel_from_kind` checks the kind and epsilon once and reads it, and the
three factories call it. Dephasing and amplitude damping act on the target
qubit before the gate; depolarizing acts after it. For two-qubit gates the
per-slot channels combine as a tensor product. Every channel carries an
explicit Kraus decomposition satisfying sum_k E_k^+ E_k = I, and its
superoperator sum_k E_k (x) conj(E_k) on the qubit's row and column bits,
built by `gates.liouville` as a gate's is.

The engines apply each slot's channel as a 1-qubit step of its own, with
that superoperator as its operator, before or after the gate's step as
`NoiseChannel.after_gate` says; fusion then folds it into the steps around
it like any other 1-qubit step (`engines._fuse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import Gate, liouville, make_gate

COMPLETENESS_ATOL = 1e-12

DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
AMPLITUDE_DAMPING = "amplitude_damping"

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
        object.__setattr__(self, "superoperator", liouville(ops))

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


# kind -> builder of its 2x2 Kraus operators at strength eps
_KRAUS = {
    DEPHASING: lambda eps: (np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * _PAULI_Z),
    DEPOLARIZING: lambda eps: (np.sqrt(1 - 3 * eps / 4) * np.eye(2),
                               *(np.sqrt(eps / 4) * p for p in (_PAULI_X, _PAULI_Y, _PAULI_Z))),
    AMPLITUDE_DAMPING: lambda eps: ([[1, 0], [0, np.sqrt(1 - eps)]], [[0, np.sqrt(eps)], [0, 0]]),
}
NOISE_KINDS = tuple(_KRAUS)


def channel_from_kind(kind: str, epsilon: float) -> NoiseChannel:
    """The channel of `kind` at strength `epsilon`, from its `_KRAUS` entry."""
    if kind not in _KRAUS:
        raise ValueError(f"unknown noise kind {kind!r}")
    _check_epsilon(epsilon)
    return NoiseChannel(kind, epsilon, _KRAUS[kind](epsilon))


def dephasing(epsilon: float) -> NoiseChannel:
    """Phase-flip channel: Kraus set {sqrt(1-eps) I, sqrt(eps) Z}."""
    return channel_from_kind(DEPHASING, epsilon)


def depolarizing(epsilon: float) -> NoiseChannel:
    """Mix toward I/2 with weight eps, applied after the gate.

    The affine form (1-eps) rho + eps I/2 equals the Pauli-twirl Kraus set
    stored here, so the completeness invariant is checkable like any other
    channel.
    """
    return channel_from_kind(DEPOLARIZING, epsilon)


def amplitude_damping(epsilon: float) -> NoiseChannel:
    """Energy decay |1> -> |0> with strength eps."""
    return channel_from_kind(AMPLITUDE_DAMPING, epsilon)


def json_object(value, name: str, keys=None) -> dict:
    """`value` if it is a JSON object, and one whose keys are all in `keys`
    when that is given; a ValueError naming it, or its first unknown key,
    otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} is not a JSON object")
    for key in () if keys is None else value:
        if key not in keys:
            raise ValueError(f"{name} has an unknown key {key!r}")
    return value


def channel_from_entry(entry, name: str, keys=("kind", "epsilon")) -> NoiseChannel:
    """The channel of a noise entry, `{"kind": ..., "epsilon": ...}`: each
    slot of circuit JSON's noise, and each entry of a noise config. `name`
    names the entry in errors, and `keys` are the keys it may hold."""
    entry = json_object(entry, name, keys)
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
    def from_dict(data, name: str) -> "NoiseSpec":
        """The spec of a circuit JSON noise object, whose keys are slots
        "0" and "1"; `name` names it in errors."""
        spec = {}
        for slot, entry in json_object(data, name).items():
            if slot not in ("0", "1"):
                raise ValueError(f'{name} slot {slot!r} is not "0" or "1"')
            spec[int(slot)] = channel_from_entry(entry, f"{name} slot {slot}")
        return NoiseSpec(spec)

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
