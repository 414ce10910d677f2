import itertools

import numpy as np
import pytest

from oracles import (
    apply_on_qubits,
    embed_operator,
    gate_tensor_on,
    partial_trace,
    pure_to_density,
    zero_density,
)
from qcsim import engines
from qcsim.circuit import Circuit, gate_app, measure
from qcsim.engines import RunConfig, run
from qcsim.gates import make_gate, step_operator
from qcsim.noise import (
    COMPLETENESS_ATOL,
    NOISE_KINDS,
    NoiseChannel,
    NoiseSpec,
    amplitude_damping,
    channel_from_kind,
    check_slots,
    dephasing,
    depolarizing,
)
from qcsim.state import DensityMatrix, DenseGroups, PureState

Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(num_qubits, rng):
    d = 2**num_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m))


def noisy_gate(rho, gate, targets, spec):
    """`gate` on `targets` under noise `spec`, applied to rho on the path the
    dense engines run: the schedule of a one-gate circuit, its steps applied
    through `DenseGroups`. Returns the raw matrix."""
    n = rho.num_qubits
    circuit = Circuit(n, 0, [gate_app(gate, targets, noise=spec)])
    steps, _ = engines._schedule(circuit, RunConfig(representation="density"))
    backend = DenseGroups([list(range(n))], "density")
    backend.owner[0].state = np.array(rho.matrix, dtype=complex)
    for ins, op in steps:
        backend.apply(op, ins.targets)
    return backend.owner[0].state


def all_channels(epsilon):
    return [dephasing(epsilon), depolarizing(epsilon), amplitude_damping(epsilon)]


class TestChannelConstruction:
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_kraus_completeness(self, eps):
        for channel in all_channels(eps):
            total = sum(op.conj().T @ op for op in channel.kraus_ops)
            assert np.abs(total - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_epsilon_out_of_range(self, eps):
        for factory in (dephasing, depolarizing, amplitude_damping):
            with pytest.raises(ValueError):
                factory(eps)

    def test_empty_kraus_set_rejected(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            NoiseChannel("custom", 0.5, ())

    def test_incomplete_kraus_set_rejected(self):
        with pytest.raises(ValueError):
            NoiseChannel("custom", 0.5, (np.eye(2) * 0.5,))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("delta", [0.5, 0.99, -2.0, 2.0, np.nan, np.inf])
    def test_completeness_check_is_allclose_rule(self, delta):
        # sum E^+ E is off from I in its [0, 0] entry by delta * COMPLETENESS_ATOL
        op = np.diag([np.sqrt(1 + delta * COMPLETENESS_ATOL), 1.0]).astype(complex)
        accepted = np.allclose(op.conj().T @ op, np.eye(2), atol=COMPLETENESS_ATOL, rtol=0)
        assert accepted == (abs(delta) < 1)
        if accepted:
            NoiseChannel("custom", 0.5, (op,))
        else:
            with pytest.raises(ValueError, match="sum E_k"):
                NoiseChannel("custom", 0.5, (op,))

    def test_bad_slot_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec({2: dephasing(0.1)})

    def test_factories_read_the_kraus_table(self):
        assert NOISE_KINDS == ("dephasing", "depolarizing", "amplitude_damping")
        for kind, factory in zip(NOISE_KINDS, (dephasing, depolarizing, amplitude_damping)):
            for eps in (0.0, 0.3, 1.0):
                made, read = factory(eps), channel_from_kind(kind, eps)
                assert (made.kind, made.epsilon) == (kind, eps)
                assert all(np.array_equal(a, b) for a, b in zip(made.kraus_ops, read.kraus_ops))
        with pytest.raises(ValueError, match="unknown noise kind 'custom'"):
            channel_from_kind("custom", 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [-0.1, 1.1, np.nan, -np.inf])
    def test_epsilon_checked_before_the_kraus_operators(self, eps):
        for kind in NOISE_KINDS:
            with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
                channel_from_kind(kind, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_superoperator_is_the_liouville_form(self, eps):
        rng = np.random.default_rng(4)
        rho = random_density(1, rng).matrix
        direct = NoiseChannel("custom", eps, amplitude_damping(eps).kraus_ops[::-1])
        for ch in all_channels(eps) + [direct]:
            out = (ch.superoperator @ rho.reshape(-1)).reshape(2, 2)
            expected = sum(op @ rho @ op.conj().T for op in ch.kraus_ops)
            assert np.abs(out - expected).max() < 1e-15
            # the sum of krons that a channel's superoperator has always
            # been, zeros and their signs included
            old = sum(np.kron(op, op.conj()) for op in ch.kraus_ops)
            assert ch.superoperator.tobytes() == old.tobytes()


class TestDephasing:
    def test_epsilon_zero_is_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(1, rng)
        out = noisy_gate(rho, make_gate("I"), [0], NoiseSpec({0: dephasing(0.0)}))
        assert np.abs(out - rho.matrix).max() < 1e-12

    def test_half_dephasing_kills_coherence(self):
        plus = pure_to_density(PureState(1, np.array([1, 1]) / np.sqrt(2)))
        out = noisy_gate(plus, make_gate("I"), [0], NoiseSpec({0: dephasing(0.5)}))
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_matches_direct_arithmetic_oracle(self):
        rng = np.random.default_rng(1)
        rho = random_density(1, rng)
        out = noisy_gate(rho, make_gate("I"), [0], NoiseSpec({0: dephasing(0.3)}))
        expected = 0.7 * rho.matrix + 0.3 * Z @ rho.matrix @ Z.conj().T
        assert np.abs(out - expected).max() < 1e-12

    def test_z_invariant_state_before_x_gate(self):
        rho = zero_density(1)
        out = noisy_gate(rho, make_gate("X"), [0], NoiseSpec({0: dephasing(0.4)}))
        assert np.abs(out - np.diag([0.0, 1.0])).max() < 1e-12


class TestDepolarizing:
    def test_full_depolarization_gives_maximally_mixed_marginal(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        out = noisy_gate(
            rho, make_gate("H"), [1], NoiseSpec({0: depolarizing(1.0)})
        )
        marginal = partial_trace(DensityMatrix(2, out), [1])
        assert np.abs(marginal.matrix - np.eye(2) / 2).max() < 1e-10

    def test_epsilon_zero_is_pure_unitary(self):
        rng = np.random.default_rng(3)
        rho = random_density(1, rng)
        h = make_gate("H")
        out = noisy_gate(rho, h, [0], NoiseSpec({0: depolarizing(0.0)}))
        expected = h.matrix @ rho.matrix @ h.matrix.conj().T
        assert np.abs(out - expected).max() < 1e-12

    def test_matches_combined_form_oracle(self):
        # (1-eps) U rho U^+ + eps I/2 evaluated directly
        rho = zero_density(1)
        h = make_gate("H")
        out = noisy_gate(rho, h, [0], NoiseSpec({0: depolarizing(0.4)}))
        expected = 0.6 * h.matrix @ rho.matrix @ h.matrix.conj().T + 0.4 * np.eye(2) / 2
        assert np.abs(out - expected).max() < 1e-12

    def test_multi_qubit_mixes_only_the_target_marginal(self):
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        out = noisy_gate(
            rho, make_gate("I"), [0], NoiseSpec({0: depolarizing(0.5)})
        )
        # the untouched qubit's marginal is preserved
        kept = partial_trace(rho, [1])
        kept_after = partial_trace(DensityMatrix(2, out), [1])
        assert np.abs(kept.matrix - kept_after.matrix).max() < 1e-10


def maximally_mixed_on(rho, qubit, num_qubits):
    """(I/2 on `qubit`) x (trace of rho over `qubit`), by index arithmetic."""
    n = num_qubits
    row, col = n - 1 - qubit, 2 * n - 1 - qubit
    traced = np.trace(rho.reshape([2] * (2 * n)), axis1=row, axis2=col)
    out = np.multiply.outer(traced, np.eye(2) / 2)
    return np.moveaxis(out, [2 * n - 2, 2 * n - 1], [row, col]).reshape(rho.shape)


class TestDepolarizingOnLargerStates:
    @pytest.mark.parametrize("num_qubits", [3, 4])
    def test_every_qubit_matches_brute_force_oracle(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        paulis = [np.array(p, dtype=complex) for p in
                  ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
        h = make_gate("H")
        for qubit in range(num_qubits):
            rho = random_density(num_qubits, rng)
            eps = rng.uniform(0.05, 0.95)
            out = noisy_gate(rho, h, [qubit], NoiseSpec({0: depolarizing(eps)}))
            u = gate_tensor_on(h, [qubit], num_qubits)
            after_gate = u @ rho.matrix @ u.conj().T
            pauli_mixture = (1 - 3 * eps / 4) * after_gate + eps / 4 * sum(
                p @ after_gate @ p.conj().T
                for p in (embed_operator(m, [qubit], num_qubits) for m in paulis)
            )
            affine = (1 - eps) * after_gate + eps * maximally_mixed_on(
                after_gate, qubit, num_qubits
            )
            assert np.abs(pauli_mixture - affine).max() < 1e-12
            assert np.abs(out - pauli_mixture).max() < 1e-12


class TestAmplitudeDamping:
    def test_ground_state_fixed(self):
        rho = zero_density(1)
        out = noisy_gate(
            rho, make_gate("I"), [0], NoiseSpec({0: amplitude_damping(0.8)})
        )
        assert np.abs(out - rho.matrix).max() < 1e-12

    def test_excited_state_decays(self):
        one = DensityMatrix(1, np.diag([0.0, 1.0]))
        out = noisy_gate(
            one, make_gate("I"), [0], NoiseSpec({0: amplitude_damping(0.25)})
        )
        assert np.abs(out - np.diag([0.25, 0.75])).max() < 1e-12

    def test_matches_direct_kraus_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_density(1, rng)
        eps = 0.6
        out = noisy_gate(
            rho, make_gate("I"), [0], NoiseSpec({0: amplitude_damping(eps)})
        )
        a0 = np.array([[1, 0], [0, np.sqrt(1 - eps)]], dtype=complex)
        a1 = np.array([[0, np.sqrt(eps)], [0, 0]], dtype=complex)
        expected = a0 @ rho.matrix @ a0.conj().T + a1 @ rho.matrix @ a1.conj().T
        assert np.abs(out - expected).max() < 1e-12


def kraus_terms(channel, after):
    """The channel's Kraus terms on its side of the gate, else the identity.

    Depolarizing acts after the gate; the other kinds act before it.
    """
    if (channel.kind == "depolarizing") == after:
        return channel.kraus_ops
    return [np.eye(2)]


class TestApplyNoisyGate:
    def test_zero_noise_two_qubit_equals_noiseless(self):
        rng = np.random.default_rng(6)
        rho = random_density(2, rng)
        cx = make_gate("CX")
        spec = NoiseSpec({0: dephasing(0.0), 1: dephasing(0.0)})
        out = noisy_gate(rho, cx, [0, 1], spec)
        u = gate_tensor_on(cx, [0, 1], 2)
        expected = u @ rho.matrix @ u.conj().T
        assert np.abs(out - expected).max() < 1e-12

    def test_two_qubit_tensor_product_matches_kron_oracle(self):
        rng = np.random.default_rng(7)
        cx = make_gate("CX")
        # adjacent, reversed non-adjacent and non-adjacent targets; the later
        # cases mix dephasing or amplitude damping (before the gate) with
        # depolarizing (after it) on one gate
        cases = [(2, [0, 1], dephasing(0.2), dephasing(0.3)),
                 (4, [3, 1], dephasing(0.2), amplitude_damping(0.4)),
                 (3, [0, 2], dephasing(0.2), amplitude_damping(0.7))]
        for num_qubits, targets in [(4, [3, 1]), (3, [0, 2])]:
            for other in (dephasing(0.35), amplitude_damping(0.45)):
                cases += [(num_qubits, targets, depolarizing(0.3), other),
                          (num_qubits, targets, other, depolarizing(0.25))]
        for num_qubits, targets, slot0, slot1 in cases:
            rho = random_density(num_qubits, rng)
            spec = NoiseSpec({0: slot0, 1: slot1})
            out = noisy_gate(rho, cx, targets, spec)
            u = gate_tensor_on(cx, targets, num_qubits)
            expected = np.zeros_like(rho.matrix)
            for b0, b1, a0, a1 in itertools.product(
                kraus_terms(slot0, after=False), kraus_terms(slot1, after=False),
                kraus_terms(slot0, after=True), kraus_terms(slot1, after=True),
            ):
                before = embed_operator(np.kron(b0, b1), targets, num_qubits)
                after = embed_operator(np.kron(a0, a1), targets, num_qubits)
                k = after @ u @ before
                expected += k @ rho.matrix @ k.conj().T
            assert np.abs(out - expected).max() < 1e-11, (targets, slot0, slot1)

    def test_slot_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_slots(make_gate("X"), NoiseSpec({0: dephasing(0.1), 1: dephasing(0.1)}))

    @pytest.mark.parametrize("targets", [[0], [0, 0], [0, 2], [0, 1, 2]])
    def test_bad_targets_rejected(self, targets):
        # a noisy step runs only inside a Circuit, which refuses these targets
        spec = NoiseSpec({0: dephasing(0.1)})
        with pytest.raises(ValueError):
            Circuit(2, 0, [gate_app(make_gate("CX"), targets, noise=spec)])

    def test_trace_preserved_and_psd(self):
        rng = np.random.default_rng(8)
        for eps in (0.1, 0.5, 0.9):
            for channel in all_channels(eps):
                rho = random_density(2, rng)
                out = noisy_gate(
                    rho, make_gate("CX"), [1, 0], NoiseSpec({0: channel, 1: channel})
                )
                assert abs(np.trace(out) - 1.0) < 1e-10
                assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_noiseless_reduction_over_random_gates(self):
        rng = np.random.default_rng(9)
        for name in ("H", "T", "RX"):
            params = [rng.uniform(0, 2 * np.pi)] if name == "RX" else []
            gate = make_gate(name, params)
            rho = random_density(2, rng)
            for channel in all_channels(0.0):
                out = noisy_gate(rho, gate, [1], NoiseSpec({0: channel}))
                u = gate_tensor_on(gate, [1], 2)
                expected = u @ rho.matrix @ u.conj().T
                assert np.abs(out - expected).max() < 1e-12


def test_step_operator_invariants():
    """Without noise the step is U (x) conj(U); every step of a noisy gate
    keeps the trace."""
    rng = np.random.default_rng(12)
    kinds = (dephasing, depolarizing, amplitude_damping)
    gates = [make_gate("H"), make_gate("U3", rng.uniform(0, 2 * np.pi, 3)),
             make_gate("CX"), make_gate("SWAP")]
    density = RunConfig(representation="density")
    for gate in gates:
        u = gate.matrix
        assert step_operator(gate, False) is u
        noiseless = step_operator(gate, True)
        assert np.abs(noiseless - np.kron(u, u.conj())).max() < 1e-15
        slot_sets = [(0,)] if gate.arity == 1 else [(0,), (1,), (0, 1)]
        for slots in slot_sets:
            for chosen in itertools.product(kinds, repeat=len(slots)):
                spec = NoiseSpec({slot: make(rng.uniform(0.05, 0.95))
                                  for slot, make in zip(slots, chosen)})
                circuit = Circuit(2, 0, [gate_app(gate, range(gate.arity), noise=spec)])
                for _, op in engines._schedule(circuit, density)[0]:
                    vec_identity = np.eye(round(len(op) ** 0.5)).reshape(-1)
                    assert np.abs(vec_identity @ op - vec_identity).max() < 1e-12, (
                        gate.name, spec.to_dict())


def per_gate_formula(gate, spec):
    """Oracle: D_post (U (x) conj(U)) N_pre from full embeddings of each
    slot's superoperator on its (row, column) bits, identity where no
    channel acts; `spec` may be None."""
    k = gate.arity
    pre = post = np.eye(4**k, dtype=complex)
    for slot, ch in (spec.per_qubit_channels.items() if spec else ()):
        # bit axis a of the 4^k index is qubit 2k-1-a of embed_operator
        full = embed_operator(ch.superoperator, [2 * k - 1 - slot, k - 1 - slot], 2 * k)
        if ch.kind == "depolarizing":
            post = full @ post
        else:
            pre = full @ pre
    u = gate.matrix
    return post @ np.kron(u, u.conj()) @ pre


def test_noisy_gates_equal_the_per_gate_formula():
    """Every gate, kind and slot set, applied through the engines' schedule,
    equals the per-gate formula applied in one step."""
    rng = np.random.default_rng(13)
    strength = {dephasing: 0.2, depolarizing: 0.3, amplitude_damping: 0.4}
    gates = [make_gate("RX", [0.7]), make_gate("CX"), make_gate("U3", [0.1, 0.2, 0.3])]
    for gate in gates:
        targets = [(1,), (2,)] if gate.arity == 1 else [(0, 1), (2, 0)]
        slot_sets = [(0,)] if gate.arity == 1 else [(0,), (1,), (0, 1)]
        for at, slots in itertools.product(targets, slot_sets):
            for chosen in itertools.product(strength, repeat=len(slots)):
                spec = NoiseSpec({s: make(strength[make]) for s, make in zip(slots, chosen)})
                rho = random_density(3, rng)
                out = noisy_gate(rho, gate, at, spec)
                expected = apply_on_qubits(rho.matrix, per_gate_formula(gate, spec), at)
                assert np.abs(out - expected).max() < 1e-15, (gate.name, at, spec.to_dict())


def test_direct_channel_gets_its_own_operator():
    """Same kind and strength as a factory channel, other Kraus operators."""
    factory = dephasing(0.3)
    direct = NoiseChannel("dephasing", 0.3, amplitude_damping(0.3).kraus_ops)
    ones = DensityMatrix(2, np.diag([0.0, 0.0, 0.0, 1.0]))  # |11><11|
    for gate in (make_gate("H"), make_gate("CX")):
        at = tuple(range(gate.arity))
        outs = [noisy_gate(ones, gate, at, NoiseSpec({0: ch})) for ch in (factory, direct)]
        assert np.abs(outs[0] - outs[1]).max() > 0.1
        for out, ch in zip(outs, (factory, direct)):
            expected = apply_on_qubits(ones.matrix, per_gate_formula(gate, NoiseSpec({0: ch})), at)
            assert np.abs(out - expected).max() < 1e-15


def _on_qubits(rho, op, targets):
    """rho under a full-register `op` built by the test oracles."""
    u = embed_operator(op, targets, 3)
    return u @ rho @ u.conj().T


@pytest.mark.parametrize("engine", ["simple", "depth"])
def test_conditioned_noisy_gate_runs_whole_or_not_at_all(engine):
    """A failing condition skips the gate and its channels; a holding one
    applies the per-gate formula. Runs of 1-qubit steps are pending on both
    targets when the conditioned gate comes, and a CX follows it."""
    kinds = (dephasing, depolarizing, amplitude_damping)
    config = RunConfig(engine=engine, representation="density")
    ry = make_gate("RY", [0.7])
    cx = make_gate("CX")
    for gate in (make_gate("H"), make_gate("CX")):
        targets = (1, 0)[:gate.arity]
        slot_sets = [(0,)] if gate.arity == 1 else [(0,), (1,), (0, 1)]
        for slots in slot_sets:
            for chosen in itertools.product(kinds, repeat=len(slots)):
                spec = NoiseSpec({s: make(0.3) for s, make in zip(slots, chosen)})
                for holds in (0, 1):
                    prefix = [gate_app(make_gate("X" if holds else "I"), (2,)), measure(2, 0),
                              gate_app(make_gate("H"), (0,)), gate_app(cx, (0, 1)),
                              gate_app(ry, (1,)), gate_app(ry, (0,))]
                    noisy = gate_app(gate, targets, condition=(0, 1), noise=spec)
                    before = run(Circuit(3, 1, prefix), config).final_state.matrix
                    out = run(Circuit(3, 1, prefix + [noisy, gate_app(cx, (1, 0))]), config)
                    mid = (apply_on_qubits(before, per_gate_formula(gate, spec), targets)
                           if holds else before)
                    expected = _on_qubits(mid, cx.matrix, (1, 0))
                    assert np.abs(out.final_state.matrix - expected).max() < 1e-12, (
                        gate.name, spec.to_dict(), holds)


@pytest.mark.parametrize("engine", ["simple", "depth"])
def test_depth_cut_keeps_or_drops_a_gate_with_its_channels(engine):
    """H(0) is layer 1, the noisy CX layer 2 and H(1) layer 3: a cut at 2
    keeps the CX with its depolarizing after-steps, a cut at 1 drops both."""
    h, cx = make_gate("H"), make_gate("CX")
    for spec in (NoiseSpec.uniform("depolarizing", 0.3, 2),
                 NoiseSpec({0: amplitude_damping(0.4), 1: depolarizing(0.2)})):
        circuit = Circuit(3, 0, [gate_app(h, (0,)), gate_app(cx, (0, 1), noise=spec),
                                 gate_app(h, (1,))])
        after_h = _on_qubits(zero_density(3).matrix, h.matrix, (0,))
        for cut, expected in (
                (2, apply_on_qubits(after_h, per_gate_formula(cx, spec), (0, 1))),
                (1, after_h)):
            config = RunConfig(engine=engine, representation="density", max_depth=cut)
            result = run(circuit, config)
            assert result.layers_executed == cut
            assert np.abs(result.final_state.matrix - expected).max() < 1e-12, (cut, spec)
