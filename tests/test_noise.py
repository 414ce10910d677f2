import itertools

import numpy as np
import pytest

from qcsim.gates import embed_operator, gate_tensor_on, make_gate
from qcsim.noise import (
    COMPLETENESS_ATOL,
    NoiseChannel,
    NoiseSpec,
    amplitude_damping,
    apply_noisy_gate,
    dephasing,
    depolarizing,
    step_operator,
)
from qcsim.state import DensityMatrix, PureState, pure_to_density

Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(num_qubits, rng):
    d = 2**num_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m))


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


class TestDephasing:
    def test_epsilon_zero_is_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(1, rng)
        out = apply_noisy_gate(rho, make_gate("I"), [0], NoiseSpec({0: dephasing(0.0)}))
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_half_dephasing_kills_coherence(self):
        plus = pure_to_density(PureState(1, np.array([1, 1]) / np.sqrt(2)))
        out = apply_noisy_gate(plus, make_gate("I"), [0], NoiseSpec({0: dephasing(0.5)}))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_matches_direct_arithmetic_oracle(self):
        rng = np.random.default_rng(1)
        rho = random_density(1, rng)
        out = apply_noisy_gate(rho, make_gate("I"), [0], NoiseSpec({0: dephasing(0.3)}))
        expected = 0.7 * rho.matrix + 0.3 * Z @ rho.matrix @ Z.conj().T
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_z_invariant_state_before_x_gate(self):
        rho = DensityMatrix.zero(1)
        out = apply_noisy_gate(rho, make_gate("X"), [0], NoiseSpec({0: dephasing(0.4)}))
        assert np.abs(out.matrix - np.diag([0.0, 1.0])).max() < 1e-12


class TestDepolarizing:
    def test_full_depolarization_gives_maximally_mixed_marginal(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        out = apply_noisy_gate(
            rho, make_gate("H"), [1], NoiseSpec({0: depolarizing(1.0)})
        )
        from qcsim.state import partial_trace

        marginal = partial_trace(out, [1])
        assert np.abs(marginal.matrix - np.eye(2) / 2).max() < 1e-10

    def test_epsilon_zero_is_pure_unitary(self):
        rng = np.random.default_rng(3)
        rho = random_density(1, rng)
        h = make_gate("H")
        out = apply_noisy_gate(rho, h, [0], NoiseSpec({0: depolarizing(0.0)}))
        expected = h.matrix @ rho.matrix @ h.matrix.conj().T
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_matches_combined_form_oracle(self):
        # (1-eps) U rho U^+ + eps I/2 evaluated directly
        rho = DensityMatrix.zero(1)
        h = make_gate("H")
        out = apply_noisy_gate(rho, h, [0], NoiseSpec({0: depolarizing(0.4)}))
        expected = 0.6 * h.matrix @ rho.matrix @ h.matrix.conj().T + 0.4 * np.eye(2) / 2
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_multi_qubit_mixes_only_the_target_marginal(self):
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        out = apply_noisy_gate(
            rho, make_gate("I"), [0], NoiseSpec({0: depolarizing(0.5)})
        )
        from qcsim.state import partial_trace

        # the untouched qubit's marginal is preserved
        kept = partial_trace(rho, [1])
        kept_after = partial_trace(out, [1])
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
            out = apply_noisy_gate(rho, h, [qubit], NoiseSpec({0: depolarizing(eps)}))
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
            assert np.abs(out.matrix - pauli_mixture).max() < 1e-12


class TestAmplitudeDamping:
    def test_ground_state_fixed(self):
        rho = DensityMatrix.zero(1)
        out = apply_noisy_gate(
            rho, make_gate("I"), [0], NoiseSpec({0: amplitude_damping(0.8)})
        )
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_excited_state_decays(self):
        one = DensityMatrix(1, np.diag([0.0, 1.0]))
        out = apply_noisy_gate(
            one, make_gate("I"), [0], NoiseSpec({0: amplitude_damping(0.25)})
        )
        assert np.abs(out.matrix - np.diag([0.25, 0.75])).max() < 1e-12

    def test_matches_direct_kraus_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_density(1, rng)
        eps = 0.6
        out = apply_noisy_gate(
            rho, make_gate("I"), [0], NoiseSpec({0: amplitude_damping(eps)})
        )
        a0 = np.array([[1, 0], [0, np.sqrt(1 - eps)]], dtype=complex)
        a1 = np.array([[0, np.sqrt(eps)], [0, 0]], dtype=complex)
        expected = a0 @ rho.matrix @ a0.conj().T + a1 @ rho.matrix @ a1.conj().T
        assert np.abs(out.matrix - expected).max() < 1e-12


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
        out = apply_noisy_gate(rho, cx, [0, 1], spec)
        u = gate_tensor_on(cx, [0, 1], 2)
        expected = u @ rho.matrix @ u.conj().T
        assert np.abs(out.matrix - expected).max() < 1e-12

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
            out = apply_noisy_gate(rho, cx, targets, spec)
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
            assert np.abs(out.matrix - expected).max() < 1e-11, (targets, slot0, slot1)

    def test_slot_arity_mismatch_rejected(self):
        rho = DensityMatrix.zero(1)
        with pytest.raises(ValueError):
            apply_noisy_gate(
                rho, make_gate("X"), [0],
                NoiseSpec({0: dephasing(0.1), 1: dephasing(0.1)}),
            )

    @pytest.mark.parametrize("targets", [[0], [0, 0], [0, 2], [0, 1, 2]])
    def test_bad_targets_rejected(self, targets):
        with pytest.raises(ValueError):
            apply_noisy_gate(DensityMatrix.zero(2), make_gate("CX"), targets, None)

    def test_trace_preserved_and_psd(self):
        rng = np.random.default_rng(8)
        for eps in (0.1, 0.5, 0.9):
            for channel in all_channels(eps):
                rho = random_density(2, rng)
                out = apply_noisy_gate(
                    rho, make_gate("CX"), [1, 0], NoiseSpec({0: channel, 1: channel})
                )
                assert abs(np.trace(out.matrix) - 1.0) < 1e-10
                assert np.linalg.eigvalsh(out.matrix).min() > -1e-9

    def test_noiseless_reduction_over_random_gates(self):
        rng = np.random.default_rng(9)
        for name in ("H", "T", "RX"):
            params = [rng.uniform(0, 2 * np.pi)] if name == "RX" else []
            gate = make_gate(name, params)
            rho = random_density(2, rng)
            for channel in all_channels(0.0):
                out = apply_noisy_gate(rho, gate, [1], NoiseSpec({0: channel}))
                u = gate_tensor_on(gate, [1], 2)
                expected = u @ rho.matrix @ u.conj().T
                assert np.abs(out.matrix - expected).max() < 1e-12


def test_step_operator_invariants():
    """Without noise the step is U (x) conj(U); with any noise it keeps the trace."""
    rng = np.random.default_rng(12)
    kinds = (dephasing, depolarizing, amplitude_damping)
    gates = [make_gate("H"), make_gate("U3", rng.uniform(0, 2 * np.pi, 3)),
             make_gate("CX"), make_gate("SWAP")]
    for gate in gates:
        u = gate.matrix
        assert step_operator(gate, NoiseSpec({0: dephasing(0.3)}), False) is u
        noiseless = step_operator(gate, None, True)
        assert np.abs(noiseless - np.kron(u, u.conj())).max() < 1e-15
        vec_identity = np.eye(2**gate.arity).reshape(-1)
        slot_sets = [(0,)] if gate.arity == 1 else [(0,), (1,), (0, 1)]
        for slots in slot_sets:
            for chosen in itertools.product(kinds, repeat=len(slots)):
                spec = NoiseSpec({slot: make(rng.uniform(0.05, 0.95))
                                  for slot, make in zip(slots, chosen)})
                op = step_operator(gate, spec, True)
                assert op.shape == (4**gate.arity, 4**gate.arity)
                assert np.abs(vec_identity @ op - vec_identity).max() < 1e-12, (
                    gate.name, spec.to_dict())
