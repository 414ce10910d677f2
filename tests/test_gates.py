import numpy as np
import pytest

from oracles import gate_tensor_on
from qcsim.gates import (
    GATE_SIGNATURES,
    UNITARY_ATOL,
    Gate,
    apply_on_qubits,
    liouville,
    make_gate,
    step_operator,
)


def test_hadamard_matrix():
    h = make_gate("H")
    assert np.allclose(h.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_zero_angle_rotations_are_identity():
    for name in ("RX", "RY", "RZ"):
        assert np.allclose(make_gate(name, [0.0]).matrix, np.eye(2), atol=1e-15)


def test_rz_convention():
    theta = 0.7
    rz = make_gate("RZ", [theta]).matrix
    assert np.allclose(rz, np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))


def test_u3_matches_rotation_decomposition():
    # compare through state overlap; the decomposition differs by a global phase
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta, phi, lam = rng.uniform(0, 2 * np.pi, size=3)
        u3 = make_gate("U3", [theta, phi, lam]).matrix
        decomposed = (
            make_gate("RZ", [phi]).matrix
            @ make_gate("RY", [theta]).matrix
            @ make_gate("RZ", [lam]).matrix
        )
        ket = u3 @ np.array([1.0, 0.0])
        ket_ref = decomposed @ np.array([1.0, 0.0])
        assert abs(abs(np.vdot(ket, ket_ref)) - 1.0) < 1e-12


def test_every_gate_is_unitary():
    rng = np.random.default_rng(1)
    for name, (arity, nparams) in GATE_SIGNATURES.items():
        gate = make_gate(name, rng.uniform(0, 2 * np.pi, size=nparams))
        d = 2**arity
        assert np.allclose(
            gate.matrix @ gate.matrix.conj().T, np.eye(d), atol=1e-12
        ), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("delta", [0.5, 0.99, -2.0, 2.0, np.nan, np.inf])
def test_unitarity_check_is_allclose_rule(delta):
    # (U U^+)[0, 0] is off by delta * UNITARY_ATOL; NaN and inf never pass
    mat = np.eye(2, dtype=np.complex128)
    mat[0, 0] = np.sqrt(1 + delta * UNITARY_ATOL)
    accepted = np.allclose(mat @ mat.conj().T, np.eye(2), atol=UNITARY_ATOL, rtol=0)
    assert accepted == (abs(delta) < 1)
    if accepted:
        Gate("U", 1, (), mat)
    else:
        with pytest.raises(ValueError, match="not unitary"):
            Gate("U", 1, (), mat)


def test_unknown_gate_rejected():
    with pytest.raises(ValueError):
        make_gate("CCX")


def test_wrong_param_count_rejected():
    with pytest.raises(ValueError):
        make_gate("RX", [])
    with pytest.raises(ValueError):
        make_gate("H", [0.1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, params", [
    ("RX", [np.inf]), ("RY", [np.nan]), ("RZ", [-np.inf]), ("U3", [0.5, np.nan, 0.5]),
    ("RX", [10**400]),  # an integer too large for a float
])
def test_non_finite_parameters_are_refused_before_the_matrix(name, params):
    # warnings are errors here: no matrix of non-finite angles is built
    with pytest.raises(ValueError) as exc:
        make_gate(name, params)
    assert str(exc.value) == f"gate {name}: parameter is not a finite number"


def test_signatures_are_pinned():
    # fixed gates, then rotations, each with (arity, number of angles)
    assert list(GATE_SIGNATURES.items()) == [
        ("I", (1, 0)), ("X", (1, 0)), ("Y", (1, 0)), ("Z", (1, 0)), ("H", (1, 0)),
        ("S", (1, 0)), ("Sdg", (1, 0)), ("T", (1, 0)), ("Tdg", (1, 0)),
        ("CX", (2, 0)), ("CZ", (2, 0)), ("SWAP", (2, 0)),
        ("RX", (1, 1)), ("RY", (1, 1)), ("RZ", (1, 1)), ("U3", (1, 3)),
    ]


def test_liouville_is_the_sum_of_krons():
    rng = np.random.default_rng(3)
    for d in (2, 4):
        ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        expected = sum(np.kron(op, op.conj()) for op in ops)
        assert np.abs(liouville(ops) - expected).max() < 1e-12
        # one operator is its one product, the signs of its zeros kept
        assert liouville(ops[:1]).tobytes() == np.kron(ops[0], ops[0].conj()).tobytes()
    for name, (_, nparams) in GATE_SIGNATURES.items():
        u = make_gate(name, [0.3] * nparams).matrix
        op = step_operator(make_gate(name, [0.3] * nparams), True)
        assert op.tobytes() == np.kron(u, u.conj()).tobytes(), name


def test_fixed_gates_are_built_once():
    for name, (_, nparams) in GATE_SIGNATURES.items():
        if nparams == 0:
            assert make_gate(name) is make_gate(name), name
    assert make_gate("RX", [0.3]) is not make_gate("RX", [0.3])
    # a Gate built directly is still checked
    with pytest.raises(ValueError, match="not unitary"):
        Gate("CX", 2, (), 2 * make_gate("CX").matrix)


class TestGateTensorOn:
    def test_x_on_qubit_zero(self):
        full = gate_tensor_on(make_gate("X"), [0], 2)
        expected = np.kron(np.eye(2), make_gate("X").matrix)
        assert np.allclose(full, expected)
        state = np.zeros(4)
        state[0] = 1.0
        assert np.argmax(np.abs(full @ state)) == 1  # |00> -> |01>

    def test_cnot_truth_table(self):
        full = gate_tensor_on(make_gate("CX"), [0, 1], 2)
        # control qubit 0: |01> (index 1) -> |11> (index 3); |00> fixed
        assert np.argmax(np.abs(full[:, 1])) == 3
        assert np.argmax(np.abs(full[:, 0])) == 0

    def test_cnot_far_targets_against_permutation_oracle(self):
        full = gate_tensor_on(make_gate("CX"), [2, 0], 4)
        expected = np.zeros((16, 16))
        for basis in range(16):
            control = (basis >> 2) & 1
            image = basis ^ 1 if control else basis  # flip qubit 0 when control set
            expected[image, basis] = 1.0
        assert np.allclose(full, expected)

    def test_output_unitary_on_random_embeddings(self):
        rng = np.random.default_rng(2)
        names = list(GATE_SIGNATURES)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            name = names[rng.integers(len(names))]
            arity, nparams = GATE_SIGNATURES[name]
            gate = make_gate(name, rng.uniform(0, 2 * np.pi, size=nparams))
            targets = list(rng.choice(n, size=arity, replace=False))
            full = gate_tensor_on(gate, targets, n)
            assert np.allclose(full @ full.conj().T, np.eye(2**n), atol=1e-12)

    def test_swap_is_target_order_independent(self):
        swap = make_gate("SWAP")
        assert np.allclose(
            gate_tensor_on(swap, [0, 2], 3), gate_tensor_on(swap, [2, 0], 3)
        )

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            gate_tensor_on(make_gate("CX"), [0, 0], 2)
        with pytest.raises(ValueError):
            gate_tensor_on(make_gate("X"), [3], 2)
        with pytest.raises(ValueError):
            gate_tensor_on(make_gate("CX"), [0], 2)


def _target_lists(arity, num_qubits):
    if arity == 1:
        return [[q] for q in range(num_qubits)]
    # every ordered pair: adjacent, non-adjacent and reversed, e.g. [2, 0]
    return [[a, b] for a in range(num_qubits) for b in range(num_qubits) if a != b]


def _random_gates(rng):
    for name, (arity, nparams) in GATE_SIGNATURES.items():
        yield make_gate(name, rng.uniform(0, 2 * np.pi, size=nparams))


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_kernel_matches_full_register_oracle_on_wave_states(num_qubits):
    rng = np.random.default_rng(10 + num_qubits)
    d = 2**num_qubits
    for gate in _random_gates(rng):
        if gate.arity > num_qubits:
            continue
        for targets in _target_lists(gate.arity, num_qubits):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            out = apply_on_qubits(psi, gate.matrix, targets)
            expected = gate_tensor_on(gate, targets, num_qubits) @ psi
            assert np.abs(out - expected).max() < 1e-12, (gate.name, targets)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_kernel_matches_u_rho_u_dagger_on_density_matrices(num_qubits):
    rng = np.random.default_rng(20 + num_qubits)
    d = 2**num_qubits
    for gate in _random_gates(rng):
        if gate.arity > num_qubits:
            continue
        for targets in _target_lists(gate.arity, num_qubits):
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            out = apply_on_qubits(rho, step_operator(gate, True), targets)
            u = gate_tensor_on(gate, targets, num_qubits)
            assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12, (gate.name, targets)
