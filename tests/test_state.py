import numpy as np
import pytest

from qcsim.state import (
    NORM_ATOL,
    DensityMatrix,
    PureState,
    fidelity,
    measure_qubit,
    partial_trace,
    pure_to_density,
    tensor_product,
)


def random_pure(num_qubits, rng):
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def random_density(num_qubits, rng):
    d = 2**num_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m))


def brute_force_partial_trace(mat, num_qubits, keep):
    """Independent oracle: explicit summation over the traced bit patterns."""
    traced = [q for q in range(num_qubits) if q not in keep]
    m = len(keep)
    out = np.zeros((2**m, 2**m), dtype=complex)
    for i in range(2**m):
        for j in range(2**m):
            for t in range(2 ** len(traced)):
                full_i = full_j = 0
                for pos, q in enumerate(keep):
                    full_i |= ((i >> pos) & 1) << q
                    full_j |= ((j >> pos) & 1) << q
                for pos, q in enumerate(traced):
                    full_i |= ((t >> pos) & 1) << q
                    full_j |= ((t >> pos) & 1) << q
                out[i, j] += mat[full_i, full_j]
    return out


class TestInvariants:
    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("delta", [0.5, 0.99, -2.0, 2.0, np.nan, np.inf])
    def test_hermiticity_check_is_allclose_rule(self, delta):
        # rho[1, 0] is off from conj(rho[0, 1]) by delta * NORM_ATOL
        mat = np.array([[0.5, 0.25j], [-0.25j + delta * NORM_ATOL, 0.5]])
        accepted = np.allclose(mat, mat.conj().T, atol=NORM_ATOL, rtol=0)
        assert accepted == (abs(delta) < 1)
        if accepted:
            DensityMatrix(1, mat)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityMatrix(1, mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))


class TestPureToDensity:
    def test_basis_state(self):
        rho = pure_to_density(PureState.zero(1))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_equal_superposition(self):
        psi = PureState(1, np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(pure_to_density(psi).matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_purity_of_random_state(self):
        rng = np.random.default_rng(0)
        rho = pure_to_density(random_pure(3, rng))
        purity = np.real(np.trace(rho.matrix @ rho.matrix))
        assert abs(purity - 1.0) < 1e-12


class TestTensorProduct:
    def test_zero_one(self):
        one = PureState(1, np.array([0.0, 1.0]))
        combined = tensor_product(PureState.zero(1), one)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(combined.amplitudes, expected)

    def test_diagonal_density(self):
        zero = DensityMatrix(1, np.diag([1.0, 0.0]))
        mixed = DensityMatrix(1, np.eye(2) / 2)
        combined = tensor_product(zero, mixed)
        assert np.allclose(combined.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_matches_elementwise_kron_oracle(self):
        rng = np.random.default_rng(1)
        a, b = random_pure(2, rng), random_pure(2, rng)
        combined = tensor_product(a, b)
        # direct double loop, a on the high bits
        expected = np.empty(16, dtype=complex)
        for i in range(4):
            for j in range(4):
                expected[i * 4 + j] = a.amplitudes[i] * b.amplitudes[j]
        assert np.allclose(combined.amplitudes, expected, atol=1e-12)

    def test_representation_mismatch(self):
        with pytest.raises(TypeError):
            tensor_product(PureState.zero(1), DensityMatrix.zero(1))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        bell = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(pure_to_density(bell), [0])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-10)

    def test_product_state_marginal(self):
        # |01>: qubit 1 (more significant) is |0>
        psi = PureState(2, np.array([0.0, 1.0, 0.0, 0.0]))
        reduced = partial_trace(pure_to_density(psi), [1])
        assert np.allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        rho = random_density(3, rng)
        reduced = partial_trace(rho, [0, 2])
        expected = brute_force_partial_trace(rho.matrix, 3, [0, 2])
        assert np.abs(reduced.matrix - expected).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(4, rng)
        reduced = partial_trace(rho, [1, 3])
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-10

    @pytest.mark.parametrize("keep", [[], [1, 0], [0, 0], [5]])
    def test_bad_keep_rejected(self, keep):
        rho = DensityMatrix.zero(2)
        with pytest.raises(ValueError):
            partial_trace(rho, keep)

    def test_marginal_of_product_recovers_factor(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = random_pure(2, rng), random_pure(1, rng)
            combined = pure_to_density(tensor_product(a, b))
            # a occupies the high bits: qubits 1 and 2
            reduced = partial_trace(combined, [1, 2])
            assert np.abs(reduced.matrix - pure_to_density(a).matrix).max() < 1e-10


class TestMeasureQubit:
    def test_deterministic_zero(self):
        outcome, post, p0 = measure_qubit(PureState.zero(1), 0, 0.7)
        assert outcome == 0 and p0 == pytest.approx(1.0)
        assert np.allclose(post.amplitudes, [1, 0])

    def test_equal_superposition(self):
        psi = PureState(1, np.array([1, 1]) / np.sqrt(2))
        outcome, post, p0 = measure_qubit(psi, 0, 0.25)
        assert outcome == 0 and p0 == pytest.approx(0.5)
        assert np.allclose(post.amplitudes, [1, 0], atol=1e-12)

    def test_probability_matches_projector_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_density(3, rng)
        proj = np.diag([(1 - ((i >> 1) & 1)) for i in range(8)]).astype(complex)
        expected = np.real(np.trace(proj @ rho.matrix))
        _, _, p0 = measure_qubit(rho, 1, 0.0)
        assert abs(p0 - expected) < 1e-12

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        psi = random_pure(3, rng)
        _, _, p0 = measure_qubit(psi, 2, 0.0)
        _, _, p0_again = measure_qubit(psi, 2, 1.0 - 1e-12)
        assert abs(p0 - p0_again) < 1e-12
        assert 0.0 <= p0 <= 1.0

    def test_pure_and_density_paths_agree(self):
        rng = np.random.default_rng(7)
        psi = random_pure(2, rng)
        for sample in (0.1, 0.9):
            o1, _, p1 = measure_qubit(psi, 1, sample)
            o2, _, p2 = measure_qubit(pure_to_density(psi), 1, sample)
            assert o1 == o2
            assert abs(p1 - p2) < 1e-12

    def test_zero_probability_branch_rejected(self):
        # outcome-1 amplitude small enough that its probability is below
        # the collapse threshold, sample chosen to hit that branch
        amp1 = 1e-8
        psi = PureState(1, np.array([np.sqrt(1 - amp1**2), amp1]))
        with pytest.raises(ValueError):
            measure_qubit(psi, 0, 0.9999999999999999)

    def test_post_state_valid_after_collapse(self):
        rng = np.random.default_rng(8)
        rho = random_density(2, rng)
        _, post, _ = measure_qubit(rho, 0, 0.3)
        assert abs(np.trace(post.matrix) - 1.0) < 1e-10


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(9)
        rho = random_density(2, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix(1, np.diag([1.0, 0.0]))
        one = DensityMatrix(1, np.diag([0.0, 1.0]))
        assert fidelity(zero, one) < 1e-12

    def test_pure_state_reduction(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            psi, phi = random_pure(2, rng), random_pure(2, rng)
            f = fidelity(pure_to_density(psi), pure_to_density(phi))
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            assert abs(f - overlap) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = random_density(2, rng), random_density(2, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(DensityMatrix.zero(1), DensityMatrix.zero(2))
