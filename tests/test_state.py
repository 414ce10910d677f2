import re

import numpy as np
import pytest

from oracles import partial_trace, pure_to_density, zero_density
from qcsim.state import (
    NORM_ATOL,
    DensityMatrix,
    MeasurementRecord,
    PureState,
    _Group,
    _halves,
    _merge_groups,
    collapse,
    fidelity,
    prob_zero,
    sample_outcomes,
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
        for amps in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                PureState(1, np.array(amps))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("build, message", [
        (lambda: PureState(0, np.array([1.0])), "num_qubits must be >= 1"),
        (lambda: PureState(1, np.ones((2, 1)) / np.sqrt(2)),
         "expected 2 amplitudes, got shape (2, 1)"),
        (lambda: DensityMatrix(0, np.array([[1.0]])), "num_qubits must be >= 1"),
        (lambda: DensityMatrix(1, np.eye(4) / 4), "expected 2x2 matrix, got shape (4, 4)"),
        (lambda: MeasurementRecord(0, 0, 2, 0.5), "outcome must be 0 or 1"),
        (lambda: MeasurementRecord(0, 0, 1, 1.5), "probability must lie in [0, 1]"),
    ])
    def test_invalid_arguments_rejected(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_names_a_non_finite_entry(self, entry, value):
        mat = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        mat[entry] = value
        message = f"density matrix is not Hermitian: entry {entry} is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            DensityMatrix(1, mat)

    def test_rejects_wrong_trace(self):
        for diag in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(ValueError):
                DensityMatrix(1, np.diag(diag))

    def test_rejects_negative_eigenvalues(self):
        for diag in ([1.5, -0.5], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                DensityMatrix(1, np.diag(diag))

    def test_stores_an_exactly_hermitian_matrix_as_given(self):
        rng = np.random.default_rng(12)
        for n in range(1, 5):
            rho = pure_to_density(random_pure(n, rng)).matrix  # scrubbed: exactly Hermitian
            assert DensityMatrix(n, rho).matrix.tobytes() == rho.tobytes()


class TestPureToDensity:
    def test_basis_state(self):
        rho = pure_to_density(PureState(1, np.array([1.0, 0.0])))
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
    """`state._merge_groups`: the tensor product the dense backend merges by."""

    def test_zero_one(self):
        zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        merged = _merge_groups(_Group([0], one), _Group([1], zero))
        assert merged.qubits == [0, 1]
        assert np.allclose(merged.state, [0, 1, 0, 0])

    def test_diagonal_density(self):
        zero, mixed = np.diag([1.0, 0.0]), np.eye(2) / 2
        merged = _merge_groups(_Group([0], mixed), _Group([1], zero))
        assert np.allclose(merged.state, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_matches_elementwise_kron_oracle(self):
        rng = np.random.default_rng(1)
        a, b = random_pure(2, rng), random_pure(2, rng)
        # a on qubits 2 and 3, the high bits of the merged index
        merged = _merge_groups(_Group([0, 1], b.amplitudes), _Group([2, 3], a.amplitudes))
        expected = np.empty(16, dtype=complex)
        for i in range(4):
            for j in range(4):
                expected[i * 4 + j] = a.amplitudes[i] * b.amplitudes[j]
        assert np.allclose(merged.state, expected, atol=1e-12)


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
        with pytest.raises(ValueError):
            partial_trace(zero_density(2), keep)

    def test_marginal_of_product_recovers_factor(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = random_pure(2, rng), random_pure(1, rng)
            combined = pure_to_density(PureState(3, np.kron(a.amplitudes, b.amplitudes)))
            # a occupies the high bits: qubits 1 and 2
            reduced = partial_trace(combined, [1, 2])
            assert np.abs(reduced.matrix - pure_to_density(a).matrix).max() < 1e-10


class TestMeasureQubit:
    """One measurement through the kernels the engines run: prob_zero,
    sample_outcomes and collapse, on a raw vector or density matrix."""

    def test_deterministic_zero(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        p0, ones = sample_outcomes(prob_zero(psi, 0), np.array([0.7]))
        assert not ones[0] and p0 == pytest.approx(1.0)
        assert np.allclose(collapse(psi, 0, 0), [1, 0])

    def test_equal_superposition(self):
        psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
        p0, ones = sample_outcomes(prob_zero(psi, 0), np.array([0.25]))
        assert not ones[0] and p0 == pytest.approx(0.5)
        assert np.allclose(collapse(psi, 0, 0), [1, 0], atol=1e-12)

    def test_probability_matches_projector_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_density(3, rng)
        proj = np.diag([(1 - ((i >> 1) & 1)) for i in range(8)]).astype(complex)
        expected = np.real(np.trace(proj @ rho.matrix))
        assert abs(prob_zero(rho.matrix, 1) - expected) < 1e-12

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        psi = random_pure(3, rng).amplitudes
        p0, ones = sample_outcomes(prob_zero(psi, 2), np.array([0.0, 1.0 - 1e-12]))
        p1 = sum(abs(psi[i]) ** 2 for i in range(8) if (i >> 2) & 1)
        assert list(ones) == [False, True]
        assert abs(p0 + p1 - 1.0) < 1e-12
        assert 0.0 <= p0 <= 1.0

    def test_pure_and_density_paths_agree(self):
        rng = np.random.default_rng(7)
        psi = random_pure(2, rng)
        rho = pure_to_density(psi).matrix
        for sample in (0.1, 0.9):
            p1, o1 = sample_outcomes(prob_zero(psi.amplitudes, 1), np.array([sample]))
            p2, o2 = sample_outcomes(prob_zero(rho, 1), np.array([sample]))
            assert o1[0] == o2[0]
            assert abs(p1 - p2) < 1e-12
            post = collapse(psi.amplitudes, 1, int(o1[0]))
            assert np.abs(collapse(rho, 1, int(o2[0])) - np.outer(post, post.conj())).max() < 1e-12

    def test_zero_probability_branch_rejected(self):
        # outcome-1 amplitude small enough that its probability is below
        # the collapse threshold, sample chosen to hit that branch
        amp1 = 1e-8
        psi = np.array([np.sqrt(1 - amp1**2), amp1])
        with pytest.raises(ValueError):
            sample_outcomes(prob_zero(psi, 0), np.array([0.9999999999999999]))

    def test_post_state_valid_after_collapse(self):
        rng = np.random.default_rng(8)
        rho = random_density(2, rng).matrix
        _, ones = sample_outcomes(prob_zero(rho, 0), np.array([0.3]))
        post = DensityMatrix(2, collapse(rho, 0, int(ones[0])))
        assert abs(np.trace(post.matrix) - 1.0) < 1e-10

    @staticmethod
    def two_branch_collapse(state, qubit, outcome):
        """Reference: the projection written once per representation."""
        kept = np.zeros_like(state)
        src, dst = _halves(state, qubit), _halves(kept, qubit)
        if state.ndim == 1:
            dst[:, outcome] = src[:, outcome]
            kept /= np.linalg.norm(kept)
        else:
            dst[:, outcome, :, outcome] = src[:, outcome, :, outcome]
            kept /= np.real(np.trace(kept))
        return kept

    @pytest.mark.parametrize("num_qubits", range(1, 5))
    def test_collapse_equals_the_two_branch_projection(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for state in (random_pure(num_qubits, rng).amplitudes,
                      random_density(num_qubits, rng).matrix):
            for qubit in range(num_qubits):
                for outcome in (0, 1):
                    assert np.array_equal(collapse(state, qubit, outcome),
                                          self.two_branch_collapse(state, qubit, outcome))


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

    def test_matches_a_separate_psd_square_root_bit_for_bit(self):
        def reference(a, b):
            """F with sqrt(B) from its own eigendecomposition, refused below
            -NORM_ATOL and clamped at 0, as a separate helper computed it."""
            eigs, vecs = np.linalg.eigh(b)
            assert eigs.min() >= -NORM_ATOL
            sqrt_b = (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
            inner = sqrt_b @ a @ sqrt_b
            eigs = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
            eigs[eigs < eigs.max() * 1e-13] = 0.0
            return float(np.sum(np.sqrt(eigs)) ** 2)

        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                a, b = random_density(n, rng), random_density(n, rng)
                assert fidelity(a, b) == reference(a.matrix, b.matrix)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(zero_density(1), zero_density(2))
