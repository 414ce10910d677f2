"""Full-register reference algebra: the test oracles for the engines' kernels.

The engines contract each operator into a raw state on its target axes
only (`state.apply_local`; `apply_on_qubits` here names the axes by
qubit). The functions here build the 2^n x 2^n
matrices and reduced states that the tests check those kernels against,
and `mps_vector`, the site-by-site contraction that the MPS export is
checked against. The library does not import this module.
"""

import numpy as np

from qcsim.state import DensityMatrix, PureState, apply_local, bit_axes, to_qubit_order


def apply_on_qubits(state: np.ndarray, op: np.ndarray, targets) -> np.ndarray:
    """Contract `op` into a raw state on the axes of `targets` (`state.bit_axes`);
    on a density matrix, `op` is a superoperator on the rows then the columns."""
    n = state.shape[0].bit_length() - 1
    return apply_local(state, op, bit_axes(n, targets, state.ndim))


def zero_density(num_qubits: int) -> DensityMatrix:
    """|0...0><0...0|."""
    d = 2**num_qubits
    return DensityMatrix(num_qubits, np.diag(np.eye(d)[0]))


def embed_operator(mat: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Embed a 2^k x 2^k operator on `targets` into the full register.

    The operator's local index treats targets[0] as the most significant
    local bit. Identity on all other qubits. Works for any (distinct)
    target order and non-adjacent targets; the operator need not be
    unitary.
    """
    targets = list(targets)
    n = num_qubits
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError("targets must be distinct")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    if mat.shape != (2**k, 2**k):
        raise ValueError("operator dimension does not match target count")
    rest = [q for q in reversed(range(n)) if q not in targets]
    full = np.kron(np.asarray(mat, dtype=np.complex128), np.eye(2 ** (n - k)))
    # full acts on qubit order targets + rest (most to least significant);
    # permute axes so qubit q sits at significance q.
    cur = targets + rest
    perm = [cur.index(q) for q in reversed(range(n))]
    t = full.reshape([2] * (2 * n))
    t = t.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def gate_tensor_on(gate, targets, num_qubits: int) -> np.ndarray:
    """Full-register unitary acting as `gate` on `targets`, identity elsewhere."""
    targets = list(targets)
    if len(targets) != gate.arity:
        raise ValueError(
            f"gate {gate.name} has arity {gate.arity}, got {len(targets)} targets"
        )
    return embed_operator(gate.matrix, targets, num_qubits)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi|, bridging the two representations."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(psi.num_qubits, mat)


def mps_vector(mps) -> np.ndarray:
    """An MPSState's raw vector in qubit order, unscaled.

    The chain is contracted in site order with tensordot, which puts site 0
    on the most significant bit, then reordered so that qubit q is bit q.
    """
    acc = mps.tensors[0].reshape(2, -1)
    for t in mps.tensors[1:]:
        acc = np.tensordot(acc, t, axes=(-1, 0))
    return to_qubit_order(acc.reshape(-1), mps.qubits[::-1])


def _check_keep(keep, num_qubits):
    if len(keep) == 0:
        raise ValueError("keep must be nonempty")
    if sorted(set(keep)) != list(keep):
        raise ValueError("keep must be sorted and free of duplicates")
    if keep[-1] >= num_qubits or keep[0] < 0:
        raise ValueError(f"keep indices must lie in [0, {num_qubits})")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the qubits in `keep` (sorted, distinct).

    Qubit keep[j] becomes bit j of the reduced matrix index.
    """
    keep = list(keep)
    n = rho.num_qubits
    _check_keep(keep, n)
    # Axis n-1-q of the rank-2n tensor is qubit q's row bit, labelled q, and
    # axis 2n-1-q its column bit: labelled n + j for keep[j], and q (so that
    # it is contracted with the row bit) for a traced qubit.
    rows = list(reversed(range(n)))
    cols = [n + keep.index(q) if q in keep else q for q in rows]
    out = keep[::-1] + [n + j for j in reversed(range(len(keep)))]
    reduced = np.einsum(rho.matrix.reshape([2] * (2 * n)), rows + cols, out)
    m = len(keep)
    return DensityMatrix(m, reduced.reshape(2**m, 2**m))
