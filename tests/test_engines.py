import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qcsim.circuit import (
    MEASURE,
    Circuit,
    depth,
    gate_app,
    instruction_layers,
    measure,
    random_circuit,
)
from oracles import gate_tensor_on, mps_vector, pure_to_density
from qcsim import engines
from qcsim import state as st
from qcsim.engines import ConfigError, RunConfig, run, run_shots
from qcsim.gates import make_gate, step_operator
from qcsim.mps import BondOverflowError, MPSState
from qcsim.noise import NoiseSpec
from qcsim.state import NORM_ATOL, DensityMatrix, DenseGroups, PureState, fidelity


def h(q):
    return gate_app(make_gate("H"), (q,))


def x(q, condition=None):
    return gate_app(make_gate("X"), (q,), condition=condition)


def cx(a, b):
    return gate_app(make_gate("CX"), (a, b))


def ry(q, theta, condition=None):
    return gate_app(make_gate("RY", [theta]), (q,), condition=condition)


def z(q, condition=None):
    return gate_app(make_gate("Z"), (q,), condition=condition)


def bell_circuit():
    return Circuit(2, 0, [h(0), cx(0, 1)])


def state_fidelity(a: PureState, b: PureState) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def reference_run(circuit: Circuit) -> np.ndarray:
    """Independent dense reference: multiply out full-register unitaries."""
    vec = np.zeros(2**circuit.num_qubits, dtype=complex)
    vec[0] = 1.0
    for ins in circuit.instructions:
        vec = gate_tensor_on(ins.gate, ins.targets, circuit.num_qubits) @ vec
    return vec


class TestSimple:
    def test_bell_state(self):
        result = run(bell_circuit(), RunConfig())
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(result.final_state.amplitudes - expected).max() < 1e-12

    def test_classical_control(self):
        c = Circuit(2, 1, [x(0), measure(0, 0), x(1, condition=(0, 1))])
        result = run(c, RunConfig(seed=3))
        assert result.classical_bits == (1,)
        assert np.argmax(np.abs(result.final_state.amplitudes)) == 3  # |11>

    def test_condition_mismatch_skips_gate(self):
        c = Circuit(2, 1, [measure(0, 0), x(1, condition=(0, 1))])
        result = run(c, RunConfig(seed=3))
        assert result.classical_bits == (0,)
        assert np.argmax(np.abs(result.final_state.amplitudes)) == 0

    def test_matches_dense_reference_oracle(self):
        c = random_circuit(6, 10, 21)
        result = run(c, RunConfig())
        ref = reference_run(c)
        assert abs(np.linalg.norm(result.final_state.amplitudes) - 1) < 1e-12
        assert 1 - abs(np.vdot(result.final_state.amplitudes, ref)) ** 2 < 1e-10

    def test_noise_requires_density(self):
        c = bell_circuit().with_global_noise(NoiseSpec.uniform("dephasing", 0.1, 2))
        with pytest.raises(ConfigError):
            run(c, RunConfig(representation="wave"))
        run(c, RunConfig(representation="density"))  # no raise


@pytest.mark.parametrize("call, message", [
    (lambda: RunConfig(representation="mixed"), "unknown representation 'mixed'"),
    (lambda: RunConfig(engine="tn"), "unknown engine 'tn'"),
    (lambda: run_shots(bell_circuit(), RunConfig(), 0), "shots must be >= 1"),
])
def test_invalid_run_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("field, value, message", [
    ("max_depth", 2.5, "max_depth must be an integer, got 2.5"),
    ("max_depth", True, "max_depth must be an integer, got True"),
    ("mps_max_bond", 4.0, "mps_max_bond must be an integer, got 4.0"),
    ("mps_max_bond", "4", "mps_max_bond must be an integer, got '4'"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", None, "seed must be an integer, got None"),
    ("max_depth", 0, "max_depth must be >= 1"),
    ("mps_max_bond", np.int64(0), "mps_max_bond must be >= 1"),
    ("seed", -1, "seed must be >= 0"),
])
def test_run_config_integers_are_checked(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**{field: value})


def test_run_config_takes_numpy_integers_as_ints():
    config = RunConfig(max_depth=np.int64(2), mps_max_bond=np.int32(4), seed=np.uint8(7))
    assert (config.max_depth, config.mps_max_bond, config.seed) == (2, 4, 7)
    assert all(type(v) is int for v in (config.max_depth, config.mps_max_bond, config.seed))
    assert run(bell_circuit(), config).layers_executed == 2


class TestMps:
    def test_product_circuit_keeps_bond_one(self):
        c = Circuit(4, 0, [h(0), h(1), h(2), h(3)])
        mps = MPSState(4)
        for ins in c.instructions:
            mps.apply_1q(ins.gate.matrix, ins.targets[0])
        assert mps.bond_dims() == [1, 1, 1]

    def test_bell_bond_two_and_matches_simple(self):
        c = bell_circuit()
        result = run(c, RunConfig(engine="mps"))
        simple = run(c, RunConfig())
        assert 1 - state_fidelity(result.final_state, simple.final_state) < 1e-10

    def test_random_circuit_matches_simple_at_exact_settings(self):
        c = random_circuit(10, 20, 17)
        result = run(c, RunConfig(engine="mps"))
        simple = run(c, RunConfig())
        assert 1 - state_fidelity(result.final_state, simple.final_state) < 1e-8

    def test_non_adjacent_gates_routed_with_swaps(self):
        c = Circuit(4, 0, [h(0), gate_app(make_gate("CX"), (0, 3)), h(2),
                           gate_app(make_gate("CX"), (3, 1))])
        result = run(c, RunConfig(engine="mps"))
        simple = run(c, RunConfig())
        assert 1 - state_fidelity(result.final_state, simple.final_state) < 1e-10

    def test_nan_centre_tensor_fails_export(self):
        mps = MPSState(3)
        mps.apply(make_gate("CX").matrix, (0, 2))
        mps.tensors[mps.centre][0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            mps.export()

    def test_density_representation_rejected(self):
        with pytest.raises(ConfigError):
            run(bell_circuit(), RunConfig(representation="density", engine="mps"))

    def test_bond_cap_overflow_raises(self):
        c = random_circuit(8, 16, 4)
        with pytest.raises(BondOverflowError):
            run(c, RunConfig(engine="mps", mps_max_bond=2))

    def test_measurement_matches_simple(self):
        c = Circuit(2, 2, [h(0), cx(0, 1), measure(0, 0), measure(1, 1)])
        for seed in range(10):
            mps = run(c, RunConfig(engine="mps", seed=seed))
            simple = run(c, RunConfig(seed=seed))
            assert mps.classical_bits == simple.classical_bits
            assert 1 - state_fidelity(mps.final_state, simple.final_state) < 1e-10

    def test_routed_circuits_match_simple_oracle(self):
        # The mps and depth engines both keep qubits off their sorted order
        # until the export; any pair of qubits, in either order, must work.
        rng = np.random.default_rng(8)
        noise = NoiseSpec.uniform("depolarizing", 0.05, 2)
        for _ in range(40):
            c = _routed_circuit(rng, int(rng.integers(2, 10)))
            stop = int(rng.integers(1, depth(c) + 1))
            for max_depth in (None, stop):
                config = RunConfig(seed=int(rng.integers(1 << 30)), max_depth=max_depth)
                simple = run(c, config)
                _assert_same_run(run(c, replace(config, engine="mps")), simple)
                _assert_same_run(run(c, replace(config, engine="depth")), simple)
                noisy = c.with_global_noise(noise)
                density = replace(config, representation="density")
                _assert_same_run(run(noisy, replace(density, engine="depth")),
                                 run(noisy, density))

    def test_canonical_form_holds_after_every_step(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            c = _routed_circuit(rng, int(rng.integers(2, 9)))
            mps = MPSState(c.num_qubits)
            for ins in c.instructions:
                if ins.kind == MEASURE:
                    p0 = mps.prob_zero(ins.qubit)
                    mps.collapse(ins.qubit, 0 if p0 >= 0.5 else 1)
                else:
                    mps.apply(ins.gate.matrix, ins.targets)
                for site, t in enumerate(mps.tensors):
                    left, _, right = t.shape
                    if site < mps.centre:
                        m = t.reshape(left * 2, right)
                        gram = m.conj().T @ m
                    elif site > mps.centre:
                        m = t.reshape(left, 2 * right)
                        gram = m @ m.conj().T
                    else:
                        continue
                    assert np.abs(gram - np.eye(len(gram))).max() < 1e-12

    def test_routing_leaves_qubits_where_they_meet(self, monkeypatch):
        splits = []
        split = MPSState._apply_adjacent
        monkeypatch.setattr(MPSState, "_apply_adjacent",
                            lambda self, m, s: splits.append(s) or split(self, m, s))
        rng = np.random.default_rng(10)
        ins = []
        for pairs in ([(i, i + 8) for i in range(8)], [(15 - i, i) for i in range(8)], []):
            ins += [gate_app(make_gate("U3", rng.uniform(0, 2 * np.pi, 3)), (q,))
                    for q in range(16)]
            ins += [cx(a, b) for a, b in pairs]
        c = Circuit(16, 0, ins)
        result = run(c, RunConfig(engine="mps"))
        # Routing there and back took 224 SWAP splits and 16 gate splits.
        assert len(splits) < 240 / 2
        simple = run(c, RunConfig())
        assert np.abs(result.final_state.amplitudes
                      - simple.final_state.amplitudes).max() < 1e-10

    def test_export_checks_the_chain_norm(self):
        mps = MPSState(3)
        for ins in (h(0), cx(0, 2), cx(2, 1)):
            mps.apply(ins.gate.matrix, ins.targets)
        assert abs(np.linalg.norm(mps.export().amplitudes) - 1) < 1e-12
        mps.tensors[mps.centre] = mps.tensors[mps.centre] * 1.1
        with pytest.raises(ValueError, match="not normalized"):
            mps.export()


def _export_chain(kind, n):
    """An n-qubit MPSState of one of EXPORT_CHAINS, from random U3 angles.

    brickwork: U3 gates, then four layers of nearest-neighbour CX gates,
    each followed by U3 gates; routed: brickwork, then CX between qubits q
    and n-1-q for q < (n+3)//4, whose SWAPs leave the sites out of qubit
    order; product: U3 gates only (every bond 1); ghz: H, then a CX
    ladder; capped: two brickwork layers at bond cap 2, which they fill;
    measured: brickwork, then measurements of qubits n//2, 0 and n-1,
    which move the centre.
    """
    rng = np.random.default_rng(n)
    chain = MPSState(n, max_bond=2 if kind == "capped" else None)

    def u3_layer():
        for q in range(n):
            chain.apply(make_gate("U3", rng.uniform(0, 2 * np.pi, 3)).matrix, (q,))

    cx_gate = make_gate("CX").matrix
    if kind == "ghz":
        chain.apply(make_gate("H").matrix, (0,))
        for q in range(n - 1):
            chain.apply(cx_gate, (q, q + 1))
        return chain
    u3_layer()
    for layer in range({"product": 0, "capped": 2}.get(kind, 4)):
        for q in range(layer % 2, n - 1, 2):
            chain.apply(cx_gate, (q, q + 1))
        u3_layer()
    if kind == "routed":
        for q in range((n + 3) // 4 if n > 1 else 0):
            chain.apply(cx_gate, (q, n - 1 - q))
        u3_layer()
    if kind == "measured":
        for q in (n // 2, 0, n - 1):
            chain.collapse(q, 0 if chain.prob_zero(q) >= 0.5 else 1)
    return chain


EXPORT_CHAINS = ("brickwork", "routed", "product", "ghz", "capped", "measured")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("kind", EXPORT_CHAINS)
def test_export_matches_the_site_by_site_contraction(kind, n):
    chain = _export_chain(kind, n)
    if kind == "product":
        assert chain.bond_dims() == [1] * (n - 1)
    if kind == "routed" and n > 2:
        assert chain.qubits != list(range(n))
    if kind == "capped" and n > 3:
        assert max(chain.bond_dims()) == 2
    if kind == "measured" and n > 2:
        assert chain.centre == n - 1
    got = chain.export().amplitudes
    assert np.abs(got - mps_vector(chain)).max() <= 1e-14


@pytest.mark.parametrize("kind, bound", [("brickwork", 1.1), ("routed", 2.1)])
def test_export_allocates_one_vector(kind, bound):
    """The export's peak, in multiples of the 16-qubit vector's bytes: an
    unrouted chain holds the vector and two small half-chains; a routed
    one also holds one reordered copy."""
    n = 16
    chain = _export_chain(kind, n)
    tracemalloc.start()
    try:
        chain.export()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 16 * 2**n


def _unordered_circuit(n):
    """A CX from qubit n-1 to 0, then a CX ladder: the depth engine's one
    group holds its qubits out of qubit order."""
    return Circuit(n, 0, [h(0), cx(n - 1, 0)] + [cx(q, q + 1) for q in range(n - 2)])


@pytest.mark.parametrize("engine, representation, kind, n", [
    ("simple", "wave", "random", 16), ("depth", "wave", "unordered", 16),
    ("mps", "wave", "routed", 16), ("simple", "density", "random", 9),
    ("depth", "density", "unordered", 9),
])
def test_check_run_counts_what_the_export_holds(engine, representation, kind, n, monkeypatch):
    """The states that `_check_run` counts for `run` are the larger of two
    peaks, in units of one state, rounded up: the tracemalloc peak of the
    run's steps, where `simple` and `depth` hold `apply_local`'s two
    temporaries besides the state, and the states the backend holds plus
    the tracemalloc peak of its export: the reordered copy of `depth` and
    of a routed `mps` chain, and the matrices that `DensityMatrix`
    allocates to check a density export and store its Hermitian part."""
    circuit = (_routed_circuit(np.random.default_rng(3), n) if kind == "routed" else
               _unordered_circuit(n) if kind == "unordered" else random_circuit(n, 6, 1))
    config = RunConfig(engine=engine, representation=representation)
    asked = []
    monkeypatch.setattr(engines, "_check_memory", lambda *args: asked.append(args))
    engines._check_run(circuit, config)
    [(size, _, exponent)] = asked
    state_bytes = 16 << (n if representation == "wave" else 2 * n)
    counted = size * 2**exponent / state_bytes
    steps = engines._schedule(circuit, config)[0]
    tracemalloc.start()
    try:
        backend = engines._backend(circuit, config)
        for ins, op in steps:
            if op is not None:
                backend.apply(op, ins.targets)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if kind == "routed":
        assert backend.qubits != sorted(backend.qubits)
    arrays = backend.tensors if engine == "mps" else [g.state for g in backend._groups()]
    held = sum(a.nbytes for a in arrays)
    tracemalloc.start()
    try:
        backend.export()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if engine != "mps":
        assert run_peak / state_bytes > 2.9  # the state and two temporaries
    assert counted - 1 < max(run_peak, held + peak) / state_bytes <= counted + 0.05


def _measured_ladder(n, measured):
    """H on every qubit, then CX ladders with a measurement and a layer of
    RY between each two: every measurement splits the shots."""
    ins = [h(q) for q in range(n)]
    for k in range(measured):
        ins += [cx(q, q + 1) for q in range(n - 1)] + [measure(k, k)]
        ins += [gate_app(make_gate("RY", [0.3 + q]), (q,)) for q in range(n)]
    return Circuit(n, measured, ins + [cx(q, q + 1) for q in range(n - 1)])


@pytest.mark.parametrize("engine", ["simple", "depth"])
@pytest.mark.parametrize("measured, shots", [(1, 2), (3, 8)])
def test_check_run_counts_what_the_shots_walk_holds(engine, measured, shots, monkeypatch):
    """The states that `_check_run` counts for `run_shots` on a dense
    engine, the walk's backends and the step in progress's two
    temporaries, cover the walk's tracemalloc peak to within one state."""
    n = 14
    circuit, config = _measured_ladder(n, measured), RunConfig(engine=engine)
    run_shots(circuit, config, shots)  # one-time allocations stay out of the peak
    asked = []
    monkeypatch.setattr(engines, "_check_memory", lambda *args: asked.append(args))
    engines._check_run(circuit, config, shots)
    [(size, _, exponent)] = asked
    counted = size * 2**exponent / (16 << n)
    assert counted == min(shots.bit_length() - 1, measured) + 4
    tracemalloc.start()
    try:
        run_shots(circuit, config, shots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted - 1 < peak / (16 << n) <= counted + 0.05


def _assert_same_run(result, oracle):
    """States within 1e-10; identical bits, outcomes and layers."""
    if isinstance(oracle.final_state, PureState):
        got, want = result.final_state.amplitudes, oracle.final_state.amplitudes
    else:
        got, want = result.final_state.matrix, oracle.final_state.matrix
    assert np.abs(got - want).max() < 1e-10
    assert result.classical_bits == oracle.classical_bits
    assert result.layers_executed == oracle.layers_executed
    assert len(result.measurements) == len(oracle.measurements)
    for a, b in zip(result.measurements, oracle.measurements):
        assert (a.qubit_index, a.classical_bit, a.outcome) == (
            b.qubit_index, b.classical_bit, b.outcome)
        assert abs(a.probability_of_outcome - b.probability_of_outcome) < 1e-12


def _routed_circuit(rng, n):
    """Random gates on any qubit pair, in either order, with mid-circuit
    measurements and gates conditioned on their outcomes."""
    ins, measured = [], []
    for _ in range(int(rng.integers(10, 40))):
        condition = None
        if measured and rng.random() < 0.3:
            condition = (int(rng.choice(measured)), int(rng.integers(2)))
        r = rng.random()
        if r < 0.4:
            gate = make_gate("U3", rng.uniform(0, 2 * np.pi, 3))
            ins.append(gate_app(gate, (int(rng.integers(n)),), condition=condition))
        elif r < 0.85:
            pair = tuple(int(q) for q in rng.choice(n, 2, replace=False))
            gate = make_gate(("CX", "CZ", "SWAP")[int(rng.integers(3))])
            ins.append(gate_app(gate, pair, condition=condition))
        else:
            q = int(rng.integers(n))
            ins.append(measure(q, q))
            measured.append(q)
    return Circuit(n, n, ins)


class TestDepthEngine:
    def test_full_run_matches_simple_on_bell(self):
        result = run(bell_circuit(), RunConfig(engine="depth"))
        simple = run(bell_circuit(), RunConfig())
        assert np.abs(result.final_state.amplitudes - simple.final_state.amplitudes).max() < 1e-12

    def test_early_stop_applies_first_layer_only(self):
        c = bell_circuit()  # depth 2
        result = run(c, RunConfig(engine="depth", max_depth=1))
        assert result.layers_executed == 1
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[1] = 1 / np.sqrt(2)  # H applied, CX not
        assert 1 - abs(np.vdot(result.final_state.amplitudes, expected)) ** 2 < 1e-12

    def test_early_stop_matches_prefix_oracle(self):
        c = random_circuit(8, 12, 33)
        stop = 7
        layers = instruction_layers(c)
        prefix = Circuit(
            c.num_qubits, c.num_clbits,
            [ins for ins, layer in zip(c.instructions, layers) if layer <= stop],
        )
        simple = run(prefix, RunConfig())
        for engine in ("simple", "mps", "depth"):
            result = run(c, RunConfig(engine=engine, max_depth=stop))
            assert result.layers_executed == stop
            assert 1 - state_fidelity(result.final_state, simple.final_state) < 1e-10

    def test_density_mode_with_noise(self):
        c = bell_circuit().with_global_noise(NoiseSpec.uniform("dephasing", 0.2, 2))
        result = run(c, RunConfig(representation="density", engine="depth"))
        simple = run(c, RunConfig(representation="density"))
        assert np.abs(result.final_state.matrix - simple.final_state.matrix).max() < 1e-10

    def test_export_in_qubit_order_does_not_copy(self):
        backend = DenseGroups([[0, 1, 2]], "wave")
        backend.apply(make_gate("CX").matrix, (2, 0))
        assert backend.export().amplitudes is backend.owner[0].state


class TestCrossEngine:
    def test_pairwise_equivalence_on_random_circuits(self):
        rng = np.random.default_rng(100)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 21))
            c = random_circuit(n, d, int(rng.integers(1 << 30)))
            results = {
                eng: run(c, RunConfig(engine=eng)).final_state
                for eng in ("simple", "mps", "depth")
            }
            assert 1 - state_fidelity(results["simple"], results["mps"]) < 1e-8
            assert 1 - state_fidelity(results["simple"], results["depth"]) < 1e-8

    def test_density_equals_outer_product_of_wave(self):
        for seed in (0, 1, 2):
            c = random_circuit(4, 8, seed)
            wave = run(c, RunConfig(representation="wave"))
            dens = run(c, RunConfig(representation="density"))
            expected = pure_to_density(wave.final_state)
            assert np.abs(dens.final_state.matrix - expected.matrix).max() < 1e-9

    def test_determinism(self):
        c = Circuit(2, 2, [h(0), cx(0, 1), measure(0, 0), measure(1, 1)])
        for eng in ("simple", "mps", "depth"):
            a = run(c, RunConfig(engine=eng, seed=5))
            b = run(c, RunConfig(engine=eng, seed=5))
            assert a.classical_bits == b.classical_bits
            assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)


class TestRunShots:
    def test_bell_correlations(self):
        c = Circuit(2, 2, [h(0), cx(0, 1), measure(0, 0), measure(1, 1)])
        counts = run_shots(c, RunConfig(seed=11), 500)
        assert set(counts) <= {"00", "11"}
        assert abs(counts.get("00", 0) / 500 - 0.5) < 0.07

    def test_reproducible(self):
        c = Circuit(1, 1, [h(0), measure(0, 0)])
        assert run_shots(c, RunConfig(seed=2), 100) == run_shots(c, RunConfig(seed=2), 100)


def _no_generator(*args, **kwargs):
    raise AssertionError("a run without measurements built a generator")


@pytest.mark.parametrize("engine, representation",
                         [("simple", "wave"), ("depth", "wave"), ("mps", "wave"),
                          ("simple", "density"), ("depth", "density")])
@pytest.mark.parametrize("clbits", [0, 2])
def test_runs_without_measurements_draw_no_seed(engine, representation, clbits, monkeypatch):
    # with no measurement every clbit reads 0, so the conditioned X applies
    condition = (0, 0) if clbits else None
    c = Circuit(3, clbits, [h(0), cx(0, 2), ry(1, 0.3), x(2, condition=condition)])
    config = RunConfig(representation=representation, engine=engine, seed=4)
    want = run(c, config)
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    monkeypatch.setattr(np.random, "SeedSequence", _no_generator)
    monkeypatch.setattr(np.random, "PCG64", _no_generator)
    got = run(c, config)
    if representation == "wave":
        assert np.array_equal(got.final_state.amplitudes, want.final_state.amplitudes)
        assert np.abs(got.final_state.amplitudes - reference_run(c)).max() < 1e-12
    else:
        assert np.array_equal(got.final_state.matrix, want.final_state.matrix)
    assert got.classical_bits == (0,) * clbits and got.measurements == ()
    assert run_shots(c, config, 1000) == {"0" * clbits: 1000}


def _shot_circuits():
    teleport = Circuit(3, 3, [
        ry(0, 0.8), h(1), cx(1, 2), cx(0, 1), h(0), measure(0, 0), measure(1, 1),
        x(2, condition=(1, 1)), z(2, condition=(0, 1)), measure(2, 2),
    ])
    end = random_circuit(4, 6, 3)
    end = Circuit(4, 4, list(end.instructions) + [measure(q, q) for q in range(4)])
    # Before the first measurement, X on qubit 0 runs (bit 0 reads 0) and X on
    # qubit 1 does not (bit 1 reads 0). After it, bit 1 is still unmeasured
    # in every shot, so the last conditional X never runs.
    conditional = Circuit(3, 2, [
        x(0, condition=(0, 0)), x(1, condition=(1, 1)), ry(2, 1.1), cx(2, 1),
        measure(1, 0), x(0, condition=(1, 1)), ry(0, 0.5), measure(0, 1),
    ])
    # layers: h0 1, measure 2, ry1 1, cx 3, measure 4
    cut = Circuit(2, 2, [h(0), measure(0, 0), ry(1, 0.7), cx(0, 1), measure(1, 1)])
    twice = Circuit(2, 2, [h(0), measure(0, 0), ry(0, 0.6), cx(0, 1), measure(0, 1),
                           measure(1, 0)])
    one_bit = Circuit(2, 1, [h(0), ry(1, 1.2), measure(0, 0), measure(1, 0),
                             x(0, condition=(0, 1)), h(0), measure(0, 0)])
    # The conditional RY reads the first measurement's bit, which the second
    # overwrites before the conditional X reads it.
    overwrite = Circuit(2, 1, [h(0), measure(0, 0), ry(1, 0.9, condition=(0, 1)),
                               h(0), measure(0, 0), x(1, condition=(0, 0)), measure(1, 0)])
    depolarizing = teleport.with_global_noise(NoiseSpec.uniform("depolarizing", 0.1, 2))
    # 1,500 measurements: more levels than Python's recursion limit.
    long = [h(0)]
    for k in range(750):
        long += [ry(1, 0.3 + k / 1000), cx(0, 1), measure(0, 0), measure(1, 1),
                 x(0, condition=(1, 1))]
    return {"teleport": teleport, "end": end, "conditional": conditional, "cut": cut,
            "twice": twice, "one_bit": one_bit, "overwrite": overwrite,
            "once": teleport, "depolarizing": depolarizing, "long": Circuit(2, 2, long)}


_SHOTS = {"once": 1, "long": 3}


def _shots_by_run(circuit, config, shots):
    """Oracle: one full `run` per shot, with that shot's derived seed."""
    counts = {}
    for i in range(shots):
        seed = int(np.random.SeedSequence([config.seed, i]).generate_state(1)[0])
        bits = run(circuit, replace(config, seed=seed)).classical_bits
        key = "".join(str(b) for b in reversed(bits))
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("name", ["teleport", "end", "conditional", "cut", "twice",
                                  "one_bit", "overwrite", "once", "depolarizing", "long"])
@pytest.mark.parametrize("engine", ["simple", "mps", "depth"])
def test_run_shots_matches_one_run_per_shot(name, engine):
    circuit = _shot_circuits()[name]
    shots = _SHOTS.get(name, 40)
    configs = [RunConfig(engine=engine, seed=9)]
    if name == "cut":  # cut between the two measurements, and before both
        configs = [replace(configs[0], max_depth=d) for d in (1, 2, 3)]
    if engine != "mps":
        configs.append(replace(configs[-1], representation="density"))
    if circuit.has_noise():
        with pytest.raises(ConfigError):
            run_shots(circuit, configs[0], shots)
        configs = configs[1:]
    for config in configs:
        counts = run_shots(circuit, config, shots)
        assert list(counts.items()) == list(_shots_by_run(circuit, config, shots).items())
        if name not in ("cut", "once", "long"):
            assert len(counts) > 1


@pytest.mark.parametrize("engine", ["simple", "depth"])
def test_run_shots_matches_one_run_per_shot_with_noise(engine):
    circuit = _shot_circuits()["teleport"].with_global_noise(
        NoiseSpec.uniform("amplitude_damping", 0.3, 2))
    config = RunConfig(engine=engine, representation="density", seed=4)
    assert run_shots(circuit, config, 40) == _shots_by_run(circuit, config, 40)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 3])
def test_shot_draws_match_numpy_bit_for_bit(seed):
    # 412 shot indices a seed, 2,060 (seed, i) pairs in all: indices of one
    # uint32 word, and spans across 2^32 and 2^64, where they gain a word
    spans = [range(400), range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 2)]
    for m in (1, 3, 12, 40):
        for shots in spans:
            want = np.array([
                np.random.default_rng(np.random.SeedSequence([seed, i]).generate_state(1)[0])
                .random(m) for i in shots])
            got = engines._shot_draws(seed, shots, m)
            assert got.shape == (len(shots), m)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_run_shots_derives_seeds_without_a_generator_per_shot(monkeypatch):
    circuit, config = _shot_circuits()["teleport"], RunConfig(seed=6)
    want = run_shots(circuit, config, 300)
    built = []

    def counting(name):
        real = getattr(np.random, name)

        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.random, name, wrapper)

    # each of these builds one SeedSequence, unless given one
    for name in ("SeedSequence", "default_rng", "PCG64"):
        counting(name)
    assert run_shots(circuit, config, 300) == want
    assert len(built) <= 1, built


def _collapse_by_qr(self, qubit, outcome):
    """MPSState.collapse that always projects in place at the centre, which
    a measurement on the next site must then move by QR."""
    a = self._centre_on(qubit)
    kept = np.zeros_like(a)
    kept[:, outcome] = a[:, outcome]
    self.tensors[self.centre] = kept / np.linalg.norm(kept)


def test_mps_measure_sweep_needs_no_qr(monkeypatch):
    n = 10
    body = random_circuit(n, 8, 4)
    circuit = Circuit(n, n, list(body.instructions) + [measure(q, q) for q in range(n)])
    config = RunConfig(engine="mps", seed=2)
    events, qr, collapse = [], np.linalg.qr, MPSState.collapse

    def counting_qr(*args, **kwargs):
        events.append("qr")
        return qr(*args, **kwargs)

    def checked_collapse(self, qubit, outcome):
        collapse(self, qubit, outcome)
        events.append("collapse")
        assert self.bond_dims()[:self.centre] == [1] * self.centre

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(MPSState, "collapse", checked_collapse)
    counts = run_shots(circuit, config, 200)
    first = events.index("collapse")
    assert "qr" not in events[first:]
    assert len(counts) > 10 and _max_bond(body) > 1
    # the same counts as collapses that move the centre by QR, which do QR here
    events.clear()
    monkeypatch.setattr(MPSState, "collapse", _collapse_by_qr)
    assert list(run_shots(circuit, config, 200).items()) == list(counts.items())
    assert events.count("qr") >= n - 1


def _max_bond(circuit):
    """The largest bond of the circuit's MPS before any measurement."""
    backend = MPSState(circuit.num_qubits)
    for ins in circuit.instructions:
        backend.apply(ins.gate.matrix, ins.targets)
    return max(backend.bond_dims())


@pytest.mark.parametrize("name", ["teleport", "end", "conditional", "cut", "twice",
                                  "one_bit", "overwrite", "once", "long"])
def test_mps_absorbing_collapse_keeps_the_counts(name, monkeypatch):
    circuit = _shot_circuits()[name]
    shots = _SHOTS.get(name, 40)
    configs = [RunConfig(engine="mps", seed=s) for s in (0, 9)]
    if name == "cut":
        configs = [replace(c, max_depth=d) for c in configs for d in (1, 2, 3)]
    got = [run_shots(circuit, config, shots) for config in configs]
    monkeypatch.setattr(MPSState, "collapse", _collapse_by_qr)
    for counts, config in zip(got, configs):
        assert list(counts.items()) == list(_shots_by_run(circuit, config, shots).items())


def _replay(circuit, config):
    """Oracle: the sequential loop, one `rng.random()` per measurement."""
    backend = engines._backend(circuit, config)
    steps, _ = engines._schedule(circuit, config)
    rng = np.random.default_rng(config.seed)
    clbits, records = [0] * circuit.num_clbits, []
    for ins, op in steps:
        if op is None:
            p0 = min(max(backend.prob_zero(ins.qubit), 0.0), 1.0)
            outcome = 0 if rng.random() < p0 else 1
            backend.collapse(ins.qubit, outcome)
            clbits[ins.classical_bit] = outcome
            records.append((ins.qubit, outcome, p0 if outcome == 0 else 1 - p0))
        elif ins.condition is None or clbits[ins.condition[0]] == ins.condition[1]:
            backend.apply(op, ins.targets)
    return tuple(clbits), records, backend.export()


@pytest.mark.parametrize("engine", ["simple", "mps", "depth"])
def test_run_matches_sequential_replay(engine):
    for name, circuit in _shot_circuits().items():
        if name == "long" or (circuit.has_noise() and engine == "mps"):
            continue
        repr_ = "density" if circuit.has_noise() else "wave"
        for seed in range(6):
            config = RunConfig(engine=engine, representation=repr_, seed=seed)
            result = run(circuit, config)
            clbits, records, state = _replay(circuit, config)
            assert result.classical_bits == clbits
            assert [(r.qubit_index, r.outcome, r.probability_of_outcome)
                    for r in result.measurements] == records
            raw = state.amplitudes if repr_ == "wave" else state.matrix
            got = result.final_state.amplitudes if repr_ == "wave" else result.final_state.matrix
            assert np.array_equal(got, raw)


def _backend_calls(monkeypatch, cls):
    """Count export() and collapse() calls on `cls`, and the most instances alive at once."""
    calls = {"export": 0, "collapse": 0, "alive": 0}
    alive = weakref.WeakSet()

    def track(name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            result = method(self, *args)
            calls[name] = calls.get(name, 0) + 1
            alive.update((self, result) if name == "copy" else (self,))
            calls["alive"] = max(calls["alive"], len(alive))
            return result
        monkeypatch.setattr(cls, name, wrapper)

    for name in ("export", "collapse", "copy", "prob_zero"):
        track(name)
    return calls


@pytest.mark.parametrize("engine", ["simple", "mps", "depth"])
def test_shots_simulate_each_branch_once(engine, monkeypatch):
    calls = _backend_calls(monkeypatch, MPSState if engine == "mps" else DenseGroups)
    run_shots(_shot_circuits()["teleport"], RunConfig(engine=engine, seed=3), 300)
    # One run per shot makes 300 exports and 900 collapses.
    assert calls["export"] == 0
    assert calls["collapse"] <= 14
    assert calls["alive"] <= math.floor(math.log2(300)) + 2


@pytest.mark.parametrize("engine", ["simple", "mps", "depth"])
def test_shots_keep_log_many_backends_alive(engine, monkeypatch):
    # Each round reads 0 with probability 0.9 and resets the qubit. Walking
    # the larger branch first would leave about 30 smaller siblings pending.
    rounds = []
    for _ in range(40):
        rounds += [ry(0, 2 * np.arcsin(np.sqrt(0.1))), measure(0, 0), x(0, condition=(0, 1))]
    circuit = Circuit(1, 1, rounds)
    calls = _backend_calls(monkeypatch, MPSState if engine == "mps" else DenseGroups)
    counts = run_shots(circuit, RunConfig(engine=engine, seed=5), 64)
    assert sum(counts.values()) == 64
    assert calls["copy"] > 20
    assert calls["alive"] <= math.floor(math.log2(64)) + 2


def _collapse_unnormalized(state, qubit, outcome):
    """st.collapse without its renormalization."""
    kept = np.zeros_like(state)
    src, dst = st._halves(state, qubit), st._halves(kept, qubit)
    index = (slice(None), outcome) + (() if state.ndim == 1 else (slice(None), outcome))
    dst[index] = src[index]
    return kept


def _mps_collapse_unnormalized(self, qubit, outcome):
    """MPSState.collapse without its renormalization."""
    a = self._centre_on(qubit)
    kept = np.zeros_like(a)
    kept[:, outcome] = a[:, outcome]
    self.tensors[self.centre] = kept


@pytest.mark.parametrize("engine, representation", [
    ("simple", "wave"), ("simple", "density"), ("depth", "wave"), ("depth", "density"),
    ("mps", "wave"),
])
def test_shots_check_each_leaf_trace(engine, representation, monkeypatch):
    config = RunConfig(engine=engine, representation=representation, seed=3)
    circuit = _shot_circuits()["teleport"]
    assert run_shots(circuit, config, 50) == _shots_by_run(circuit, config, 50)
    if engine == "mps":
        monkeypatch.setattr(MPSState, "collapse", _mps_collapse_unnormalized)
    else:
        monkeypatch.setattr(st, "collapse", _collapse_unnormalized)
    with pytest.raises(ValueError, match="leaf state has trace"):
        run_shots(circuit, config, 50)


@pytest.mark.parametrize("engine", ["simple", "depth"])
def test_noisy_density_shots_build_no_state(engine, monkeypatch):
    circuit = _shot_circuits()["teleport"].with_global_noise(
        NoiseSpec.uniform("dephasing", 0.2, 2))
    config = RunConfig(engine=engine, representation="density", seed=8)
    expected = _shots_by_run(circuit, config, 60)

    def refuse(self):
        raise AssertionError("run_shots built a DensityMatrix")
    monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
    assert run_shots(circuit, config, 60) == expected


@pytest.mark.parametrize("representation", ["wave", "density"])
def test_dense_trace_is_the_product_over_groups(representation):
    backend = DenseGroups([[0], [1, 2], [3]], representation)
    density = representation == "density"
    for ins in (h(0), cx(1, 2), ry(3, 0.4)):
        op = step_operator(ins.gate, density)
        backend.apply(2 * op, ins.targets)  # scales the norm squared, or the trace, by 4 or 2
    assert len(set(map(id, backend.owner))) == 3
    assert backend.trace() == pytest.approx(64.0 if not density else 8.0)


@pytest.mark.parametrize("off", [0.05, 0.5e-10])
def test_dense_export_checks_the_groups_own_matrix(off):
    """A density export more than NORM_ATOL off Hermitian is refused, not
    averaged into a Hermitian one; one within it is exported Hermitian."""
    backend = DenseGroups([[0, 1]], "density")
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 3], rho[3, 0] = 0.05 + off, 0.05
    backend.owner[0].state = rho
    if off > NORM_ATOL:
        with pytest.raises(ValueError, match="not Hermitian"):
            backend.export()
    else:
        exported = backend.export().matrix
        assert np.array_equal(exported, exported.conj().T)


def _snapshot(backend):
    if isinstance(backend, MPSState):
        return ([t.tobytes() for t in backend.tensors], list(backend.qubits), backend.centre)
    return [(list(g.qubits), g.state.tobytes()) for g in backend.owner]


@pytest.mark.parametrize("representation", ["wave", "density"])
def test_dense_copy_is_independent_after_a_merge(representation):
    backend = DenseGroups([[q] for q in range(4)], representation)
    density = representation == "density"
    for ins in (h(0), cx(0, 2), ry(3, 0.4)):
        backend.apply(step_operator(ins.gate, density), ins.targets)
    before = _snapshot(backend)
    twin = backend.copy()
    assert twin.owner[0] is twin.owner[2] and twin.owner[0] is not backend.owner[0]
    assert twin.owner[1] is not twin.owner[3]
    assert _snapshot(twin) == before
    twin.apply(step_operator(cx(2, 3).gate, density), (2, 3))
    twin.collapse(0, 1)
    assert _snapshot(backend) == before
    assert _snapshot(twin) != before


def test_mps_copy_is_independent_after_routing():
    backend = MPSState(4)
    for ins in (h(0), cx(0, 3), ry(2, 0.4), cx(3, 1)):
        backend.apply(ins.gate.matrix, ins.targets)
    assert backend.qubits != [0, 1, 2, 3]
    backend.prob_zero(2)
    before = _snapshot(backend)
    twin = backend.copy()
    assert _snapshot(twin) == before
    twin.apply(cx(0, 2).gate.matrix, (0, 2))
    twin.collapse(1, 0)
    twin.prob_zero(0)
    assert _snapshot(backend) == before
    assert _snapshot(twin) != before


def test_layers_executed_bounded_by_depth():
    c = random_circuit(4, 9, 2)
    result = run(c, RunConfig())
    assert result.layers_executed == depth(c)
