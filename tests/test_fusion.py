"""Fusion of 1-qubit steps into 2-qubit steps, against an unfused replay.

The dense engines fold each run of unconditioned 1-qubit steps into the
next unconditioned 2-qubit step on its qubit, or, where none takes it,
into the last one before it (`engines._fuse`); on a density matrix each
noise channel is such a 1-qubit step. The oracle here is the schedule
without fusion: one step per instruction before the depth cut-off, each
gate's operator built with its noise from full embeddings
(`test_noise.per_gate_formula`).
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import apply_on_qubits
from test_engines import _shot_circuits, cx, h, ry, x
from test_noise import per_gate_formula
from qcsim import engines
from qcsim.circuit import (
    MEASURE,
    Circuit,
    Instruction,
    gate_app,
    instruction_layers,
    measure,
    random_circuit,
)
from qcsim.engines import RunConfig, run, run_shots
from qcsim.gates import Gate, make_gate, step_operator
from qcsim.noise import NoiseSpec, channel_from_kind
from qcsim.state import apply_local

KINDS = ("dephasing", "depolarizing", "amplitude_damping")


def unfused_schedule(circuit, config):
    """Oracle: one step per instruction up to the cut-off, each gate's
    operator U, or on a density matrix its noise and U (x) conj(U) as one
    full-embedding product."""
    layers = instruction_layers(circuit)
    stop = max(layers, default=0)
    if config.max_depth is not None:
        stop = min(config.max_depth, stop)
    density = config.representation == "density"
    return [
        (ins, None if ins.kind == MEASURE
         else per_gate_formula(ins.gate, circuit.effective_noise(ins)) if density
         else ins.gate.matrix)
        for ins, layer in zip(circuit.instructions, layers) if layer <= stop
    ], stop


def _with_overrides(circuit, rng):
    """Per-instruction noise on a third of the gates, random kinds, slots and strengths."""
    instructions = list(circuit.instructions)
    for i, ins in enumerate(instructions):
        if ins.kind != MEASURE and rng.random() < 1 / 3:
            slots = [s for s in range(ins.gate.arity) if rng.random() < 0.7] or [0]
            spec = NoiseSpec({s: channel_from_kind(KINDS[rng.integers(3)],
                                                   float(rng.uniform(0.02, 0.3)))
                              for s in slots})
            instructions[i] = replace(ins, noise=spec)
    return circuit.with_instructions(instructions)


def _cases():
    """(name, circuit, representation) covering wave, density, each global
    channel kind and per-gate overrides, with and without measurements."""
    rng = np.random.default_rng(5)
    shots = _shot_circuits()
    cases = []
    for seed in range(3):
        c = random_circuit(5, 10, seed)
        cases += [(f"random{seed}", c, "wave"), (f"random{seed}", c, "density")]
    for name in ("teleport", "end", "conditional", "twice", "one_bit", "overwrite"):
        cases += [(name, shots[name], "wave"), (name, shots[name], "density")]
    for kind in KINDS:
        for name, c in (("random", random_circuit(4, 9, 3)), ("teleport", shots["teleport"])):
            cases.append((f"{name}-{kind}", c.with_global_noise(NoiseSpec.uniform(kind, 0.15, 2)),
                          "density"))
        one_slot = NoiseSpec({0: channel_from_kind(kind, 0.2)})
        cases.append((f"slot0-{kind}", random_circuit(4, 8, 4).with_global_noise(one_slot),
                      "density"))
    for name, c in (("random", random_circuit(5, 12, 9)), ("end", shots["end"]),
                    ("conditional", shots["conditional"])):
        cases.append((f"overrides-{name}", _with_overrides(c, rng), "density"))
    depolarizing = NoiseSpec.uniform("depolarizing", 0.15, 2)
    for name, c in _tail_circuits().items():
        cases += [(f"tail-{name}", c, "wave"), (f"tail-{name}", c, "density"),
                  (f"tail-{name}-depolarizing", c.with_global_noise(depolarizing), "density")]
    return cases


def _one_qubit_layer(num_qubits, seed):
    return [ry(q, 0.3 + 0.1 * q + seed) for q in range(num_qubits)]


def _tail_circuits():
    """Circuits that end in a 1-qubit layer, whose runs no later 2-qubit step
    takes: after plain 2-qubit steps, after a measurement, after a
    conditioned step on the run's qubit or on another, and after a
    conditioned 2-qubit step."""
    ccx01 = gate_app(make_gate("CX"), (0, 1), condition=(0, 1))
    cases = {f"random{seed}": Circuit(5, 0, [*random_circuit(5, 10, seed).instructions,
                                             *_one_qubit_layer(5, seed)])
             for seed in range(2)}
    mid = [*random_circuit(5, 9, 2).instructions, *_one_qubit_layer(5, 1), measure(2, 0),
           x(1, condition=(0, 1)), cx(3, 4), *_one_qubit_layer(5, 2)]
    cases["measured"] = Circuit(5, 1, mid)
    for name, barrier in (("measure", measure(1, 0)), ("cond0", x(0, condition=(0, 1))),
                          ("cond1", x(1, condition=(0, 1)))):
        cases[name] = Circuit(2, 1, [h(0), measure(0, 0), cx(0, 1), barrier,
                                     *_one_qubit_layer(2, 0)])
    cases["conditioned_cx"] = Circuit(2, 1, [h(0), measure(0, 0), ccx01,
                                             *_one_qubit_layer(2, 0)])
    return cases


def _unfused(monkeypatch):
    monkeypatch.setattr(engines, "_schedule", unfused_schedule)


def _raw(state):
    return state.amplitudes if hasattr(state, "amplitudes") else state.matrix


@pytest.mark.parametrize("engine", ["simple", "depth"])
def test_fused_run_matches_unfused_replay(engine, monkeypatch):
    for name, circuit, repr_ in _cases():
        configs = [RunConfig(engine=engine, representation=repr_, seed=seed) for seed in (0, 3)]
        configs += [replace(configs[0], max_depth=d) for d in (1, 2, 5)]
        for config in configs:
            fused = run(circuit, config)
            with monkeypatch.context() as patch:
                _unfused(patch)
                oracle = run(circuit, config)
            assert fused.classical_bits == oracle.classical_bits, (name, config)
            assert fused.layers_executed == oracle.layers_executed
            assert [(r.qubit_index, r.classical_bit, r.outcome) for r in fused.measurements] == [
                (r.qubit_index, r.classical_bit, r.outcome) for r in oracle.measurements]
            assert np.allclose([r.probability_of_outcome for r in fused.measurements],
                               [r.probability_of_outcome for r in oracle.measurements],
                               rtol=0, atol=1e-12)
            diff = np.abs(_raw(fused.final_state) - _raw(oracle.final_state)).max()
            assert diff < 1e-12, (name, config, diff)


def _barriers(steps):
    """The measurements and conditioned gates of a schedule, in order."""
    return [ins for ins, op in steps
            if isinstance(ins, Instruction) and (op is None or ins.condition is not None)]


def _walk(state, steps, conditions_hold):
    """The states that `steps` reach at each measurement and at the end, with
    every conditioned step applied or every one skipped; no collapse."""
    states = []
    for ins, op in steps:
        if op is None:
            states.append(state)
        elif ins.condition is None or conditions_hold:
            state = apply_on_qubits(state, op, ins.targets)
    return states + [state]


@pytest.mark.parametrize("representation", ["wave", "density"])
def test_no_step_moves_past_a_barrier(representation):
    """The barriers (measurements and conditioned gates) are the same in the
    same order, and the fused steps reach the unfused replay's states at
    every measurement, whether the conditioned steps run or not."""
    rng = np.random.default_rng(8)
    for name, circuit, repr_ in _cases():
        if repr_ != representation:
            continue
        config = RunConfig(representation=repr_)
        fused, _ = engines._schedule(circuit, config)
        oracle, _ = unfused_schedule(circuit, config)
        assert _barriers(fused) == _barriers(oracle), name
        shape = (2**circuit.num_qubits,) * (1 if repr_ == "wave" else 2)
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for hold in (True, False):
            got, want = _walk(state, fused, hold), _walk(state, oracle, hold)
            assert np.abs(np.array(got) - np.array(want)).max() < 1e-12, (name, hold)


def test_one_qubit_runs_flush_at_barriers():
    ry0, m1, cx01 = ry(0, 0.4), measure(1, 0), cx(0, 1)
    steps, _ = engines._schedule(Circuit(2, 1, [ry0, m1, cx01]), RunConfig())
    assert [ins for ins, _ in steps] == [ry0, m1, cx01]
    assert np.array_equal(steps[2][1], cx01.gate.matrix)
    # a conditioned step flushes the run on its own qubit only
    cond0, cond1, h1 = x(0, condition=(0, 1)), x(1, condition=(0, 1)), h(1)
    steps, _ = engines._schedule(Circuit(2, 1, [ry0, h1, cond0, cx01]), RunConfig())
    assert [ins for ins, _ in steps] == [ry0, cond0, cx01]
    assert np.allclose(steps[2][1], cx01.gate.matrix @ np.kron(np.eye(2), h1.gate.matrix))
    steps, _ = engines._schedule(Circuit(2, 1, [ry0, cond1, cx01]), RunConfig())
    assert [ins for ins, _ in steps] == [cond1, cx01]
    # a run that no 2-qubit step takes is one step at the end
    steps, _ = engines._schedule(Circuit(2, 0, [ry0, h(0), h1]), RunConfig())
    assert [ins for ins, _ in steps] == [ry0, h1]
    assert np.allclose(steps[0][1], h(0).gate.matrix @ ry0.gate.matrix)


def test_trailing_runs_fold_into_the_last_two_qubit_step():
    """With no measurement or condition, and a 2-qubit gate on every qubit,
    only the 2-qubit steps remain."""
    depolarizing = NoiseSpec.uniform("depolarizing", 0.02, 2)
    for name in ("random0", "random1"):
        circuit = _tail_circuits()[name]
        twos = sum(len(ins.targets) == 2 for ins in circuit.instructions)
        for config in (RunConfig(), RunConfig(engine="depth")):
            assert len(engines._schedule(circuit, config)[0]) == twos
        noisy = circuit.with_global_noise(depolarizing)
        assert len(engines._schedule(noisy, RunConfig(representation="density"))[0]) == twos
    # the 5-qubit depolarizing noise-sweep circuit: 10 steps, not 15
    sweep = random_circuit(5, 10, 0).with_global_noise(depolarizing)
    assert len(engines._schedule(sweep, RunConfig(representation="density"))[0]) == 10
    # E(run) @ op, on a state vector and on a density matrix
    cx01, ry0, h1 = cx(0, 1), ry(0, 0.4), h(1)
    after = Gate("after", 2, (), np.kron(ry0.gate.matrix, h1.gate.matrix) @ cx01.gate.matrix)
    for density in (False, True):
        repr_ = "density" if density else "wave"
        steps, _ = engines._schedule(Circuit(2, 0, [cx01, ry0, h1]),
                                     RunConfig(representation=repr_))
        assert [ins for ins, _ in steps] == [cx01]
        assert np.allclose(steps[0][1], step_operator(after, density), rtol=0, atol=1e-15)


@pytest.mark.parametrize("density", [False, True])
@pytest.mark.parametrize("slot", [0, 1])
def test_a_run_folds_on_the_right_as_the_transposed_contraction(density, slot):
    """op @ E(R), for the run R on one slot of a 2-qubit step, equals bit for
    bit the reference that contracts R^T into op^T on its row axes."""
    rng = np.random.default_rng(2 * slot + density)
    rows = [slot, 2 + slot][:1 + density]
    for _ in range(20):
        run_gates = [gate_app(make_gate("U3", rng.uniform(0, 2 * np.pi, 3)), (slot,))
                     for _ in range(3)]
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        two = gate_app(Gate("random", 2, (), np.linalg.qr(a)[0]), (0, 1))
        steps, _ = engines._schedule(Circuit(2, 0, [*run_gates, two]),
                                     RunConfig(representation="density" if density else "wave"))
        assert [ins for ins, _ in steps] == [two]
        run_op = step_operator(run_gates[0].gate, density)
        for ins in run_gates[1:]:
            run_op = step_operator(ins.gate, density) @ run_op
        op = step_operator(two.gate, density)
        assert np.array_equal(steps[0][1], apply_local(op.T, run_op.T, rows).T)


def test_runs_after_a_barrier_are_not_folded_on_the_left():
    cx01, ry0, m1 = cx(0, 1), ry(0, 0.4), measure(1, 0)
    cond0, cond1 = x(0, condition=(0, 1)), x(1, condition=(0, 1))
    ccx01 = gate_app(make_gate("CX"), (0, 1), condition=(0, 1))
    # a measurement on any qubit, a conditioned step on the run's qubit, or a
    # conditioned last 2-qubit step: the run is a step of its own at the end
    for instructions in ([cx01, m1, ry0], [cx01, cond0, ry0], [ccx01, ry0]):
        steps, _ = engines._schedule(Circuit(2, 1, instructions), RunConfig())
        assert [ins for ins, _ in steps] == instructions
        assert np.array_equal(steps[0][1], cx01.gate.matrix)
    # a conditioned step on the other qubit does not stop the fold, and a run
    # flushed at a measurement folds on the left too
    folded = np.kron(ry0.gate.matrix, np.eye(2)) @ cx01.gate.matrix
    for instructions, kept in (([cx01, cond1, ry0], [cx01, cond1]),
                               ([cx01, ry0, m1], [cx01, m1])):
        steps, _ = engines._schedule(Circuit(2, 1, instructions), RunConfig())
        assert [ins for ins, _ in steps] == kept
        assert np.allclose(steps[0][1], folded, rtol=0, atol=1e-15)


def test_fusion_cuts_the_steps_of_a_random_circuit():
    circuit = random_circuit(10, 30, 12)
    assert len(unfused_schedule(circuit, RunConfig())[0]) == 218
    for engine in ("simple", "depth"):
        assert len(engines._schedule(circuit, RunConfig(engine=engine))[0]) <= 70
    assert len(engines._schedule(circuit, RunConfig(engine="mps"))[0]) == 218


def _measured(circuit):
    n = circuit.num_qubits
    return Circuit(n, n, list(circuit.instructions) + [measure(q, q) for q in range(n)])


@pytest.mark.parametrize("engine", ["simple", "depth", "mps"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_shot_counts_match_unfused_replay(engine, seed, monkeypatch):
    shots = _shot_circuits()
    cases = [(c, "wave") for c in (shots["teleport"], shots["conditional"], shots["overwrite"],
                                   _measured(random_circuit(5, 8, seed)))]
    if engine != "mps":
        noisy = _measured(random_circuit(4, 8, seed))
        cases += [(c, "density") for c in (shots["teleport"], shots["depolarizing"])]
        cases += [(noisy.with_global_noise(NoiseSpec.uniform(kind, 0.1, 2)), "density")
                  for kind in KINDS]
    for circuit, repr_ in cases:
        config = RunConfig(engine=engine, representation=repr_, seed=seed)
        fused = run_shots(circuit, config, 150)
        with monkeypatch.context() as patch:
            _unfused(patch)
            oracle = run_shots(circuit, config, 150)
        assert list(fused.items()) == list(oracle.items())
