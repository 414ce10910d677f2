"""Command-line interface.

Subcommands:
  run         execute a circuit from a QASM (or circuit JSON) file
  random      generate a random benchmark circuit and write it as QASM
  bench       depth timing sweep, CSV output
  noise-sweep fidelity-vs-epsilon sweep, CSV output

Diagnostics go to stderr; data goes to stdout or --out. Exit codes:
0 success, 1 input/parse error, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import bench_depth_sweep, fidelity_csv, fidelity_sweep, timing_csv
from .circuit import GATE_APP, Circuit, circuit_from_json, random_circuit
from .engines import ConfigError, RunConfig, run, run_shots
from .mps import BondOverflowError
from .noise import NoiseSpec, channel_from_kind
from .qasm import ParseError, emit_qasm, parse_qasm
from .state import PureState

EXIT_INPUT_ERROR = 1
EXIT_CONFIG_ERROR = 2


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot read {path}: {exc}")
    if path.endswith(".json"):
        try:
            return circuit_from_json(text)
        except (ValueError, KeyError) as exc:
            raise SystemExitError(EXIT_INPUT_ERROR, f"{path}: {exc}")
    try:
        return parse_qasm(text)
    except ParseError as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"{path}:{exc}")


class SystemExitError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _apply_noise_config(circuit: Circuit, path: str) -> Circuit:
    """Attach noise from a sidecar JSON config (schema in the README)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot read noise config: {exc}")
    try:
        if "global" in doc:
            entry = doc["global"]
            circuit = circuit.with_global_noise(
                NoiseSpec.uniform(entry["kind"], entry["epsilon"], arity=2)
            )
        overrides: dict[int, dict] = {}
        for entry in doc.get("overrides", []):
            slots = overrides.setdefault(int(entry["instruction"]), {})
            slots[int(entry["slot"])] = channel_from_kind(
                entry["kind"], entry["epsilon"]
            )
        if overrides:
            instructions = list(circuit.instructions)
            for index, slots in overrides.items():
                if not 0 <= index < len(instructions):
                    raise ValueError(f"override index {index} out of range")
                ins = instructions[index]
                if ins.kind != GATE_APP:
                    raise ValueError(
                        f"override index {index} targets a non-gate instruction"
                    )
                instructions[index] = type(ins)(
                    ins.kind, gate=ins.gate, targets=ins.targets,
                    condition=ins.condition, noise=NoiseSpec(slots),
                )
            circuit = circuit.with_instructions(instructions)
        return circuit
    except (KeyError, ValueError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, f"invalid noise config: {exc}")


def _complex_pairs(array: np.ndarray):
    if array.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in array]
    return [_complex_pairs(row) for row in array]


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot write {out_path}: {exc}")


def _cmd_run(args) -> int:
    circuit = _load_circuit(args.circuit)
    if args.noise_config:
        circuit = _apply_noise_config(circuit, args.noise_config)
    if args.shots is not None and args.shots < 1:
        raise SystemExitError(EXIT_CONFIG_ERROR, "--shots must be >= 1")
    try:
        config = RunConfig(
            representation=args.repr,
            engine=args.engine,
            max_depth=args.max_depth,
            mps_max_bond=args.mps_max_bond,
            seed=args.seed,
        )
        if args.shots is None:
            result = run(circuit, config)
            state = result.final_state
            if isinstance(state, PureState):
                state_doc = {"kind": "wave", "amplitudes": _complex_pairs(state.amplitudes)}
            else:
                state_doc = {"kind": "density", "matrix": _complex_pairs(state.matrix)}
            report = {
                "num_qubits": circuit.num_qubits,
                "final_state": state_doc,
                "classical_bits": list(result.classical_bits),
                "measurements": [
                    {
                        "qubit": r.qubit_index,
                        "classical_bit": r.classical_bit,
                        "outcome": r.outcome,
                        "probability": r.probability_of_outcome,
                    }
                    for r in result.measurements
                ],
                "layers_executed": result.layers_executed,
            }
        else:
            counts = run_shots(circuit, config, args.shots)
            report = {
                "num_qubits": circuit.num_qubits,
                "shots": args.shots,
                "counts": dict(sorted(counts.items())),
            }
    except (ConfigError, BondOverflowError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_random(args) -> int:
    try:
        circuit = random_circuit(args.qubits, args.depth, args.seed)
    except ValueError as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output(emit_qasm(circuit), args.out)
    return 0


def _cmd_bench(args) -> int:
    try:
        depths = _parse_int_list(args.depths)
        points = bench_depth_sweep(
            args.qubits, depths, args.engine, repetitions=args.reps, seed=args.seed
        )
    except (ValueError, ConfigError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output(timing_csv(points), args.out)
    return 0


def _cmd_noise_sweep(args) -> int:
    try:
        epsilons = [float(e) for e in args.epsilons.split(",") if e != ""]
        points = fidelity_sweep(
            args.qubits, args.depth, args.noise, epsilons, seed=args.seed
        )
    except (ValueError, ConfigError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output(fidelity_csv(points), args.out)
    return 0


def _parse_int_list(text: str):
    return [int(part) for part in text.split(",") if part != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcsim", description="Tensor-based quantum circuit simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a circuit file")
    p_run.add_argument("circuit", help="path to a .qasm or circuit .json file")
    p_run.add_argument("--repr", choices=["wave", "density"], default="wave")
    p_run.add_argument("--engine", choices=["simple", "mps", "depth"], default="simple")
    p_run.add_argument("--noise-config", default=None)
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--max-depth", type=int, default=None)
    p_run.add_argument("--mps-max-bond", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_rand = sub.add_parser("random", help="generate a random circuit as QASM")
    p_rand.add_argument("--qubits", type=int, default=10)
    p_rand.add_argument("--depth", type=int, default=15)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--out", default=None)
    p_rand.set_defaults(func=_cmd_random)

    p_bench = sub.add_parser("bench", help="depth timing sweep (CSV)")
    p_bench.add_argument("--engine", choices=["simple", "mps", "depth"], required=True)
    p_bench.add_argument("--qubits", type=int, default=10)
    p_bench.add_argument("--depths", default="5,10,15,20,25,30")
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("noise-sweep", help="fidelity-vs-epsilon sweep (CSV)")
    p_sweep.add_argument(
        "--noise",
        choices=["dephasing", "depolarizing", "amplitude_damping"],
        default="dephasing",
    )
    p_sweep.add_argument("--qubits", type=int, default=5)
    p_sweep.add_argument("--depth", type=int, default=15)
    p_sweep.add_argument(
        "--epsilons", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_noise_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
