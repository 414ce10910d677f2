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
from dataclasses import replace

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
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot read {path}: {exc}")
    if path.endswith(".json"):
        try:
            return circuit_from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
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
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot read noise config: {exc}")
    try:
        if not isinstance(doc, dict):
            raise ValueError("the top level must be a JSON object")
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
                instructions[index] = replace(ins, noise=NoiseSpec(slots))
            circuit = circuit.with_instructions(instructions)
        return circuit
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, f"invalid noise config: {exc}")


# Amplitudes (or matrix entries) per block of the state's JSON text: the
# output is written block by block, never held whole in memory.
_BLOCK_ENTRIES = 1 << 10
_STATE_MARK = "@state@"


def _state_blocks(array: np.ndarray, indent: int):
    """Yield the JSON text of a complex array as nested [re, im] pairs.

    The text is what json.dumps(..., indent=2) writes for the array as a
    value on a line indented by `indent` spaces. Each block is encoded
    compactly by the C encoder, which writes floats with the same repr as
    the indenting encoder, and re-indented by replacing its separators,
    those that close and open the most lists first.
    """
    depth = array.ndim + 1  # list levels down to the floats
    pad = ["\n" + " " * (indent + 2 * level) for level in range(depth + 1)]
    separators = []
    for k in range(depth - 1, -1, -1):
        closes = "".join(pad[lv] + "]" for lv in range(depth - 1, depth - 1 - k, -1))
        opens = "".join(pad[lv] + "[" for lv in range(depth - k, depth))
        separators.append(("]" * k + ", " + "[" * k, closes + "," + opens + pad[depth]))
    head = "".join(pad[lv] + "[" for lv in range(1, depth)) + pad[depth]
    tail = "".join(pad[lv] + "]" for lv in range(depth - 1, 0, -1))
    step = max(1, _BLOCK_ENTRIES * len(array) // array.size)
    yield "["
    for start in range(0, len(array), step):
        block = array[start:start + step]
        text = json.dumps(np.stack([block.real, block.imag], -1).tolist())[depth:-depth]
        for old, new in separators:
            text = text.replace(old, new)
        yield ("," if start else "") + head + text + tail
    yield pad[0] + "]"


def _report_text(report: dict, state: np.ndarray | None = None):
    """Yield json.dumps(report, indent=2, sort_keys=True) + "\n" in pieces.

    A `state` array is written in blocks where the report holds
    `_STATE_MARK`.
    """
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if state is None:
        yield text
        return
    head, tail = text.split(json.dumps(_STATE_MARK))
    line = head[head.rfind("\n") + 1:]
    yield head
    yield from _state_blocks(state, len(line) - len(line.lstrip(" ")))
    yield tail


def _write_output(chunks, out_path):
    """Write an iterable of strings to `out_path`, or to stdout if it is None."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
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
                array, state_doc = state.amplitudes, {"kind": "wave", "amplitudes": _STATE_MARK}
            else:
                array, state_doc = state.matrix, {"kind": "density", "matrix": _STATE_MARK}
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
            chunks = _report_text(report, array)
        else:
            counts = run_shots(circuit, config, args.shots)
            report = {
                "num_qubits": circuit.num_qubits,
                "shots": args.shots,
                "counts": dict(sorted(counts.items())),
            }
            chunks = _report_text(report)
    except (ConfigError, BondOverflowError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output(chunks, args.out)
    return 0


def _cmd_random(args) -> int:
    try:
        circuit = random_circuit(args.qubits, args.depth, args.seed)
    except ValueError as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output([emit_qasm(circuit)], args.out)
    return 0


def _cmd_bench(args) -> int:
    try:
        depths = _parse_int_list(args.depths)
        points = bench_depth_sweep(
            args.qubits, depths, args.engine, repetitions=args.reps, seed=args.seed
        )
    except (ValueError, ConfigError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output([timing_csv(points)], args.out)
    return 0


def _cmd_noise_sweep(args) -> int:
    try:
        epsilons = [float(e) for e in args.epsilons.split(",") if e != ""]
        points = fidelity_sweep(
            args.qubits, args.depth, args.noise, epsilons, seed=args.seed
        )
    except (ValueError, ConfigError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
    _write_output([fidelity_csv(points)], args.out)
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
