"""Command-line interface.

Subcommands:
  run         execute a circuit from a QASM (or circuit JSON) file
  random      generate a random benchmark circuit and write it as QASM
  bench       depth timing sweep, CSV output
  noise-sweep fidelity-vs-epsilon sweep, CSV output

Diagnostics go to stderr; data goes to stdout or --out. Exit codes:
0 success, 1 input/parse error, 2 invalid configuration.

Every subcommand leaves through one exit path, `main`. A `_cmd_*` function
returns its output as an iterable of text pieces (`run` the generator of
its report's text, the others a stream of their QASM or CSV text) and
maps no error. `main` computes that output before any --out file is
opened, so a failed command leaves no file; it turns a ValueError
(ConfigError included) or a BondOverflowError into exit 2, and then writes
the output. The readers of the input files raise SystemExitError with
their own prefix and exit code, and so does writing. Each failure is one
`error:` line on stderr.

`run` writes a state's JSON in blocks of about 1,024 entries, in this
process alone, holding one block's text at a time. The floats of a block
are encoded at once by `reprs.write`: Ryū's shortest digits, computed on
uint64 arrays, for every float with 0 < |x| < 1 on Ryū's common path, and
float.__repr__ for the rest (zeros, subnormals, powers of two, Ryū's
trailing-zero cases, |x| >= 1), so the text is float.__repr__'s, as
json.dumps writes it. A closed stdout is one `error:` line and exit 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import reprs
from .circuit import GATE_APP, Circuit, as_index, circuit_from_json, random_circuit
from .engines import ENGINES, REPRESENTATIONS, RunConfig, run, run_shots
from .mps import BondOverflowError
from .noise import NOISE_KINDS, NoiseSpec, channel_from_entry, json_object
from .qasm import ParseError, emit_qasm, parse_qasm
from .state import PureState

EXIT_INPUT_ERROR = 1
EXIT_CONFIG_ERROR = 2
# the keys that an entry of a noise config's `overrides` may hold
_OVERRIDE_KEYS = ("instruction", "slot", "kind", "epsilon")


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot read {path}: {exc}")
    if path.endswith(".json"):
        try:
            return circuit_from_json(text)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise SystemExitError(EXIT_INPUT_ERROR, f"{path}: {_reason(exc)}")
    try:
        return parse_qasm(text)
    except ParseError as exc:
        raise SystemExitError(EXIT_INPUT_ERROR, f"{path}:{exc}")


def _reason(exc: Exception) -> str:
    """The message of an input error; a KeyError's names the missing key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


class SystemExitError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _apply_noise_config(circuit: Circuit, path: str) -> Circuit:
    """Attach noise from a sidecar JSON config (schema in the README)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON and UTF-8 decoding errors
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot read noise config: {exc}")
    try:
        if "global" in json_object(doc, "the top level", ("global", "overrides")):
            channel = channel_from_entry(doc["global"], "global")
            circuit = circuit.with_global_noise(NoiseSpec({0: channel, 1: channel}))
        # an override replaces all of its instruction's noise: the slots of
        # that instruction's override entries, and no others
        instructions, overridden = list(circuit.instructions), {}
        overrides = doc.get("overrides", [])
        if not isinstance(overrides, list):
            raise ValueError("overrides must be a list")
        for i, entry in enumerate(overrides):
            channel = channel_from_entry(entry, f"override {i}", _OVERRIDE_KEYS)
            index = as_index(entry["instruction"], f"override {i} instruction")
            slots = overridden.setdefault(index, {})
            slots[as_index(entry["slot"], f"override {i} slot")] = channel
            if not 0 <= index < len(instructions):
                raise ValueError(f"override index {index} out of range")
            if instructions[index].kind != GATE_APP:
                raise ValueError(f"override index {index} targets a non-gate instruction")
            instructions[index] = replace(instructions[index], noise=NoiseSpec(slots))
        return circuit.with_instructions(instructions)
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExitError(EXIT_CONFIG_ERROR, f"invalid noise config: {_reason(exc)}")


# Amplitudes (or matrix entries) per block of the state's JSON text: the
# output is written block by block, never held whole in memory.
_BLOCK_ENTRIES = 1 << 10
_STATE_MARK = "@state@"


def _block_layout(shape, indent: int) -> list:
    """The JSON text of a block of `shape` entries, as a list whose odd
    items are the places of its floats.

    The text is what json.dumps(..., indent=2) writes for the block's
    [re, im] pairs as items of a list on a line indented by `indent`
    spaces. A float's text is float.__repr__, as the JSON encoder writes
    it for a finite float. Every row of the block has the same text, so
    each level is one rendered row joined `size` times.
    """
    def pad(level):
        return "\n" + " " * (indent + 2 * level)

    row = f"[{pad(len(shape) + 1)}0,{pad(len(shape) + 1)}0{pad(len(shape))}]"
    for level in reversed(range(1, len(shape))):
        row = "[" + ",".join([pad(level + 1) + row] * shape[level]) + pad(level) + "]"
    pieces = ",".join([pad(1) + row] * shape[0]).split("0")
    layout = [""] * (2 * len(pieces) - 1)
    layout[::2] = pieces
    return layout


def _block_rows(shape, indent: int):
    """The rows of a block of `shape`, one per float, and the text after
    its last float.

    A row holds the JSON text before its float (an even item of
    _block_layout), NUL-padded, then reprs.WIDTH slots for the float's
    text. The rows are a bytearray, whose translate drops the NULs (which
    leaves the block's text up to its last float) without first copying
    the rows to bytes.
    """
    pieces = _block_layout(shape, indent)[::2]
    width = -(-max(map(len, pieces[:-1])) // 8) * 8 + reprs.WIDTH  # 8-byte aligned
    rows = bytearray("".join(piece.ljust(width, "\0") for piece in pieces[:-1]), "ascii")
    return rows, pieces[-1]


def _state_blocks(array: np.ndarray, indent: int):
    """Yield the JSON text of a complex array as nested [re, im] pairs.

    The text is what json.dumps(..., indent=2) writes for the array as a
    value on a line indented by `indent` spaces. The array is cut into
    blocks of about _BLOCK_ENTRIES entries (whole rows of a matrix); each
    block's floats are written into the rows of one buffer per block
    shape (_block_rows) by reprs.write, so only one block's text is held
    at a time.
    """
    step = max(1, _BLOCK_ENTRIES * len(array) // array.size)
    buffers = {}
    yield "["
    for start in range(0, len(array), step):
        block = np.ascontiguousarray(array[start:start + step], dtype=np.complex128)
        if block.shape not in buffers:
            buffers[block.shape] = _block_rows(block.shape, indent)
        rows, tail = buffers[block.shape]
        floats = block.view(np.float64).reshape(-1)
        slots = np.frombuffer(rows, dtype=np.uint8).reshape(len(floats), -1)
        reprs.write(floats, slots[:, -reprs.WIDTH:])
        if start:
            yield ","
        yield rows.translate(None, b"\0").decode("ascii")
        yield tail
    yield "\n" + " " * indent + "]"


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
    try:
        if out_path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if out_path is None:
            # Python's recipe for a closed pipe: what is left in stdout's
            # buffer goes to devnull at exit, not to a second error.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise SystemExitError(EXIT_INPUT_ERROR, f"cannot write {out_path or 'to stdout'}: {exc}")


def _cmd_run(args):
    circuit = _load_circuit(args.circuit)
    if args.noise_config:
        circuit = _apply_noise_config(circuit, args.noise_config)
    if args.shots is not None and args.shots < 1:
        raise ValueError("--shots must be >= 1")
    config = RunConfig(
        representation=args.repr,
        engine=args.engine,
        max_depth=args.max_depth,
        mps_max_bond=args.mps_max_bond,
        seed=args.seed,
    )
    if args.shots is not None:
        report = {
            "num_qubits": circuit.num_qubits,
            "shots": args.shots,
            "counts": run_shots(circuit, config, args.shots),
        }
        return _report_text(report)
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
    return _report_text(report, array)


def _cmd_random(args) -> io.StringIO:
    circuit = random_circuit(args.qubits, args.depth, args.seed)
    return io.StringIO(emit_qasm(circuit))


def _cmd_bench(args) -> io.StringIO:
    from .bench import bench_depth_sweep, timing_csv

    depths = [int(part) for part in args.depths.split(",") if part != ""]
    points = bench_depth_sweep(
        args.qubits, depths, args.engine, repetitions=args.reps, seed=args.seed
    )
    return io.StringIO(timing_csv(points))


def fidelity_sweep(*args, **kwargs):
    """`bench.fidelity_sweep`, at the name perfbench's traced runs wrap.
    Only the sweeps import `bench`, and with it `statistics`."""
    from .bench import fidelity_sweep

    return fidelity_sweep(*args, **kwargs)


def _cmd_noise_sweep(args) -> io.StringIO:
    from .bench import fidelity_csv

    epsilons = [float(e) for e in args.epsilons.split(",") if e != ""]
    points = fidelity_sweep(
        args.qubits, args.depth, args.noise, epsilons, seed=args.seed
    )
    return io.StringIO(fidelity_csv(points))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcsim", description="Tensor-based quantum circuit simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a circuit file")
    p_run.add_argument("circuit", help="path to a .qasm or circuit .json file")
    p_run.add_argument("--repr", choices=REPRESENTATIONS, default="wave")
    p_run.add_argument("--engine", choices=ENGINES, default="simple")
    p_run.add_argument("--noise-config", default=None)
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--max-depth", type=int, default=None)
    p_run.add_argument("--mps-max-bond", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_rand = sub.add_parser("random", help="generate a random circuit as QASM")
    p_rand.add_argument("--qubits", type=int, default=10)
    p_rand.add_argument("--depth", type=int, default=15)
    p_rand.set_defaults(func=_cmd_random)

    p_bench = sub.add_parser("bench", help="depth timing sweep (CSV)")
    p_bench.add_argument("--engine", choices=ENGINES, required=True)
    p_bench.add_argument("--qubits", type=int, default=10)
    p_bench.add_argument("--depths", default="5,10,15,20,25,30")
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("noise-sweep", help="fidelity-vs-epsilon sweep (CSV)")
    p_sweep.add_argument("--noise", choices=NOISE_KINDS, default="dephasing")
    p_sweep.add_argument("--qubits", type=int, default=5)
    p_sweep.add_argument("--depth", type=int, default=15)
    p_sweep.add_argument(
        "--epsilons", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
    )
    p_sweep.set_defaults(func=_cmd_noise_sweep)

    # every subcommand's last options, as its --help lists them
    for p_cmd in sub.choices.values():
        p_cmd.add_argument("--seed", type=int, default=0)
        p_cmd.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            output = args.func(args)
        except (ValueError, BondOverflowError) as exc:  # ConfigError included
            raise SystemExitError(EXIT_CONFIG_ERROR, str(exc))
        _write_output(output, args.out)
    except SystemExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
