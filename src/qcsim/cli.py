"""Command-line interface.

Subcommands:
  run         execute a circuit from a QASM (or circuit JSON) file
  random      generate a random benchmark circuit and write it as QASM
  bench       depth timing sweep, CSV output
  noise-sweep fidelity-vs-epsilon sweep, CSV output

Diagnostics go to stderr; data goes to stdout or --out. Exit codes:
0 success, 1 input/parse error, 2 invalid configuration.

`run` writes a state's JSON in blocks of about 1,024 entries. A state of
at least 2 x _SPAN_MIN_ENTRIES entries is encoded by up to one process
per usable CPU: forked children encode later spans of blocks into
unlinked temporary files while this process encodes and writes the first
span, then it copies their text out in order. Each process holds one
block's text at a time (about 80 KB for 1,024 amplitudes), and this one
also a 64 K-character copy chunk; the children read the state array
copy-on-write. Where os.fork or os.sched_getaffinity is missing (Windows,
macOS) or one CPU is usable, the state is encoded in this process alone.
The bytes are the same either way. A failed child, or a closed stdout,
is one `error:` line and exit 1, and no child outlives main().
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import signal
import sys
import tempfile
from contextlib import closing, suppress
from dataclasses import replace

import numpy as np

from .bench import bench_depth_sweep, fidelity_csv, fidelity_sweep, timing_csv
from .circuit import GATE_APP, Circuit, circuit_from_json, random_circuit
from .engines import ENGINES, REPRESENTATIONS, ConfigError, RunConfig, run, run_shots
from .mps import BondOverflowError
from .noise import NOISE_KINDS, NoiseSpec, channel_from_entry
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
        if not isinstance(doc, dict):
            raise ValueError("the top level must be a JSON object")
        if "global" in doc:
            channel = channel_from_entry(doc["global"])
            circuit = circuit.with_global_noise(NoiseSpec({0: channel, 1: channel}))
        # an override replaces all of its instruction's noise: the slots of
        # that instruction's override entries, and no others
        instructions, overridden = list(circuit.instructions), {}
        for entry in doc.get("overrides", []):
            index = operator.index(entry["instruction"])
            channel = channel_from_entry(entry)
            slots = overridden.setdefault(index, {})
            slots[operator.index(entry["slot"])] = channel
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
# Fewest entries worth an encoder process of their own. Encoding costs
# about 3 us per entry. On a 2-core host, with 32 MB resident, forking and
# copying back cost as much as two processes save on 2^13 entries, and
# 2^14 entries took 44 ms in two processes against 51 ms in one.
_SPAN_MIN_ENTRIES = 1 << 13
# Characters per read when copying an encoder process's text out.
_COPY_CHARS = 1 << 16
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


def _encode_blocks(array: np.ndarray, starts: range, step: int, indent: int):
    """Yield the text of the blocks of `step` rows that begin at `starts`.

    A join allocates each block's text once. %-formatting a template grows
    it in steps, and left the heap about 2 MB larger after a few
    2^17-entry states.
    """
    layouts = {}
    for start in starts:
        block = np.ascontiguousarray(array[start:start + step], dtype=np.complex128)
        if block.shape not in layouts:
            layouts[block.shape] = _block_layout(block.shape, indent)
        layout = layouts[block.shape]
        layout[1::2] = map(float.__repr__, block.view(np.float64).reshape(-1).tolist())
        yield ("," if start else "") + "".join(layout)


def _encoder_count(entries: int, blocks: int) -> int:
    """Processes that encode a state: one per usable CPU, each with at
    least _SPAN_MIN_ENTRIES entries; one where the host cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, entries // _SPAN_MIN_ENTRIES, blocks))


def _current_cpu() -> int | None:
    """The CPU this process runs on, or None where Linux's /proc is absent."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _fork_encoder(array: np.ndarray, starts: range, step: int, indent: int):
    """Fork a process that writes the text of the blocks at `starts` to an
    unlinked temporary file; return its pid and the file.

    The child leaves only through os._exit, so it never flushes the
    buffers it inherited (stdout, --out) nor runs atexit handlers. Its
    exit status is 0 once the whole text is in the file.
    """
    text = tempfile.TemporaryFile("w+", encoding="ascii")
    # Linux may start the child on this process's CPU and leave both there
    # for the whole encode, which then takes twice as long; the child keeps
    # off it.
    others = os.sched_getaffinity(0) - {_current_cpu()}
    try:
        pid = os.fork()
    except OSError:
        text.close()
        raise
    if pid == 0:
        status = 1
        try:
            with suppress(OSError):  # no other usable CPU: stay unpinned
                os.sched_setaffinity(0, others)
            text.writelines(_encode_blocks(array, starts, step, indent))
            text.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, text


def _state_blocks(array: np.ndarray, indent: int):
    """Yield the JSON text of a complex array as nested [re, im] pairs.

    The text is what json.dumps(..., indent=2) writes for the array as a
    value on a line indented by `indent` spaces. The array is cut into
    blocks of about _BLOCK_ENTRIES entries (whole rows of a matrix), each
    joined into its layout (_encode_blocks). The blocks are split into one
    contiguous span per encoder process (_encoder_count). Forked children
    encode the later spans, each into its own temporary file, while this
    process encodes and yields the first; then it reaps each child in
    order and copies its file out in chunks. A child that fails is an
    error. Every child is reaped on every path, the generator's close()
    included, so none outlives it.
    """
    step = max(1, _BLOCK_ENTRIES * len(array) // array.size)
    starts = range(0, len(array), step)
    workers = _encoder_count(array.size, len(starts))
    cuts = [len(starts) * k // workers for k in range(workers + 1)]
    spans = [starts[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []  # (pid, file) of encoders not yet reaped, in span order
    try:
        for span in spans[1:]:
            children.append(_fork_encoder(array, span, step, indent))
        yield "["
        yield from _encode_blocks(array, spans[0], step, indent)
        while children:
            pid, text = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            with text:
                if status:
                    code = os.waitstatus_to_exitcode(status)
                    raise SystemExitError(
                        EXIT_INPUT_ERROR, f"state encoder process failed with status {code}"
                    )
                text.seek(0)
                while chunk := text.read(_COPY_CHARS):
                    yield chunk
        yield "\n" + " " * indent + "]"
    finally:
        for pid, text in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            text.close()


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
    with closing(chunks):  # reaps the state encoders if writing fails
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
    p_run.add_argument("--repr", choices=REPRESENTATIONS, default="wave")
    p_run.add_argument("--engine", choices=ENGINES, default="simple")
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
    p_bench.add_argument("--engine", choices=ENGINES, required=True)
    p_bench.add_argument("--qubits", type=int, default=10)
    p_bench.add_argument("--depths", default="5,10,15,20,25,30")
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("noise-sweep", help="fidelity-vs-epsilon sweep (CSV)")
    p_sweep.add_argument("--noise", choices=NOISE_KINDS, default="dephasing")
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
