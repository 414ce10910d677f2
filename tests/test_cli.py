import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcsim.bench import fidelity_csv, fidelity_sweep
from qcsim import cli
from qcsim.cli import _report_text, _write_output, main
from qcsim.engines import RunConfig, run
from qcsim.qasm import parse_qasm

BELL_MEASURED = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


@pytest.fixture
def bell_path(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL_MEASURED)
    return str(path)


class TestRun:
    def test_bell_shots_concentrate_on_00_and_11(self, bell_path, capsys):
        code = main(["run", bell_path, "--repr", "density", "--engine", "simple",
                     "--shots", "1000", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        counts = report["counts"]
        assert set(counts) <= {"00", "11"}
        assert counts.get("01", 0) == 0 and counts.get("10", 0) == 0
        assert abs(counts["00"] / 1000 - 0.5) < 0.05

    def test_single_shot_reports_state_and_layers(self, tmp_path, capsys):
        path = tmp_path / "h.qasm"
        path.write_text('OPENQASM 2.0;\nqreg q[1];\nh q[0];\nx q[0];\n')
        code = main(["run", str(path), "--engine", "depth", "--max-depth", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["layers_executed"] == 1
        amp = report["final_state"]["amplitudes"]
        assert abs(amp[0][0] - amp[1][0]) < 1e-9  # only H applied

    def test_deterministic_report_bytes(self, bell_path, capsys):
        main(["run", bell_path, "--shots", "50", "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", bell_path, "--shots", "50", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self):
        assert main(["run", "/nonexistent/file.qasm"]) == 1

    def test_noise_with_wave_mode_exits_2(self, bell_path, tmp_path, capsys):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"global": {"kind": "dephasing", "epsilon": 0.2}}))
        code = main(["run", bell_path, "--repr", "wave", "--noise-config", str(noise_path)])
        assert code == 2

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_bad_shots_exits_2(self, bell_path, shots, capsys):
        assert main(["run", bell_path, "--shots", shots]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [[], ["--shots", "5"]])
    def test_negative_seed_exits_2(self, bell_path, extra, capsys):
        assert main(["run", bell_path, "--seed", "-1", *extra]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    def test_bond_overflow_exits_2(self, bell_path, capsys):
        assert main(["run", bell_path, "--engine", "mps", "--mps-max-bond", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bond dimension") and err.count("\n") == 1

    def test_bond_overflow_names_routed_qubits(self, tmp_path, capsys):
        path = tmp_path / "far.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0],q[3];\n")
        assert main(["run", str(path), "--engine", "mps", "--mps-max-bond", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bond dimension 2 exceeds cap 1 between qubits 0 and 3\n"

    def test_nonpositive_bond_cap_exits_2(self, bell_path, capsys):
        assert main(["run", bell_path, "--engine", "mps", "--mps-max-bond", "0"]) == 2
        assert capsys.readouterr().err == "error: mps_max_bond must be >= 1\n"

    def test_mps_with_density_exits_2(self, bell_path, capsys):
        assert main(["run", bell_path, "--engine", "mps", "--repr", "density"]) == 2
        err = capsys.readouterr().err
        assert err == "error: the MPS engine supports the wave representation only\n"

    def test_noise_config_with_overrides(self, bell_path, tmp_path, capsys):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({
            "global": {"kind": "dephasing", "epsilon": 0.1},
            "overrides": [
                {"instruction": 0, "slot": 0, "kind": "amplitude_damping", "epsilon": 0.3}
            ],
        }))
        code = main(["run", bell_path, "--repr", "density",
                     "--noise-config", str(noise_path), "--seed", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["final_state"]["kind"] == "density"


    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"global": 3},
        {"global": {"kind": "dephasing", "epsilon": "x"}},
        {"global": {"kind": "dephasing", "epsilon": None}},
        {"overrides": [{"instruction": None, "slot": 0, "kind": "dephasing",
                        "epsilon": 0.1}]},
        {"overrides": [3]},
        {"overrides": [{"instruction": 0, "slot": 1, "kind": "dephasing",
                        "epsilon": 0.1}]},  # slot 1 of the 1-qubit h
    ])
    def test_noise_config_type_errors_exit_2(self, bell_path, tmp_path, capsys, doc):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps(doc))
        code = main(["run", bell_path, "--repr", "density", "--noise-config", str(noise_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid noise config: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, data", [
        ("latin1.qasm", b"OPENQASM 2.0;\nqreg q[1];\nh q[0]; // \xff\n"),
        ("inf.qasm", b"OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];\n"),
        ("instructions.json", b'{"num_qubits": 1, "instructions": 5}'),
        ("toplevel.json", b"[1, 2]"),
        ("entry.json", b'{"num_qubits": 1, "instructions": [3]}'),
        ("slot.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                      b' "targets": [0], "noise": {"1": {"kind": "dephasing",'
                      b' "epsilon": 0.1}}}]}'),
    ])
    def test_bad_input_file_exits_1(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("args", [
        [*engine, *repr_, *shots]
        for engine, repr_ in [
            (["--engine", "simple"], []), (["--engine", "simple"], ["--repr", "density"]),
            (["--engine", "depth"], []), (["--engine", "depth"], ["--repr", "density"]),
            (["--engine", "mps"], []),
        ]
        for shots in ([], ["--shots", "2"])
    ])
    def test_register_larger_than_memory_exits_2(self, tmp_path, capsys, args):
        path = tmp_path / "wide.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[70];\nh q[0];\n")
        assert main(["run", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a 70-qubit ") and err.count("\n") == 1

    def test_non_utf8_noise_config_exits_1(self, bell_path, tmp_path, capsys):
        noise_path = tmp_path / "noise.json"
        noise_path.write_bytes(b'{"global": "\xff"}')
        code = main(["run", bell_path, "--repr", "density", "--noise-config", str(noise_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read noise config: ") and err.count("\n") == 1


def _complex_pairs(array: np.ndarray):
    """The serializer the block writer replaced, kept as its oracle."""
    if array.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in array]
    return [_complex_pairs(row) for row in array]


def _report(array: np.ndarray, state) -> dict:
    key, kind = ("amplitudes", "wave") if array.ndim == 1 else ("matrix", "density")
    return {"num_qubits": 1, "final_state": {"kind": kind, key: state},
            "classical_bits": [0, 1], "layers_executed": 3}


def _chain_qasm(path, n):
    """An n-qubit circuit of u3 layers and a CX chain, measuring qubit 0."""
    lines = ['OPENQASM 2.0;', f'qreg q[{n}];', 'creg c[1];']
    lines += [f'u3({0.3 * q},{0.2},{0.1 * q}) q[{q}];' for q in range(n)]
    lines += [f'cx q[{q}],q[{q + 1}];' for q in range(n - 1)]
    lines += ['measure q[0] -> c[0];']
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestStateSerialization:
    """The block writer must give exactly the bytes of json.dumps(indent=2)."""

    # Entries whose repr is easy to get wrong.
    SPECIAL = [-0.0, 5e-324, 1e300, 1.0, -1e-300, 0.1]

    @staticmethod
    def _force_encoders(monkeypatch, workers):
        """Encode in up to `workers` processes, and return the list of forks.

        A block is 4 entries (a matrix row, if longer), there is no size
        threshold, and `workers` CPUs are usable, so every state of at
        least that many blocks fans out.
        """
        if workers > 1:
            monkeypatch.setattr(cli, "_BLOCK_ENTRIES", 4)
            monkeypatch.setattr(cli, "_SPAN_MIN_ENTRIES", 1)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        forks = []
        fork_encoder = cli._fork_encoder
        monkeypatch.setattr(cli, "_fork_encoder", lambda *a: forks.append(a) or fork_encoder(*a))
        return forks

    def _array(self, shape, seed):
        rng = np.random.default_rng(seed)
        array = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = array.reshape(-1)
        for i, x in enumerate(self.SPECIAL[: flat.size]):
            flat[i] = complex(x, self.SPECIAL[-1 - i])
        return array

    def _check(self, shape, seed, monkeypatch, capsys, tmp_path):
        """Oracle bytes in memory, on stdout and in --out, in 1 to 3 processes."""
        array = self._array(shape, seed)
        oracle = json.dumps(_report(array, _complex_pairs(array)), indent=2, sort_keys=True) + "\n"
        report = _report(array, "@state@")
        out = tmp_path / "state.json"
        for workers in (1, 2, 3):
            with monkeypatch.context() as patch:
                forks = self._force_encoders(patch, workers)
                assert "".join(_report_text(report, array)) == oracle
                _write_output(_report_text(report, array), None)
                assert capsys.readouterr().out == oracle
                _write_output(_report_text(report, array), str(out))
                assert out.read_text() == oracle
                step = max(1, cli._BLOCK_ENTRIES * len(array) // array.size)
                blocks = -(-len(array) // step)
                spans = min(workers, blocks) if hasattr(os, "fork") else 1
                assert len(forks) == 3 * (spans - 1), workers

    @pytest.mark.parametrize("n", range(1, 13))
    def test_wave_matches_oracle(self, n, monkeypatch, capsys, tmp_path):
        # up to 2^10 amplitudes fit one block; 11 and 12 qubits span several
        self._check(2**n, n, monkeypatch, capsys, tmp_path)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_density_matches_oracle(self, n, monkeypatch, capsys, tmp_path):
        # 5 qubits fill exactly one block of rows; 6 qubits span several
        self._check((2**n, 2**n), n, monkeypatch, capsys, tmp_path)

    def test_serial_without_fork(self, monkeypatch, capsys, tmp_path):
        # forced fan-out settings, but no os.fork: the same bytes in one process
        monkeypatch.delattr(os, "fork")
        self._check(2**9, 9, monkeypatch, capsys, tmp_path)
        self._check((2**4, 2**4), 4, monkeypatch, capsys, tmp_path)

    @pytest.mark.parametrize("n, repr_", [(11, "wave"), (3, "density"), (6, "density")])
    def test_stdout_and_out_give_oracle_bytes(self, tmp_path, capsys, monkeypatch, n, repr_):
        path = _chain_qasm(tmp_path / "c.qasm", n)
        argv = ["run", path, "--repr", repr_, "--seed", "2"]
        result = run(parse_qasm(Path(path).read_text()), RunConfig(representation=repr_, seed=2))
        state = result.final_state
        array = state.amplitudes if repr_ == "wave" else state.matrix
        key = "amplitudes" if repr_ == "wave" else "matrix"
        report = {
            "num_qubits": n,
            "final_state": {"kind": repr_, key: _complex_pairs(array)},
            "classical_bits": list(result.classical_bits),
            "measurements": [
                {"qubit": r.qubit_index, "classical_bit": r.classical_bit,
                 "outcome": r.outcome, "probability": r.probability_of_outcome}
                for r in result.measurements
            ],
            "layers_executed": result.layers_executed,
        }
        oracle = json.dumps(report, indent=2, sort_keys=True) + "\n"
        out = tmp_path / "out.json"
        for workers in (1, 2, 3):
            with monkeypatch.context() as patch:
                forks = self._force_encoders(patch, workers)
                assert main(argv) == 0
                assert capsys.readouterr() == (oracle, "")
                assert main(argv + ["--out", str(out)]) == 0
                assert out.read_text() == oracle
                assert len(forks) == 2 * (workers - 1)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failing_encoder_is_one_error_line(self, tmp_path, capsys, monkeypatch, to_file):
        monkeypatch.setattr(cli, "_SPAN_MIN_ENTRIES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()
        encode_blocks = cli._encode_blocks

        def failing_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("encoder broke")
            return encode_blocks(*args)

        monkeypatch.setattr(cli, "_encode_blocks", failing_in_child)
        argv = ["run", _chain_qasm(tmp_path / "c.qasm", 11)]
        if to_file:
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: state encoder process failed") and err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("stop", ["forked", "own span", "copy"])
    def test_close_halfway_leaves_no_child(self, monkeypatch, workers, stop):
        # 1024 blocks: "[" and the parent's span come first, then the
        # first child's text in chunks
        forks = self._force_encoders(monkeypatch, workers)
        chunks = cli._state_blocks(self._array(2**12, 0), 2)
        taken = {"forked": 1, "own span": 100, "copy": 1024 // workers + 2}[stop]
        for _ in range(taken):
            next(chunks)
        chunks.close()
        assert len(forks) == workers - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n, read", [(17, 10), (2, 0)])
    def test_closed_stdout_is_one_error_line(self, tmp_path, n, read):
        # `qcsim run ... | head -c 10` in three encoder processes, and a
        # report small enough to sit in stdout's buffer until the reader has
        # gone; the script exits 99 if any child outlives main
        script = (
            "import os, sys\n"
            "from qcsim import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "code = cli.main(sys.argv[1:])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(code)\n"
            "sys.exit(99)\n"
        )
        path = _chain_qasm(tmp_path / "c.qasm", n)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as in a plain shell
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "run", path, "--engine", "mps"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err.startswith("error: cannot write to stdout: [Errno 32]") and err.count("\n") == 1


class TestRandom:
    def test_two_qubit_depth_two_contains_one_cx(self, tmp_path):
        out = tmp_path / "c.qasm"
        assert main(["random", "--qubits", "2", "--depth", "2", "--seed", "4",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("cx ") == 1

    def test_reparses_to_requested_depth(self, tmp_path):
        from qcsim.circuit import depth

        out = tmp_path / "c.qasm"
        assert main(["random", "--qubits", "10", "--depth", "30", "--seed", "5",
                     "--out", str(out)]) == 0
        assert depth(parse_qasm(out.read_text())) >= 30

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        main(["random", "--qubits", "4", "--depth", "6", "--seed", "8", "--out", str(a)])
        main(["random", "--qubits", "4", "--depth", "6", "--seed", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_size_exits_2(self):
        assert main(["random", "--qubits", "1", "--depth", "2"]) == 2


class TestBench:
    def test_csv_row_per_depth(self, capsys):
        code = main(["bench", "--engine", "mps", "--qubits", "3",
                     "--depths", "2,4", "--reps", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "engine,num_qubits,depth,seed,wall_time_seconds"
        assert len(lines) == 3

    def test_default_depths_give_six_rows(self, capsys):
        code = main(["bench", "--engine", "mps", "--qubits", "4", "--reps", "1"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 7


class TestNoiseSweep:
    def test_epsilon_zero_single_row(self, capsys):
        code = main(["noise-sweep", "--noise", "dephasing", "--qubits", "3",
                     "--depth", "4", "--epsilons", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert abs(float(lines[1].split(",")[-1]) - 1.0) < 1e-9

    def test_matches_direct_library_call(self, capsys):
        code = main(["noise-sweep", "--noise", "amplitude_damping", "--qubits", "3",
                     "--depth", "4", "--epsilons", "0.2,0.5", "--seed", "6"])
        assert code == 0
        cli_csv = capsys.readouterr().out
        lib_csv = fidelity_csv(fidelity_sweep(3, 4, "amplitude_damping", [0.2, 0.5], seed=6))
        assert cli_csv == lib_csv

    def test_bad_epsilon_exits_2(self):
        assert main(["noise-sweep", "--epsilons", "1.5"]) == 2
