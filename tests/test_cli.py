import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcsim.bench import fidelity_csv, fidelity_sweep
from qcsim import cli, engines
from qcsim import state as st
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


# (noise config, message): the message is pinned where qcsim words it, and
# None where it is Python's own wording of a type error
NOISE_CONFIG_ERRORS = [
    ([1, 2], "the top level is not a JSON object"),
    ({"global": 3}, "global is not a JSON object"),
    ({"global": {"kind": "dephasing", "epsilon": "x"}}, None),
    ({"global": {"kind": "dephasing", "epsilon": None}}, None),
    ({"overrides": [{"instruction": None, "slot": 0, "kind": "dephasing",
                     "epsilon": 0.1}]}, None),
    ({"overrides": [3]}, "override 0 is not a JSON object"),
    ({"overrides": [{"instruction": 0, "slot": 1, "kind": "dephasing",
                     "epsilon": 0.1}]},  # slot 1 of the 1-qubit h
     "gate H has no target for noise slot 1"),
    ({"overrides": [{"instruction": 1.9, "slot": 0, "kind": "dephasing",
                     "epsilon": 0.1}]}, None),
    ({"overrides": [{"instruction": 1, "slot": 0.5, "kind": "dephasing",
                     "epsilon": 0.1}]}, None),
    ({"overrides": [{"instruction": "1", "slot": 0, "kind": "dephasing",
                     "epsilon": 0.1}]}, None),
    # a JSON true is not a strength of 1
    ({"global": {"kind": "dephasing", "epsilon": True}}, "epsilon must lie in [0, 1], got True"),
    ({"overrides": [{"instruction": 0, "slot": 0, "kind": "dephasing", "epsilon": True}]},
     "epsilon must lie in [0, 1], got True"),
    ({"global": {"epsilon": 0.1}}, "missing key 'kind'"),
    ({"overrides": [{"instruction": 4, "slot": 0, "kind": "dephasing", "epsilon": 0.1}]},
     "override index 4 out of range"),
    ({"overrides": [{"instruction": 2, "slot": 0, "kind": "dephasing", "epsilon": 0.1}]},
     "override index 2 targets a non-gate instruction"),  # the first measurement
    ({"overrides": {"a": 1}}, "overrides must be a list"),
    ({"overrides": [{"instruction": 0, "slot": 0, "kind": "dephasing", "epsilon": 0.1}, 3]},
     "override 1 is not a JSON object"),
    # a JSON true or false is not an index: not instruction 1 (the cx), nor slot 0
    ({"overrides": [{"instruction": True, "slot": 0, "kind": "dephasing", "epsilon": 0.1}]},
     "override 0 instruction must be an integer, got True"),
    ({"overrides": [{"instruction": 0, "slot": False, "kind": "dephasing", "epsilon": 0.1}]},
     "override 0 slot must be an integer, got False"),
    # a key that the reader does not read is refused, not ignored
    ({"glob": {"kind": "dephasing", "epsilon": 0.1}}, "the top level has an unknown key 'glob'"),
    ({"global": {"kind": "dephasing", "epsilon": 0.1, "slot": 0}},
     "global has an unknown key 'slot'"),
    ({"overrides": [{"instruction": 0, "slot": 0, "kind": "dephasing", "epsilon": 0.1,
                     "epsilom": 0.2}]}, "override 0 has an unknown key 'epsilom'"),
    # an index field that is not an integer is named
    ({"overrides": [{"instruction": "0", "slot": 0, "kind": "dephasing", "epsilon": 0.1}]},
     "override 0 instruction must be an integer, got '0'"),
]

# The message of each bad input file whose wording is pinned.
BAD_INPUT_MESSAGES = {
    "missing_key.json": "missing key 'num_qubits'",
    "reset.json": "unknown instruction kind 'reset'",
    "infinite_angle.json": "gate RX: parameter is not a finite number",
    "nan_angle.json": "gate RX: parameter is not a finite number",
    "huge_angle.json": "gate RX: parameter is not a finite number",
    "zero_qubits.json": "num_qubits must be >= 1",
    "negative_clbits.json": "num_clbits must be >= 0",
    "condition_value.json": "condition value must be 0 or 1",
    "bool_num_qubits.json": "num_qubits must be an integer, got True",
    "bool_num_clbits.json": "num_clbits must be an integer, got False",
    "bool_target.json": "target must be an integer, got False",
    "bool_condition.json": "condition bit must be an integer, got True",
    "bool_measure.json": "qubit must be an integer, got False",
    "bool_angle.json": "gate RX: parameter True is not a real number",
    "string_angle.json": "gate RX: parameter '1.5' is not a real number",
    "toplevel.json": "the top level is not a JSON object",
    "entry.json": "instruction 0 is not a JSON object",
    "later_entry.json": "instruction 1 is not a JSON object",
    "global_noise_entry.json": "global_noise slot 0 is not a JSON object",
    "noise_entry.json": "instruction 0 noise slot 0 is not a JSON object",
    "global_noise.json": "global_noise is not a JSON object",
    "noise_kind.json": "instruction 0 noise is not a JSON object",
    "slot_spaces.json": "instruction 0 noise slot ' 0 ' is not \"0\" or \"1\"",
    "slot_plus.json": "instruction 0 noise slot '+0' is not \"0\" or \"1\"",
    "slot_underscore.json": "global_noise slot '0_0' is not \"0\" or \"1\"",
    "targets_not_list.json": "instruction 0 targets is not a list",
    "params_not_list.json": "instruction 0 params is not a list",
    "condition_not_list.json": "instruction 0 condition is not a list",
    "misspelt_global_noise.json": "the top level has an unknown key 'global_nosie'",
    "misspelt_noise.json": "instruction 0 has an unknown key 'nosie'",
    "measure_targets.json": "instruction 0 has an unknown key 'targets'",
    "noise_entry_key.json": "global_noise slot 0 has an unknown key 'epsilom'",
    "null_num_clbits.json": "num_clbits must be an integer, got None",
    "string_measure_qubit.json": "qubit must be an integer, got '0'",
    "null_target.json": "target must be an integer, got None",
}


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

    @pytest.mark.parametrize("extra", [[], ["--shots", "5"]])
    def test_nonpositive_max_depth_exits_2(self, bell_path, extra, capsys):
        assert main(["run", bell_path, "--max-depth", "0", *extra]) == 2
        assert capsys.readouterr().err == "error: max_depth must be >= 1\n"

    @pytest.mark.parametrize("extra, message", [
        ([], "state not normalized"), (["--shots", "20"], "leaf state has trace"),
    ])
    def test_failed_check_in_a_run_exits_2(self, bell_path, capsys, monkeypatch, extra, message):
        def collapse_unnormalized(state, qubit, outcome):  # st.collapse without renormalizing
            kept = np.zeros_like(state)
            st._halves(kept, qubit)[:, outcome] = st._halves(state, qubit)[:, outcome]
            return kept

        monkeypatch.setattr(st, "collapse", collapse_unnormalized)
        assert main(["run", bell_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

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

    def test_override_replaces_all_of_its_instructions_noise(self, tmp_path, capsys):
        """An override on slot 0 of a CX leaves its slot 1 without noise,
        not with the global channel: the run equals a circuit JSON whose CX
        carries noise on slot 0 only."""
        qasm = tmp_path / "pair.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[1];\ncx q[0],q[1];\n")
        channel = {"kind": "dephasing", "epsilon": 0.5}
        configs = {"global": {"global": channel},
                   "override": {"global": channel,
                                "overrides": [{"instruction": 2, "slot": 0, **channel}]}}
        out = {}
        for name, doc in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            assert main(["run", str(qasm), "--repr", "density",
                         "--noise-config", str(tmp_path / f"{name}.json")]) == 0
            out[name] = capsys.readouterr().out
        circuit_json = tmp_path / "pair.json"
        circuit_json.write_text(json.dumps({
            "num_qubits": 2, "global_noise": {"0": channel},
            "instructions": [
                {"kind": "gate", "name": "H", "targets": [0]},
                {"kind": "gate", "name": "H", "targets": [1]},
                {"kind": "gate", "name": "CX", "targets": [0, 1], "noise": {"0": channel}},
            ]}))
        assert main(["run", str(circuit_json), "--repr", "density"]) == 0
        assert capsys.readouterr().out == out["override"]
        rho = {name: json.loads(text)["final_state"]["matrix"] for name, text in out.items()}
        assert rho["global"][0][2] == [0.0, 0.0]
        assert rho["override"][0][2] == pytest.approx([0.25, 0.0], abs=1e-15)

    @pytest.mark.parametrize("doc, message", NOISE_CONFIG_ERRORS,
                             ids=[f"doc{i}" for i in range(len(NOISE_CONFIG_ERRORS))])
    def test_noise_config_type_errors_exit_2(self, bell_path, tmp_path, capsys, doc, message):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps(doc))
        code = main(["run", bell_path, "--repr", "density", "--noise-config", str(noise_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid noise config: ") and err.count("\n") == 1
        assert message is None or err == f"error: invalid noise config: {message}\n"

    @pytest.mark.parametrize("name, data", [
        ("latin1.qasm", b"OPENQASM 2.0;\nqreg q[1];\nh q[0]; // \xff\n"),
        ("inf.qasm", b"OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];\n"),
        # angles whose phases a u3 matrix cannot hold: a parse error
        ("u3.qasm", b"OPENQASM 2.0;\nqreg q[1];\nu3(1,1e16,1) q[0];\n"),
        ("u2.qasm", b"OPENQASM 2.0;\nqreg q[1];\nu2(1e16,1) q[0];\n"),
        ("if_u3.qasm", b"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) u3(1,1e16,1) q[0];\n"),
        ("if_u2.qasm", b"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) u2(1e16,1) q[0];\n"),
        ("instructions.json", b'{"num_qubits": 1, "instructions": 5}'),
        ("toplevel.json", b"[1, 2]"),
        ("entry.json", b'{"num_qubits": 1, "instructions": [3]}'),
        ("slot.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                      b' "targets": [0], "noise": {"1": {"kind": "dephasing",'
                      b' "epsilon": 0.1}}}]}'),
        # fractional integer fields: refused, not truncated or a traceback
        ("num_qubits.json", b'{"num_qubits": 2.5, "instructions": []}'),
        ("num_clbits.json", b'{"num_qubits": 1, "num_clbits": 1.5, "instructions": []}'),
        ("measure_qubit.json", b'{"num_qubits": 2, "num_clbits": 1, "instructions":'
                               b' [{"kind": "measure", "qubit": 0.5, "clbit": 0}]}'),
        ("measure_clbit.json", b'{"num_qubits": 2, "num_clbits": 1, "instructions":'
                               b' [{"kind": "measure", "qubit": 0, "clbit": 0.5}]}'),
        ("target.json", b'{"num_qubits": 2, "instructions":'
                        b' [{"kind": "gate", "name": "X", "targets": [1.7]}]}'),
        ("condition.json", b'{"num_qubits": 2, "num_clbits": 1, "instructions": [{"kind":'
                           b' "gate", "name": "X", "targets": [1], "condition": [0.5, 1]}]}'),
        # noise that is not an object of slots, or a JSON true as its strength
        ("global_noise.json", b'{"num_qubits": 1, "instructions": [], "global_noise": [1]}'),
        ("noise_kind.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                            b' "targets": [0], "noise": "dephasing"}]}'),
        ("epsilon.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                         b' "targets": [0], "noise": {"0": {"kind": "dephasing",'
                         b' "epsilon": true}}}]}'),
        ("global_epsilon.json", b'{"num_qubits": 1, "instructions": [], "global_noise":'
                                b' {"0": {"kind": "dephasing", "epsilon": true}}}'),
        # an identifier where an integer or a string belongs
        ("int_size.qasm", b"OPENQASM 2.0;\nqreg q[INT];\n"),
        ("int_index.qasm", b"OPENQASM 2.0;\nqreg q[1];\nx q[INT];\n"),
        ("int_condition.qasm", b"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == INT) x q[0];\n"),
        ("string_include.qasm", b"OPENQASM 2.0;\ninclude STRING;\nqreg q[1];\n"),
        # nesting deeper than the parser or the JSON decoder recurses
        pytest.param("minus_signs.qasm",
                     b"OPENQASM 2.0;\nqreg q[1];\nrx(" + b"-" * 5000 + b"1) q[0];\n",
                     id="minus_signs.qasm"),
        pytest.param("parentheses.qasm", b"OPENQASM 2.0;\nqreg q[1];\nrx("
                     + b"(" * 3000 + b"1" + b")" * 3000 + b") q[0];\n", id="parentheses.qasm"),
        pytest.param("nested.json", b"[" * 200_000, id="nested.json"),
        ("missing_key.json", b'{"instructions": []}'),
        # an unknown kind is refused, not run as a gate
        ("reset.json", b'{"num_qubits": 1, "instructions": [{"kind": "reset", "name": "X",'
                       b' "targets": [0]}]}'),
        # JSON's reader takes Infinity and NaN; a gate refuses them
        ("infinite_angle.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate",'
                                b' "name": "RX", "params": [Infinity], "targets": [0]}]}'),
        ("nan_angle.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate",'
                           b' "name": "RX", "params": [NaN], "targets": [0]}]}'),
        # and reads an integer of any size, too large for a float
        pytest.param("huge_angle.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate",'
                     b' "name": "RX", "params": [' + b"9" * 400 + b'], "targets": [0]}]}',
                     id="huge_angle.json"),
        ("zero_qubits.json", b'{"num_qubits": 0, "instructions": []}'),
        ("negative_clbits.json", b'{"num_qubits": 1, "num_clbits": -1, "instructions": []}'),
        ("condition_value.json", b'{"num_qubits": 2, "num_clbits": 1, "instructions": [{"kind":'
                                 b' "gate", "name": "X", "targets": [1], "condition": [0, 2]}]}'),
        # a JSON true or false is not a count, a qubit, a bit or an angle
        ("bool_num_qubits.json", b'{"num_qubits": true, "instructions": []}'),
        ("bool_num_clbits.json", b'{"num_qubits": 1, "num_clbits": false, "instructions": []}'),
        ("bool_target.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "X",'
                             b' "targets": [false]}]}'),
        ("bool_condition.json", b'{"num_qubits": 2, "num_clbits": 2, "instructions": [{"kind":'
                                b' "gate", "name": "X", "targets": [1], "condition": [true, 1]}]}'),
        ("bool_measure.json", b'{"num_qubits": 1, "num_clbits": 1, "instructions":'
                              b' [{"kind": "measure", "qubit": false, "clbit": 0}]}'),
        ("bool_angle.json", b'{"num_qubits": true, "instructions": [{"kind": "gate", "name": "RX",'
                            b' "params": [true], "targets": [false]}]}'),
        ("string_angle.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "RX",'
                              b' "params": ["1.5"], "targets": [0]}]}'),
        # an entry that is not an object is named
        ("later_entry.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                             b' "targets": [0]}, [0]]}'),
        ("global_noise_entry.json", b'{"num_qubits": 1, "instructions": [], "global_noise":'
                                    b' {"0": 3}}'),
        ("noise_entry.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                             b' "targets": [0], "noise": {"0": "dephasing"}}]}'),
        # a noise slot is exactly "0" or "1", not any text that int() reads
        ("slot_spaces.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                             b' "targets": [0], "noise": {" 0 ": {"kind": "dephasing",'
                             b' "epsilon": 0.1}}}]}'),
        ("slot_plus.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "H",'
                           b' "targets": [0], "noise": {"+0": {"kind": "dephasing",'
                           b' "epsilon": 0.1}}}]}'),
        ("slot_underscore.json", b'{"num_qubits": 1, "instructions": [], "global_noise":'
                                 b' {"0_0": {"kind": "dephasing", "epsilon": 0.1}}}'),
        # a list field that is not a list is named
        ("targets_not_list.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate",'
                                  b' "name": "X", "targets": 0}]}'),
        ("params_not_list.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate",'
                                 b' "name": "RX", "params": 0.5, "targets": [0]}]}'),
        ("condition_not_list.json", b'{"num_qubits": 1, "num_clbits": 1, "instructions":'
                                    b' [{"kind": "gate", "name": "X", "targets": [0],'
                                    b' "condition": 1}]}'),
        # a key that the reader does not read is refused, not ignored
        ("misspelt_global_noise.json", b'{"num_qubits": 1, "instructions": [], "global_nosie":'
                                       b' {"0": {"kind": "dephasing", "epsilon": 0.1}}}'),
        ("misspelt_noise.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name":'
                                b' "H", "targets": [0], "nosie": {"0": {"kind": "dephasing",'
                                b' "epsilon": 0.1}}}]}'),
        ("measure_targets.json", b'{"num_qubits": 1, "num_clbits": 1, "instructions": [{"kind":'
                                 b' "measure", "qubit": 0, "clbit": 0, "targets": [0]}]}'),
        ("noise_entry_key.json", b'{"num_qubits": 1, "instructions": [], "global_noise": {"0":'
                                 b' {"kind": "dephasing", "epsilon": 0.1, "epsilom": 0.2}}}'),
        # an integer field that holds no integer is named
        ("null_num_clbits.json", b'{"num_qubits": 1, "num_clbits": null, "instructions": []}'),
        ("string_measure_qubit.json", b'{"num_qubits": 1, "num_clbits": 1, "instructions":'
                                      b' [{"kind": "measure", "qubit": "0", "clbit": 0}]}'),
        ("null_target.json", b'{"num_qubits": 1, "instructions": [{"kind": "gate", "name": "X",'
                             b' "targets": [null]}]}'),
    ])
    def test_bad_input_file_exits_1(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        if name in BAD_INPUT_MESSAGES:
            assert err == f"error: {path}: {BAD_INPUT_MESSAGES[name]}\n"

    # (qubits, arguments): 70 qubits, then registers whose byte counts have
    # more digits than Python converts to text (20,000 as a vector, 7,200 as
    # a density matrix).
    @pytest.mark.parametrize("args", [
        (width, [*engine, *repr_, *shots])
        for width, cases in [
            (70, [(["--engine", "simple"], []), (["--engine", "simple"], ["--repr", "density"]),
                  (["--engine", "depth"], []), (["--engine", "depth"], ["--repr", "density"]),
                  (["--engine", "mps"], [])]),
            (20_000, [(["--engine", e], []) for e in ("simple", "depth", "mps")]),
            (7_200, [(["--engine", e], ["--repr", "density"]) for e in ("simple", "depth")]),
        ]
        for engine, repr_ in cases
        for shots in ([], ["--shots", "2"])
    ])
    def test_register_larger_than_memory_exits_2(self, tmp_path, capsys, args):
        width, args = args
        path = tmp_path / "wide.qasm"
        path.write_text(f"OPENQASM 2.0;\nqreg q[{width}];\nh q[0];\n")
        assert main(["run", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: a {width}-qubit ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_shots_larger_than_memory_exits_2(self, bell_path, capsys, monkeypatch):
        # The check comes before the draws, or even the backend, are allocated.
        monkeypatch.setattr(engines, "_backend", None)
        assert main(["run", bell_path, "--shots", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampling 1000000000000 shots needs ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--engine", "simple"], ["--engine", "depth", "--repr", "density"],
        ["--engine", "mps"], ["--engine", "mps", "--mps-max-bond", "2"],
    ])
    def test_shots_register_checked_before_scheduling(self, tmp_path, capsys, monkeypatch,
                                                      args):
        # Scheduling allocates per qubit: a billion-qubit register must be
        # refused before it, also on a capped MPS chain.
        monkeypatch.setattr(engines, "_schedule", None)
        path = tmp_path / "huge.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1000000000];\nh q[0];\n")
        assert main(["run", str(path), "--shots", "1", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a 1000000000-qubit ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    # memory for `states` of the run's states: a run holds 3 on simple and
    # depth (a step's state and its two temporaries) and its export 2 on mps,
    # 4 for a density matrix on simple and 5 on depth
    @pytest.mark.parametrize("engine, repr_, states, code", [
        ("simple", "wave", 2.5, 2), ("simple", "wave", 3.5, 0), ("depth", "wave", 1.5, 2),
        ("mps", "wave", 1.5, 2), ("depth", "wave", 2.5, 2), ("depth", "wave", 3.5, 0),
        ("mps", "wave", 2.5, 0),
        ("simple", "density", 3.5, 2), ("simple", "density", 4.5, 0),
        ("depth", "density", 4.5, 2), ("depth", "density", 5.5, 0),
    ])
    def test_run_counts_the_states_its_export_holds(self, tmp_path, capsys, monkeypatch,
                                                    engine, repr_, states, code):
        n = 12 if repr_ == "wave" else 6  # 64 KiB either way
        path = tmp_path / "routed.qasm"
        path.write_text(f"OPENQASM 2.0;\nqreg q[{n}];\nh q[0];\ncx q[{n - 1}],q[0];\n")
        sysconf, page = os.sysconf, os.sysconf("SC_PAGE_SIZE")
        pages = int(states * (16 << 12)) // page
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
        assert main(["run", str(path), "--engine", engine, "--repr", repr_]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith(f"error: a {n}-qubit {repr_} state in ")
            assert err.count("\n") == 1
        else:
            assert err == ""

    def test_mps_shots_beyond_dense_reach(self, tmp_path, capsys):
        ghz = tmp_path / "ghz.qasm"
        ghz.write_text("OPENQASM 2.0;\nqreg q[50];\ncreg c[50];\nh q[0];\n"
                       + "".join(f"cx q[{i}],q[{i + 1}];\n" for i in range(49))
                       + "measure q -> c;\n")
        assert main(["run", str(ghz), "--engine", "mps", "--shots", "1000",
                     "--mps-max-bond", "2"]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert set(counts) <= {"0" * 50, "1" * 50}
        assert abs(counts.get("0" * 50, 0) - 500) <= 80
        assert sum(counts.values()) == 1000
        wide = tmp_path / "wide.qasm"
        wide.write_text("OPENQASM 2.0;\nqreg q[70];\ncreg c[70];\nh q[0];\ncx q[0],q[69];\n"
                        "measure q -> c;\n")
        assert main(["run", str(wide), "--engine", "mps", "--shots", "2",
                     "--mps-max-bond", "4"]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert set(counts) <= {"0" * 70, "1" + "0" * 68 + "1"}

    def test_non_utf8_noise_config_exits_1(self, bell_path, tmp_path, capsys):
        noise_path = tmp_path / "noise.json"
        noise_path.write_bytes(b'{"global": "\xff"}')
        code = main(["run", bell_path, "--repr", "density", "--noise-config", str(noise_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read noise config: ") and err.count("\n") == 1

    def test_deeply_nested_noise_config_exits_1(self, bell_path, tmp_path, capsys):
        noise_path = tmp_path / "noise.json"
        noise_path.write_bytes(b"[" * 200_000)
        code = main(["run", bell_path, "--repr", "density", "--noise-config", str(noise_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read noise config: ") and err.count("\n") == 1

    def test_runs_do_not_load_numpy_random(self, bell_path, tmp_path):
        # measurements draw in closed form, with and without --shots, on
        # every engine, so numpy.random is never imported
        script = ("import json, sys\nfrom qcsim import cli\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert cli.main(argv) == 0, argv\n"
                  "    assert 'numpy.random' not in sys.modules, argv\n")
        argvs = [["run", bell_path, "--engine", engine, "--repr", repr_, "--seed", "3",
                  "--out", str(tmp_path / "out.json"), *shots]
                 for engine, repr_ in (("simple", "wave"), ("depth", "wave"), ("mps", "wave"),
                                       ("simple", "density"), ("depth", "density"))
                 for shots in ([], ["--shots", "50"])]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()


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

    def _array(self, shape, seed):
        rng = np.random.default_rng(seed)
        array = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = array.reshape(-1)
        for i, x in enumerate(self.SPECIAL[: flat.size]):
            flat[i] = complex(x, self.SPECIAL[-1 - i])
        return array

    def _check(self, shape, seed, capsys, tmp_path):
        """Oracle bytes in memory, on stdout and in --out."""
        array = self._array(shape, seed)
        oracle = json.dumps(_report(array, _complex_pairs(array)), indent=2, sort_keys=True) + "\n"
        report = _report(array, "@state@")
        out = tmp_path / "state.json"
        assert "".join(_report_text(report, array)) == oracle
        _write_output(_report_text(report, array), None)
        assert capsys.readouterr().out == oracle
        _write_output(_report_text(report, array), str(out))
        assert out.read_text() == oracle

    @pytest.mark.parametrize("n", range(1, 13))
    def test_wave_matches_oracle(self, n, capsys, tmp_path):
        # up to 2^10 amplitudes fit one block; 11 and 12 qubits span several
        self._check(2**n, n, capsys, tmp_path)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_density_matches_oracle(self, n, capsys, tmp_path):
        # 5 qubits fill exactly one block of rows; 6 qubits span several
        self._check((2**n, 2**n), n, capsys, tmp_path)

    def test_serial_without_fork(self, monkeypatch, capsys, tmp_path):
        # the state is encoded in this process: while any fork would raise,
        # a 2^17-entry state gives the oracle bytes, and so does `qcsim run`
        # of a 17-qubit circuit
        def no_fork():
            raise AssertionError("the state encoder forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self._check(2**17, 17, capsys, tmp_path)
        out = tmp_path / "run.json"
        argv = ["run", _chain_qasm(tmp_path / "c.qasm", 17), "--engine", "mps", "--out", str(out)]
        assert main(argv) == 0
        amplitudes = json.loads(out.read_text())["final_state"]["amplitudes"]
        assert len(amplitudes) == 2**17

    @pytest.mark.parametrize("n, repr_", [(11, "wave"), (3, "density"), (6, "density")])
    def test_stdout_and_out_give_oracle_bytes(self, tmp_path, capsys, n, repr_):
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
        assert main(argv) == 0
        assert capsys.readouterr() == (oracle, "")
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == oracle

    @pytest.mark.parametrize("n, read", [(17, 10), (2, 0)])
    def test_closed_stdout_is_one_error_line(self, tmp_path, n, read):
        # `qcsim run ... | head -c 10`, and a report small enough to sit in
        # stdout's buffer until the reader has gone
        script = "import sys\nfrom qcsim import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
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

    @pytest.mark.parametrize("shape", [(1,), (4,), (1024,), (8, 128), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("indent", range(7))
    def test_block_layout_is_the_json_text(self, shape, indent):
        """The layout's text is json.dumps of the block's [re, im] pairs,
        cut out of its list and indented, with each float at an odd item."""
        nested = [0, 0]
        for size in reversed(shape):
            nested = [nested] * size
        text = json.dumps(nested, indent=2)[1:-2].replace("\n", "\n" + " " * indent)
        layout = cli._block_layout(shape, indent)
        assert layout[1::2] == [""] * (2 * int(np.prod(shape)))
        layout[1::2] = ["0"] * len(layout[1::2])
        assert "".join(layout) == text


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


@pytest.mark.parametrize("argv", [
    ["run", "bell.qasm", "--engine", "mps", "--repr", "density"],
    ["run", "bell.qasm", "--shots", "0"],
    ["random", "--qubits", "1"],
    ["bench", "--engine", "simple", "--depths", "2,x"],
    ["noise-sweep", "--epsilons", "2"],
])
def test_config_error_leaves_no_out_file(bell_path, tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    argv = [bell_path if arg == "bell.qasm" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


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

    @pytest.mark.parametrize("args, message", [
        (["--depths", "2,x"], "invalid literal for int() with base 10: 'x'"),
        (["--reps", "0"], "repetitions must be >= 1"),
    ])
    def test_bad_sweep_exits_2(self, capsys, args, message):
        assert main(["bench", "--engine", "simple", "--qubits", "3", *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
