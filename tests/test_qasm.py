import math

import numpy as np
import pytest

from qcsim.circuit import Circuit, depth, gate_app, measure, random_circuit
from qcsim import qasm
from qcsim.gates import GATE_SIGNATURES, make_gate
from qcsim.qasm import MAX_NESTING, ParseError, emit_qasm, parse_qasm

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


class TestParse:
    def test_bell_program(self):
        c = parse_qasm(BELL)
        assert c.num_qubits == 2 and c.num_clbits == 2
        kinds = [ins.kind for ins in c.instructions]
        assert kinds == ["gate", "gate", "measure", "measure"]
        assert depth(c) == 3
        assert c.instructions[1].gate.name == "CX"
        assert c.instructions[1].targets == (0, 1)

    def test_parameter_expression(self):
        c = parse_qasm(
            'OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\nrx(-pi) q[0];\n'
            'ry(2*pi - pi/4) q[0];\n'
        )
        assert c.instructions[0].gate.params == (math.pi / 2,)
        assert c.instructions[1].gate.params == (-math.pi,)
        assert c.instructions[2].gate.params == (2 * math.pi - math.pi / 4,)

    @pytest.mark.parametrize("expr, value", [
        ("1-2-3", -4.0), ("8/2/2", 2.0), ("2+3*4", 14.0), ("2*3+4", 10.0), ("-2*3", -6.0),
        ("-(1+2)*3", -9.0), ("pi/2/2", math.pi / 4), ("1-2*3/4+5", 1 - 2 * 3 / 4 + 5),
    ])
    def test_expression_values(self, expr, value):
        """`+ -` and `* /` are each left-associative, and `* /` binds tighter."""
        c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];\n")
        assert c.instructions[0].gate.params == (value,)

    def test_conditional_gate(self):
        source = (
            'OPENQASM 2.0;\nqreg q[3];\ncreg c[1];\n'
            'h q[0];\nmeasure q[0] -> c[0];\nif (c == 1) x q[2];\n'
        )
        c = parse_qasm(source)
        conditional = c.instructions[-1]
        assert conditional.gate.name == "X"
        assert conditional.targets == (2,)
        assert conditional.condition == (0, 1)

    def test_multiple_registers_flattened(self):
        source = (
            'OPENQASM 2.0;\nqreg a[2];\nqreg b[1];\ncreg m[1];\n'
            'x b[0];\nmeasure b[0] -> m[0];\n'
        )
        c = parse_qasm(source)
        assert c.num_qubits == 3
        assert c.instructions[0].targets == (2,)  # b[0] follows a[0..1]

    def test_whole_register_gate_broadcast(self):
        c = parse_qasm('OPENQASM 2.0;\nqreg q[3];\nh q;\n')
        assert [ins.targets for ins in c.instructions] == [(0,), (1,), (2,)]

    def test_u_gates_lowered(self):
        c = parse_qasm(
            'OPENQASM 2.0;\nqreg q[1];\nu1(pi/4) q[0];\nu2(0,pi) q[0];\n'
            'u3(pi/2,0,pi) q[0];\n'
        )
        assert all(ins.gate.name == "U3" for ins in c.instructions)
        # u1(t) acts as a phase gate up to global phase
        u1 = c.instructions[0].gate.matrix
        assert abs(u1[1, 1] / u1[0, 0] - np.exp(1j * np.pi / 4)) < 1e-12

    def test_barrier_ignored(self):
        c = parse_qasm('OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbarrier q;\nh q[1];\n')
        assert len(c.instructions) == 2

    def test_comments_skipped(self):
        c = parse_qasm('OPENQASM 2.0; // header\nqreg q[1]; // one qubit\nx q[0];\n')
        assert len(c.instructions) == 1


class TestParseErrors:
    def check(self, source, kind=None):
        with pytest.raises(ParseError) as exc_info:
            parse_qasm(source)
        err = exc_info.value
        lines = source.split("\n")
        assert 1 <= err.line <= len(lines)
        assert err.column >= 1
        if kind is not None:
            assert err.kind == kind
        return err

    def test_wrong_version(self):
        self.check('OPENQASM 3.0;\nqreg q[1];\n', "Semantic")

    def test_missing_header(self):
        self.check('qreg q[1];\n', "Syntax")

    def test_unknown_gate(self):
        self.check('OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n', "Semantic")

    def test_gate_definition_rejected(self):
        self.check('OPENQASM 2.0;\nqreg q[1];\ngate foo a { x a; }\n', "Semantic")

    def test_opaque_rejected(self):
        self.check('OPENQASM 2.0;\nqreg q[1];\nopaque foo a;\n', "Semantic")

    def test_multi_bit_if_rejected(self):
        self.check(
            'OPENQASM 2.0;\nqreg q[1];\ncreg c[2];\nif (c == 2) x q[0];\n',
            "Semantic",
        )

    def test_undeclared_register(self):
        self.check('OPENQASM 2.0;\nqreg q[1];\nx r[0];\n', "Semantic")

    def test_index_out_of_range(self):
        self.check('OPENQASM 2.0;\nqreg q[2];\nx q[2];\n', "Semantic")

    def test_lex_error_with_position(self):
        err = self.check('OPENQASM 2.0;\nqreg q[1];\nx q[0] $;\n', "Lex")
        assert err.line == 3

    def test_duplicate_register(self):
        self.check('OPENQASM 2.0;\nqreg q[1];\ncreg q[1];\n', "Semantic")

    @pytest.mark.parametrize("expr", ["1e999", "-1e999", "1e999-1e999", "1e308*10"])
    def test_non_finite_parameter(self, expr):
        err = self.check(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];\n", "Semantic")
        assert (err.line, err.column) == (3, 4)

    @pytest.mark.parametrize("statement", [
        "u3(1,1e16,1) q[0];", "u2(1e16,1) q[0];",
        "if (c == 1) u3(1,1e16,1) q[0];", "if (c == 1) u2(1e16,1) q[0];",
    ])
    def test_angles_too_large_for_a_unitary(self, statement):
        err = self.check(f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{statement}\n", "Semantic")
        assert (err.line, err.column) == (4, statement.index("u") + 1)
        assert err.message == "gate U3: matrix is not unitary"

    @pytest.mark.parametrize(
        "garbage",
        ["", "OPENQASM", "OPENQASM 2.0;", "OPENQASM 2.0; qreg q[1]; x", "((((", "\x00"],
    )
    def test_total_on_malformed_input(self, garbage):
        with pytest.raises(ParseError):
            parse_qasm(garbage)

    @pytest.mark.parametrize("opening, closing", [("-", ""), ("(", ")"), ("-(", ")")])
    def test_nesting_up_to_the_bound_parses(self, opening, closing):
        levels = MAX_NESTING // len(opening)
        expr = opening * levels + "0.5" + closing * levels
        c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];\n")
        assert c.instructions[0].gate.params == (0.5 * (-1) ** (levels * opening.count("-")),)

    def test_nesting_counts_open_levels_only(self):
        # closed levels are not counted: 2 * MAX_NESTING of them in one
        # expression, and again in each of MAX_NESTING gates
        expr = "+".join(["-(0.25)"] * (2 * MAX_NESTING))
        c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\n" + f"rx({expr}) q[0];\n" * MAX_NESTING)
        assert [ins.gate.params for ins in c.instructions] == [(-0.5 * MAX_NESTING,)] * MAX_NESTING

    # (source, (line, column, kind, message)); each position is 1-based and
    # counts a tab, a carriage return or a comment's characters as columns.
    @pytest.mark.parametrize("source, expected", [
        ('OPENQASM 2.0;\nqreg q[2];\nx q[0];\t$ q[1];\n',
         (3, 9, 'Lex', "unexpected character '$'")),
        ('OPENQASM 2.0;\nqreg q[2];\nx q[0]; // note\n@\n',
         (4, 1, 'Lex', "unexpected character '@'")),
        ('OPENQASM 2.0;\nqreg q[2];\nx q[0]; // note $ inside is fine\nh q[1] #;\n',
         (4, 8, 'Lex', "unexpected character '#'")),
        ('OPENQASM 2.0;\ninclude "qelib1.inc;\nqreg q[1];\n',
         (2, 9, 'Lex', 'unexpected character \'"\'')),
        ('OPENQASM 2.0;\r\nqreg q[2];\r\nx q[0];\r\ny q[5];\r\n',
         (4, 5, 'Semantic', "index 5 out of range for quantum register 'q' of size 2")),
        ('OPENQASM 2.0;\r\nqreg q[2];\r\n\t& q[0];\r\n',
         (3, 2, 'Lex', "unexpected character '&'")),
        ('OPENQASM 2.0;\nqreg q[2];\nx -> q[0];\n',
         (3, 3, 'Syntax', "expected an identifier, found '->'")),
        ('OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] == c[0];\n',
         (4, 14, 'Syntax', "expected '->', found '=='")),
        ('OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nif (c -> 1) x q[0];\n',
         (4, 7, 'Syntax', "expected '==', found '->'")),
        ('OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n',
         (4, 1, 'Syntax', "expected an identifier, found 'end of input'")),
        ('OPENQASM 2.0;\nqreg q[2];\nrx(pi/2',
         (3, 8, 'Syntax', "expected ')', found 'end of input'")),
        ('OPENQASM 2.0;\nqreg q[2];\nx q[0]',
         (3, 7, 'Syntax', "expected ';', found 'end of input'")),
        ('OPENQASM 2.0;\nqreg q[2];\nx q[0] q[1];\n!\n',
         (4, 1, 'Lex', "unexpected character '!'")),
        ('',
         (1, 1, 'Syntax', "expected 'OPENQASM', found 'end of input'")),
        ('OPENQASM 2.0;\n',
         (2, 1, 'Semantic', 'program declares no qubits')),
        ('OPENQASM 2.0;\ncreg c[1];\n// only a comment',
         (3, 18, 'Semantic', 'program declares no qubits')),
        ('  \n\n   ',
         (3, 4, 'Syntax', "expected 'OPENQASM', found 'end of input'")),
        ('OPENQASM 2.0;\nqreg q[2];\nrx(1 +) q[0];\n',
         (3, 7, 'Syntax', "expected a parameter expression, found ')'")),
        ('OPENQASM 2.0;\nqreg q[2];\nx q[0];\n  barrier q\n',
         (5, 1, 'Syntax', 'unterminated barrier statement')),
        ('OPENQASM 2.0;\nqreg q[2];\nmeasure q[0] -> ;\n',
         (3, 17, 'Syntax', "expected an identifier, found ';'")),
        ('OPENQASM 2.0;\nqreg q[1];\nu3(1,2 q[0];\n',
         (3, 8, 'Syntax', "expected ')', found identifier 'q'")),
        ('OPENQASM 2.0;\nqreg q[1];\nrx(1.5e) q[0];\n',
         (3, 7, 'Syntax', "expected ')', found identifier 'e'")),
        ('OPENQASM 2.0;\nqreg q[1];\nx q[0]; /* block */\n',
         (3, 9, 'Syntax', "unexpected '/'")),
        # a value kind is matched by kind, not by an identifier that spells it
        ('OPENQASM 2.0;\nqreg q[INT];\n',
         (2, 8, 'Syntax', "expected an integer, found identifier 'INT'")),
        ('OPENQASM 2.0;\nqreg q[1];\nx q[INT];\n',
         (3, 5, 'Syntax', "expected an integer, found identifier 'INT'")),
        ('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == INT) x q[0];\n',
         (4, 10, 'Syntax', "expected an integer, found identifier 'INT'")),
        ('OPENQASM 2.0;\ninclude STRING;\nqreg q[1];\n',
         (2, 9, 'Syntax', "expected a string, found identifier 'STRING'")),
        # a value found where another kind is expected is named by its kind
        ('OPENQASM 2.0;\nqreg 5[2];\n',
         (2, 6, 'Syntax', "expected an identifier, found integer '5'")),
        ('OPENQASM 2.0;\nqreg q[1.5];\n',
         (2, 8, 'Syntax', "expected an integer, found real number '1.5'")),
        ('OPENQASM 2.0;\nqreg q[1];\nrx(',
         (3, 4, 'Syntax', "expected a parameter expression, found 'end of input'")),
        # semantic errors, each at the token that shows it
        ('OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n',
         (2, 9, 'Semantic', 'unsupported include "other.inc"')),
        ('OPENQASM 2.0;\nqreg q[0];\n',
         (2, 8, 'Semantic', 'register size must be >= 1')),
        ('OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c[0];\n',
         (4, 18, 'Semantic', 'measure mixes whole-register and indexed operands')),
        ('OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q -> c;\n',
         (4, 15, 'Semantic', 'register sizes differ in whole-register measure')),
        ('OPENQASM 2.0;\nqreg q[1];\nif (c == 1) x q[0];\n',
         (3, 5, 'Semantic', "undeclared classical register 'c'")),
        ('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) measure q[0] -> c[0];\n',
         (4, 13, 'Semantic', 'only gate applications can be conditioned')),
        ('OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n',
         (3, 8, 'Semantic', "gate 'cx' expects 2 operand(s), got 1")),
        ('OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a,b;\n',
         (4, 7, 'Semantic', 'broadcast registers must have equal sizes')),
        ('OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n',
         (3, 13, 'Semantic', 'gate operands must be distinct qubits')),
        ('OPENQASM 2.0;\nqreg q[1];\nrx(pi/(1-1)) q[0];\n',
         (3, 12, 'Semantic', 'division by zero in parameter expression')),
        # one level past MAX_NESTING, at the token that opens it
        pytest.param('OPENQASM 2.0;\nqreg q[1];\nrx(' + '-' * 101 + '1) q[0];\n',
                     (3, 104, 'Syntax', 'parameter expression nested deeper than 100 levels'),
                     id="101-minus-signs"),
        pytest.param('OPENQASM 2.0;\nqreg q[1];\nrx(' + '(' * 101 + '1' + ')' * 101 + ') q[0];\n',
                     (3, 104, 'Syntax', 'parameter expression nested deeper than 100 levels'),
                     id="101-parentheses"),
        pytest.param('OPENQASM 2.0;\nqreg q[1];\nrx(' + '-(' * 50 + '-1' + ')' * 50 + ') q[0];\n',
                     (3, 104, 'Syntax', 'parameter expression nested deeper than 100 levels'),
                     id="101-levels-mixed"),
        # a register of the other kind is undeclared where its kind is needed
        ('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx c[0];\n',
         (4, 3, 'Semantic', "undeclared quantum register 'c'")),
        ('OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> q[0];\n',
         (3, 17, 'Semantic', "undeclared classical register 'q'")),
        ('OPENQASM 2.0;\nqreg q[1];\nif (q == 1) x q[0];\n',
         (3, 5, 'Semantic', "undeclared classical register 'q'")),
        # one name space for both kinds of register
        ('OPENQASM 2.0;\nqreg q[1];\ncreg q[1];\n',
         (3, 6, 'Semantic', "register 'q' already declared")),
        ('OPENQASM 2.0;\ncreg c[1];\nqreg c[1];\n',
         (3, 6, 'Semantic', "register 'c' already declared")),
        ('OPENQASM 2.0;\nqreg q[1];\ngate foo a { x a; }\n',
         (3, 1, 'Semantic', 'gate definitions are not supported')),
        ('OPENQASM 3.0;\nqreg q[1];\n',
         (1, 10, 'Semantic', "unsupported OpenQASM version '3.0'")),
        # no statement keyword can be conditioned
        *[pytest.param(f'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) {keyword} r[1];\n',
                       (4, 13, 'Semantic', 'only gate applications can be conditioned'),
                       id=f"conditioned-{keyword}")
          for keyword in ("include", "qreg", "creg", "barrier", "measure", "if", "gate",
                          "opaque")],
    ])
    def test_error_positions_are_pinned(self, source, expected):
        err = self.check(source)
        assert (err.line, err.column, err.kind, err.message) == expected
        assert str(err) == f"{err.line}:{err.column}: {err.kind} error: {err.message}"


class TestEmit:
    def test_bell_text(self):
        c = Circuit(2, 0, [gate_app(make_gate("H"), (0,)),
                           gate_app(make_gate("CX"), (0, 1))])
        text = emit_qasm(c)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text

    def test_empty_circuit(self):
        text = emit_qasm(Circuit(3))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'

    def test_conditions_and_measures_round_trip(self):
        c = Circuit(2, 2, [
            gate_app(make_gate("H"), (0,)),
            measure(0, 0),
            gate_app(make_gate("X"), (1,), condition=(0, 1)),
            measure(1, 1),
        ])
        restored = parse_qasm(emit_qasm(c))
        assert restored.num_clbits == 2
        assert restored.instructions[2].condition == (0, 1)
        assert restored.instructions[3].qubit == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_circuits_round_trip(self, seed):
        c = random_circuit(4, 6, seed)
        restored = parse_qasm(emit_qasm(c))
        assert restored.num_qubits == c.num_qubits
        assert len(restored.instructions) == len(c.instructions)
        for a, b in zip(c.instructions, restored.instructions):
            assert a.gate.name == b.gate.name
            assert a.gate.params == b.gate.params
            assert a.targets == b.targets


class TestGateTable:
    SPELLINGS = {"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz",
                 "u1", "u2", "u3", "cx", "cz", "swap"}

    @pytest.mark.parametrize("name", sorted(GATE_SIGNATURES))
    def test_library_gate_emits_under_its_qasm_name_and_parses_back(self, name):
        arity, nparams = GATE_SIGNATURES[name]
        gate = make_gate(name, [0.25 * (k + 1) for k in range(nparams)])
        targets = (2, 0)[:arity]
        text = emit_qasm(Circuit(3, 0, [gate_app(gate, targets)]))
        spelling = "id" if name == "I" else name.lower()
        params = "(" + ",".join(map(repr, gate.params)) + ")" if nparams else ""
        assert text.splitlines()[-1] == f"{spelling}{params} " + ",".join(
            f"q[{t}]" for t in targets) + ";"
        [ins] = parse_qasm(text).instructions
        assert (ins.gate.name, ins.gate.params, ins.targets) == (name, gate.params, targets)

    def test_u1_and_u2_lower_to_u3(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nu1(0.5) q[0];\nu2(0.25,0.75) q[0];\n")
        assert [(ins.gate.name, ins.gate.params) for ins in c.instructions] == [
            ("U3", (0.0, 0.0, 0.5)), ("U3", (math.pi / 2, 0.25, 0.75))]
        for spelling, wrong in (("u1", "(1,2)"), ("u2", "(1)")):
            with pytest.raises(ParseError, match=f"gate '{spelling}' takes"):
                parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\n{spelling}{wrong} q[0];\n")

    @pytest.mark.parametrize("spelling", ["i", "u", "U3", "X", "cnot"])
    def test_other_spellings_are_unsupported(self, spelling):
        with pytest.raises(ParseError, match=f"unsupported gate '{spelling}'"):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\n{spelling} q[0];\n")

    def test_spellings_are_pinned(self):
        assert set(qasm._QASM_GATES) == self.SPELLINGS
