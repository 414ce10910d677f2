"""OpenQASM 2.0 front-end: a parser for the supported subset and an emitter.

Supported programs: the `OPENQASM 2.0;` header, `include "qelib1.inc";`,
`qreg`/`creg` declarations (multiple registers are flattened into one index
space in declaration order), applications of the standard gate names
(including u1/u2/u3 lowered to U3), single and whole-register `measure`,
`if (c == k)` conditions on 1-bit classical registers, and `barrier`
(parsed and ignored). Gate parameters accept real literals, `pi`, the four
arithmetic operators, unary minus, and parentheses.

Anything else raises ParseError with a line:column position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import Circuit, Instruction, gate_app, measure
from .gates import make_gate

LEX = "Lex"
SYNTAX = "Syntax"
SEMANTIC = "Semantic"


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, kind: str = SYNTAX):
        super().__init__(f"{line}:{column}: {kind} error: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<NL>\n)
  | (?P<LINECOMMENT>//[^\n]*)
  | (?P<REAL>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<INT>\d+)
  | (?P<ID>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<ARROW>->)
  | (?P<EQ>==)
  | (?P<SYM>[;,()\[\]{}+\-*/])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {source[pos]!r}", LEX)
        kind = m.lastgroup
        text = m.group()
        if kind == "NL":
            line += 1
            col = 1
        elif kind in ("WS", "LINECOMMENT"):
            col += len(text)
        else:
            tokens.append(Token("SYM" if kind in ("ARROW", "EQ") else kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


# QASM name -> (package gate name, parameter count); u1/u2 are lowered below.
_QASM_GATES = {
    "id": ("I", 0),
    "x": ("X", 0),
    "y": ("Y", 0),
    "z": ("Z", 0),
    "h": ("H", 0),
    "s": ("S", 0),
    "sdg": ("Sdg", 0),
    "t": ("T", 0),
    "tdg": ("Tdg", 0),
    "rx": ("RX", 1),
    "ry": ("RY", 1),
    "rz": ("RZ", 1),
    "u3": ("U3", 3),
    "u1": ("U3", 1),
    "u2": ("U3", 2),
    "cx": ("CX", 0),
    "cz": ("CZ", 0),
    "swap": ("SWAP", 0),
}


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        self.instructions: list[Instruction] = []

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def expect(self, value_or_type: str) -> Token:
        tok = self.peek()
        if tok.value == value_or_type or tok.type == value_or_type:
            return self.next()
        raise ParseError(
            tok.line, tok.column,
            f"expected {value_or_type!r}, found {tok.value or 'end of input'!r}",
        )

    def error(self, message: str, kind: str = SYNTAX, token: Token | None = None):
        tok = token or self.peek()
        raise ParseError(tok.line, tok.column, message, kind)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Circuit:
        self.expect("OPENQASM")
        version = self.peek()
        if version.value != "2.0":
            self.error(f"unsupported OpenQASM version {version.value!r}", SEMANTIC)
        self.next()
        self.expect(";")
        while self.peek().type != "EOF":
            self.statement()
        if self.num_qubits == 0:
            tok = self.tokens[-1]
            raise ParseError(tok.line, tok.column, "program declares no qubits", SEMANTIC)
        return Circuit(self.num_qubits, self.num_clbits, tuple(self.instructions))

    def statement(self):
        tok = self.peek()
        if tok.value == "include":
            self.next()
            name = self.expect("STRING")
            if name.value != '"qelib1.inc"':
                self.error(f"unsupported include {name.value}", SEMANTIC, name)
            self.expect(";")
        elif tok.value == "qreg":
            self.declare_register(self.qregs, quantum=True)
        elif tok.value == "creg":
            self.declare_register(self.cregs, quantum=False)
        elif tok.value == "barrier":
            self.next()
            while self.peek().value != ";":
                if self.peek().type == "EOF":
                    self.error("unterminated barrier statement")
                self.next()
            self.expect(";")
        elif tok.value == "measure":
            self.measure_statement()
        elif tok.value == "if":
            self.if_statement()
        elif tok.value in ("gate", "opaque"):
            self.error(f"{tok.value} definitions are not supported", SEMANTIC)
        elif tok.type == "ID":
            self.gate_statement(condition=None)
        else:
            self.error(f"unexpected {tok.value!r}")

    def declare_register(self, table, quantum: bool):
        self.next()
        name = self.expect("ID")
        if name.value in self.qregs or name.value in self.cregs:
            self.error(f"register {name.value!r} already declared", SEMANTIC, name)
        self.expect("[")
        size_tok = self.expect("INT")
        size = int(size_tok.value)
        if size < 1:
            self.error("register size must be >= 1", SEMANTIC, size_tok)
        self.expect("]")
        self.expect(";")
        if quantum:
            table[name.value] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            table[name.value] = (self.num_clbits, size)
            self.num_clbits += size

    def argument(self, table, what: str):
        """Parse `name` or `name[i]`; return (offset, size, index or None)."""
        name = self.expect("ID")
        if name.value not in table:
            self.error(f"undeclared {what} register {name.value!r}", SEMANTIC, name)
        offset, size = table[name.value]
        if self.peek().value == "[":
            self.next()
            idx_tok = self.expect("INT")
            idx = int(idx_tok.value)
            if idx >= size:
                self.error(
                    f"index {idx} out of range for {what} register "
                    f"{name.value!r} of size {size}", SEMANTIC, idx_tok,
                )
            self.expect("]")
            return offset, size, idx
        return offset, size, None

    def measure_statement(self):
        self.next()
        q_off, q_size, q_idx = self.argument(self.qregs, "quantum")
        self.expect("->")
        c_off, c_size, c_idx = self.argument(self.cregs, "classical")
        tok = self.expect(";")
        if (q_idx is None) != (c_idx is None):
            self.error("measure mixes whole-register and indexed operands",
                       SEMANTIC, tok)
        if q_idx is not None:
            self.instructions.append(measure(q_off + q_idx, c_off + c_idx))
        else:
            if q_size != c_size:
                self.error("register sizes differ in whole-register measure",
                           SEMANTIC, tok)
            for i in range(q_size):
                self.instructions.append(measure(q_off + i, c_off + i))

    def if_statement(self):
        self.next()
        self.expect("(")
        name = self.expect("ID")
        if name.value not in self.cregs:
            self.error(f"undeclared classical register {name.value!r}", SEMANTIC, name)
        offset, size = self.cregs[name.value]
        self.expect("==")
        value_tok = self.expect("INT")
        value = int(value_tok.value)
        self.expect(")")
        if size != 1 or value not in (0, 1):
            self.error(
                "only comparisons of a 1-bit register against 0 or 1 are supported",
                SEMANTIC, value_tok,
            )
        tok = self.peek()
        if tok.value in ("measure", "if", "barrier") or tok.type != "ID":
            self.error("only gate applications can be conditioned", SEMANTIC, tok)
        self.gate_statement(condition=(offset, value))

    def gate_statement(self, condition):
        name = self.next()
        if name.value not in _QASM_GATES:
            self.error(f"unsupported gate {name.value!r}", SEMANTIC, name)
        gate_name, nparams = _QASM_GATES[name.value]
        params = []
        if self.peek().value == "(":
            self.next()
            while True:
                start = self.peek()
                params.append(self.expression())
                if not math.isfinite(params[-1]):
                    self.error("parameter is not a finite number", SEMANTIC, start)
                if self.peek().value == ",":
                    self.next()
                    continue
                break
            self.expect(")")
        if len(params) != nparams:
            self.error(
                f"gate {name.value!r} takes {nparams} parameter(s), got {len(params)}",
                SEMANTIC, name,
            )
        if name.value == "u1":
            params = [0.0, 0.0, params[0]]
        elif name.value == "u2":
            params = [math.pi / 2, params[0], params[1]]
        gate = make_gate(gate_name, params)
        args = [self.argument(self.qregs, "quantum")]
        while self.peek().value == ",":
            self.next()
            args.append(self.argument(self.qregs, "quantum"))
        end = self.expect(";")
        if len(args) != gate.arity:
            self.error(
                f"gate {name.value!r} expects {gate.arity} operand(s), got {len(args)}",
                SEMANTIC, end,
            )
        broadcast_sizes = {size for off, size, idx in args if idx is None}
        if len(broadcast_sizes) > 1:
            self.error("broadcast registers must have equal sizes", SEMANTIC, end)
        reps = broadcast_sizes.pop() if broadcast_sizes else 1
        for i in range(reps):
            targets = [
                off + (idx if idx is not None else i) for off, size, idx in args
            ]
            if len(set(targets)) != len(targets):
                self.error("gate operands must be distinct qubits", SEMANTIC, end)
            self.instructions.append(gate_app(gate, targets, condition=condition))

    # -- parameter expressions ---------------------------------------------

    def expression(self) -> float:
        value = self.term()
        while self.peek().value in ("+", "-"):
            op = self.next().value
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.unary()
        while self.peek().value in ("*", "/"):
            op = self.next().value
            rhs = self.unary()
            if op == "/":
                if rhs == 0:
                    self.error("division by zero in parameter expression", SEMANTIC)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def unary(self) -> float:
        if self.peek().value == "-":
            self.next()
            return -self.unary()
        tok = self.peek()
        if tok.value == "(":
            self.next()
            value = self.expression()
            self.expect(")")
            return value
        if tok.type in ("REAL", "INT"):
            self.next()
            return float(tok.value)
        if tok.value == "pi":
            self.next()
            return math.pi
        self.error(f"expected a parameter expression, found {tok.value!r}")


def parse_qasm(source: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a Circuit; raises ParseError on failure."""
    return _Parser(source).parse()


# name mapping for emission; U3 stays u3 (u1/u2 are already lowered on parse)
_EMIT_NAMES = {gate: name for name, (gate, _) in _QASM_GATES.items() if name not in ("u1", "u2")}


def emit_qasm(circuit: Circuit) -> str:
    """Render a circuit as OpenQASM 2.0 text.

    Each classical bit is emitted as its own 1-bit register so per-bit
    conditions stay expressible; noise attachments are not expressible in
    QASM and are omitted (they live in the sidecar noise config).
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";',
             f"qreg q[{circuit.num_qubits}];"]
    for c in range(circuit.num_clbits):
        lines.append(f"creg c{c}[1];")
    for ins in circuit.instructions:
        if ins.kind == "measure":
            lines.append(f"measure q[{ins.qubit}] -> c{ins.classical_bit}[0];")
            continue
        name = _EMIT_NAMES[ins.gate.name]
        params = ""
        if ins.gate.params:
            params = "(" + ",".join(repr(p) for p in ins.gate.params) + ")"
        targets = ",".join(f"q[{t}]" for t in ins.targets)
        prefix = ""
        if ins.condition is not None:
            bit, value = ins.condition
            prefix = f"if (c{bit} == {value}) "
        lines.append(f"{prefix}{name}{params} {targets};")
    return "\n".join(lines) + "\n"
