"""OpenQASM 2.0 front-end: a parser for the supported subset and an emitter.

Supported programs: the `OPENQASM 2.0;` header, `include "qelib1.inc";`,
`qreg`/`creg` declarations (multiple registers are flattened into one index
space in declaration order), applications of the standard gate names
(including u1/u2/u3 lowered to U3), single and whole-register `measure`,
`if (c == k)` conditions on 1-bit classical registers, and `barrier`
(parsed and ignored). Gate parameters accept real literals, `pi`, the four
arithmetic operators, unary minus, and parentheses, nested at most
MAX_NESTING levels deep.

Anything else raises ParseError with a line:column position. The lexer
makes one regex pass into (kind, text, offset) tuples; a position's line
and column are computed from its offset only when an error is raised.

The parser keeps one register table, name -> (keyword, offset, size),
for `qreg` and `creg` alike: a name is declared once across both kinds,
each kind's registers take consecutive offsets in its own index space,
and one lookup (`_Parser.register`) refuses a name that its keyword did
not declare, so a classical register used as a gate operand is an
undeclared quantum register. Each grammar rule is written once: one
comma-list helper reads gate parameters and operands, and one
precedence loop reads `+ -` and `* /`.
"""

from __future__ import annotations

import math
import operator
import re

from .circuit import MEASURE, Circuit, Instruction, gate_app, measure
from .gates import GATE_SIGNATURES, make_gate

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


# Tokens are (kind, text, offset) tuples, offset into the source; SKIP
# (whitespace, comments) is dropped and BAD is an unexpected character.
_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>[ \t\r\n]+|//[^\n]*)
  | (?P<REAL>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<INT>\d+)
  | (?P<ID>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<SYM>->|==|[;,()\[\]{}+\-*/])
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


# expect() matches these token kinds by kind, and anything else by text;
# errors name them as below
_VALUE_KINDS = {"ID": "an identifier", "INT": "an integer", "REAL": "a real number",
                "STRING": "a string"}
# each register keyword, as errors name the kind of register it declares
_REGISTER_KINDS = {"qreg": "quantum", "creg": "classical"}
# the words that open a statement other than a gate application; none can
# be conditioned
_STATEMENT_KEYWORDS = ("include", "qreg", "creg", "barrier", "measure", "if", "gate", "opaque")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# levels of unary minus and parentheses allowed in one parameter expression
MAX_NESTING = 100

# QASM name -> (package gate name, parameter count, leading angles fixed
# by the name): each library gate by its lower-case name, and `id` for I,
# which is also the name it is emitted under; u1(l) and u2(p, l) are
# QASM-only spellings of U3(0, 0, l) and U3(pi/2, p, l).
_QASM_GATES = {("id" if gate == "I" else gate.lower()): (gate, nparams, ())
               for gate, (_, nparams) in GATE_SIGNATURES.items()}
_EMIT_NAMES = {gate: name for name, (gate, *_) in _QASM_GATES.items()}
_QASM_GATES.update(u1=("U3", 1, (0.0, 0.0)), u2=("U3", 2, (math.pi / 2,)))


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = [(m.lastgroup, m.group(), m.start())
                       for m in _TOKEN_RE.finditer(source) if m.lastgroup != "SKIP"]
        self.tokens.append(("EOF", "", len(source)))
        self.pos = 0
        # name -> (keyword, offset, size) for both register kinds; width is
        # each kind's index space so far, its next register's offset
        self.registers: dict[str, tuple[str, int, int]] = {}
        self.width = {"qreg": 0, "creg": 0}
        self.instructions: list[Instruction] = []
        self.nesting = 0  # open levels of the parameter expression being parsed
        # an unexpected character is reported before any syntax error
        for tok in self.tokens:
            if tok[0] == "BAD":
                self.error(f"unexpected character {tok[1]!r}", LEX, tok)

    # -- token helpers -----------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, text_or_kind: str) -> tuple:
        """Consume the next token if its kind is `text_or_kind`, for a value
        kind, or else its text is; raise a ParseError if not."""
        tok = self.tokens[self.pos]
        if (tok[0] if text_or_kind in _VALUE_KINDS else tok[1]) == text_or_kind:
            self.pos += 1  # never past EOF, whose text is empty and kind not a value
            return tok
        expected = _VALUE_KINDS.get(text_or_kind, repr(text_or_kind))
        self.error(f"expected {expected}, found {self.found()}")

    def found(self) -> str:
        """The next token, as an error names it: a value by its kind and text."""
        kind, text, _ = self.peek()
        if kind in _VALUE_KINDS:
            return f"{_VALUE_KINDS[kind].split(' ', 1)[1]} {text!r}"
        return repr(text or "end of input")

    def error(self, message: str, kind: str = SYNTAX, token: tuple | None = None):
        """Raise a ParseError at the token (default: the next one); its line
        and column are counted from the source only here."""
        offset = (token or self.peek())[2]
        line = self.source.count("\n", 0, offset) + 1
        raise ParseError(line, offset - self.source.rfind("\n", 0, offset), message, kind)

    def comma_list(self, item) -> list:
        """Parse `item` one or more times, separated by commas."""
        items = [item()]
        while self.peek()[1] == ",":
            self.next()
            items.append(item())
        return items

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Circuit:
        self.expect("OPENQASM")
        version = self.next()
        if version[1] != "2.0":
            self.error(f"unsupported OpenQASM version {version[1]!r}", SEMANTIC, version)
        self.expect(";")
        while self.peek()[0] != "EOF":
            self.statement()
        if self.width["qreg"] == 0:
            self.error("program declares no qubits", SEMANTIC)
        return Circuit(self.width["qreg"], self.width["creg"], tuple(self.instructions))

    def statement(self):
        tok = self.next()
        kind, text, _ = tok
        if text == "include":
            name = self.expect("STRING")
            if name[1] != '"qelib1.inc"':
                self.error(f"unsupported include {name[1]}", SEMANTIC, name)
            self.expect(";")
        elif text in _REGISTER_KINDS:
            self.declare_register(text)
        elif text == "barrier":
            while (tok := self.next())[1] != ";":
                if tok[0] == "EOF":
                    self.error("unterminated barrier statement", SYNTAX, tok)
        elif text == "measure":
            self.measure_statement()
        elif text == "if":
            self.if_statement()
        elif text in ("gate", "opaque"):
            self.error(f"{text} definitions are not supported", SEMANTIC, tok)
        elif kind == "ID":
            self.gate_statement(tok, condition=None)
        else:
            self.error(f"unexpected {text!r}", SYNTAX, tok)

    def declare_register(self, keyword: str):
        name = self.expect("ID")
        if name[1] in self.registers:
            self.error(f"register {name[1]!r} already declared", SEMANTIC, name)
        self.expect("[")
        size_tok = self.expect("INT")
        size = int(size_tok[1])
        if size < 1:
            self.error("register size must be >= 1", SEMANTIC, size_tok)
        self.expect("]")
        self.expect(";")
        self.registers[name[1]] = (keyword, self.width[keyword], size)
        self.width[keyword] += size

    def register(self, keyword: str) -> tuple:
        """Parse the name of a register that `keyword` declared; return
        (name token, offset, size)."""
        name = self.expect("ID")
        entry = self.registers.get(name[1])
        if entry is None or entry[0] != keyword:
            self.error(f"undeclared {_REGISTER_KINDS[keyword]} register {name[1]!r}",
                       SEMANTIC, name)
        return name, entry[1], entry[2]

    def argument(self, keyword: str = "qreg") -> tuple:
        """Parse `name` or `name[i]`; return (offset, size, index or None)."""
        name, offset, size = self.register(keyword)
        if self.peek()[1] != "[":
            return offset, size, None
        self.next()
        idx_tok = self.expect("INT")
        idx = int(idx_tok[1])
        if idx >= size:
            self.error(
                f"index {idx} out of range for {_REGISTER_KINDS[keyword]} register "
                f"{name[1]!r} of size {size}", SEMANTIC, idx_tok,
            )
        self.expect("]")
        return offset, size, idx

    def measure_statement(self):
        q_off, q_size, q_idx = self.argument("qreg")
        self.expect("->")
        c_off, c_size, c_idx = self.argument("creg")
        tok = self.expect(";")
        if (q_idx is None) != (c_idx is None):
            self.error("measure mixes whole-register and indexed operands", SEMANTIC, tok)
        if q_idx is None and q_size != c_size:
            self.error("register sizes differ in whole-register measure", SEMANTIC, tok)
        pairs = zip(range(q_size) if q_idx is None else (q_idx,),
                    range(c_size) if c_idx is None else (c_idx,))
        self.instructions += [measure(q_off + q, c_off + c) for q, c in pairs]

    def if_statement(self):
        self.expect("(")
        _, offset, size = self.register("creg")
        self.expect("==")
        value_tok = self.expect("INT")
        value = int(value_tok[1])
        self.expect(")")
        if size != 1 or value not in (0, 1):
            self.error("only comparisons of a 1-bit register against 0 or 1 are supported",
                       SEMANTIC, value_tok)
        tok = self.peek()
        if tok[1] in _STATEMENT_KEYWORDS or tok[0] != "ID":
            self.error("only gate applications can be conditioned", SEMANTIC, tok)
        self.gate_statement(self.next(), condition=(offset, value))

    def gate_statement(self, name: tuple, condition):
        if name[1] not in _QASM_GATES:
            self.error(f"unsupported gate {name[1]!r}", SEMANTIC, name)
        gate_name, nparams, fixed = _QASM_GATES[name[1]]
        params = []
        if self.peek()[1] == "(":
            self.next()
            params = self.comma_list(self.parameter)
            self.expect(")")
        if len(params) != nparams:
            self.error(f"gate {name[1]!r} takes {nparams} parameter(s), got {len(params)}",
                       SEMANTIC, name)
        try:
            gate = make_gate(gate_name, [*fixed, *params])
        except ValueError as exc:  # e.g. u3 angles too large for a unitary matrix
            self.error(str(exc), SEMANTIC, name)
        args = self.comma_list(self.argument)
        end = self.expect(";")
        if len(args) != gate.arity:
            self.error(f"gate {name[1]!r} expects {gate.arity} operand(s), got {len(args)}",
                       SEMANTIC, end)
        broadcast_sizes = {size for off, size, idx in args if idx is None}
        if len(broadcast_sizes) > 1:
            self.error("broadcast registers must have equal sizes", SEMANTIC, end)
        reps = broadcast_sizes.pop() if broadcast_sizes else 1
        for i in range(reps):
            targets = [off + (i if idx is None else idx) for off, size, idx in args]
            if len(set(targets)) != len(targets):
                self.error("gate operands must be distinct qubits", SEMANTIC, end)
            self.instructions.append(gate_app(gate, targets, condition=condition))

    # -- parameter expressions ---------------------------------------------

    def parameter(self) -> float:
        start = self.peek()
        value = self.expression()
        if not math.isfinite(value):
            self.error("parameter is not a finite number", SEMANTIC, start)
        return value

    def expression(self) -> float:
        """A sum of products of unary terms; each operator is left-associative
        and `* /` binds tighter than `+ -`."""
        total = add = None  # the sum so far and the `+` or `-` before `term`
        term = self.unary()
        while True:
            op = self.peek()[1]
            if op == "*" or op == "/":
                self.next()
                rhs = self.unary()
                if op == "/" and rhs == 0:
                    self.error("division by zero in parameter expression", SEMANTIC)
                term = _BINARY[op](term, rhs)
                continue
            total = term if add is None else _BINARY[add](total, term)
            if op != "+" and op != "-":
                return total
            add = self.next()[1]
            term = self.unary()

    def unary(self) -> float:
        tok = self.peek()
        if tok[1] in ("-", "("):
            if self.nesting == MAX_NESTING:
                self.error(f"parameter expression nested deeper than {MAX_NESTING} levels")
            self.nesting += 1
            self.next()
            if tok[1] == "-":
                value = -self.unary()
            else:
                value = self.expression()
                self.expect(")")
            self.nesting -= 1
            return value
        if tok[0] in ("REAL", "INT") or tok[1] == "pi":
            self.next()
            return math.pi if tok[1] == "pi" else float(tok[1])
        self.error(f"expected a parameter expression, found {self.found()}")


def parse_qasm(source: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a Circuit; raises ParseError on failure."""
    return _Parser(source).parse()


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
        if ins.kind == MEASURE:
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
