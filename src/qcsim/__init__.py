"""qcsim: a tensor-based quantum circuit simulator.

Pure and mixed state representations, three execution engines (simple,
MPS, depth-controlled), configurable Kraus noise channels, mid-circuit
measurement with classical control, and an OpenQASM 2.0 front-end.
"""

from .circuit import (
    Circuit,
    Instruction,
    circuit_from_json,
    circuit_to_json,
    depth,
    gate_app,
    measure,
    random_circuit,
)
from .engines import RunConfig, RunResult, run, run_shots
from .gates import Gate, make_gate
from .noise import NoiseChannel, NoiseSpec, amplitude_damping, dephasing, depolarizing
from .qasm import ParseError, emit_qasm, parse_qasm
from .state import DensityMatrix, MeasurementRecord, PureState, fidelity

__all__ = [
    "Circuit",
    "DensityMatrix",
    "Gate",
    "Instruction",
    "MeasurementRecord",
    "NoiseChannel",
    "NoiseSpec",
    "ParseError",
    "PureState",
    "RunConfig",
    "RunResult",
    "amplitude_damping",
    "circuit_from_json",
    "circuit_to_json",
    "dephasing",
    "depolarizing",
    "depth",
    "emit_qasm",
    "fidelity",
    "gate_app",
    "make_gate",
    "measure",
    "parse_qasm",
    "random_circuit",
    "run",
    "run_shots",
]

__version__ = "0.1.0"
