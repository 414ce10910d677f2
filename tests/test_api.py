import ast
from pathlib import Path

import qcsim

PUBLIC_API = {
    "Circuit", "DensityMatrix", "Gate", "Instruction", "MeasurementRecord",
    "NoiseChannel", "NoiseSpec", "ParseError", "PureState", "RunConfig", "RunResult",
    "amplitude_damping", "circuit_from_json", "circuit_to_json", "dephasing",
    "depolarizing", "depth", "emit_qasm", "fidelity", "gate_app", "make_gate",
    "measure", "parse_qasm", "random_circuit", "run", "run_shots",
}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_public_api_is_pinned_and_free_of_test_oracles():
    assert sorted(qcsim.__all__) == sorted(PUBLIC_API)
    namespace = {}
    exec("from qcsim import *", namespace)
    assert PUBLIC_API <= namespace.keys()
    # The full-register oracles in tests/oracles.py are for the tests only.
    for path in Path(qcsim.__file__).parent.glob("*.py"):
        for module in _imported_modules(path):
            assert "oracles" not in module.split(".") and not module.startswith("tests"), (
                path.name, module)
