"""The benchmark's layer tracer (`perfbench/tracing.py`) still finds every name it wraps.

`Tracer.install` patches functions and methods of the package by name, so
deleting or renaming one of them breaks `perfbench/run.py --trace 1`.  Two
traced CLI calls must run and count real work in each solver and linalg
layer they use.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402

# The modules the benchmark runner hands the tracer.  They are imported in place:
# the runner's own import drops the loaded package, which the other tests share.
MODULES = ("cli", "algebra", "classify", "fields", "linalg", "parser", "psi", "solver", "structural", "verify")

COMMANDS = (
    ["solve", "--m", "3", "--degree", "3", "--phi", "standard", "--psi", "reversed", "--region", "H,I"],
    ["verify", "--m", "2", "--degree", "2", "--trials", "1"],
)


def test_traced_solve_and_verify_count_the_solver_and_linalg_layers():
    program = SimpleNamespace(**{name: importlib.import_module(f"cliffkit.{name}") for name in MODULES})
    tracer = Tracer()
    tracer.install(program)
    try:
        for argv in COMMANDS:
            tracer.begin_request()
            tracer.enabled = True
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = program.cli.main(argv)
            finally:
                tracer.enabled = False
            assert code == 0, argv
    finally:
        tracer.uninstall()
    metrics = tracer.metrics([])
    counts = {name: metrics[name] for name in (
        "solver.opmat_builds", "solver.witness_searches", "linalg.nullspace_calls", "linalg.mat_vec_calls",
        "linalg.rank_calls")}
    assert all(count > 0 for count in counts.values()), counts
    assert metrics["psi.matrix_builds"] > 0, metrics["psi.matrix_builds"]
