"""Tests for the error hierarchy, public API surface, and repo hygiene."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    AccessViolation,
    ExplorationLimitError,
    ProtocolError,
    RegisterSemanticsError,
    ReproError,
    SimulationError,
    VerificationError,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

LAZY_PACKAGES = ("repro", "repro.core", "repro.obs", "repro.sched",
                 "repro.ir", "repro.parallel", "repro.sim",
                 "repro.analysis")

# Where the re-exported values that carry no ``__module__`` are defined.
CONSTANT_HOMES = {
    "__version__": "repro",
    "MAX_STATES": "repro.ir.lower",
    "MAX_VALUES": "repro.ir.lower",
    "SUPPORTED_SCHEDULERS": "repro.ir.vector",
    "DEGRADE_LADDER": "repro.parallel.supervisor",
    "PROTOCOL_NAMES": "repro.parallel.tasks",
    "SCHEDULER_NAMES": "repro.parallel.tasks",
    "MEMORY_NAMES": "repro.sim.memory",
    "Op": "repro.sim.ops",
}

# Modules each unit command must not load (docs/PERFORMANCE.md,
# "Start-up").  A sweep worker runs the report path's shard body.
REPORT_FORBIDDEN = ("numpy", "repro.checker", "repro.ir", "repro.store",
                    "repro.obs.tracing", "repro.obs.export",
                    "multiprocessing")
#: A serial unit ``report`` runs its one shard in process: it loads no
#: journal, telemetry, fault-injection or pickling module, and neither
#: the plotting nor the closed-form bounds.  Nor does it load the
#: worker pool or the supervisor, the trace recorder, the reference
#: engine's step body, the weak register models, :mod:`platform`, or
#: another command's module.
UNIT_REPORT_FORBIDDEN = REPORT_FORBIDDEN + (
    "repro.obs.journal", "repro.obs.telemetry", "repro.faults", "pickle",
    "repro.sim.viz", "repro.analysis.theory", "difflib",
    "repro.parallel.engine", "repro.parallel.supervisor", "repro.sim.trace",
    "repro.sim.reference", "repro.sim.weak", "platform",
    "repro.commands.solve", "repro.commands.verify", "repro.commands.trace",
    "repro.commands.store", "repro.commands.top", "repro.commands.journal")
VERIFY_FORBIDDEN = ("numpy", "repro.ir.vector", "repro.store",
                    "multiprocessing")
#: The protocol modules a ``--protocol two`` sweep never runs.
NOT_TWO_PROTOCOLS = ("repro.core.three_unbounded",
                     "repro.core.three_bounded", "repro.core.n_process",
                     "repro.core.naive", "repro.core.multivalued",
                     "repro.core.deterministic")


def _loaded_modules(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return set(json.loads(out.stdout.splitlines()[-1]))


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (ProtocolError, AccessViolation, SimulationError,
                    VerificationError, ExplorationLimitError,
                    RegisterSemanticsError):
            assert issubclass(exc, ReproError)

    def test_one_except_clause_catches_everything(self):
        with pytest.raises(ReproError):
            raise AccessViolation("nope")

    def test_exploration_limit_carries_partial_progress(self):
        err = ExplorationLimitError("budget", states_explored=123)
        assert err.states_explored == 123


class TestPublicApi:
    def test_dunder_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_headline_quickstart_from_docstring(self):
        # The module docstring's example must keep working verbatim.
        from repro import TwoProcessProtocol, solve

        outcome = solve(TwoProcessProtocol(), ["a", "b"], seed=1)
        assert outcome.consistent and outcome.value in ("a", "b")

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_lazy_exports_are_the_defining_objects(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            home = CONSTANT_HOMES.get(name)
            if home is None:
                home = inspect.getmodule(value).__name__
            assert home.startswith(package), (package, name, home)
            assert getattr(importlib.import_module(home), name) is value, (
                package, name)
            assert name in dir(pkg)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(pkg.__all__)
        assert all(namespace[n] is getattr(pkg, n) for n in namespace)
        with pytest.raises(AttributeError):
            getattr(pkg, "no_such_name")

    def test_submodules_resolve_as_package_attributes(self):
        loaded = _loaded_modules(
            "import repro\n"
            "repro.sim.Simulation, repro.parallel.engine.run_parallel")
        assert {"repro.sim", "repro.parallel.engine"} <= loaded

    @pytest.mark.parametrize("args, forbidden", [
        (["report", "--runs", "1", "--workers", "1"],
         UNIT_REPORT_FORBIDDEN),
        (["report", "--protocol", "two", "--runs", "1", "--workers", "1"],
         NOT_TWO_PROTOCOLS),
        (["verify", "--engine", "fingerprints", "--max-states", "1"],
         VERIFY_FORBIDDEN),
        (["report", "--engine", "vector", "--runs", "1"], ("numpy",)),
        (["solve", "--engine", "vector"], ("numpy",)),
    ], ids=["report", "report-two-protocol-only", "verify-fingerprints",
            "report-vector", "solve-vector"])
    def test_unit_command_import_budget(self, args, forbidden):
        loaded = _loaded_modules(
            f"from repro.cli import main\nmain({args!r})")
        assert "repro.cli" in loaded
        assert sorted(loaded & set(forbidden)) == []

    def test_unit_report_json_starts_no_process(self, tmp_path):
        # The shape of every sweep-serial command: the JSON record's
        # environment stamp must not run ``uname -p`` through
        # subprocess.
        args = ["report", "--runs", "1", "--workers", "1", "--json",
                str(tmp_path / "record.json")]
        loaded = _loaded_modules(
            f"from repro.cli import main\nmain({args!r})")
        assert "repro.analysis.reporting" in loaded
        forbidden = UNIT_REPORT_FORBIDDEN + ("subprocess",)
        assert sorted(loaded & set(forbidden)) == []

    def test_sweep_worker_import_budget(self):
        # The body of a spawned sweep worker: unpickle a shard task,
        # rebuild the runner, execute the shard.
        loaded = _loaded_modules(
            "import pickle\n"
            "from repro.parallel.engine import (BatchSpec, ShardTask,\n"
            "    _execute_shard, _spec_runner)\n"
            "from repro.parallel.tasks import (ConstantInputs, "
            "ProtocolSpec,\n"
            "    SchedulerSpec)\n"
            "spec = BatchSpec(ProtocolSpec('two'), "
            "SchedulerSpec('split-vote'),\n"
            "    ConstantInputs(('a', 'b')), seed=1)\n"
            "task = pickle.loads(pickle.dumps(ShardTask(spec, 0, 2, 100,\n"
            "    with_metrics=True, telemetry=True)))\n"
            "_execute_shard(task, _spec_runner(task.spec), beat=print)")
        assert "repro.sim.runner" in loaded
        assert sorted(loaded & set(REPORT_FORBIDDEN)) == []

    def test_supervised_store_sweep_import_budget(self, tmp_path):
        # A cold pass forks workers from a parent warmed with exactly
        # the modules the spec builds; a warm pass, served wholly from
        # the store, starts no worker and builds no protocol.
        from repro.parallel.engine import default_start_method

        args = ["report", "--protocol", "two", "--runs", "40",
                "--shard-size", "10", "--workers", "2", "--supervised",
                "--store", str(tmp_path / "runs.store"),
                "--journal", str(tmp_path / "batch.jsonl")]
        code = f"from repro.cli import main\nmain({args!r})"
        cold, warm = _loaded_modules(code), _loaded_modules(code)
        assert sorted(cold & set(NOT_TWO_PROTOCOLS)) == []
        if default_start_method() == "fork":
            assert "repro.core.two_process" in cold
        unused = NOT_TWO_PROTOCOLS + ("repro.core.two_process",
                                      "multiprocessing")
        assert sorted(warm & set(unused)) == []

    def test_subpackages_importable(self):
        import repro.apps
        import repro.analysis
        import repro.checker
        import repro.core
        import repro.msgpass
        import repro.registers
        import repro.sched
        import repro.sim  # noqa: F401


class TestRepositoryHygiene:
    """Documentation claims that can rot are tested like code."""

    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "LICENSE", "docs/MODEL.md", "docs/PROTOCOLS.md",
                     "docs/VERIFICATION.md"):
            assert (ROOT / name).is_file(), name

    def test_design_names_existing_bench_files(self):
        text = (ROOT / "DESIGN.md").read_text()
        import re

        for match in re.finditer(r"benchmarks/([a-z_0-9]+\.py)", text):
            assert (ROOT / "benchmarks" / match.group(1)).is_file(), (
                match.group(0)
            )

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        import re

        for match in re.finditer(r"examples/([a-z_0-9]+\.py)", text):
            assert (ROOT / "examples" / match.group(1)).is_file(), (
                match.group(0)
            )

    def test_findings_cross_referenced(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for finding in ("F1", "F2", "F3", "F4", "F5"):
            assert f"### {finding}" in experiments, finding

    def test_every_source_module_has_a_docstring(self):
        import ast

        for path in (ROOT / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a docstring"

    def test_no_module_imports_numpy(self):
        """The program and its tests run on the standard library alone."""
        import ast

        for path in [*(ROOT / "src").rglob("*.py"),
                     *(ROOT / "tests").rglob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "numpy"
                               for name in names), path
