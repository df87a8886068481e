"""The public names, and the names the benchmark harness binds, stay in place."""

import ast
import importlib
import types
from pathlib import Path

import clarkekit
from clarkekit import builtin_designs, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_names_resolve():
    missing = [name for name in clarkekit.__all__ if not hasattr(clarkekit, name)]
    assert missing == []


def test_all_lists_every_public_name_once():
    # the package builds __all__ from its modules' lists, so a name imported
    # into the package but not listed, or listed twice, shows here
    assert len(clarkekit.__all__) == len(set(clarkekit.__all__))
    public = {name for name, value in vars(clarkekit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(clarkekit.__all__) == public


def test_only_the_cli_imports_fileio():
    # the library takes and returns arrays; writing files is the CLI's job
    package = Path(clarkekit.__file__).parent
    importers = []
    for name in ("core", "designs", "errors", "retarget", "sampling", "simulate", "trajectory"):
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["clarkekit" if node.level else "", node.module]))
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if "clarkekit.fileio" in modules:
                importers.append(name)
    assert importers == []


def test_traced_names_exist(monkeypatch):
    # bench/tracer.py wraps these by name in every clarkekit namespace
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for module_name, qualname, _ in tracer.TRACED:
        owner = importlib.import_module(f"clarkekit.{module_name}")
        for part in qualname.split("."):
            owner = None if owner is None else vars(owner).get(part)
        if owner is None:
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def test_run_experiment_accepts_segment_count():
    robot_0 = builtin_designs()["robot_0"]
    runs = run_experiment(robot_0, robot_0, 0, "general", segment_count=1)
    assert runs["closed_loop"].t.size > 1
