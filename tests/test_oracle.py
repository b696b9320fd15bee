"""The dense references stand apart from the product: no module of the
package imports `oracle` or (but the oracle) forms a kron product, a fresh
import of the package or the CLI leaves the oracle unloaded, only quadrature
and the oracle import scipy, and every name the benchmark and the package
namespace import still resolves."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import micromaser
from micromaser.fock import TruncatedSpace
from micromaser.models import GeneratorModel, exact_model, fourth_order_model
from micromaser.oracle import lindblad_ops
from micromaser.pump import PumpParameters

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "micromaser"
ORACLE = "micromaser.oracle"


def imports(path: Path):
    """(module, name) for every import in a file, function-level ones
    included; name is None for `import module`.  Relative imports resolve
    against the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["micromaser", module]))
            for alias in node.names:
                yield module, alias.name


def identifiers(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname or ""
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_no_module_of_the_package_imports_the_oracle():
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for module, name in imports(path)
        if module == ORACLE or (module == "micromaser" and name == "oracle")
    }
    assert readers == set()


def test_a_fresh_import_leaves_the_oracle_unloaded():
    oracle = importlib.import_module(ORACLE)
    # the functions and classes the oracle defines, not those it imports
    names = {name for name, obj in vars(oracle).items() if getattr(obj, "__module__", None) == ORACLE}
    assert {"validate_density", "kraus_operators", "KrausSet"} <= names
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, micromaser, micromaser.cli; "
         f"print(json.dumps([{ORACLE!r} in sys.modules, micromaser.__all__]))"],
        capture_output=True, text=True, check=True, env=checkout_env(),
    )
    loaded, exported = json.loads(proc.stdout)
    assert not loaded
    assert set(exported).isdisjoint(names)


def test_no_product_module_forms_a_kron_product():
    users = {
        path.name
        for path in PACKAGE.glob("*.py")
        if any("kron" in ident for ident in identifiers(path))
    }
    assert users == {"oracle.py"}


def test_only_quadrature_and_the_oracle_import_scipy():
    # steady.py's blocks and eigenvectors are NumPy's own
    users = {
        path.name
        for path in PACKAGE.glob("*.py")
        for module, _ in imports(path)
        if module.split(".")[0] == "scipy"
    }
    assert users == {"measures.py", "oracle.py"}


def test_benchmark_imports_resolve():
    wanted = {
        (module, name)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for module, name in imports(path)
        if module.split(".")[0] == "micromaser"
    }
    assert ("micromaser.models", "assemble") in wanted
    missing = []
    for module, name in sorted(wanted, key=str):
        namespace = importlib.import_module(module)
        if name is None or hasattr(namespace, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{module}.{name}")
    assert missing == []
    # perfbench/spans.py wraps this method on every traced and smoke run
    assert inspect.isfunction(GeneratorModel.apply)


def test_benchmark_workloads_run_in_process(monkeypatch):
    """Each workload's smoke input through the benchmark's own route and
    checks: a name or call signature it relies on that changes fails here."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    names = [wl["name"] for wl in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    for name in names:
        inputs = workloads.make_inputs(workloads.WORKLOADS[name], 7, smoke=True)
        out = workloads.run_once(inputs)
        assert out.code == 0, name
        values = workloads.cell_values(inputs, out)
        assert values and None not in values, name


def test_package_namespace_exports_resolve():
    names = micromaser.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(micromaser, name)] == []


def test_models_outside_lindblad_form_have_no_operator_list():
    params = PumpParameters(0.15, 2.0)
    space = TruncatedSpace(8)
    for model in (exact_model(params, space), fourth_order_model(params, space)):
        assert model.lindblad is None
        assert lindblad_ops(model) == []
