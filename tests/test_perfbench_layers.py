"""What perfbench/ reads of the library still resolves.

The benchmark's tracer rebinds traced names from outside the library, and
its workloads pass parameters to the suites, so a rename or a dropped
parameter in `src/` would otherwise surface only in the slow perfbench suite.
"""

import ast
import importlib.util
import sys
from pathlib import Path

from titshom import reports

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "titshom"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = _load("layers")
    paths = [path for group in layers.LAYERS.values() for path in group]
    assert paths and set(layers.ENGINE_INPUTS) <= set(paths)
    for path in paths:
        assert callable(layers._resolve(path)[2]), path
    for path in layers.MEMO_CACHES:
        assert callable(layers._resolve(path)[2].cache_info), path


def test_every_workload_passes_only_parameters_its_suite_reads():
    workloads = _load("workloads")
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            if isinstance(op, workloads.Suite):
                params = dict(op.params, seed=1) if op.seeded else dict(op.params)
                assert reports.SUITES[op.name](params), op  # builds the checks, runs none


def _snf_names_read_elsewhere() -> set[str]:
    """Names of `snf` that another package module imports or reads as `snf.NAME`."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "snf":
            continue
        tree = ast.parse(path.read_text(), str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "snf":
                    read |= {alias.name for alias in node.names}
                elif node.module is None:
                    aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "snf"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                read.add(node.attr)
    return read


def test_every_elimination_entry_point_is_traced():
    # an snf name the tracer does not wrap would run elimination that no
    # traced pass counts; a class counts through its traced methods
    traced = _load("layers").LAYERS["elimination"]
    read = _snf_names_read_elsewhere()
    assert {"kernel_basis", "LatticeSolver", "saturation"} <= read
    untraced = [
        name for name in sorted(read)
        if not any(path == f"snf.{name}" or path.startswith(f"snf.{name}.") for path in traced)
    ]
    assert untraced == []
