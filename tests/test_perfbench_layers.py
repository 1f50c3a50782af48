"""Every library name that perfbench/layers.py traces still resolves.

The benchmark's tracer rebinds these names from outside the library, so a
rename in `src/` would otherwise surface only in the slow perfbench suite.
"""

import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = _load_layers()
    paths = [path for group in layers.LAYERS.values() for path in group]
    assert paths and set(layers.ENGINE_INPUTS) <= set(paths)
    for path in paths:
        assert callable(layers._resolve(path)[2]), path
    for path in layers.MEMO_CACHES:
        assert callable(layers._resolve(path)[2].cache_info), path
