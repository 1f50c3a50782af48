"""Per-layer tracing of titshom from outside the library.

`install()` wraps the public functions that own each layer and rebinds every
name that refers to them in every loaded `titshom` module (callers use
`from .snf import smith_normal_form`, so patching `snf` alone would miss
them); methods are patched on their classes. Untraced runs never import this
module, so they run the library untouched.

Each instant of the timed phase belongs to the layer of the innermost open
span, or to `other` when no span is open. Counter bookkeeping is done with
the clock paused, so it is charged to no layer; it shows up only in
`trace.overhead`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "enumeration": (
        "building.subspaces",
        "building.building_complex",
        "barres.ordered_decompositions",
        "barres.bar_complex_fq",
        "partsix.zcomplex",
        "partsix.x_localized",
        "partsix.w_poset_complex",
    ),
    "assembly": ("complexes.assemble_complex",),
    "elimination": (
        "snf.smith_normal_form",
        "snf.kernel_basis",
        "snf.rank",
        "snf.nullity",
        "snf.cokernel_invariants",
        "snf.saturation",
        "snf.is_saturated",
        "snf.LatticeSolver.__init__",
        "snf.LatticeSolver.solve",
        "complexes.homology",
        "complexes.homology_profile",
        "complexes.cycle_space",
        "complexes.exactness_report",
    ),
    "certification": (
        "actions.st_action_matrix",
        "actions.tensor_matrix",
        "actions.coinvariant_relations",
        "actions.coinvariants",
        "barres.rank2_e1_surjectivity",
        "partsix.zcomplex_poset_iso",
        "partsix.kappa_eta_certificate",
        "zsymbols.ash_rudolph",
        "zsymbols.apartment_eval",
        "zsymbols.byk_delta",
        "zsymbols.byk_psi",
    ),
    "reporting": ("reports.run_suite", "reports.SuiteReport.to_json"),
}

# The functions that hand a matrix to an elimination engine; `nnz_in` and
# `max_dim` are summed over these only, so a matrix that one public function
# passes on to another is not counted twice.
ENGINE_INPUTS = {
    "snf.smith_normal_form": 0,
    "snf.kernel_basis": 0,
    "snf.rank": 0,
    "snf.LatticeSolver.__init__": 1,
}

MEMO_CACHES = ("building.steinberg", "fqfield.field")


def _size(obj) -> int:
    """Cells handed out by an enumeration call: complex generators or list length."""
    cx = getattr(obj, "cx", obj)
    basis = getattr(cx, "basis", None)
    if isinstance(basis, dict):
        return sum(len(gens) for gens in basis.values())
    return len(obj)


class Recorder:
    """Innermost-span self times and per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.self_s = {layer: 0.0 for layer in (*LAYERS, "other")}
        self.calls = {layer: 0 for layer in LAYERS}
        self.nnz_in = 0
        self.max_dim = 0
        self.unit_divisors = 0
        self.divisors = 0
        self.cells = 0
        self.assembly_nnz = 0
        self.mark = time.perf_counter()

    def start(self) -> None:
        """Begin the timed phase: nothing before this instant is charged."""
        self.mark = time.perf_counter()

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        self.self_s[self.stack[-1] if self.stack else "other"] += now - self.mark
        self.stack.append(layer)
        self.calls[layer] += 1
        self.mark = now

    def leave(self) -> None:
        now = time.perf_counter()
        self.self_s[self.stack.pop()] += now - self.mark
        self.mark = now

    def pause(self, since: float) -> None:
        """Exclude the interval since `since` from every layer."""
        self.mark += time.perf_counter() - since

    # -- counters, called after the span closed -----------------------------

    def engine_input(self, matrix) -> None:
        self.nnz_in += matrix.nnz()
        self.max_dim = max(self.max_dim, matrix.n_rows, matrix.n_cols)

    def smith_result(self, res) -> None:
        self.divisors += len(res.divisors)
        self.unit_divisors += sum(1 for d in res.divisors if d == 1)

    def enumeration_result(self, out) -> None:
        # only the outermost enumeration call counts: nested ones (the
        # subspaces inside building_complex) are part of what it returns
        if "enumeration" not in self.stack:
            self.cells += _size(out)

    def assembly_result(self, cx) -> None:
        self.assembly_nnz += sum(m.nnz() for m in cx.boundary.values())

    def metrics(self) -> dict[str, float]:
        """Every metric on every workload. A layer that opened no span reads
        0 s and 0 counts, which is what happened; ratios whose denominator
        can be empty are given as their two counts instead."""
        calls = self.calls["elimination"]
        out = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        out.update(
            {
                "elimination.calls": calls,
                "elimination.mean_call_us": self.self_s["elimination"] / calls * 1e6 if calls else 0.0,
                "elimination.nnz_in": self.nnz_in,
                "elimination.max_dim": self.max_dim,
                "elimination.divisors": self.divisors,
                "elimination.unit_divisors": self.unit_divisors,
                "enumeration.cells": self.cells,
                "assembly.nnz": self.assembly_nnz,
                "certification.calls": self.calls["certification"],
                **memo_counts(),
            }
        )
        return out


def _resolve(path: str):
    """(owner, attribute name, function) for 'module.func' or 'module.Class.method'."""
    module, _, rest = path.partition(".")
    owner = importlib.import_module(f"titshom.{module}")
    *classes, name = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, getattr(owner, name)


def _wrap(fn, layer: str, rec: Recorder, path: str):
    engine_arg = ENGINE_INPUTS.get(path)
    after = None
    if path == "snf.smith_normal_form":
        after = rec.smith_result
    elif layer == "enumeration":
        after = rec.enumeration_result
    elif layer == "assembly":
        after = rec.assembly_result

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.leave()
        if engine_arg is not None or after is not None:
            t = time.perf_counter()
            if engine_arg is not None:
                rec.engine_input(args[engine_arg])
            if after is not None:
                after(out)
            rec.pause(t)
        return out

    return traced


def install(rec: Recorder) -> None:
    """Wrap every layer function and rebind each reference to it."""
    import titshom.reports  # noqa: F401  (loads every module the suites use)

    for layer, paths in LAYERS.items():
        for path in paths:
            owner, name, fn = _resolve(path)
            wrapped = _wrap(fn, layer, rec, path)
            if isinstance(owner, type):
                setattr(owner, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "titshom":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)


def memo_counts() -> dict[str, int]:
    """Hits and misses summed over the `steinberg` and `field` lru caches."""
    infos = [_resolve(path)[2].cache_info() for path in MEMO_CACHES]
    return {"memo.hits": sum(i.hits for i in infos), "memo.misses": sum(i.misses for i in infos)}
