"""The benchmark's own checks; they run whole workloads (about three minutes).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# counts that depend only on the inputs, never on the clock
REPEATABLE = (
    "elimination.calls",
    "elimination.nnz_in",
    "elimination.max_dim",
    "elimination.divisors",
    "elimination.unit_divisors",
    "enumeration.cells",
    "assembly.nnz",
    "certification.calls",
    "memo.hits",
    "memo.misses",
)


def _pass(workload: str, seed: int, mode: str) -> dict:
    out = run.run_pass(workload, seed, mode, time.monotonic() + run.RUN_LIMIT_S)
    assert not out.get("crashed"), out["notes"]
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_traced_passes_count_the_same(workload):
    first, second = (_pass(workload, 1, "traced")["layers"] for _ in range(2))
    assert {k: first[k] for k in REPEATABLE} == {k: second[k] for k in REPEATABLE}
    assert first["elimination.calls"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_second_seed_passes_every_operation(workload):
    out = _pass(workload, 2, "plain")
    assert out["cache_dir_absent"]
    assert (out["failed"], out["notes"]) == (0, [])
    assert out["attempted"] == workloads.attempted(workload)


def test_sampler_samples_and_keeps_its_own_time_out():
    sampler = hostspeed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent_s < 0.3
    assert min(sampler.samples) <= sampler.kernel_ms() / 1e3 <= max(sampler.samples)


def test_seed_reaches_every_seeded_suite():
    from titshom import reports

    for ops in workloads.WORKLOADS.values():
        for op in ops:
            if isinstance(op, workloads.Suite):
                params = dict(op.params)
                reports.SUITES[op.name](params)  # builds the checks, runs none
                assert ("seed" in params) == op.seeded, op
