"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/passrun.py WORKLOAD SEED MODE

MODE is `setup` (stop at the first timed operation), `plain` (run every
operation untraced) or `traced` (the same under perfbench/layers.py). Plain
and traced passes sample perfbench/hostspeed.py's reference kernel as they
run and report its median beside their raw wall and CPU times. The
caller starts a new interpreter per pass, so the `steinberg` and `field`
lru caches and `partsix._span_cache` start empty, as for a CLI user.
`titshom` is imported from the checkout's `src`, never from elsewhere.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(workload: str, seed: int, mode: str) -> dict:
    import titshom

    import hostspeed
    import workloads

    if Path(titshom.__file__).resolve().parent != ROOT / "src" / "titshom":
        raise SystemExit(f"titshom imported from {titshom.__file__}, not from the checkout")
    rec = None
    if mode == "traced":
        import layers

        rec = layers.Recorder()
        layers.install(rec)
    ops = workloads.plan(workload, seed)
    out = {"ready": time.time(), "cache_dir_absent": "TITSHOM_CACHE_DIR" not in os.environ}
    out["setup_kernel_ms"] = hostspeed.warm_up()
    if mode == "setup":
        return out

    failed, notes = 0, []
    sampler = hostspeed.Sampler(rec)
    sampler.start()
    if rec is not None:
        rec.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        bad, why = op()
        failed += bad
        notes += why
    sampler.stop()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    out.update(
        wall_s=wall - sampler.spent_s,
        cpu_s=cpu - sampler.spent_cpu_s,
        kernel_ms=sampler.kernel_ms(),
        attempted=workloads.attempted(workload),
        failed=failed,
        notes=notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if rec is not None:
        out["layers"] = rec.metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
