"""The titshom benchmark: closed-loop runs of one workload, checked exactly.

    python3 perfbench/run.py --workload flag --seed 1 --seconds 30 --trace 0

One caller runs a workload's operations back to back in a fresh Python
process (one pass; no threads, suites at `workers=1`). A run makes at least
one pass and starts another only while the last one says it would end within
`--seconds`. Every pass gets a new interpreter with `TITSHOM_CACHE_DIR`
removed from its environment, so no in-memory or on-disk cache carries over.
Set-up is timed in extra set-up-only interpreters as well, and each metric
is the median over the run.

Times are scaled to a reference host speed: each pass samples
perfbench/hostspeed.py's kernel while it runs, and its wall and CPU times
are multiplied by `REF_MS / kernel ms` of that pass. On a shared 2-vCPU
virtual machine the raw times of one input drifted by a third within
minutes; the scaled ones by a few percent. Raw times are printed on the lines before the
result. Set-up times are scaled the same way by the kernel timed right
after set-up in the same interpreter.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the result object; the lines before it
are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_MS  # noqa: E402
from workloads import WORKLOADS, attempted  # noqa: E402

SETUP_PROBES = 15
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TITSHOM_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    # fixed hash order, so that two traced runs of one seed count the same
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run passrun.py once; times that need the outside view are taken here."""
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.time()
    t0 = time.perf_counter()
    out = None
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), workload, str(seed), mode],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode == 0 and proc.stdout.strip():
            out = json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        pass
    elapsed = time.perf_counter() - t0
    if out is None:
        # a crashed or killed pass fails every operation; its time still counts
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = {
            "crashed": True,
            "wall_s": elapsed,
            "cpu_s": (after.ru_utime - cpu_before.ru_utime) + (after.ru_stime - cpu_before.ru_stime),
            "attempted": attempted(workload),
            "failed": attempted(workload),
            "notes": [f"{mode} pass exited abnormally"],
            "peak_rss_mb": after.ru_maxrss / 1024,
            "cache_dir_absent": True,
        }
    else:
        out["setup_s"] = out["ready"] - spawned
    out["elapsed"] = elapsed
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[dict]]:
    """Run the passes of one run; returns (metric values, every pass)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ("plain", "traced") if trace else ("plain",)
    setups = [] if trace else [run_pass(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    while True:
        for mode in modes:
            p = run_pass(workload, seed, mode, deadline)
            p["mode"] = mode
            passes.append(p)
            print(
                f"{workload} seed={seed} {mode}: wall {p['wall_s']:.3f} s, "
                f"kernel {p.get('kernel_ms', float('nan')):.3f} ms, "
                f"failed {p['failed']}/{p['attempted']}",
                flush=True,
            )
            for note in p["notes"]:
                print(f"  FAIL {note}", flush=True)
        # start no pass that the last one says would end past the window
        now = time.monotonic()
        last = sum(p["elapsed"] for p in passes[-len(modes):])
        if now + last > min(start + seconds, deadline) or any(p.get("crashed") for p in passes):
            break

    sampled = [p["kernel_ms"] for p in passes if "kernel_ms" in p]
    run_kernel_ms = statistics.median(sampled) if sampled else REF_MS

    def scale(p: dict) -> float:
        return REF_MS / p.get("kernel_ms", run_kernel_ms)

    plain = [p for p in passes if p["mode"] == "plain"]
    wall = statistics.median(p["wall_s"] * scale(p) for p in plain)
    if not trace:
        return {
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] * scale(p) for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(
                p["setup_s"] * REF_MS / p["setup_kernel_ms"] for p in setups + plain if "setup_s" in p
            ),
        }, setups + passes
    traced = [p for p in passes if p["mode"] == "traced" and "layers" in p]
    if not traced:
        return {}, passes
    for p in traced:
        for k in p["layers"]:
            if k.endswith(".self_s") or k == "elimination.mean_call_us":
                p["layers"][k] *= scale(p)
    # median_low keeps counts whole: it is always one pass's value
    values = {k: statistics.median_low(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    values["trace.overhead"] = statistics.median(p["wall_s"] * scale(p) for p in traced) / wall
    return values, passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "titshom" / "__init__.py").is_file():
        print(f"no titshom sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = [p for p in passes if "attempted" in p]
    tried = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    cache_free = all(p["cache_dir_absent"] for p in passes)
    print(f"ops_failed_ratio {failed / tried} ({failed}/{tried}); TITSHOM_CACHE_DIR absent: {cache_free}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = failed == 0 and cache_free and all(m["name"] in values for m in wanted)
    if args.trace and values:
        shares = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
        total = sum(shares.values())
        top = max(shares, key=shares.get)
        print(f"largest layer: {top} {shares[top] / total:.1%} of traced time")
    result = {
        "correct": correct,
        "attempted": tried,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
