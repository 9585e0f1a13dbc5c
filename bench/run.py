"""Time to verdict of the uhainf verifier, end to end and layer by layer.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every measurement runs in a fresh interpreter with a
fixed ``PYTHONHASHSEED``, one child at a time (a closed loop: each unit
starts when the previous one has returned).

--trace 0 measures the end-to-end metrics:
  setup_s         median time of ``import uhainf.cli`` in a fresh interpreter
  verdict_s       median over children of the cold pass (the sum over units
                  of ``main`` call to verdict, JSON rendered into an
                  in-memory stdout)
  warm_verdict_s  median of the same pass repeated in the same child
  peak_rss_mb     median of each child's ``ru_maxrss`` after both passes
Times are scaled to a reference machine speed (speed.py); their wall-clock
medians are printed beside them.
Children are started until the next one would end after S seconds, but at
least MIN_PAIRS of them.

--trace 1 runs one untraced child and one traced child and reports the
per-layer metrics of ``tracing.layer_metrics``; the traced spans are written
to ``bench/out/spans-<workload>.tsv.gz``.

Every unit of every pass goes through ``workloads.gate``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the failed share is printed on the line before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PAIRS = 3
SETUP_PROBES = 21
RUN_LIMIT_S = 170  # a run must end within 180 s
HASH_SEED = "0"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def setup_samples() -> tuple[list[float], list[float], bool]:
    """Import times of ``uhainf.cli`` in fresh interpreters, wall and scaled,
    after one warm-up that leaves the bytecode cache written; False if an
    import failed.  Each probe calibrates right after its import (speed.py):
    the import is too short to be sampled while it runs."""
    probe = (
        "import time; t = time.perf_counter(); import uhainf.cli; "
        "wall = time.perf_counter() - t; import statistics, sys; "
        f"sys.path.insert(0, {str(BENCH)!r}); import speed; "
        "print(wall, statistics.fmean(speed.calibrate() for _ in range(8)))"
    )
    wall, scaled, ok = [], [], True
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                              env=child_env(), timeout=60,
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
        elif k:
            w, cal = map(float, proc.stdout.split())
            wall.append(w)
            scaled.append(speed.scaled(w, cal))
    return wall, scaled, ok


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One cold/warm pair; a child that crashes or hangs fails every unit."""
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
            "1" if trace else "0"]
    if trace:
        (BENCH / "out").mkdir(exist_ok=True)
        argv.append(str(BENCH / "out" / f"spans-{workload}.tsv.gz"))
    attempted = 2 * len(workloads.units(workload, seed))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"attempted": attempted, "failed": attempted,
                "failures": [f"child timed out after {timeout:.0f} s"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"attempted": attempted, "failed": attempted,
            "failures": [f"child exited with {proc.returncode} and no result"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "uhainf" / "cli.py").is_file():
        sys.stderr.write(f"error: no uhainf sources under {ROOT / 'src'}\n")
        return 2
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    children, setup_ok = [], True
    if args.trace:
        for trace in (False, True):
            children.append(run_child(args.workload, args.seed, trace, remaining()))
    else:
        setup_wall, setup, setup_ok = setup_samples()
        t0 = time.perf_counter()
        while True:
            children.append(run_child(args.workload, args.seed, False, remaining()))
            spent = time.perf_counter() - t0
            per_child = spent / len(children)
            if len(children) >= MIN_PAIRS and spent + per_child > args.seconds:
                break
            if per_child > remaining():
                break

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for why in c["failures"]:
            sys.stderr.write(f"FAILED {why}\n")
    timed = [c for c in children if "cold_s" in c]
    correct = failed == 0 and len(timed) == len(children) and setup_ok

    raw = {}
    if args.trace:
        untraced, traced = children
        values = tracing.layer_metrics(traced, untraced.get("cold_s", 0.0))
    elif timed:
        values = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "verdict_s": statistics.median(c["cold_s"] for c in timed),
            "warm_verdict_s": statistics.median(c["warm_s"] for c in timed),
            "peak_rss_mb": statistics.median(c["rss_mib"] for c in timed),
        }
        raw = {
            "setup_s": statistics.median(setup_wall) if setup_wall else 0.0,
            "verdict_s": statistics.median(c["cold_wall_s"] for c in timed),
            "warm_verdict_s": statistics.median(c["warm_wall_s"] for c in timed),
        }
    else:
        values = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    for name, m in metrics.items():
        wall = f" (wall {raw[name]:.6g} s)" if name in raw else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{wall}")
    print(f"failed_share {failed / max(attempted, 1):.6g} share "
          f"({failed} of {attempted} units failed over {len(children)} children)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
