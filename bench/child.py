"""One cold/warm pair in a fresh interpreter.

usage: python3 bench/child.py WORKLOAD SEED TRACE [SPANS_FILE]

Imports ``uhainf.cli`` (from ``PYTHONPATH``), runs the workload's units once
with every cache empty (cold) and once more in the same process (warm), then
gates every unit's output and prints one JSON line.  With TRACE 1 the passes
run under :class:`tracing.Tracer` and the line carries its per-pass summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback

import speed
import workloads


def run_pass(main, units, tracer, pass_name: str, first_run: int):
    """Run every unit once; returns the pass's wall and scaled seconds (see
    speed.py) and (exit code, stdout) per unit."""
    outs = []
    with speed.Meter() as meter:
        for k, unit in enumerate(units):
            if tracer is not None:
                tracer.begin(first_run + k, pass_name)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(list(unit.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a unit that raises fails; the pass goes on
                traceback.print_exc()
                code = None
            outs.append((code, buf.getvalue()))
    return meter.wall_s, meter.scaled_s, outs


def main() -> int:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    units = workloads.units(workload, seed)
    from uhainf.cli import main as cli_main

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        import uhainf.cli

        cli_main = uhainf.cli.main
    cold_wall, cold_s, cold = run_pass(cli_main, units, tracer, "cold", 0)
    warm_wall, warm_s, warm = run_pass(cli_main, units, tracer, "warm", len(units))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for unit, (code_c, out_c), (code_w, out_w) in zip(units, cold, warm):
        for pass_name, code, out in (("cold", code_c, out_c), ("warm", code_w, out_w)):
            why = workloads.gate(unit, code, out)
            if why is None and pass_name == "warm" and out != out_c:
                why = "warm output differs from cold output"
            if why is not None:
                failures.append(f"{pass_name} {' '.join(unit.argv)}: {why}")
    result = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rss_mib": rss_mib,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "attempted": 2 * len(units),
        "failed": len(failures),
        "failures": failures,
        "stdout_bytes": sum(len(out.encode()) for _, out in cold),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if len(sys.argv) > 4:
            tracer.write_spans(sys.argv[4])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
