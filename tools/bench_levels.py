"""End-to-end time of `uhainf check --suite all` at six module sizes, and of
the ten-generator matrix export at two.

usage: python3 tools/bench_levels.py

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory.  For each (level, window) in SIZES a fresh
interpreter imports ``uhainf.cli`` and runs `check --suite all` on the
module -1:1:2,1,0 (xi0 = 2, xi1 = 0, q = 3/2, the defaults) twice in the
same process: once with every memo empty (cold) and once more with the
memos the first pass filled (warm).  Each child reports the wall seconds
of both passes (``time.perf_counter``, stdout written to memory), its peak
RSS (``ru_maxrss``) after both, the exit code and the sha256 of the cold
stdout, which the CI pins at every size.  A third, untimed pass starts with
every memo empty again.  It counts the calls of ``relations._word_sum``,
the exact word sum that both decides a word relation and builds its
witness (``word_sum_calls``), and the window keys that
``relations._commute_by_locality`` proves without it
(``locality_decisions``), which the memos do not change, so the timed
passes run unwrapped.  After it, the ``cache_info()`` of the ladder kernel
``action._ladder_window`` (``ladder_window``: one miss per window solved)
and of the image memo ``action.monomial_image`` (``monomial_image``: one
miss per distinct generator and pattern) is read, not wrapped, as hits,
misses and size.
Each of EXPORT_LEVELS (8 and 9) gets an export row as well: a fresh
interpreter runs `matrix` for the ten generators of the export benchmark
(GENERATORS) on V_level of the same module, all ten with every memo empty
(cold) and then all ten again (warm).  The row gives the summed wall
seconds of each pass, the peak RSS after both, the exit codes, the sha256
of the ten cold stdouts concatenated in GENERATORS order, and, read from
``cache_info()`` after both passes, the patterns the interner
``patterns._canonical`` built and the windows ``action._ladder_window``
solved; neither count depends on timing.
The sizes run one after another, never in parallel.  Measured on
2026-10-21 (Python 3.11.7, a noisy 2-vCPU VM): three runs of level 9 /
window 3 (V_9 = 8,820 patterns) read 4.5 to 6.8 s cold and 3.3 to 4.9 s
warm, peaking at 97.3 MiB, and three of level 8 / window 3 peaked at 44.3
to 44.6 MiB.  Five runs of each export row read 0.22 to 0.25 s cold and
0.06 to 0.07 s warm at level 8, peaking at 29.4 to 29.5 MiB, and 0.74 to
0.88 s cold and 0.22 to 0.26 s warm at level 9, peaking at 54.0 to 54.1
MiB.  Times on such a machine vary by half as much again from one day to
the next, so two commits are compared only in alternating runs made
together.

Prints one JSON document with the git SHA and the Python version.  A
checkout without git history reports ``"git_sha": null``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((3, 4), (5, 6), (6, 6), (7, 3), (8, 3), (9, 3))
EXPORT_LEVELS = (8, 9)
GENERATORS = ("E:0", "F:0", "E:1", "F:1", "E:-1", "F:-1", "E:-2", "F:-2",
              "H:0", "C")
MODULE = ("--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0")


def _run(argv: list[str]) -> tuple[float, int, str]:
    from uhainf.cli import main

    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return time.perf_counter() - t, code, buf.getvalue()


def _decisions(argv: list[str]) -> dict:
    """Word-sum calls and locality proofs of one cold pass of argv, and the
    kernel's and the image memo's cache_info() after it."""
    from uhainf import action, relations

    orig, orig_local = relations._word_sum, relations._commute_by_locality
    counts = {"word_sum_calls": 0, "locality_decisions": 0}

    def counted(terms, p, params):
        counts["word_sum_calls"] += 1
        return orig(terms, p, params)

    def counted_local(a, b, p, params):
        proved = orig_local(a, b, p, params)
        counts["locality_decisions"] += proved
        return proved

    relations._word_sum = counted
    relations._commute_by_locality = counted_local
    action.clear_caches()
    try:
        _run(argv)
    finally:
        relations._word_sum = orig
        relations._commute_by_locality = orig_local
    for name, memo in (("ladder_window", action._ladder_window),
                       ("monomial_image", action.monomial_image)):
        info = memo.cache_info()
        counts[name] = {"hits": info.hits, "misses": info.misses,
                        "size": info.currsize}
    return counts


def _child(level: int, window: int) -> dict:
    argv = ["check", *MODULE, "--suite", "all",
            "--level", str(level), "--window", str(window)]
    (cold_s, code, out), (warm_s, warm_code, warm_out) = _run(argv), _run(argv)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "level": level,
        "window": window,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "peak_rss_mib": round(peak_rss / 1024, 1),
        "exit_code": code,
        "warm_equals_cold": warm_out == out and warm_code == code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        **_decisions(argv),
    }


def _export_child(level: int) -> dict:
    from uhainf import action, patterns

    argvs = [["matrix", *MODULE, "--level", str(level), "--generator", g]
             for g in GENERATORS]
    cold, warm = [_run(a) for a in argvs], [_run(a) for a in argvs]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "level": level,
        "generators": len(GENERATORS),
        "cold_s": round(sum(t for t, _, _ in cold), 3),
        "warm_s": round(sum(t for t, _, _ in warm), 3),
        "peak_rss_mib": round(peak_rss / 1024, 1),
        "exit_codes": sorted({code for _, code, _ in cold + warm}),
        "warm_equals_cold": [r[1:] for r in warm] == [r[1:] for r in cold],
        "stdout_sha256": hashlib.sha256(
            "".join(out for _, _, out in cold).encode()).hexdigest(),
        "patterns_built": patterns._canonical.cache_info().currsize,
        "windows_solved": action._ladder_window.cache_info().misses,
    }


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(int(sys.argv[2]), int(sys.argv[3]))))
        return 0
    if sys.argv[1:2] == ["--export-child"]:
        print(json.dumps(_export_child(int(sys.argv[2]))))
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(*args: object) -> dict:
        proc = subprocess.run([sys.executable, __file__, *map(str, args)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True)
        return json.loads(proc.stdout)

    runs = [child("--child", level, window) for level, window in SIZES]
    exports = [child("--export-child", level) for level in EXPORT_LEVELS]
    print(json.dumps({
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "command": "uhainf check " + " ".join(MODULE) + " --suite all",
        "sizes": runs,
        "export_command": ("uhainf matrix " + " ".join(MODULE)
                           + " --level N --generator G, for G in "
                           + " ".join(GENERATORS)),
        "export": exports,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
