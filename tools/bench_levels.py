"""End-to-end time of `uhainf check --suite all` at six module sizes.

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
The sizes run one after another, never in parallel.  The largest, level 9
/ window 3 (V_9 = 8,820 patterns), takes about 12 seconds for its three
passes (cold about 4.0 to 4.5 s, warm about 2.7 to 3.0 s) and peaks at
about 99 MiB; level 8 / window 3 peaks at about 45 MiB (Python 3.11.7, a
2-vCPU VM).

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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for level, window in SIZES:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(level), str(window)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    print(json.dumps({
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "command": "uhainf check " + " ".join(MODULE) + " --suite all",
        "sizes": runs,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
