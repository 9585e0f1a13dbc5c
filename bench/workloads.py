"""Workload definitions and the per-unit correctness gate.

A workload is a list of units; a unit is one ``uhainf`` command line plus the
verdict it must produce.  Every unit uses the module of the acceptance gate:
signature ``-1:1:2,1,0``, xi0 = 2, xi1 = 0, q = 3/2, mode ``a_infinity``.
Only ``identities`` depends on the workload seed; the other two are fixed
inputs, so their seed only labels the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

SCHEMA = "uhainf/1"
MODULE = ["--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0", "--q", "3/2"]

# The ten generators of the export workload; their matrices on V_7 cover the
# ladder actions at both signs of the index, the bottom pair (index -1), a
# diagonal and the central element.
EXPORT_GENERATORS = ("E:0", "F:0", "E:1", "F:1", "E:-1", "F:-1",
                     "E:-2", "F:-2", "H:0", "C")
V7_SIZE = 784  # |V_7| on -1:1:2,1,0 (8, 20, 75, 210, 784 for N = 3..7)
IDENTITY_TRIALS = 60  # per identity; three cold/warm pairs fit in a run


@dataclass(frozen=True)
class Unit:
    argv: tuple
    exit_code: int = 0
    passed: Optional[bool] = True  # None: not a check document
    note: Optional[str] = None  # a failure note must contain this text
    basis_count: Optional[int] = None  # matrix documents only


def _check(suite: str, *extra: str, xi0: str = "2", **kw) -> Unit:
    module = list(MODULE)
    module[module.index("--xi0") + 1] = xi0
    return Unit(("check", *module, "--suite", suite, *extra), **kw)


def units(workload: str, seed: int) -> list[Unit]:
    if workload == "relations":
        # The acceptance gate's shape at a third of its cost: Cartan at
        # window 2 (not 5) keeps a run to several cold/warm pairs.  Boundary
        # runs at level 4 because level 5 has no index k with
        # (N+1)/2 <= k <= n+1 on this signature, i.e. zero reports.
        return [
            _check("cartan", "--level", "5", "--window", "2"),
            _check("serre", "--level", "4", "--window", "4"),
            _check("restricted", "--level", "5"),
            _check("boundary", "--level", "4"),
            _check("hw", "--level", "5"),
            _check("charge", "--level", "5"),
            # negative control: a scalar label off the signature tail must
            # make the charge series diverge and the run fail
            _check("charge", "--level", "5", xi0="0", exit_code=1,
                   passed=False, note="divergent"),
        ]
    if workload == "identities":
        return [_check("identities", "--trials", str(IDENTITY_TRIALS),
                       "--seed", str(seed))]
    if workload == "export":
        return [
            Unit(("matrix", *MODULE, "--level", "7", "--generator", g),
                 passed=None, basis_count=V7_SIZE)
            for g in EXPORT_GENERATORS
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("relations", "identities", "export")


def gate(unit: Unit, code: Optional[int], stdout: str) -> Optional[str]:
    """Why the unit's outcome is wrong, or None when it is right.

    Checks the schema, the exit code, the verdict and that no report is
    empty.  Exact byte content and exact ``checked`` values are left alone:
    those may change without the verdict changing.
    """
    if code is None:
        return "raised"
    if code != unit.exit_code:
        return f"exit code {code}, expected {unit.exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return "wrong schema"
    if unit.basis_count is not None:
        entries = doc.get("entries")
        if doc.get("basis_count") != unit.basis_count:
            return f"basis_count {doc.get('basis_count')}"
        if not entries or not all(
            0 <= e["col"] < unit.basis_count for e in entries
        ):
            return "empty or malformed matrix"
        return None
    if doc.get("passed") is not unit.passed:
        return f"passed={doc.get('passed')}, expected {unit.passed}"
    reports = doc.get("reports")
    if not reports or any(r.get("checked", 0) <= 0 for r in reports):
        return "a report checked nothing"
    if unit.note is not None and not any(
        unit.note in f.get("note", "") for r in reports for f in r["failures"]
    ):
        return f"no failure note containing {unit.note!r}"
    return None
