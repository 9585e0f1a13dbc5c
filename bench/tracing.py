"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces each
target function by a wrapper and rebinds it wherever a loaded ``uhainf``
module holds a reference to it, so ``from .patterns import shifted_if_valid``
in ``action`` is traced as well as calls inside ``patterns`` and call-time
imports that read the defining module.  ``sympy.factorint``, which the scalar
layer imports on first need, is wrapped when sympy is first imported, so the
cold pass still pays for that import.

A timed target records one span per call (name, start, end, parent, run id)
in flat arrays; a counted target only bumps a counter.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib.abc
import importlib.util
import math
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

# A hook sees (tracer, args, result) after a call that returned.
Hook = Optional[Callable]


def _valid_target(tr: "Tracer", args, result) -> None:
    if result is not None:
        tr.counts["patterns.shifted_if_valid.valid"] += 1


def _basis_size(tr: "Tracer", args, result) -> None:
    tr.counts["patterns.enumerate_basis.patterns"] += len(result)


def _action_key(tr: "Tracer", args, result) -> None:
    tr.action_keys.add(args[:3])


def _accepted(tr: "Tracer", args, result) -> None:
    tr.counts["identities.evaluate_identity.accepted"] += 1


# (module, attribute path, span or counter name, timed, hook)
TARGETS = (
    ("uhainf.patterns", "shifted_if_valid", "patterns.shifted_if_valid", True, _valid_target),
    ("uhainf.patterns", "enumerate_basis", "patterns.enumerate_basis", True, _basis_size),
    ("uhainf.patterns", "CPattern.__init__", "patterns.CPattern.built", False, None),
    ("uhainf.action", "apply_generator", "action.apply_generator", True, _action_key),
    ("uhainf.action", "apply_word", "action.apply_word", True, None),
    ("uhainf.action", "apply_to_vector", "action.apply_to_vector", True, None),
    ("uhainf.qnum", "qbracket", "qnum.qbracket", True, None),
    ("uhainf.qnum", "radical_of", "qnum.radical_of", True, None),
    ("uhainf.qnum", "RadicalSum.to_decimal", "qnum.to_decimal", True, None),
    ("uhainf.qnum", "RadicalSum.__mul__", "qnum.RadicalSum.mul", False, None),
    ("uhainf.qnum", "RadicalSum.__add__", "qnum.RadicalSum.add", False, None),
    ("uhainf.identities", "evaluate_identity", "identities.evaluate_identity", False, _accepted),
    ("uhainf.identities", "fuzz_identity", "identities.fuzz_identity", True, None),
    ("uhainf.relations", "check_cartan", "relations.check_cartan", True, None),
    ("uhainf.relations", "check_serre", "relations.check_serre", True, None),
    ("uhainf.relations", "check_restrictedness", "relations.check_restrictedness", True, None),
    ("uhainf.cli", "main", "cli.main", True, None),
    ("sympy", "factorint", "qnum.factorint", False, None),
)


# spans whose per-call durations are kept for percentiles
PERCENTILES = ("relations.check_cartan", "relations.check_serre",
               "relations.check_restrictedness")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name per timed target
        # one entry per span
        self.name_col = array("i")
        self.run_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack: list[int] = []
        self.run_id = 0
        self.run_pass: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.action_keys: set = set()
        self._pass_counts: dict[str, Counter] = {}
        self._pass_keys: dict[str, set] = {}

    # -- recording --

    def begin(self, run_id: int, pass_name: str) -> None:
        """Start a unit; spans and counts go to run_id and pass_name."""
        self.run_id = run_id
        self.run_pass[run_id] = pass_name
        self.counts = self._pass_counts.setdefault(pass_name, Counter())
        self.action_keys = self._pass_keys.setdefault(pass_name, set())

    def _timed(self, name: str, fn: Callable, hook: Hook) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self.stack
        name_col, run_col, parent_col = self.name_col, self.run_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col

        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            run_col.append(self.run_id)
            parent_col.append(stack[-1] if stack else -1)
            end_col.append(0)
            stack.append(idx)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _counted(self, name: str, fn: Callable, hook: Hook) -> Callable:
        def counted(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return counted

    # -- installation --

    def install(self) -> None:
        for module, path, name, timed, hook in TARGETS:
            def make(fn, wrap=self._timed if timed else self._counted,
                     name=name, hook=hook):
                return wrap(name, fn, hook)

            if module in sys.modules or module.startswith("uhainf"):
                _patch(importlib.import_module(module), path, make)
            else:
                sys.meta_path.insert(0, _PatchOnImport(module, path, make))

    # -- results --

    def summary(self) -> dict:
        """Per pass: span calls, self time and durations; counters."""
        n = len(self.start_col)
        dur = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent_col):
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for pass_name, counts in self._pass_counts.items():
            out[pass_name] = {
                "spans": {},
                "counts": dict(counts),
                "action_keys": len(self._pass_keys[pass_name]),
            }
        for i in range(n):
            name = self.names[self.name_col[i]]
            entry = out[self.run_pass[self.run_col[i]]]["spans"].setdefault(
                name, {"calls": 0, "self_ns": 0, "durations_ns": []})
            entry["calls"] += 1
            entry["self_ns"] += dur[i] - child[i]
            if name in PERCENTILES:
                entry["durations_ns"].append(dur[i])
        return out

    def write_spans(self, path) -> None:
        """Gzipped tab-separated spans, one per line, in call order."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\trun\tpass\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start_col)):
                run = self.run_col[i]
                fh.write(
                    f"{i}\t{run}\t{self.run_pass[run]}\t"
                    f"{self.names[self.name_col[i]]}\t{self.start_col[i]}\t"
                    f"{self.end_col[i]}\t{self.parent_col[i]}\n"
                )


def _patch(module, path: str, make: Callable) -> None:
    """Wrap module.path and rebind every ``uhainf`` reference to the original."""
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    if fn is None:
        return  # the target was renamed or removed: its metrics read 0
    wrapper = make(fn)
    setattr(owner, attr, wrapper)
    if owner_path:
        return
    for name, mod in list(sys.modules.items()):
        if name == "uhainf" or name.startswith("uhainf."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Wraps an attribute of a module right after the module's first import."""

    def __init__(self, module: str, path: str, make: Callable) -> None:
        self.module, self.path, self.make = module, path, make

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.module:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module, self.path, self.make)

        spec.loader.exec_module = exec_and_patch
        return spec


# -- per-layer metrics ----------------------------------------------------------

def _pct(durations_ns: list, q: float) -> float:
    """Nearest-rank percentile in ns; 0 without samples."""
    if not durations_ns:
        return 0.0
    d = sorted(durations_ns)
    return d[max(0, math.ceil(q * len(d)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_cold_s: float) -> dict:
    """Per-layer metric values, keyed by the names in BENCHMARK.json.

    ``traced`` is the result line of a traced child.  Plain names describe
    the cold pass; ``warm.`` names the warm pass.  Span times are scaled by
    their pass's scaled/wall ratio, like the end-to-end times (speed.py), and
    include the calibration ticks that fell inside them (about 3%).
    """
    passes = {p: traced.get("layers", {}).get(p, {"spans": {}, "counts": {}, "action_keys": 0})
              for p in ("cold", "warm")}
    factor = {p: _ratio(traced.get(f"{p}_s", 0.0), traced.get(f"{p}_wall_s", 0.0))
              for p in passes}
    cold = passes["cold"]
    spans, counts = cold["spans"], cold["counts"]

    def calls(name, p="cold"):
        return passes[p]["spans"].get(name, {}).get("calls", 0)

    def self_s(name, p="cold"):
        return passes[p]["spans"].get(name, {}).get("self_ns", 0) / 1e9 * factor[p]

    m: dict = {}
    sv = "patterns.shifted_if_valid"
    m[f"{sv}.calls"] = calls(sv)
    m[f"{sv}.valid"] = counts.get(f"{sv}.valid", 0)
    m[f"{sv}.valid_ratio"] = _ratio(m[f"{sv}.valid"], m[f"{sv}.calls"])
    m[f"{sv}.self_s"] = self_s(sv)
    m["patterns.CPattern.built"] = counts.get("patterns.CPattern.built", 0)
    eb = "patterns.enumerate_basis"
    m[f"{eb}.calls"] = calls(eb)
    m[f"{eb}.patterns"] = counts.get(f"{eb}.patterns", 0)
    m[f"{eb}.self_s"] = self_s(eb)
    ag = "action.apply_generator"
    m[f"{ag}.calls"] = calls(ag)
    m[f"{ag}.distinct"] = cold["action_keys"]
    m[f"{ag}.hit_ratio"] = _ratio(m[f"{ag}.calls"] - m[f"{ag}.distinct"],
                                  m[f"{ag}.calls"])
    m[f"{ag}.self_s"] = self_s(ag)
    for name in ("action.apply_word", "action.apply_to_vector"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("qnum.RadicalSum.mul", "qnum.RadicalSum.add"):
        m[f"{name}.calls"] = counts.get(name, 0)
    for name in ("qnum.qbracket", "qnum.radical_of", "qnum.to_decimal"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["qnum.factorint.calls"] = counts.get("qnum.factorint", 0)
    ev = "identities.evaluate_identity"
    m[f"{ev}.calls"] = counts.get(ev, 0)
    m["identities.accept_ratio"] = _ratio(counts.get(f"{ev}.accepted", 0),
                                          m[f"{ev}.calls"])
    m["identities.fuzz_identity.self_s"] = self_s("identities.fuzz_identity")
    for name in PERCENTILES:
        durations = spans.get(name, {}).get("durations_ns", [])
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.p50_ms"] = _pct(durations, 0.5) / 1e6 * factor["cold"]
        m[f"{name}.p90_ms"] = _pct(durations, 0.9) / 1e6 * factor["cold"]
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.stdout_bytes"] = traced.get("stdout_bytes", 0)
    for name in ("action.apply_generator", "action.apply_word",
                 "action.apply_to_vector", "patterns.enumerate_basis",
                 "qnum.qbracket", "qnum.to_decimal", "cli.main"):
        m[f"warm.{name}.self_s"] = self_s(name, "warm")
    m["warm.patterns.shifted_if_valid.calls"] = calls(sv, "warm")
    m["trace.spans"] = sum(
        s["calls"] for st in passes.values() for s in st["spans"].values())
    m["trace.verdict_s"] = traced.get("cold_s", 0.0)
    m["trace.overhead_s"] = m["trace.verdict_s"] - untraced_cold_s
    return m
