"""Command-line front end: basis listing, matrix export, verification suites.

All output is deterministic UTF-8 JSON with an embedded schema tag, so two
runs with the same config and seed produce byte-identical files.  Exit
codes: 0 all checks pass, 1 a verification failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .qnum import QValue, _Value, _rendered
from .patterns import (MODES, ModuleParams, Signature, _integer, basis_count,
                       basis_rank, enumerate_basis, module_params)
from .action import GeneratorLabel, label, monomial_image
from . import relations as rel
from .identities import CORPUS, fuzz_identity

SCHEMA = "uhainf/1"
# the bounds of --level: a level above MAX_LEVEL, or whose V_N has more
# than MAX_PATTERNS patterns, is a usage error
MAX_LEVEL = 50
MAX_PATTERNS = 100_000

__all__ = ["RunConfig", "main"]


class ConfigError(ValueError):
    pass


class RunConfig(_Value):
    """One reproducible run: module parameters plus suite knobs.  A q of
    None means classical mode."""

    __slots__ = ("signature", "xi0", "xi1", "q", "mode", "level", "window",
                 "trials", "seed", "out")

    def __init__(self, signature: Signature, xi0: Fraction = Fraction(0),
                 xi1: Fraction = Fraction(0),
                 q: Optional[Fraction] = Fraction(3, 2), mode: str = "a_infinity",
                 level: int = 3, window: int = 4, trials: int = 100,
                 seed: int = 42, out: Optional[str] = None):
        self.signature = signature
        self.xi0 = xi0
        self.xi1 = xi1
        self.q = q
        self.mode = mode
        self.level = level
        self.window = window
        self.trials = trials
        self.seed = seed
        self.out = out

    @property
    def qv(self) -> QValue:
        return QValue.classical() if self.q is None else QValue.quantum(self.q)

    @property
    def params(self) -> ModuleParams:
        """The module, one shared instance per distinct module (see
        patterns.module_params); built, and so validated, only by the
        commands and suites that act on one (the identity corpus does not)."""
        try:
            return module_params(self.signature, self.xi0, self.xi1, self.qv,
                                 self.mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def build(cls, args: argparse.Namespace) -> "RunConfig":
        raw: dict = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except (ValueError, RecursionError) as exc:
                    raise ConfigError(str(exc)) from exc
            if not isinstance(raw, dict):
                raise ConfigError("a config file must hold a JSON object")
        if args.signature is not None:
            raw["signature"] = args.signature
        for key in _FIELD_PARSERS:  # "mode" has no flag, so it reads None
            val = getattr(args, key, None)
            if val is not None:
                raw[key] = val
        unknown = sorted(set(raw) - {"signature", *_FIELD_PARSERS})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        if "signature" not in raw:
            raise ConfigError("a signature is required (--signature or config)")
        sig_raw = raw["signature"]
        if isinstance(sig_raw, str):
            try:
                head, values = sig_raw.rsplit(":", 1)
                m_s, n_s = head.split(":")
                sig = Signature(
                    int(m_s), int(n_s), tuple(int(v) for v in values.split(","))
                )
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"bad signature {sig_raw!r}: {exc}") from exc
        elif isinstance(sig_raw, dict):
            try:
                sig = Signature.from_json(sig_raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad signature: {exc}") from exc
        else:
            raise ConfigError("bad signature: expected a string or an object, "
                              f"got {json.dumps(sig_raw)}")
        fields = {}
        for key, parse in _FIELD_PARSERS.items():
            if key in raw:
                try:
                    fields[key] = parse(raw[key])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(f"bad {key}: {exc}") from exc
        cfg = cls(signature=sig, **fields)
        try:
            cfg.qv  # q = 0, 1 or -1 is a usage error for every command
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg.level < 2:
            raise ConfigError("level must exceed 1")
        if cfg.level > MAX_LEVEL:
            raise ConfigError(f"level must not exceed {MAX_LEVEL}")
        # V_2 ⊆ V_3 ⊆ ..., so counting up stops at the first V_n too large;
        # each count fills the _fillings entries the basis itself reads
        if any(basis_count(sig, n) > MAX_PATTERNS
               for n in range(2, cfg.level + 1)):
            raise ConfigError(f"level {cfg.level} is too large: V_{cfg.level} "
                              f"has more than {MAX_PATTERNS:,} patterns")
        if cfg.window < 0:
            raise ConfigError("window must be nonnegative")
        if cfg.trials < 1:
            raise ConfigError("trials must be positive")
        return cfg


def _rational(value) -> Fraction:
    return Fraction(str(value))


def _q(value) -> Optional[Fraction]:
    return None if str(value) == "classical" else _rational(value)


def _mode(value) -> str:
    # checked here, not only by ModuleParams, because commands that build no
    # module would otherwise accept any mode
    if value not in MODES:
        raise ValueError(f"unknown mode {value!r}")
    return value


def _path(value) -> str:
    # open() would take an integer as a file descriptor
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {json.dumps(value)}")
    return value


# How RunConfig.build reads each field of the merged config; a field the
# config leaves out takes its RunConfig default, and any other key than
# these and "signature" is a usage error.
_FIELD_PARSERS = {
    "q": _q, "xi0": _rational, "xi1": _rational, "mode": _mode,
    "level": _integer, "window": _integer, "trials": _integer,
    "seed": _integer, "out": _path,
}


def _dump(doc: dict, cfg: RunConfig,
          entries: Optional[list[str]] = None) -> str:
    # every document is a tree built fresh for this call, so no cycle; a
    # matrix's entries come as JSON texts, and only ints sort before that
    # key, so the first "entries":[] is their slot
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"
    if entries:
        text = text.replace('"entries":[]',
                            '"entries":[' + ",".join(entries) + "]", 1)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _parse_generator(spec: str) -> GeneratorLabel:
    if spec == "C":
        return label("C")
    try:
        kind, idx = spec.split(":")
        return label(kind, int(idx))
    except (ValueError, IndexError) as exc:
        raise ConfigError(
            f"bad generator {spec!r}; use C or KIND:INDEX like E:1"
        ) from exc


def cmd_basis(cfg: RunConfig) -> int:
    basis = enumerate_basis(cfg.signature, cfg.level)
    doc = {
        "schema": SCHEMA,
        "kind": "basis",
        "level": cfg.level,
        "count": len(basis),
        "patterns": [p.to_json() for p in basis],
    }
    sys.stdout.write(_dump(doc, cfg))
    return 0


def cmd_matrix(cfg: RunConfig, generator: str) -> int:
    """Export one generator on V_N as sparse JSON, rows numbered in V_{N+2}.

    Each entry is written as JSON text, its keys in sorted order, around
    its coefficient's values as qnum._rendered encodes them, once per
    distinct coefficient; _dump splices the entries into the document.

    The basis, the enlarged count and every rank are read through the
    interned module's signature, not cfg.signature: each command parses a
    new Signature, but ``params.signature`` is the one the first command
    of the process built, so a basis_rank entry made by an earlier command
    is found by identity rather than by comparing Signature fields."""
    g = _parse_generator(generator)
    params = cfg.params
    sig = params.signature
    basis = enumerate_basis(sig, cfg.level)
    # targets may leave V_N; number them in the enlarged truncation V_{N+2}
    enlarged = cfg.level + 2
    count = basis_count(sig, enlarged)
    entries = []
    for col, p in enumerate(basis):
        image = monomial_image(g, p, params)
        if not image:
            continue
        # each target's row, None beyond V_{N+2}, from the basis_rank memo
        ranked = [(basis_rank(sig, enlarged, p2), p2, k, n, d)
                  for p2, k, n, d in image]
        if len(ranked) > 1:  # None last
            ranked.sort(key=lambda t: count if t[0] is None else t[0])
        for row, p2, k, n, d in ranked:
            # each distinct coefficient is encoded once, keyed on its ints
            coeff, decimal = _rendered(k, n, d)
            # targets are valid, so a higher level means outside V_N
            escaped = ',"escaped":true' if p2.N > cfg.level else ""
            entries.append(f'{{"coeff":{coeff},"col":{col},"decimal":{decimal}'
                           f'{escaped},"row":{"null" if row is None else row}}}')
    doc = {
        "schema": SCHEMA,
        "kind": "matrix",
        "generator": str(g),
        "level": cfg.level,
        "basis_count": len(basis),
        "enlarged_count": count,
        "entries": [],
    }
    sys.stdout.write(_dump(doc, cfg, entries))
    return 0


_SUITES = ("cartan", "serre", "hw", "restricted", "boundary", "charge",
           "identities", "all")


def _run_suite(cfg: RunConfig, suite: str) -> list[rel.CheckReport]:
    params = None if suite == "identities" else cfg.params
    sig = cfg.signature
    reports: list[rel.CheckReport] = []
    W = cfg.window
    if suite in ("cartan", "all"):
        basis = enumerate_basis(sig, cfg.level)
        # the diagonal families of every index pair, decided once per run
        shifts = rel.ShiftTable(basis, params)
        for i in range(-W, W + 1):
            for j in range(-W, W + 1):
                reports.append(rel.check_cartan(i, j, basis, params, shifts))
    if suite in ("serre", "all"):
        basis = enumerate_basis(sig, cfg.level)
        for i in range(-W, W + 1):
            for fam in ("E", "F"):
                for j in range(-W, W + 1):
                    if abs(i - j) != 1:
                        reports.append(
                            rel.check_serre(fam, "a", i, j, basis, params)
                        )
                reports.append(rel.check_serre(fam, "b", i, None, basis, params))
                reports.append(rel.check_serre(fam, "c", i, None, basis, params))
    if suite in ("hw", "all"):
        reports.append(rel.check_highest_weight(params, (-W, W)))
    if suite in ("restricted", "all"):
        reports.append(rel.check_restrictedness(params, cfg.level))
    if suite in ("boundary", "all"):
        # k starts at ceil(N/2), so every k meets check_boundary_f's 2k >= N
        for k in range((cfg.level + 1) // 2, max(sig.n, 0) + 2):
            reports.append(rel.check_boundary_f(params, cfg.level, k))
    if suite in ("charge", "all"):
        reports.append(rel.check_charge(params, max(abs(sig.m), sig.n) + W))
    if suite in ("identities", "all"):
        for ident in CORPUS:
            reports.append(fuzz_identity(ident, cfg.trials, cfg.seed))
    return reports


def cmd_check(cfg: RunConfig, suite: str) -> int:
    reports = _run_suite(cfg, suite)
    if not reports:
        # zero checks must not count as a pass
        raise ConfigError(
            f"suite {suite!r} selects no checks at level {cfg.level}, "
            f"window {cfg.window}"
        )
    ok = all(r.passed for r in reports)
    doc = {
        "schema": SCHEMA,
        "kind": "check",
        "suite": suite,
        "seed": cfg.seed,
        "passed": ok,
        "reports": [r.to_json() for r in reports],
    }
    sys.stdout.write(_dump(doc, cfg))
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and kept for the
    life of the process.

    Building it costs about ten times what parsing one command line does,
    and a process that runs many commands (a warm pass, a test session)
    would otherwise pay that on each.  It is not built at import, so
    ``import uhainf.cli`` costs no more than before.  action.clear_caches()
    leaves it alone: it holds no computed value, no fault-injection patch
    reaches it, and action cannot import cli without an import cycle."""
    ap = argparse.ArgumentParser(
        prog="uhainf",
        description="Exact pattern-basis representations and verification suites",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--signature", help='window and values as "m:n:v1,v2,..."')
        p.add_argument("--xi0")
        p.add_argument("--xi1")
        p.add_argument("--q", help='rational like 3/2, or "classical"')
        p.add_argument("--level", type=int, help="truncation level N")
        p.add_argument("--window", type=int, help="generator index window")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="write the JSON document here too")

    p = sub.add_parser("basis", help="enumerate the truncated basis")
    common(p)
    p = sub.add_parser("matrix", help="export one generator as a sparse matrix")
    common(p)
    p.add_argument("--generator", required=True, help="C or KIND:INDEX (E:1, F:-2, H:0)")
    p = sub.add_parser("check", help="run verification suites")
    common(p)
    p.add_argument("--suite", default="all", choices=_SUITES)
    p = sub.add_parser("identities", help="shortcut for check --suite identities")
    common(p)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig.build(args)
        if args.command == "basis":
            return cmd_basis(cfg)
        if args.command == "matrix":
            return cmd_matrix(cfg, args.generator)
        if args.command == "check":
            return cmd_check(cfg, args.suite)
        return cmd_check(cfg, "identities")  # argparse allows no other command
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
