"""Command-line front end: basis listing, matrix export, verification suites.

Every command ends in one document, written by _write: the command's own
fields, tagged with the schema and the command's kind, encoded as canonical
JSON (qnum._canonical_json: sorted keys, no spaces) and a newline, to --out
and then to stdout.  So two runs with the same config and seed produce
byte-identical files.  Exit codes: 0 all checks pass, 1 a verification
failed, 2 usage/config error.  An input past its bound in _FIELDS is a
usage error, and so is a level whose V_N has more than MAX_PATTERNS
patterns, which patterns.basis_count counts without listing any.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .qnum import QValue, _Value, _canonical_json, _rendered
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


def _signature(value) -> Signature:
    """A signature from "m:n:v1,v2,..." or from its JSON object."""
    if isinstance(value, dict):
        return Signature.from_json(value)
    if not isinstance(value, str):
        raise ValueError("expected a string or an object, "
                         f"got {json.dumps(value)}")
    try:
        head, values = value.rsplit(":", 1)
        m, n = head.split(":")
        return Signature(int(m), int(n), tuple(int(v) for v in values.split(",")))
    except ValueError as exc:
        raise ValueError(f"{value!r}: {exc}") from exc


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


_REQUIRED = object()  # the default of a field that has none

# The fields of a run, in RunConfig's positional order: each one's parser,
# default, (least, greatest) bound, and the help of its flag ("" for none;
# None for a field with no flag, which only a config file sets).  A config
# key other than these is a usage error.
_FIELDS = {
    "signature": (_signature, _REQUIRED, None,
                  'window and values as "m:n:v1,v2,..."'),
    "xi0": (_rational, Fraction(0), None, ""),
    "xi1": (_rational, Fraction(0), None, ""),
    "q": (_q, Fraction(3, 2), None, 'rational like 3/2, or "classical"'),
    "mode": (_mode, "a_infinity", None, None),
    "level": (_integer, 3, (2, MAX_LEVEL), "truncation level N"),
    "window": (_integer, 4, (0, None), "generator index window"),
    "trials": (_integer, 100, (1, None), ""),
    "seed": (_integer, 42, None, ""),
    "out": (_path, None, None, "write the JSON document here too"),
}


class RunConfig(_Value):
    """One reproducible run: module parameters plus suite knobs.  A q of
    None means classical mode."""

    __slots__ = tuple(_FIELDS)

    def __init__(self, *values, **named):
        """The fields in table order, or by name; a field left out takes its
        default, and the signature, which has none, is required."""
        given = dict(zip(_FIELDS, values))
        unset = _FIELDS.keys() - given.keys()
        if len(values) > len(_FIELDS) or not named.keys() <= unset:
            raise TypeError(f"RunConfig takes each of {', '.join(_FIELDS)} once")
        given.update(named)
        for name, (_, default, _, _) in _FIELDS.items():
            value = given.get(name, default)
            if value is _REQUIRED:
                raise TypeError(f"RunConfig needs a {name}")
            setattr(self, name, value)

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
        """The config file's fields under the flags', parsed and bounded."""
        raw: dict = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except (ValueError, RecursionError) as exc:
                    raise ConfigError(str(exc)) from exc
            if not isinstance(raw, dict):
                raise ConfigError("a config file must hold a JSON object")
        unknown = sorted(raw.keys() - _FIELDS.keys())
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        fields = {}
        for name, (parse, default, bound, _) in _FIELDS.items():
            value = getattr(args, name, None)  # None: no flag, or not given
            if value is None:
                if name not in raw:
                    if default is _REQUIRED:
                        raise ConfigError(f"a {name} is required "
                                          f"(--{name} or config)")
                    continue
                value = raw[name]
            try:
                value = parse(value)
            except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad {name}: {exc}") from exc
            if bound is not None:
                least, greatest = bound
                if value < least:
                    raise ConfigError(f"{name} must be at least {least}")
                if greatest is not None and value > greatest:
                    raise ConfigError(f"{name} must not exceed {greatest}")
            fields[name] = value
        cfg = cls(**fields)
        try:
            cfg.qv  # q = 0, 1 or -1 is a usage error for every command
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # counted, not listed: at a small level, a signature with widely
        # spread values has a V_N too large to list
        if basis_count(cfg.signature, cfg.level) > MAX_PATTERNS:
            raise ConfigError(f"level {cfg.level} is too large for this "
                              f"signature: V_{cfg.level} has more than "
                              f"{MAX_PATTERNS:,} patterns")
        return cfg


def _write(cfg: RunConfig, kind: str, fields: dict,
           entries: Optional[list[str]] = None) -> None:
    """Write the document of one command, tagged with the schema and its
    kind, as canonical JSON text and a newline: to --out, then to stdout.

    A matrix passes its entries as JSON texts.  They go in an "entries"
    list, and only ints sort before that key, so the first "entries":[]
    of the encoded document is their slot."""
    doc = {"schema": SCHEMA, "kind": kind, **fields}
    if entries is not None:
        doc["entries"] = []
    text = _canonical_json(doc) + "\n"
    if entries:
        text = text.replace('"entries":[]',
                            '"entries":[' + ",".join(entries) + "]", 1)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


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
    _write(cfg, "basis", {"level": cfg.level, "count": len(basis),
                          "patterns": [p.to_json() for p in basis]})
    return 0


def cmd_matrix(cfg: RunConfig, generator: str) -> int:
    """Export one generator on V_N as sparse JSON, rows numbered in V_{N+2}.

    Each entry is written as JSON text, its keys in sorted order, around
    its coefficient's values as qnum._rendered encodes them, once per
    distinct coefficient; _write splices the entries into the document.

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
    _write(cfg, "matrix", {"generator": str(g), "level": cfg.level,
                           "basis_count": len(basis),
                           "enlarged_count": count}, entries)
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
    _write(cfg, "check", {"suite": suite, "seed": cfg.seed, "passed": ok,
                          "reports": [r.to_json() for r in reports]})
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
        for name, (parse, _, _, flag_help) in _FIELDS.items():
            if flag_help is not None:
                p.add_argument(f"--{name}", help=flag_help or None,
                               type=int if parse is _integer else None)

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
