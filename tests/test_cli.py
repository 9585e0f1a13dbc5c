import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import uhainf
from uhainf import (
    GeneratorLabel,
    ModuleParams,
    QValue,
    RadicalSum,
    Signature,
    apply_generator,
    enumerate_basis,
)
from uhainf import cli, patterns
from uhainf.action import clear_caches
from uhainf.cli import RunConfig, _build_parser, main

SIG = "-1:1:2,1,0"
BASE = [f"--signature={SIG}", "--xi0", "2", "--xi1", "0", "--q", "3/2"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasis:
    def test_counts(self, capsys):
        for level, want in ((2, 2), (3, 8), (4, 20), (5, 75)):
            code, out, _ = run(capsys, ["basis", *BASE, "--level", str(level)])
            assert code == 0
            doc = json.loads(out)
            assert doc["schema"] == "uhainf/1"
            assert doc["count"] == want
            assert len(doc["patterns"]) == want

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, ["basis", *BASE, "--level", "4"])
        _, out2, _ = run(capsys, ["basis", *BASE, "--level", "4"])
        assert out1 == out2
        assert out1.endswith("\n")

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "basis.json"
        code, out, _ = run(
            capsys, ["basis", *BASE, "--level", "3", "--out", str(dest)]
        )
        assert code == 0
        assert dest.read_text(encoding="utf-8") == out


class TestConfigHandling:
    def test_commands_share_one_module(self):
        # memo keys from an earlier command are then found by identity
        def params(*argv):
            args = _build_parser().parse_args(["check", *BASE, *argv])
            return RunConfig.build(args).params

        clear_caches()
        first = params("--level", "4")
        assert params("--level", "5", "--window", "2") is first
        clear_caches()
        again = params("--level", "4")
        assert again is not first and again == first

    def test_missing_signature(self, capsys):
        code, _, err = run(capsys, ["basis", "--level", "3"])
        assert code == 2
        assert "signature" in err

    def test_bad_signature(self, capsys):
        code, _, err = run(capsys, ["basis", "--signature", "junk"])
        assert code == 2

    def test_bad_level(self, capsys):
        code, _, _ = run(capsys, ["basis", *BASE, "--level", "1"])
        assert code == 2

    @pytest.mark.parametrize("signature,level,bound", [
        (SIG, "1200", "not exceed 50"),
        (SIG, "51", "not exceed 50"),
        (SIG, "11", "more than 100,000 patterns"),  # |V_11| = 104,544
        ("-2:2:3,3,1,0,-1", "50", "more than 100,000 patterns"),
    ], ids=["level-1200", "level-51", "V_11", "wide-level-50"])
    def test_level_past_its_bound_is_usage_error(self, capsys, signature,
                                                 level, bound):
        code, out, err = run(capsys, ["basis", f"--signature={signature}",
                                      "--level", level])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and bound in err, err

    @pytest.mark.parametrize("argv", [
        ["basis", "--signature=-1:1:600,300,0", "--level", "3"],
        ["check", "--signature=-1:1:600,300,0", "--suite", "identities"],
    ], ids=["basis", "check-identities"])
    def test_spread_signature_is_usage_error_within_1_gib(self, argv):
        """|V_3| = 27,270,901 on 600,300,0, at the default level too: the
        bound refuses it before a pattern or a row is listed, in a child
        whose address space alone is limited to 1 GiB."""
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.dirname(os.path.dirname(os.path.abspath(uhainf.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "uhainf.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60, preexec_fn=limit,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "more than 100,000 patterns" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_level_bounds_admit_level_10_and_level_50(self, capsys):
        # |V_10| = 27,720; a signature of equal values has one pattern at
        # every level
        args = _build_parser().parse_args(["check", *BASE, "--level", "10",
                                           "--window", "3"])
        assert RunConfig.build(args).level == 10
        code, out, _ = run(capsys, ["basis", "--signature=-1:1:0,0,0",
                                    "--level", "50"])
        assert (code, json.loads(out)["count"]) == (0, 1)

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, ["basis", "--config", "/nonexistent.json"])
        assert code == 2

    def test_config_file_with_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "signature": {"m": -1, "n": 1, "values": [2, 1, 0]},
            "xi0": "2", "xi1": "0", "q": "3/2", "level": 3,
        }), encoding="utf-8")
        code, out, _ = run(capsys, ["basis", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["count"] == 8
        code, out, _ = run(capsys, ["basis", "--config", str(cfg),
                                    "--level", "4"])
        assert json.loads(out)["count"] == 20

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        # a misspelled key must not fall back to the default level
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"signature": "-1:1:2,1,0", "xi0": 2, "levle": 6}
        ), encoding="utf-8")
        code, out, err = run(capsys, ["basis", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "levle" in err

    def test_unknown_mode_is_usage_error(self, capsys, tmp_path):
        # basis builds no module, so the config parser must catch it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"signature": "-1:1:2,1,0", "xi0": 2, "mode": "bogus"}
        ), encoding="utf-8")
        code, out, err = run(capsys, ["basis", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "unknown mode 'bogus'" in err

    @pytest.mark.parametrize("config", [
        {"signature": 5},
        {"signature": ["-1:1:2,1,0"]},
        {"signature": {"m": -1, "n": 1, "values": 5}},
        {"signature": {"m": -1, "n": 1, "values": [2.9, 1, 0]}},
        [1, 2],
        {"signature": SIG, "level": None},
        {"signature": SIG, "level": [3]},
        {"signature": SIG, "level": 4.7},
        {"signature": SIG, "out": 5},
    ])
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run(capsys, ["basis", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("content", [
        b"\xff",  # not UTF-8: UnicodeDecodeError
        b"[" * 100_000 + b"]" * 100_000,  # too deep: RecursionError
    ], ids=["not-utf8", "nested-100000"])
    def test_unreadable_config_is_usage_error(self, capsys, tmp_path,
                                              content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run(capsys, ["basis", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_q_is_usage_error(self, capsys):
        for q in ("abc", "1/0", "-2/3", "-3/2"):
            code, out, err = run(capsys, [
                "check", f"--signature={SIG}", "--xi0", "2", "--xi1", "0",
                f"--q={q}", "--suite", "hw",
            ])
            assert code == 2, q
            assert out == ""
            assert err.startswith("error:")
            if q.startswith("-"):
                assert f"q must be positive for a module (got {q})" in err

    def test_identity_corpus_runs_at_negative_q(self, capsys):
        # the corpus draws its own q, so the module's q never reaches it
        argv = ["check", f"--signature={SIG}", "--xi0", "2", "--xi1", "0",
                "--suite", "identities", "--trials", "3", "--seed", "1"]
        code, out, err = run(capsys, [*argv, "--q=-2/3"])
        assert (code, err) == (0, "")
        assert run(capsys, [*argv, "--q", "3/2"])[:2] == (0, out)

    @pytest.mark.parametrize("argv", [
        ["check", "--suite", "cartan"],
        ["check", "--suite", "all"],
        ["matrix", "--generator", "E:1"],
    ], ids=["cartan", "all", "matrix"])
    def test_module_at_negative_q_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, [
            *argv, f"--signature={SIG}", "--xi0", "2", "--xi1", "0",
            "--q=-2/3", "--level", "3", "--window", "1",
        ])
        assert (code, out) == (2, "")
        assert "q must be positive for a module (got -2/3)" in err

    def test_negative_window_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "check", *BASE, "--suite", "cartan", "--window", "-3",
        ])
        assert code == 2
        assert out == ""
        assert "window" in err

    def test_zero_trials_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "check", *BASE, "--suite", "identities", "--trials", "0",
        ])
        assert code == 2
        assert out == ""
        assert "trials" in err

    def test_run_without_checks_is_usage_error(self, capsys):
        # on this signature no boundary index k fits level 5
        code, out, err = run(capsys, [
            "check", *BASE, "--suite", "boundary", "--level", "5",
        ])
        assert code == 2
        assert out == ""
        assert "no checks" in err

    def test_classical_q(self, capsys):
        code, out, _ = run(capsys, [
            "check", f"--signature={SIG}", "--xi0", "2", "--xi1", "0",
            "--q", "classical", "--level", "2", "--window", "1",
            "--suite", "hw",
        ])
        assert code == 0


# for each flagged field of the run table, a value other than its default:
# (the flag's argument, the same value as JSON in a config file)
_NON_DEFAULT = {
    "signature": ("-1:1:3,1,0", {"m": -1, "n": 1, "values": [3, 1, 0]}),
    "xi0": ("5/2", "5/2"),
    "xi1": ("1", 1),
    "q": ("classical", "classical"),
    "level": ("4", 4),
    "window": ("2", 2),
    "trials": ("5", 5),
    "seed": ("3", 3),
    "out": ("doc.json", "doc.json"),
}
_FLAGGED = [name for name, row in cli._FIELDS.items() if row[3] is not None]


class TestConfigFields:
    def test_every_flagged_field_has_a_case(self):
        assert sorted(_NON_DEFAULT) == sorted(_FLAGGED)
        assert "mode" in cli._FIELDS and "mode" not in _FLAGGED

    @pytest.mark.parametrize("name", _FLAGGED)
    def test_config_field_equals_its_flag(self, tmp_path, name):
        flag, value = _NON_DEFAULT[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signature": SIG, name: value}),
                       encoding="utf-8")
        parse = _build_parser().parse_args
        # the later --signature wins, so the signature's own case overrides SIG
        from_file = RunConfig.build(parse(["check", "--config", str(cfg)]))
        from_flag = RunConfig.build(parse(
            ["check", f"--signature={SIG}", f"--{name}={flag}"]))
        assert from_file == from_flag
        assert getattr(from_file, name) != cli._FIELDS[name][1]

    # A_infinity is reachable only through a config file
    CAPITAL = ["check", "--suite", "all", "--level", "3", "--window", "1"]

    def _capital(self, capsys, tmp_path, xi0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signature": SIG, "mode": "A_infinity",
                                   "xi0": xi0, "xi1": 0}), encoding="utf-8")
        return run(capsys, [*self.CAPITAL, "--config", str(cfg)])

    def test_capital_mode_with_tail_labels_prints_a_infinity_run(
            self, capsys, tmp_path):
        code, out, err = self._capital(capsys, tmp_path, 2)
        assert (code, err) == (0, "")
        assert run(capsys, [*self.CAPITAL, *BASE]) == (0, out, "")

    def test_capital_mode_with_other_labels_is_usage_error(self, capsys,
                                                            tmp_path):
        code, out, err = self._capital(capsys, tmp_path, 3)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "A_infinity mode requires" in err


class TestMatrix:
    def _matrix(self, capsys, gen, level=3):
        code, out, _ = run(capsys, [
            "matrix", *BASE, "--level", str(level), "--generator", gen,
        ])
        assert code == 0
        return json.loads(out)

    def test_roundtrip_against_direct_action(self, capsys):
        """Multiplying the exported sparse matrix by a unit vector must
        reproduce the direct generator action, for every generator whose
        image stays indexable in the enlarged basis."""
        sig = Signature(-1, 1, (2, 1, 0))
        params = ModuleParams(sig, Fraction(2), Fraction(0),
                              QValue.quantum(Fraction(3, 2)), "a_infinity")
        basis = enumerate_basis(sig, 3)
        enlarged = enumerate_basis(sig, 5)
        for gen, label in (("E:0", GeneratorLabel("E", 0)),
                           ("F:0", GeneratorLabel("F", 0)),
                           ("F:-2", GeneratorLabel("F", -2)),
                           ("H:1", GeneratorLabel("H", 1)),
                           ("C", GeneratorLabel("C"))):
            doc = self._matrix(capsys, gen)
            assert doc["basis_count"] == len(basis)
            assert doc["enlarged_count"] == len(enlarged)
            got = {}
            for e in doc["entries"]:
                got.setdefault(e["col"], {})[e["row"]] = RadicalSum.from_json(
                    e["coeff"]
                )
            for col, p in enumerate(basis):
                want = {}
                for p2, c in apply_generator(label, p, params).terms.items():
                    want[enlarged.index(p2)] = c
                assert got.get(col, {}) == want, (gen, col)

    def test_escaped_flag(self, capsys):
        # F_1 moves rows 3 and 4, pushing level-3 patterns past the
        # truncation; those entries carry the escaped flag
        doc = self._matrix(capsys, "F:1")
        sig = Signature(-1, 1, (2, 1, 0))
        inside = {i for i, p in enumerate(enumerate_basis(sig, 5))
                  if p in set(enumerate_basis(sig, 3))}
        for e in doc["entries"]:
            assert e.get("escaped", False) == (e["row"] not in inside)
        assert any(e.get("escaped") for e in doc["entries"])

    def test_decimal_digits(self, capsys):
        doc = self._matrix(capsys, "F:0", level=2)
        for e in doc["entries"]:
            # the rendering is the coefficient's own 50-digit expansion
            assert e["decimal"] == RadicalSum.from_json(e["coeff"]).to_decimal()

    # the golden matrix runs: escaped entries (F:-3, F:1), "row": null
    # (-3:0:5,2,2,0), the classical limit, q = 2/3 and the five-entry
    # window module; and one with no entries
    WRITER_RUNS = {
        "escaped-Fm3": [*BASE, "--level", "5", "--generator", "F:-3"],
        "escaped-F1": [*BASE, "--level", "3", "--generator", "F:1"],
        "row-null": ["--signature=-3:0:5,2,2,0", "--xi0", "2", "--xi1", "0",
                     "--level", "3", "--generator", "F:-3"],
        "classical": [*BASE[:-1], "classical", "--level", "6",
                      "--generator", "F:-1"],
        "q-below-1": [*BASE[:-1], "2/3", "--level", "6", "--generator", "E:1"],
        "wide": ["--signature=-2:2:3,3,1,0,-1", "--xi0", "3", "--xi1", "-1",
                 "--q", "7/4", "--level", "5", "--generator", "F:-2"],
        "empty": ["--signature=-1:1:0,0,0", "--level", "3", "--generator",
                  "E:0"],
    }

    @pytest.mark.parametrize("name", sorted(WRITER_RUNS))
    def test_entries_written_as_json_dumps_writes_them(self, capsys,
                                                       tmp_path, name):
        # the pre-encoded entries are the bytes json.dumps gives the parsed
        # document, and --out writes the stdout document
        dest = tmp_path / "matrix.json"
        code, out, _ = run(capsys, ["matrix", *self.WRITER_RUNS[name],
                                    "--out", str(dest)])
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True,
                          separators=(",", ":")) + "\n" == out
        assert dest.read_text(encoding="utf-8") == out
        assert bool(doc["entries"]) == (name != "empty")
        if name == "row-null":
            assert all(e["row"] is None for e in doc["entries"])
        if name.startswith("escaped"):
            assert any(e.get("escaped") for e in doc["entries"])

    def test_bad_generator(self, capsys):
        code, _, err = run(capsys, [
            "matrix", *BASE, "--level", "2", "--generator", "Q:9",
        ])
        assert code == 2

    def test_commands_share_one_basis(self, capsys):
        """Ten matrix commands on V_7, run twice in one process with the
        memos kept, print what each prints alone after clear_caches.  Each
        command parses its own Signature, so they share the enumerate_basis
        memo only through equal signatures."""
        commands = [["matrix", *BASE, "--level", "7", "--generator", g]
                    for g in ("E:0", "F:0", "E:1", "F:1", "E:-1", "F:-1",
                              "E:-2", "F:-2", "H:0", "C")]
        alone = []
        for argv in commands:
            clear_caches()
            alone.append(run(capsys, argv)[:2])
        clear_caches()
        for _ in range(2):
            for argv, want in zip(commands, alone):
                assert run(capsys, argv)[:2] == want, argv
        info = enumerate_basis.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 19)
        assert len(json.loads(alone[0][1])["entries"]) > 0

    def test_commands_share_one_rank_table(self, capsys):
        """The fillings that number targets in V_{N+2} depend on rows only,
        so a second matrix command finds every table the first one built."""
        clear_caches()
        first = run(capsys, ["matrix", *BASE, "--level", "7", "--generator", "E:1"])
        misses = patterns._fillings.cache_info().misses
        assert first[0] == 0 and misses > 0
        second = run(capsys, ["matrix", *BASE, "--level", "7", "--generator", "F:-2"])
        assert second[0] == 0
        assert patterns._fillings.cache_info().misses == misses

    def test_second_command_ranks_by_identity(self, capsys, monkeypatch):
        """A matrix command numbers its targets through the interned module's
        signature, so the same command run again finds every basis_rank
        entry by identity: the only Signature comparison left is the one
        module_params makes to find the module."""
        argv = ["matrix", *BASE, "--level", "7", "--generator", "E:1"]
        clear_caches()
        first = run(capsys, argv)
        calls = []
        orig = Signature.__eq__

        def spy(self, other):
            calls.append(other)
            return orig(self, other)

        monkeypatch.setattr(Signature, "__eq__", spy)
        assert run(capsys, argv) == first
        assert len(json.loads(first[1])["entries"]) > 500
        assert len(calls) <= 1


class TestParserMemo:
    """main() builds the argument parser once per process, on first use."""

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(uhainf.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", "import uhainf.cli as cli; "
             "print(cli._build_parser.cache_info().currsize)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_built_once(self, capsys):
        _build_parser.cache_clear()
        for level in ("2", "3"):
            assert run(capsys, ["basis", *BASE, "--level", level])[0] == 0
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_usage_errors_leave_it_intact(self, capsys):
        argv = ["check", *BASE, "--suite", "hw", "--level", "3"]
        _build_parser.cache_clear()
        alone = run(capsys, argv)
        assert alone[0] == 0
        _build_parser.cache_clear()
        code, out, _ = run(capsys, [*argv, "--window", "-1"])
        assert (code, out) == (2, "")
        with pytest.raises(SystemExit) as exc:  # rejected by argparse itself
            main([*argv, "--suite", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, argv) == alone
        assert _build_parser.cache_info().misses == 1


class TestCheck:
    def test_hw_suite_passes(self, capsys):
        code, out, _ = run(capsys, [
            "check", *BASE, "--suite", "hw", "--window", "4", "--level", "2",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(not r["failures"] for r in doc["reports"])

    def test_cartan_small(self, capsys):
        code, out, _ = run(capsys, [
            "check", *BASE, "--suite", "cartan", "--window", "2",
            "--level", "3",
        ])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_identities_shortcut(self, capsys):
        code, out, _ = run(capsys, [
            "identities", *BASE, "--trials", "2", "--seed", "3",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "identities"
        tags = {r["params"]["tag"] for r in doc["reports"]}
        assert {"I23a", "I27", "A21", "A26", "A46L", "A46R"} <= tags

    def test_failure_exit_code(self, capsys):
        # mismatched labels make the charge series divergent: exit 1
        code, out, _ = run(capsys, [
            "check", f"--signature={SIG}", "--xi0", "0", "--xi1", "0",
            "--q", "3/2", "--suite", "charge",
        ])
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_one_empty_report_fails_the_run(self, capsys, monkeypatch):
        # one report that checked nothing, among reports that pass, must
        # still make the run fail: exit 1, not 0 (and not the usage error 2
        # kept for a run with no reports at all)
        from uhainf import cli
        from uhainf.report import CheckReport

        real = cli.fuzz_identity

        def fuzz(ident, trials, seed):
            if ident.tag == "I27":
                return CheckReport("identity", {"tag": ident.tag})
            return real(ident, trials, seed)

        monkeypatch.setattr(cli, "fuzz_identity", fuzz)
        code, out, _ = run(capsys, [
            "check", *BASE, "--suite", "identities", "--trials", "2",
        ])
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        empty = [r for r in doc["reports"] if r["checked"] == 0]
        assert [r["params"]["tag"] for r in empty] == ["I27"]
        assert all(not r["failures"] for r in doc["reports"])

    @pytest.mark.parametrize("argv,want", [
        (["check", f"--signature={SIG}", "--xi0", "5/2", "--xi1", "0",
          "--q", "3/2", "--suite", "all", "--level", "3", "--window", "2",
          "--trials", "2"], 1),
        (["identities", *BASE, "--trials", "2", "--seed", "3"], 0),
    ], ids=["failing-check", "identities"])
    def test_out_file(self, capsys, tmp_path, argv, want):
        # the file holds the stdout document, whatever the verdict
        dest = tmp_path / "check.json"
        code, out, _ = run(capsys, [*argv, "--out", str(dest)])
        assert code == want
        assert json.loads(out)["passed"] is (want == 0)
        assert dest.read_text(encoding="utf-8") == out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", *BASE, "--suite", "bogus"])

    def test_seeded_determinism(self, capsys):
        argv = ["check", *BASE, "--suite", "identities", "--trials", "3",
                "--seed", "17"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
