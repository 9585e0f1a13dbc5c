"""Pinned stdout of two cheap CLI runs, byte for byte.

The digests were recorded from the implementation that built every ladder
candidate as a pattern before checking it.  Performance work on the pattern
and action layers must leave every output byte as it was.
"""

import hashlib

import pytest

from uhainf.cli import main

BASE = ["--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0", "--q", "3/2"]

GOLDEN = [
    (
        ["check", *BASE, "--suite", "all", "--level", "3", "--window", "2",
         "--trials", "20"],
        0,
        "d7789a7c3e04e155128a1744672e99e96120ae46ba7d43148792dcc1705c2f03",
    ),
    (
        ["matrix", *BASE, "--level", "5", "--generator", "E:1"],
        0,
        "d52c9a22bdfe6fd789954646d2f71cf132c77c4e7997a4684fc54e22fcc1b77b",
    ),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=["check-all", "matrix-E1"])
def test_stdout_digest(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
