"""Golden command line: help and usage text of every parser node, pinned.

One SHA-256 digest over the exit code, standard output and standard
error of `--help` and of an unknown flag `--bogus` at each of the 19
parser nodes: the root, the three nodes that only hold subcommands and
the 15 commands.  It pins the command names, their order, every flag,
its help text and the usage lines, at a fixed width of 80 columns.  The
digest was computed before the parser was built from the command table;
never regenerate it to make a change pass.
"""

import hashlib
import json

from twistq import cli

NODES = [
    [], ["cocycle"], ["cocycle", "construct"], ["quandle"],
    ["homology"], ["cohomology"],
    ["cocycle", "construct", "modular"], ["cocycle", "construct", "polynomial"],
    ["cocycle", "construct", "dihedral"],
    ["cocycle", "construct", "obstruction2"],
    ["cocycle", "construct", "obstruction3"], ["cocycle", "construct", "lift"],
    ["cocycle", "verify"], ["cocycle", "pair"],
    ["quandle", "info"], ["quandle", "iso"],
    ["invariant"], ["invariant-surface"], ["verify-suite"],
]

PINNED = (
    "a9c0fd731429d134af1fe6737193eefaed6b72d7975b48ffeaa78578def6655b")


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return [argv, code, captured.out, captured.err]


def test_help_and_usage_match_the_pinned_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    runs = [_outcome(capsys, node + [flag])
            for node in NODES for flag in ("--help", "--bogus")]
    assert [run[1] for run in runs] == [0, cli.EX_USAGE] * len(NODES)
    blob = json.dumps(runs, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED

