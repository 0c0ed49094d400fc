"""End-to-end checks of the command-line front end."""

import argparse
import cProfile
import itertools
import json
import os
import pstats
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twistq import catalog, cli
from test_help_golden import NODES

HOPF = """\
Xp[1,3,2,4]
Xp[3,1,4,2]
face out: 3L
outer out
"""


def _break_quandle_info(monkeypatch, exc):
    """Make the `quandle info` handler raise exc."""
    def handler(inputs):
        raise exc
    options = cli._COMMANDS["quandle info"][1]
    monkeypatch.setitem(cli._COMMANDS, "quandle info", (handler, options))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestReports:
    def test_homology_report(self, capsys):
        report = run_json(capsys, ["homology", "--quandle", "R(3)",
                                   "--coeff", "Z3[T]/(T+1)", "--degree", "2"])
        assert report["command"] == "homology"
        assert len(report["inputs_digest"]) == 64
        assert report["result"]["invariant_factors"] == [3, 3]
        assert report["result"]["t_action"] == [[2, 0], [0, 2]]

    def test_homology_oracle_flag(self, capsys):
        report = run_json(capsys, ["homology", "--quandle", "T(2)",
                                   "--coeff", "Z2[T]/(T+1)", "--degree", "2",
                                   "--oracle"])
        assert report["result"]["oracle_factors"] == \
            report["result"]["invariant_factors"] == [2, 2]

    def test_homology_oracle_at_the_default_guard(self, capsys, monkeypatch):
        # 729 chains: the default TWISTQ_MAX_BRUTE admits them, 728 does not
        argv = ["homology", "--quandle", "R(3)", "--coeff", "Z9[T]/(T+1)",
                "--variant", "TD", "--degree", "2", "--oracle"]
        monkeypatch.delenv("TWISTQ_MAX_BRUTE", raising=False)
        result = run_json(capsys, argv)["result"]
        assert result["oracle_factors"] == result["invariant_factors"]
        monkeypatch.setenv("TWISTQ_MAX_BRUTE", "728")
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err == (
            "error: chain group has 729 elements (limit 728; "
            "set TWISTQ_MAX_BRUTE)\n")

    def test_cohomology_generators_listed(self, capsys):
        report = run_json(capsys, ["cohomology", "--quandle", "R(3)",
                                   "--coeff", "Z3[T]/(T+1)", "--degree", "2"])
        gens = report["result"]["cocycle_generators"]
        assert report["result"]["invariant_factors"] == [3, 3]
        # generators span the full cocycle group, so at least one per factor
        assert len(gens) >= 2
        assert all("->" in g for g in gens)

    def test_determinism(self, capsys):
        argv = ["homology", "--quandle", "R(3)", "--coeff", "Z3[T]/(T+1)",
                "--degree", "2"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_pretty(self, capsys):
        argv = ["quandle", "info", "--quandle", "T(2)"]
        compact = run(capsys, argv)[1]
        pretty = run(capsys, ["--pretty"] + argv)[1]
        assert json.loads(compact) == json.loads(pretty)
        assert "\n  " in pretty and "\n  " not in compact

    def test_wall_time_on_stderr_only(self, capsys):
        _, out, err = run(capsys, ["quandle", "info", "--quandle", "T(2)"])
        assert "wall-time" in err and "wall-time" not in out


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["no-such-command"])
        assert e.value.code == 64
        capsys.readouterr()

    @pytest.mark.parametrize("value,reason", [
        ("x", "invalid int value: 'x'"),
        ("x" * 200, "invalid int value: %r... (200 characters)" % ("x" * 80)),
        ("1" * 5000, "token of 5000 characters in --degree (limit 4300)"),
        ("x" * 100000,
         "token of 100000 characters in --degree (limit 4300)"),
    ], ids=["short", "long", "digits", "vast"])
    def test_bad_integer_option_is_not_echoed_whole(self, capsys, value,
                                                    reason):
        with pytest.raises(SystemExit) as e:
            cli.main(["homology", "--quandle", "R(3)", "--coeff",
                      "Z3[T]/(T+1)", "--degree", value])
        out, err = capsys.readouterr()
        assert e.value.code == 64 and out == ""
        assert err.endswith("twistq homology: error: argument --degree: %s\n"
                            % reason)
        assert all(len(line.encode()) < 300 for line in err.splitlines())

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["homology", "--quandle", "R(3)"])
        assert e.value.code == 64
        capsys.readouterr()

    def test_domain_error(self, capsys):
        code, out, err = run(capsys, ["homology", "--quandle", "Q(3)",
                                      "--coeff", "Z3[T]/(T+1)",
                                      "--degree", "2"])
        assert code == 2 and out == "" and "error" in err

    def test_zero_ring_named(self, capsys):
        code, out, err = run(capsys, ["homology", "--quandle", "R(3)",
                                      "--coeff", "Z1[T]/(T+1)",
                                      "--degree", "2"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "zero ring" in err

    def test_oversized_quandle_refused_before_its_table(self, capsys,
                                                        monkeypatch):
        # the table would have 10^10 cells
        monkeypatch.delenv("TWISTQ_MAX_TABLE", raising=False)
        start = time.monotonic()
        code, out, err = run(capsys, ["homology", "--quandle", "R(100000)",
                                      "--coeff", "Z3[T]/(T+1)",
                                      "--degree", "2"])
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "limit 65536; set TWISTQ_MAX_TABLE" in err

    @pytest.mark.parametrize("key", ["9,9", "0,-1"])
    def test_lift_seed_key_out_of_range(self, capsys, tmp_path, key):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("%s -> 1\n" % key)
        code, out, err = run(capsys, ["cocycle", "construct", "lift",
                                      "--quandle", "R(3)",
                                      "--coeff", "Z3[T]/(T+1)",
                                      "--seeds", str(seeds)])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "the quandle's elements are 0..2" in err

    def test_lift_seed_on_a_degenerate_pair_is_inconsistent(
            self, capsys, tmp_path):
        # psi vanishes on degenerate tuples, so a seed of 1 there clashes
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0,0 -> 1\n")
        code, out, err = run(capsys, ["cocycle", "construct", "lift",
                                      "--quandle", "R(3)",
                                      "--coeff", "Z3[T]/(T+1)",
                                      "--seeds", str(seeds)])
        assert (code, out, err) == \
            (2, "", "error: inconsistent value forced at (0, 0)\n")

    @pytest.mark.parametrize("argv", [
        ["quandle", "info", "--quandle", "A(3;T^99999999+1)"],
        ["homology", "--quandle", "R(3)", "--coeff", "Z[T]/(T^99999999+1)",
         "--degree", "2"],
        ["cocycle", "construct", "polynomial", "--p", "3", "--m", "2",
         "--h", "T^99999999+1"],
    ], ids=["quandle", "coeff", "construct"])
    def test_huge_exponent_refused_before_its_coefficients(
            self, capsys, monkeypatch, argv):
        monkeypatch.delenv("TWISTQ_MAX_DEGREE", raising=False)
        start = time.monotonic()
        code, out, err = run(capsys, argv)
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "has degree 99999999 (limit 1024; set TWISTQ_MAX_DEGREE)" \
            in err

    @pytest.mark.parametrize("argv,reason", [
        (["polynomial", "--p", "0", "--h", "T+1", "--m", "2"],
         "need p >= 2 and m >= 2"),
        (["polynomial", "--p", "3", "--h", "T+1", "--m", "100000"],
         "h^100000 has degree 100000 (limit 1024; set TWISTQ_MAX_DEGREE)"),
        # |X| = 2^99999 is sized before 2^100000 is computed
        (["modular", "--p", "2", "--m", "100000", "--h", "T+1"],
         "a quandle of order ~10^30102 has a ~10^60205-cell table "
         "(limit 65536; set TWISTQ_MAX_TABLE)"),
        (["modular", "--p", "1000000", "--m", "1000000", "--h", "T+1"],
         "(limit 65536; set TWISTQ_MAX_TABLE)"),
        # |X| = 2^7199 prints, |X|^2 = 2^14398 (4335 digits) does not
        (["modular", "--p", "2", "--m", "7200", "--h", "T+1"],
         "has a ~10^4334-cell table (limit 65536; set TWISTQ_MAX_TABLE)"),
        # |X| = 1153^(1152 * 999) is bounded, not computed
        (["modular", "--p", "1153", "--m", "1153", "--h", "T^999+1"],
         "error: a quandle of order ~10^3523700 has a ~10^7047400-cell "
         "table (limit 65536; set TWISTQ_MAX_TABLE)\n"),
        # m - 1 times log10(p) overflows a float
        (["modular", "--p", "2", "--m", str(10 ** 400), "--h", "T+1"],
         "a quandle of order ~10^~10^399 has a ~10^~10^399-cell table "
         "(limit 65536; set TWISTQ_MAX_TABLE)"),
        # log10(p) rounds up to 4300.0; p has 4300 digits, p^2 8600
        (["modular", "--p", "9" * 4300, "--m", "2", "--h", "T+1"],
         "error: a quandle of order ~10^4299 has a ~10^8599-cell table "
         "(limit 65536; set TWISTQ_MAX_TABLE)\n"),
    ], ids=["p0", "h-power", "modular-bound", "modular-p-and-m",
            "long-square", "long-order", "modular-m-past-a-float",
            "p-just-below-a-decade"])
    def test_construct_refused_in_one_line(self, capsys, monkeypatch, argv,
                                           reason):
        for var in ("TWISTQ_MAX_DEGREE", "TWISTQ_MAX_TABLE"):
            monkeypatch.delenv(var, raising=False)
        start = time.monotonic()
        code, out, err = run(capsys, ["cocycle", "construct"] + argv)
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and reason in err

    @pytest.mark.parametrize("argv,reason", [
        (["quandle", "info", "--quandle", "@{r300}"],
         "order 300 has a 90000-cell table (limit 65536; "
         "set TWISTQ_MAX_TABLE)"),
        (["cocycle", "construct", "obstruction2",
          "--ambient", "Z1000000[T]/(T^2+1)", "--sub", "2",
          "--quandle", "R(3)", "--eta", "0,0,0"],
         "the ambient module has 1000000000000 elements (limit 65536; "
         "set TWISTQ_MAX_TABLE)"),
        (["cocycle", "construct", "obstruction2",
          "--ambient", "Z%d[T]/(T^3+1)" % 10 ** 4000, "--sub", "2",
          "--quandle", "R(3)", "--eta", "0,0,0"],
         "the ambient module has ~10^12000 elements (limit 65536; "
         "set TWISTQ_MAX_TABLE)"),
        (["cocycle", "construct", "obstruction2",
          "--ambient", "Z9[T]/(T+1)", "--sub", "3", "--quandle", "R(9)",
          "--eta", "0,0,0,0,0,0,0,0,0", "--search-lift"],
         "the correction search has 19683 candidates (limit 6561; "
         "set TWISTQ_MAX_BRUTE)"),
        (["cocycle", "construct", "polynomial", "--p", "928", "--m", "928",
          "--h", "T-1"],
         "has a ~10^5501-cell table (limit 65536; set TWISTQ_MAX_TABLE)"),
    ], ids=["table-file", "ambient", "long-ambient", "correction-search",
            "polynomial-order"])
    def test_guard_refuses_before_paying(self, capsys, monkeypatch, tmp_path,
                                         argv, reason):
        for var in ("TWISTQ_MAX_BRUTE", "TWISTQ_MAX_TABLE"):
            monkeypatch.delenv(var, raising=False)
        r300 = tmp_path / "r300.txt"
        r300.write_text("300\n" + "".join(
            " ".join(str((2 * b - a) % 300) for b in range(300)) + "\n"
            for a in range(300)))
        start = time.monotonic()
        code, out, err = run(capsys, [a.format(r300=r300) for a in argv])
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and reason in err

    def test_long_quandle_order_named(self, capsys, monkeypatch):
        # 10^6000 elements: the sizes are too long for str()
        monkeypatch.delenv("TWISTQ_MAX_TABLE", raising=False)
        code, out, err = run(capsys, ["quandle", "info", "--quandle",
                                      "A(1000000;T^1000+1)"])
        assert code == 2 and out == ""
        assert err == ("error: a quandle of order ~10^6000 has a "
                       "~10^12000-cell table (limit 65536; set "
                       "TWISTQ_MAX_TABLE)\n")

    @pytest.mark.parametrize("argv", [
        ["cocycle", "construct", "modular", "--p=3", "--m=2", "--h=--"],
        ["homology", "--quandle=--", "--coeff", "Z3[T]/(T+1)",
         "--degree", "2"],
    ], ids=["h", "quandle"])
    def test_double_dash_value_is_text(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "'--'" in err

    def test_long_lift_seed_key_refused_by_the_basis_guard(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("TWISTQ_MAX_BASIS", raising=False)
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(",".join("01" * 9) + " -> 1\n")
        start = time.monotonic()
        code, out, err = run(capsys, ["cocycle", "construct", "lift",
                                      "--quandle", "R(3)",
                                      "--coeff", "Z3[T]/(T+1)",
                                      "--seeds", str(seeds)])
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "degree-18 basis has 387420489 tuples (limit 20000; set " \
            "TWISTQ_MAX_BASIS)" in err

    @pytest.mark.parametrize("degree,size", [
        (17, "387420489"), (10 ** 8, "~10^47712125")])
    def test_basis_guard_pays_nothing_for_the_degree(self, capsys,
                                                      monkeypatch, degree,
                                                      size):
        # homology sizes the degree-(n+1) basis first; the guard must
        # not compute 3^(10^8), which takes minutes
        monkeypatch.delenv("TWISTQ_MAX_BASIS", raising=False)
        start = time.monotonic()
        code, out, err = run(capsys, ["homology", "--degree", str(degree)]
                             + _R3)
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: degree-%d basis has %s tuples (limit 20000; "
                       "set TWISTQ_MAX_BASIS)\n" % (degree + 1, size))

    def test_degree_too_large_for_a_float_is_refused(self, capsys,
                                                     monkeypatch):
        # (10^400 + 1) * log10(3) overflows a float; the decade is exact
        monkeypatch.delenv("TWISTQ_MAX_BASIS", raising=False)
        code, out, err = run(capsys, ["homology", "--degree",
                                      str(10 ** 400)] + _R3)
        assert (code, out) == (2, "")
        assert err == ("error: degree-~10^400 basis has ~10^~10^399 tuples "
                       "(limit 20000; set TWISTQ_MAX_BASIS)\n")

    def test_oracle_guard_comes_before_the_engine(self, capsys,
                                                  monkeypatch):
        # the engine would spend most of a minute on this complex
        monkeypatch.delenv("TWISTQ_MAX_BRUTE", raising=False)
        start = time.monotonic()
        code, out, err = run(capsys, [
            "homology", "--quandle", "R(3)", "--degree", "8", "--oracle",
            "--coeff", "Z%d[T]/(T+1)" % 10 ** 4000])
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: chain group has ~10^1536000 elements (limit "
                       "729; set TWISTQ_MAX_BRUTE)\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["invariant",
                                    "--pd", str(tmp_path / "nope.pd"),
                                    "--quandle", "T(2)",
                                    "--coeff", "Z[T]/(T^2-1)",
                                    "--cocycle", str(tmp_path / "nope.co")])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text,reason", [
        ("-1\n", "error: quandle table size must be >= 1, got -1\n"),
        ("0\n", "error: quandle table size must be >= 1, got 0\n"),
        ("# no rows\n0\n0 0\n",
         "error: quandle table size must be >= 1, got 0\n"),
    ], ids=["negative", "zero", "zero-with-a-row"])
    def test_table_size_below_one_refused(self, capsys, tmp_path, text,
                                          reason):
        table = tmp_path / "q.txt"
        table.write_text(text)
        code, out, err = run(capsys, ["quandle", "info",
                                      "--quandle", "@%s" % table])
        assert (code, out, err) == (2, "", reason)

    def test_table_size_with_a_plus_sign(self, capsys, tmp_path):
        table = tmp_path / "r3.txt"
        table.write_text("+3\n0 2 1\n2 1 0\n1 0 2\n")
        report = run_json(capsys, ["quandle", "info",
                                   "--quandle", "@%s" % table])
        assert report["result"]["size"] == 3
        assert report["result"]["table"] == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]

    @pytest.mark.parametrize("text", ["--1\n", "-\n", "+T(2)\n"])
    def test_sign_without_a_digit_is_a_name(self, capsys, tmp_path, text):
        name = tmp_path / "q.txt"
        name.write_text(text)
        code, out, err = run(capsys, ["quandle", "info",
                                      "--quandle", "@%s" % name])
        assert (code, out) == (2, "")
        assert err == "error: unknown quandle name %r\n" % text

    @pytest.mark.parametrize("argv, bad", [
        (["quandle", "info", "--quandle", "R(x)"],
         "'x' in quandle name 'R(x)'"),
        (["quandle", "info", "--quandle", "A(x;T+1)"],
         "'x' in quandle name 'A(x;T+1)'"),
        (["quandle", "info", "--quandle", "T()"],
         "'' in quandle name 'T()'"),
        (["cocycle", "construct", "obstruction2", "--ambient", "Z9[T]/(T+1)",
          "--sub", "3", "--quandle", "R(3)", "--eta", "0,,0"],
         "'' in --eta '0,,0'"),
    ])
    def test_bad_integer_named(self, capsys, argv, bad):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: bad integer %s\n" % bad

    @pytest.mark.parametrize("exc, line", [
        (RuntimeError("broken\n  state"), "RuntimeError: broken state"),
        (KeyError("x"), "KeyError: 'x'"),
    ])
    def test_internal_error_is_one_line(self, capsys, monkeypatch, exc, line):
        _break_quandle_info(monkeypatch, exc)
        code, out, err = run(capsys, ["quandle", "info", "--quandle", "R(3)"])
        assert (code, out) == (70, "")
        assert err == "internal error: %s\n" % line

    def test_keyboard_interrupt_is_not_caught(self, capsys, monkeypatch):
        _break_quandle_info(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            cli.main(["quandle", "info", "--quandle", "R(3)"])
        assert capsys.readouterr().out == ""


_POLY_TEXT = st.one_of(
    st.sampled_from(["T+1", "T^2+T+1", "2T+1", "T", "1", "3T+3", "T-1",
                     "T^2+1", "T^999+1", "T^99999999"]),
    st.text(alphabet="T0123456789+-^ ", max_size=8))
# anywhere in -2 .. 10^6, but often small enough to build
_PARAMETER = st.one_of(st.integers(-2, 8), st.integers(-2, 10 ** 6))


class TestConstructContract:
    """`cocycle construct modular|polynomial|dihedral` through main():
    every input ends in exit 0 or in exit 2 with one `error: ` line."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(family=st.sampled_from(["modular", "polynomial", "dihedral"]),
           p=_PARAMETER, m=_PARAMETER, n=_PARAMETER, h=_POLY_TEXT)
    def test_exit_contract(self, capsys, monkeypatch, family, p, m, n, h):
        # small enough that a valid example builds and verifies quickly
        monkeypatch.setenv("TWISTQ_MAX_TABLE", "400")
        monkeypatch.setenv("TWISTQ_MAX_BASIS", "400")
        monkeypatch.delenv("TWISTQ_MAX_DEGREE", raising=False)
        if family == "dihedral":
            argv = ["--n=%d" % n]
        else:
            argv = ["--p=%d" % p, "--m=%d" % m, "--h=%s" % h]
        code, out, err = run(capsys, ["cocycle", "construct", family] + argv)
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: ")
        else:
            assert json.loads(out)["result"]["degree"] == 2


class TestConstruct:
    def test_modular(self, capsys):
        report = run_json(capsys, ["cocycle", "construct", "modular",
                                   "--p", "3", "--m", "2", "--h", "T+1"])
        assert report["result"]["cocycle"] == \
            "0,2 -> 1\n1,0 -> 2\n1,2 -> 1\n2,0 -> 2\n"
        assert report["result"]["quandle"]["size"] == 3

    def test_polynomial(self, capsys):
        report = run_json(capsys, ["cocycle", "construct", "polynomial",
                                   "--p", "3", "--h", "T+1", "--m", "2"])
        assert report["result"]["ring"] == "Z3[T]/(T + 1)"

    def test_dihedral(self, capsys):
        report = run_json(capsys, ["cocycle", "construct", "dihedral",
                                   "--n", "3"])
        assert report["result"]["cocycle"] == \
            "0,2 -> 1\n1,0 -> -1\n1,2 -> 1\n2,0 -> -1\n"

    def test_lift(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0,1 -> 1\n")
        report = run_json(capsys, ["cocycle", "construct", "lift",
                                   "--quandle", "R(3)",
                                   "--coeff", "Z3[T]/(T+1)",
                                   "--seeds", str(seeds)])
        assert report["result"]["is_tq"] is True
        assert report["result"]["cocycle"].count("\n") == 6

    def test_obstruction2_with_lift_search(self, capsys):
        report = run_json(capsys, ["cocycle", "construct", "obstruction2",
                                   "--ambient", "Z9[T]/(T+1)", "--sub", "3",
                                   "--quandle", "R(3)", "--eta", "0,1,2",
                                   "--search-lift"])
        assert report["result"]["lift"] is None
        assert "0,2 -> 3" in report["result"]["cocycle"]

    def test_obstruction3(self, capsys, tmp_path):
        phi = tmp_path / "phi.txt"
        phi.write_text("")  # the zero 2-cochain
        report = run_json(capsys, ["cocycle", "construct", "obstruction3",
                                   "--ambient", "Z9[T]/(T+1)", "--sub", "3",
                                   "--quandle", "R(3)", "--phi", str(phi)])
        assert report["result"]["cocycle"] == ""
        assert report["result"]["degree"] == 3


class TestVerifyAndPair:
    def test_verify_cocycle(self, capsys, tmp_path):
        co = tmp_path / "phi.txt"
        co.write_text("0,2 -> 1\n1,0 -> -1\n1,2 -> 1\n2,0 -> -1\n")
        report = run_json(capsys, ["cocycle", "verify", "--quandle", "R(3)",
                                   "--coeff", "Z[T]/(T+1)", "--degree", "2",
                                   "--cocycle", str(co)])
        assert report["result"]["is_cocycle"] is True
        assert report["result"]["is_coboundary"] is False

    def test_verify_non_cocycle_witnessed(self, capsys, tmp_path):
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> 1\n")
        report = run_json(capsys, ["cocycle", "verify", "--quandle", "R(3)",
                                   "--coeff", "Z3[T]/(T+1)", "--degree", "2",
                                   "--cocycle", str(co)])
        assert report["result"]["is_cocycle"] is False
        assert report["result"]["witness"] is not None

    def test_pair(self, capsys, tmp_path):
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> 2\n0,2 -> 1\n1,0 -> 1\n1,2 -> 2\n"
                      "2,0 -> 2\n2,1 -> 1\n")
        cy = tmp_path / "cycle.txt"
        cy.write_text("1,0 -> 1\n2,0 -> 2\n")
        report = run_json(capsys, ["cocycle", "pair", "--quandle", "R(3)",
                                   "--coeff", "Z3[T]/(T+1)", "--degree", "2",
                                   "--cocycle", str(co), "--cycle", str(cy)])
        assert report["result"]["value"] == "2"

    def test_degree_zero_generator_reads_back(self, capsys, tmp_path):
        report = run_json(capsys, ["cohomology", "--degree", "0"] + _R3)
        generator, = report["result"]["cocycle_generators"]
        assert generator == " -> 1\n"
        co = tmp_path / "phi.txt"
        co.write_text(generator)
        report = run_json(capsys, ["cocycle", "verify", "--degree", "0",
                                   "--cocycle", str(co)] + _R3)
        assert report["result"]["is_cocycle"] is True
        report = run_json(capsys, ["cocycle", "pair", "--degree", "0",
                                   "--cocycle", str(co), "--cycle", str(co)]
                          + _R3)
        assert report["result"]["value"] == "1"


class TestQuandleCommands:
    def test_info_standard(self, capsys):
        report = run_json(capsys, ["quandle", "info", "--quandle", "R(3)"])
        assert report["result"]["size"] == 3
        assert report["result"]["table"][0] == [0, 2, 1]

    def test_info_table_file(self, capsys, tmp_path):
        table = tmp_path / "q.txt"
        table.write_text("2\n0 0\n1 1\n")
        report = run_json(capsys, ["quandle", "info",
                                   "--quandle", "@" + str(table)])
        assert report["result"]["size"] == 2

    def test_info_table_file_with_leading_comment(self, capsys, tmp_path):
        table = tmp_path / "q.txt"
        table.write_text("# the trivial quandle\n2\n0 0\n1 1\n")
        report = run_json(capsys, ["quandle", "info",
                                   "--quandle", "@" + str(table)])
        assert report["result"]["table"] == [[0, 0], [1, 1]]

    def test_iso(self, capsys):
        report = run_json(capsys, ["quandle", "iso", "--first", "R(2)",
                                   "--second", "T(2)"])
        assert report["result"]["isomorphic"] is True
        report = run_json(capsys, ["quandle", "iso", "--first", "T(3)",
                                   "--second", "R(3)"])
        assert report["result"]["isomorphic"] is False

    def test_iso_of_different_right_translations(self, capsys, tmp_path):
        # a right translation of the first is a 3-cycle; the second has
        # only transpositions, so no map between them is a homomorphism
        first, second = tmp_path / "x.txt", tmp_path / "y.txt"
        first.write_text("4\n0 2 0 0\n1 1 1 1\n2 3 2 2\n3 0 3 3\n")
        second.write_text("4\n0 0 0 0\n1 1 1 2\n2 2 2 1\n3 3 3 3\n")
        report = run_json(capsys, ["quandle", "iso", "--first", "@%s" % first,
                                   "--second", "@%s" % second])
        assert report["result"] == {"isomorphic": False, "map": None}


class TestInvariant:
    def test_hopf(self, capsys, tmp_path):
        pd = tmp_path / "hopf.pd"
        pd.write_text(HOPF)
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> T\n1,0 -> 1\n")
        report = run_json(capsys, ["invariant", "--pd", str(pd),
                                   "--quandle", "T(2)",
                                   "--coeff", "Z[T]/(T^2-1)",
                                   "--cocycle", str(co)])
        assert report["result"]["value"] == "2 + 2st"
        assert report["result"]["colorings"] == 4

    @pytest.mark.parametrize("ring", ["Z2[T]/(T^9+T+1)",
                                      "Z2[T]/(T^8+T^4+T^3+T+1)"])
    def test_zero_cocycle_needs_no_letter(self, capsys, tmp_path, ring):
        # every weight is the zero key, which renders as 1 at any rank
        pd, co = tmp_path / "hopf.pd", tmp_path / "zero.txt"
        pd.write_text(HOPF)
        co.write_text("")
        report = run_json(capsys, ["invariant", "--pd", str(pd),
                                   "--quandle", "T(2)", "--coeff", ring,
                                   "--cocycle", str(co)])
        assert report["result"]["value"] == "4"

    def test_override_of_missing_crossing_is_refused(self, capsys, tmp_path):
        pd = tmp_path / "hopf.pd"
        pd.write_text(HOPF + "L 0 -1\nL 5 -1\n")
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> T\n1,0 -> 1\n")
        code, out, err = run(capsys, ["invariant", "--pd", str(pd),
                                      "--quandle", "T(2)",
                                      "--coeff", "Z[T]/(T^2-1)",
                                      "--cocycle", str(co)])
        assert code == 2 and out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and "crossing 5" in err

    def test_unnumberable_mod_p_diagram_sums_to_zero(self, capsys,
                                                     tmp_path):
        # the two crossings admit no Alexander numbering mod 3, so the
        # state sum is 0 over the colorings, with no weights
        pd = tmp_path / "unnumberable.pd"
        pd.write_text("Xp[2,3,1,4]\nXp[1,4,2,3]\nmod 3\n")
        co = tmp_path / "empty.txt"
        co.write_text("")
        report = run_json(capsys, ["invariant", "--pd", str(pd),
                                   "--quandle", "R(3)",
                                   "--coeff", "Z3[T]/(T^3-1)",
                                   "--cocycle", str(co)])
        assert report["result"] == {"colorings": 9, "value": "0",
                                    "weights": []}

    def test_long_torus_knot(self, capsys, tmp_path, torus_pd):
        pd = tmp_path / "t2_601.pd"
        pd.write_text(torus_pd(601))
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> T\n1,0 -> 1\n")
        code, out, err = run(capsys, ["invariant", "--pd", str(pd),
                                      "--quandle", "T(2)",
                                      "--coeff", "Z[T]/(T^2-1)",
                                      "--cocycle", str(co)])
        assert code == 0 and "Traceback" not in err, err
        assert len(out.splitlines()) == 1
        result = json.loads(out)["result"]
        assert result["value"] == "2" and result["colorings"] == 2

    def test_surface(self, capsys, tmp_path):
        sf = tmp_path / "spun.srf"
        sf.write_text("sheets: x y z\n"
                      "tp: sign=+1 L=0 x=x y=y z=z\n"
                      "tp: sign=+1 L=0 x=x y=z z=y\n"
                      "tp: sign=-1 L=0 x=y y=z z=x\n"
                      "tp: sign=-1 L=0 x=z y=y z=x\n")
        co = tmp_path / "theta.txt"
        co.write_text("0,1,2 -> T + 1\n")
        report = run_json(capsys, ["invariant-surface", "--surface", str(sf),
                                   "--quandle", "T(3)",
                                   "--coeff", "Z0[T]/(T^2-1)",
                                   "--cocycle", str(co)])
        assert report["result"]["value"] == "23 + 2st + 2(st)^-1"
        assert report["result"]["colorings"] == 27

    def test_huge_numbering_powers_take_logarithmic_time(self, tmp_path):
        # T = -1 in Z[T]/(T+1) and 10^12 is even, so the report is the one
        # of L = 0; each T^-L takes about 40 products, not 10^12 steps
        from twistq import chain, cocycles
        co = tmp_path / "phi.txt"
        co.write_text(chain.render_cochain(
            cocycles.dihedral_integral_cocycle(3)[0]))
        argv = ["invariant", "--quandle", "R(3)", "--coeff", "Z[T]/(T+1)",
                "--cocycle", str(co), "--pd"]
        reports = []
        for value in (0, 10 ** 12):
            pd = tmp_path / ("l%d.pd" % value)
            pd.write_text("Xp[1,3,2,4]\nXp[3,1,4,2]\nL 0 %d\nL 1 %d\n"
                          % (value, value))
            proc = subprocess.run(
                [sys.executable, "-m", "twistq.cli"] + argv + [str(pd)],
                capture_output=True, text=True, timeout=30,
                env=dict(os.environ, PYTHONPATH=os.path.dirname(
                    os.path.dirname(cli.__file__))))
            assert proc.returncode == 0, proc.stderr
            wall = float(proc.stderr.split("wall-time: ")[1].rstrip("s\n"))
            assert wall < 1
            reports.append(json.loads(proc.stdout)["result"])
        assert reports[0] == reports[1]

    def test_numbering_power_too_long_to_print_is_refused(self, capsys,
                                                          tmp_path,
                                                          monkeypatch):
        # T has infinite order in Z[T]/(T^2-T-1): T^-(10^12) would have
        # coefficients of about 2 * 10^11 digits
        monkeypatch.delenv("TWISTQ_MAX_DIGITS", raising=False)
        pd = tmp_path / "hopf.pd"
        pd.write_text("Xp[1,3,2,4]\nXp[3,1,4,2]\nL 0 1000000000000\n"
                      "L 1 0\n")
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> 0\n")
        started = time.perf_counter()
        code, out, err = run(capsys, ["invariant", "--pd", str(pd),
                                      "--quandle", "T(2)",
                                      "--coeff", "Z[T]/(T^2-T-1)",
                                      "--cocycle", str(co)])
        assert time.perf_counter() - started < 1
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "T^-1000000000000" in err and "TWISTQ_MAX_DIGITS" in err

    def test_face_naming_an_unknown_semiarc_is_refused(self, capsys,
                                                       tmp_path):
        pd = tmp_path / "hopf.pd"
        pd.write_text(HOPF + "face a: 9L\n")
        co = tmp_path / "phi.txt"
        co.write_text("0,1 -> T\n1,0 -> 1\n")
        code, out, err = run(capsys, ["invariant", "--pd", str(pd),
                                      "--quandle", "T(2)",
                                      "--coeff", "Z[T]/(T^2-1)",
                                      "--cocycle", str(co)])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == ("error: face 'a' names semiarc '9', which the "
                       "diagram does not have\n")


# a cochain option, the other arguments of its command, and the degree of
# the cochains it reads
_R3 = ["--quandle", "R(3)", "--coeff", "Z3[T]/(T+1)"]
_COCHAIN_OPTIONS = [
    ("--cocycle", ["cocycle", "verify", "--degree", "2"] + _R3, 2),
    ("--cocycle", ["cocycle", "pair", "--degree", "2", "--cycle", "{ok}"]
     + _R3, 2),
    ("--cycle", ["cocycle", "pair", "--degree", "2", "--cocycle", "{ok}"]
     + _R3, 2),
    ("--cocycle", ["invariant", "--pd", "{pd}"] + _R3, 2),
    ("--cocycle", ["invariant-surface", "--surface", "{surface}"] + _R3, 3),
    ("--phi", ["cocycle", "construct", "obstruction3", "--ambient",
               "Z9[T]/(T+1)", "--sub", "3", "--quandle", "R(3)"], 2),
    ("--seeds", ["cocycle", "construct", "lift"] + _R3, 2),
]


@pytest.mark.parametrize("option,argv,degree", _COCHAIN_OPTIONS, ids=[
    " ".join(itertools.takewhile(lambda a: a[0] != "-", argv))
    + " " + option
    for option, argv, _ in _COCHAIN_OPTIONS])
# a key is refused whatever its value, 0 included
@pytest.mark.parametrize("element,value", [(9, 1), (-1, 1), (3, 0)])
def test_cochain_key_outside_the_quandle_is_refused(
        capsys, tmp_path, option, argv, degree, element, value):
    files = {"ok": "", "pd": HOPF,
             "surface": "sheets: x y\ntp: sign=+1 L=0 x=x y=y z=x\n",
             "bad": "%s -> %d\n" % (",".join(["0"] * (degree - 1)
                                              + [str(element)]), value)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(**{n: str(tmp_path / n) for n in files}) for a in argv]
    code, out, err = run(capsys, argv + [option, str(tmp_path / "bad")])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "is outside the quandle; the quandle's elements are 0..2" in err


def test_juxtaposed_polynomial_terms_are_refused(capsys, tmp_path):
    # "1 1" was read as 2
    co, cy = tmp_path / "phi.txt", tmp_path / "cycle.txt"
    co.write_text("0,1 -> 1 1\n")
    cy.write_text("0,1 -> 1\n")
    code, out, err = run(capsys, ["cocycle", "pair", "--cocycle", str(co),
                                  "--cycle", str(cy), "--degree", "2"] + _R3)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "cannot parse polynomial '1 1'" in err


@pytest.mark.parametrize("argv,files,reason", [
    (["invariant", "--pd", "{x}", "--cocycle", "{ok}"] + _R3,
     {"x": HOPF + "L 0\n"}, "bad integer '' in line 'L 0'"),
    (["invariant", "--pd", "{x}", "--cocycle", "{ok}"] + _R3,
     {"x": HOPF + "mod p\n"}, "bad integer 'p' in line 'mod p'"),
    (["cocycle", "verify", "--degree", "2", "--cocycle", "{x}"] + _R3,
     {"x": ",, -> 1\n"}, "bad cochain key in line ',, -> 1'"),
    (["cocycle", "verify", "--degree", "1", "--cocycle", "{x}"] + _R3,
     {"x": "0, -> 1\n"}, "bad cochain key in line '0, -> 1'"),
    (["invariant-surface", "--surface", "{x}", "--cocycle", "{ok}"] + _R3,
     {"x": "sheets: x y\ntp: sign=+1 L=a x=x y=y z=x\n"},
     "bad integer 'a' in line 'tp: sign=+1 L=a x=x y=y z=x'"),
    (["quandle", "info", "--quandle", "@{x}"],
     {"x": "2\n0 0\n1 1 x\n"}, "bad table row '1 1 x'"),
], ids=["pd-override", "pd-mod", "cochain-key", "cochain-key-trailing-comma",
        "surface-field", "table-row"])
def test_unreadable_integer_names_its_line(capsys, tmp_path, argv, files,
                                           reason):
    files = dict(files, ok="")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(**{n: str(tmp_path / n) for n in files}) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % reason


def _run_on_files(capsys, tmp_path, argv, files):
    """main(argv) with each {name} in argv the path of a file holding
    files[name]; {ok} is an empty file."""
    files = dict(files, ok="")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return run(capsys, [a.format(**{n: str(tmp_path / n) for n in files})
                        for a in argv])


_LONG = "1" * 5000
_NINES = "9" * 4300  # the longest integer outside text may hold
_INVARIANT = ["invariant", "--pd", "{x}", "--cocycle", "{ok}"] + _R3
_INVARIANT_SURFACE = ["invariant-surface", "--surface", "{x}",
                      "--cocycle", "{ok}"] + _R3
_VERIFY = ["cocycle", "verify", "--degree", "2", "--cocycle", "{x}"] + _R3
# (argv, files, environment) with one 5000-digit integer each
_LONG_INTEGERS = {
    "dihedral-name": (["quandle", "info", "--quandle", "R(%s)" % _LONG],
                      {}, {}),
    "exponent": (["quandle", "info", "--quandle", "A(3;T^%s+1)" % _LONG],
                 {}, {}),
    "table-size": (["quandle", "info", "--quandle", "@{x}"],
                   {"x": _LONG + "\n"}, {}),
    "table-row": (["quandle", "info", "--quandle", "@{x}"],
                  {"x": "2\n0 %s\n1 1\n" % _LONG}, {}),
    "ring-modulus": (["homology", "--quandle", "R(3)", "--coeff",
                      "Z%s[T]/(T+1)" % _LONG, "--degree", "2"], {}, {}),
    "cochain-key": (_VERIFY, {"x": "%s,0 -> 1\n" % _LONG}, {}),
    "cochain-value": (_VERIFY, {"x": "0,1 -> %s\n" % _LONG}, {}),
    "pd-mod": (_INVARIANT, {"x": HOPF + "mod %s\n" % _LONG}, {}),
    "pd-override": (_INVARIANT, {"x": HOPF + "L 0 %s\n" % _LONG}, {}),
    "surface-field": (_INVARIANT_SURFACE, {
        "x": "sheets: x y\ntp: sign=+1 L=%s x=x y=y z=x\n" % _LONG}, {}),
    "eta": (["cocycle", "construct", "obstruction2", "--ambient",
             "Z9[T]/(T+1)", "--sub", "3", "--quandle", "R(3)",
             "--eta", _LONG], {}, {}),
    "catalog": (["verify-suite", "--catalog", "{x}"],
                {"x": '[{"id": %s}]' % _LONG}, {}),
    "environment": (["homology", "--quandle", "R(3)", "--coeff",
                     "Z3[T]/(T+1)", "--degree", "2"], {},
                    {"TWISTQ_MAX_BASIS": _LONG}),
}


@pytest.fixture(params=["default", "unlimited"])
def int_max_str_digits(request):
    """Python's own limit on int() of text, as is or switched off."""
    if request.param == "default":
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python has no limit on int() of text")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv,files,env", _LONG_INTEGERS.values(),
                         ids=_LONG_INTEGERS.keys())
def test_long_integer_is_refused_without_echo(
        capsys, tmp_path, monkeypatch, int_max_str_digits, argv, files, env):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = _run_on_files(capsys, tmp_path, argv, files)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert _LONG[:50] not in err
    assert "token of 5000 characters in " in err


_TERMS = "T" + "+T" * 19999 + "+x"  # 20,000 terms, the last one bad
_KEY = ",".join(["0"] * 5000)  # a cochain key of 5000 entries
_LONG_KEY = ",".join([_LONG[:4000]] * 2)  # two 4000-digit entries
# (argv, files, the longest reason allowed) of inputs whose refusal
# would echo a long text or integer whole
_LONG_TEXTS = {
    "order-of-4300-digits": (["quandle", "info", "--quandle",
                              "R(%s)" % _LONG[:4300]], {}, 200),
    "polynomial": (["quandle", "info", "--quandle", "A(3;%s)" % _TERMS],
                   {}, 300),
    "pd-line": (_INVARIANT, {"x": HOPF + "Xp[%s]\n" % ",".join(_LONG)},
                300),
    "cochain-line": (_VERIFY, {"x": "0,1 %s\n" % _TERMS}, 300),
    "cochain-value": (_VERIFY, {"x": "0,1 -> %s\n" % _TERMS}, 300),
    "key-of-wrong-length": (_VERIFY, {"x": "%s -> 1\n" % _KEY}, 300),
    "key-outside-the-quandle": (_VERIFY, {"x": "%s -> 1\n" % _LONG_KEY},
                                300),
    "key-of-another-length": (
        ["cocycle", "construct", "lift", "--seeds", "{x}"] + _R3,
        {"x": "0,1 -> 1\n%s -> 1\n" % _KEY}, 300),
    "key-twice": (["cocycle", "construct", "lift", "--seeds", "{x}"] + _R3,
                  {"x": "%s -> 1\n%s -> 2\n" % (_KEY, _KEY)}, 300),
    "triple-point-field": (_INVARIANT_SURFACE, {
        "x": "sheets: x y\ntp: sign=+1 L=0 x=x y=y z=x %s\n" % _LONG}, 300),
    "override-of-a-vast-crossing": (_INVARIANT,
                                    {"x": HOPF + "L %s 0\n" % _NINES}, 300),
    "mod-p-numbering": (_INVARIANT, {"x": HOPF + "mod %s\n" % _NINES}, 300),
    "dangling-semiarcs": (_INVARIANT, {"x": "".join(
        "Xp[a%d,b%d,c%d,d%d]\n" % (i, i, i, i) for i in range(2000))}, 300),
    "dangling-long-name": (_INVARIANT, {
        "x": "Xp[1,3,2,4]\nXp[3,1,4,%s]\n" % ("n" * 100000)}, 300),
    "table-entry": (["quandle", "info", "--quandle", "@{x}"],
                    {"x": "2\n0 %s\n1 1\n" % _NINES}, 300),
    "eta-map-value": (["cocycle", "construct", "obstruction2", "--ambient",
                       "Z9[T]/(T+1)", "--sub", "3", "--quandle", "R(3)",
                       "--eta", "0,1," + _NINES], {}, 300),
    "unit-mod-n": (["homology", "--quandle", "R(3)", "--degree", "2",
                    "--coeff", "Z1%s[T]/(2T+1)" % ("0" * 4299)], {}, 300),
    "unit-in-Z": (["homology", "--quandle", "R(3)", "--degree", "2",
                   "--coeff", "Z[T]/(%sT+1)" % _NINES], {}, 300),
    "power-of-a-vast-override": (
        ["invariant", "--pd", "{x}", "--cocycle", "{ok}", "--quandle",
         "T(2)", "--coeff", "Z[T]/(T^2-T-1)"],
        {"x": HOPF + "L 0 %s\n" % _NINES}, 300),
    "file-name": (["invariant", "--pd", "p" * 100000, "--cocycle", "{ok}"]
                  + _R3, {}, 300),
    "key-for-a-vast-degree": (["cocycle", "verify", "--degree", _NINES,
                               "--cocycle", "{x}"] + _R3,
                              {"x": "0,1 -> 1\n"}, 300),
}


@pytest.mark.parametrize("argv,files,longest", _LONG_TEXTS.values(),
                         ids=_LONG_TEXTS.keys())
def test_long_text_is_refused_in_one_short_line(capsys, tmp_path, argv,
                                                files, longest):
    code, out, err = _run_on_files(capsys, tmp_path, argv, files)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < longest, err[:400]


# refusals that no other test reaches, with their messages
_REFUSALS = {
    "unknown-base": (_INVARIANT, {"x": HOPF + "mod 2\nbase nowhere\n"},
                     "unknown face id 'nowhere'"),
    "region-named-twice": (_INVARIANT, {"x": HOPF + "face again: 3L\n"},
                           "face 'again' duplicates another declared face"),
    "face-line-twice": (_INVARIANT, {"x": HOPF + "face out: 1R\n"},
                        "face 'out' is declared twice"),
    "mod-1": (_INVARIANT, {"x": HOPF + "mod 1\n"}, "mod needs p >= 2"),
    "face-without-name": (_INVARIANT, {"x": HOPF + "face : 3L\n"},
                          "malformed face line 'face : 3L'"),
    "face-prefix": (_INVARIANT, {"x": HOPF + "facet out: 3L\n"},
                    "cannot parse diagram line 'facet out: 3L'"),
    "relation-without-product": (_INVARIANT_SURFACE,
                                 {"x": "sheets: x y\nrel: x = y\n"},
                                 "malformed relation 'rel: x = y'"),
    "unknown-surface-line": (_INVARIANT_SURFACE,
                             {"x": "sheets: x y\nfoo: x\n"},
                             "cannot parse surface line 'foo: x'"),
    "unknown-sheet": (_INVARIANT_SURFACE,
                      {"x": "sheets: x y\nrel: x = y * w\n"},
                      "relation uses unknown sheet"),
    "sign-3": (_INVARIANT_SURFACE,
               {"x": "sheets: x y\ntp: sign=3 L=0 x=x y=y z=x\n"},
               "triple point sign must be +-1"),
    "table-not-square": (["quandle", "info", "--quandle", "@{x}"],
                         {"x": "2\n0 0\n1\n"},
                         "operation table is not square"),
    "table-entry-out-of-range": (["quandle", "info", "--quandle", "@{x}"],
                                 {"x": "2\n0 5\n1 1\n"},
                                 "table entry 5 out of range"),
    "T(0)": (["quandle", "info", "--quandle", "T(0)"], {},
             "trivial quandle needs n >= 1"),
    "R(0)": (["quandle", "info", "--quandle", "R(0)"], {},
             "dihedral quandle needs n >= 1"),
    "seed-keys-of-two-lengths": (
        ["cocycle", "construct", "lift", "--seeds", "{x}"] + _R3,
        {"x": "0,1 -> 1\n0,1,2 -> 1\n"},
        "cochain key (0, 1, 2) has 3 entries, but the first key has 2"),
    "seeds-of-no-key": (["cocycle", "construct", "lift", "--seeds", "{x}"]
                        + _R3, {"x": ""}, "need at least one seed value"),
    "seeds-of-comments-only": (
        ["cocycle", "construct", "lift", "--seeds", "{x}"] + _R3,
        {"x": "# no seed yet\n\n"}, "need at least one seed value"),
    "eta-too-short": (["cocycle", "construct", "obstruction2", "--ambient",
                       "Z9[T]/(T+1)", "--sub", "3", "--quandle", "R(3)",
                       "--eta", "0,1"], {},
                      "map must assign every element"),
    "eta-out-of-range": (["cocycle", "construct", "obstruction2",
                          "--ambient", "Z9[T]/(T+1)", "--sub", "3",
                          "--quandle", "R(3)", "--eta", "0,1,7"], {},
                         "map value 7 out of range"),
    "triple-point-sheet": (_INVARIANT_SURFACE,
                           {"x": "sheets: x y\ntp: sign=+1 L=0 x=x y=w "
                                 "z=x\n"},
                           "triple point uses unknown sheet"),
    "two-tails": (_INVARIANT, {"x": "Xp[1,3,2,4]\nXp[3,1,4,2]\n"
                                    "Xp[5,6,1,7]\n"},
                  "semiarc '1' has two tails: orientation is ambiguous"),
    "catalog-not-json": (["verify-suite", "--catalog", "{x}"], {"x": "[1, 2"},
                         "catalog is not JSON: Expecting ',' delimiter: "
                         "line 1 column 6 (char 5)"),
    "catalog-not-a-list": (["verify-suite", "--catalog", "{x}"], {"x": "{}"},
                           "catalog must be a JSON list of entries"),
    "oracle-over-Z": (["homology", "--quandle", "R(3)", "--coeff",
                       "Z[T]/(T+1)", "--degree", "2", "--oracle"], {},
                      "brute-force oracle needs finite coefficients"),
    "outer-twice": (_INVARIANT, {"x": HOPF + "outer out\n"},
                    "outer is declared twice"),
    "base-twice": (_INVARIANT, {"x": HOPF + "mod 2\nbase out\nbase out\n"},
                   "base is declared twice"),
    "mod-twice": (_INVARIANT, {"x": HOPF + "mod 2\nmod 3\n"},
                  "mod is declared twice"),
    "override-twice": (_INVARIANT, {"x": HOPF + "L 1 0\nL 1 2\n"},
                       "L override of crossing '1' is declared twice"),
    "sheet-twice": (_INVARIANT_SURFACE, {"x": "sheets: x x\n"},
                    "sheet 'x' is declared twice"),
    "sheet-twice-across-lines": (_INVARIANT_SURFACE,
                                 {"x": "sheets: x y\nsheets: x\n"},
                                 "sheet 'x' is declared twice"),
    "triple-point-field-twice": (
        _INVARIANT_SURFACE,
        {"x": "sheets: x y\ntp: sign=+1 L=0 x=x y=y z=x x=y\n"},
        "triple point field 'x' is declared twice"),
    "triple-point-unknown-field": (
        _INVARIANT_SURFACE,
        {"x": "sheets: x y\ntp: sign=+1 L=0 x=x y=y z=x junk\n"},
        "unknown triple point field 'junk'"),
    "cochain-key-twice": (_VERIFY, {"x": "0,1 -> 1\n0,1 -> 2\n"},
                          "cochain key (0, 1) is declared twice"),
    "result-too-long-to-print": (
        ["cocycle", "pair", "--quandle", "T(2)", "--coeff", "Z[T]/(T^2-1)",
         "--degree", "2", "--cocycle", "{x}", "--cycle", "{x}"],
        {"x": "0,1 -> %s\n" % _NINES},
        "a result has an integer of more than 4300 digits, too long to "
        "print"),
}


@pytest.mark.parametrize("argv,files,reason", _REFUSALS.values(),
                         ids=_REFUSALS.keys())
def test_refusal_names_its_input(capsys, tmp_path, argv, files, reason):
    code, out, err = _run_on_files(capsys, tmp_path, argv, files)
    assert (code, out, err) == (2, "", "error: %s\n" % reason)


# one valid text per parser, with a command that reads it from {x} (a
# file) or from {text} (the value of an option)
_FUZZ_SEEDS = {
    "pd": (_INVARIANT, HOPF + "L 0 1\nmod 2\nbase out\n"),
    "surface": (_INVARIANT_SURFACE, "sheets: x y z\nrel: z = x * y\n"
                                    "tp: sign=+1 L=0 x=x y=y z=z\n"),
    "cochain": (_VERIFY, "0,1 -> 2\n0,2 -> 1\n1,0 -> 1\n1,2 -> 2\n"
                         "2,0 -> 2\n2,1 -> 1\n"),
    "quandle-table": (["quandle", "info", "--quandle", "@{x}"],
                      "3\n0 2 1\n2 1 0\n1 0 2\n"),
    "ring": (["homology", "--quandle", "R(3)", "--degree", "1",
              "--coeff={text}"], "Z3[T]/(T^2+T+1)"),
    "catalog": (["verify-suite", "--catalog", "{x}"], json.dumps([
        {"id": "h", "kind": "homology", "quandle": "R(3)",
         "coeff": "Z3[T]/(T+1)", "variant": "TQ", "degree": 2,
         "expect": [3, 3], "oracle": True},
        {"id": "i", "kind": "invariant", "pd": HOPF, "quandle": "T(2)",
         "coeff": "Z0[T]/(T^2-1)", "cocycle": "0,1 -> T\n1,0 -> 1\n",
         "expect": "2 + 2st"}])),
}


@st.composite
def _mutated(draw, text):
    """text with one to four spans of up to 8 characters replaced by
    short strings of its own alphabet or by tokens parsers trip on."""
    piece = st.one_of(
        st.text(alphabet=sorted(set(text)) + ["9", "-"], max_size=4),
        st.sampled_from(["99999999", "-1", "0", "\n", "T^", "Xn[1,2,3,4]",
                         ",", "->", "=", "*", "\"", "[", "{}", "null",
                         _NINES, "n" * 5000]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(piece) + text[j:]
    return text


@pytest.mark.parametrize("kind", _FUZZ_SEEDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_text_exits_0_or_2(capsys, tmp_path, monkeypatch, kind,
                                   data):
    for var, value in (("TWISTQ_MAX_TABLE", "400"), ("TWISTQ_MAX_BASIS",
                       "400"), ("TWISTQ_MAX_DEGREE", "64")):
        monkeypatch.setenv(var, value)
    argv, seed = _FUZZ_SEEDS[kind]
    text = data.draw(_mutated(seed))
    (tmp_path / "x").write_text(text)
    (tmp_path / "ok").write_text("")
    code, out, err = run(capsys, [
        a.format(x=tmp_path / "x", ok=tmp_path / "ok", text=text)
        if "{" in a else a for a in argv])
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and len(err.encode()) < 300, err[:400]


class TestVerifySuite:
    def test_bundled_catalog_passes(self, capsys):
        report = run_json(capsys, ["verify-suite"])
        result = report["result"]
        assert result["failed"] == 0
        assert result["passed"] == len(result["items"]) >= 25

    def test_perturbed_entry_fails_with_witness(self, capsys, tmp_path):
        entries = catalog.load_catalog()
        entries[0] = dict(entries[0])
        entries[0]["expect"] = [5]
        bad = tmp_path / "catalog.json"
        bad.write_text(json.dumps(entries))
        report = run_json(capsys, ["verify-suite", "--catalog", str(bad)])
        result = report["result"]
        assert result["failed"] == 1
        broken = [it for it in result["items"] if not it["pass"]]
        assert broken[0]["witness"]

    def test_oversized_product_fails_its_entry(self, capsys, tmp_path,
                                                monkeypatch):
        # the product table would have 1.6 * 10^9 cells
        monkeypatch.delenv("TWISTQ_MAX_TABLE", raising=False)
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{
            "kind": "iso", "first": {"product": ["R(200)", "R(200)"]},
            "second": "R(3)", "expect": False}]))
        report = run_json(capsys, ["verify-suite", "--catalog", str(catalog)])
        item, = report["result"]["items"]
        assert not item["pass"]
        assert item["witness"] == (
            "QuandleError: a quandle of order 40000 has a 1600000000-cell "
            "table (limit 65536; set TWISTQ_MAX_TABLE)")

    def test_deeply_nested_catalog_is_refused(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, out, err = run(capsys, ["verify-suite", "--catalog", str(deep)])
        assert (code, out) == (2, "")
        assert err == "error: catalog is nested too deeply to read\n"

    def test_empty_catalog_warns(self, capsys, tmp_path):
        empty = tmp_path / "catalog.json"
        empty.write_text("[]")
        code, out, err = run(capsys, ["verify-suite", "--catalog", str(empty)])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["failed"] == 0
        assert "warning" in report["result"] and "nothing" in err


class TestCatalogSharing:
    """A catalog run builds each construct, catalog quandle, parsed
    quandle and parsed ring once, and keeps nothing once it returns."""

    def _spy(self, monkeypatch):
        """Record each (make, key, args, value) that _shared hands out,
        and count the calls to each maker."""
        handed, made, counters = [], {}, {}
        share = cli._shared

        def spy(key, make, *args):
            if make not in counters:  # one counter per maker, as a key
                def counted(key, *a, make=make):
                    made[make, key] = made.get((make, key), 0) + 1
                    return make(*a)
                counters[make] = counted
            value = share(key, counters[make], key, *args)
            handed.append((make, key, args, value))
            return value
        monkeypatch.setattr(cli, "_shared", spy)
        return handed, made

    def test_run_matches_entries_run_alone(self):
        entries = catalog.load_catalog()
        alone = [catalog.run([entry])["items"][0] for entry in entries]
        assert catalog.run(entries)["items"] == alone

    def test_two_runs_print_the_same_report(self, capsys):
        first = run(capsys, ["verify-suite"])
        assert first[0] == 0
        assert run(capsys, ["verify-suite"])[:2] == first[:2]

    def test_nothing_is_shared_outside_a_run(self, monkeypatch):
        entries = catalog.load_catalog()
        assert cli._SHARED is None
        seen = []
        _, options = cli._COMMANDS["quandle iso"]

        def iso(inputs):
            seen.append(cli._SHARED)
            raise RuntimeError("broken")
        monkeypatch.setitem(cli._COMMANDS, "quandle iso", (iso, options))
        result = catalog.run(entries)
        assert seen and all(isinstance(s, dict) and s for s in seen)
        assert cli._SHARED is None
        assert {it["witness"] for it in result["items"] if not it["pass"]} \
            == {"RuntimeError: broken"}
        # an entry that is no mapping escapes catalog.run itself
        with pytest.raises(AttributeError):
            catalog.run(entries[:3] + [1])
        assert cli._SHARED is None
        # outside a run every call builds afresh
        assert cli._load_quandle("R(3)") is not cli._load_quandle("R(3)")

    def test_each_construct_and_quandle_is_made_once(self, monkeypatch):
        entries = catalog.load_catalog()
        # 14 constructs are asked for, by entries and extension quandles
        assert sum("construct" in e for e in entries) + sum(
            "extension" in e[k] for e in entries for k in ("first", "second")
            if isinstance(e.get(k), dict)) == 14
        handed, made = self._spy(monkeypatch)
        catalog.run(entries)
        assert len({key for make, key, *_ in handed
                    if make.__name__.startswith("_cmd_construct")}) == 4
        # the entries read 8 ring texts, most of them more than once
        assert len({key for make, key, *_ in handed
                    if make.__name__ == "parse_ring"}) == 8
        assert set(made.values()) == {1}
        assert len(made) == len({(make, key) for make, key, *_ in handed})

    def test_a_failure_is_never_kept(self, monkeypatch):
        calls = []
        _, options = cli._COMMANDS["cocycle construct dihedral"]

        def dihedral(inputs):
            calls.append(inputs)
            raise ValueError("refused call %d" % len(calls))
        monkeypatch.setitem(cli._COMMANDS, "cocycle construct dihedral",
                            (dihedral, options))
        construct = {"family": "dihedral", "n": 3}
        result = catalog.run([
            {"id": "a", "kind": "cocycle-table", "construct": construct,
             "expect": ""},
            {"id": "b", "kind": "not-coboundary", "construct": construct}])
        assert len(calls) == 2
        assert [it["witness"] for it in result["items"]] == [
            "ValueError: refused call 1", "ValueError: refused call 2"]

    def test_a_failing_construct_gives_each_entry_the_same_witness(self):
        construct = {"family": "modular", "p": 3, "m": 2, "h": "T+3"}
        result = catalog.run([
            {"id": "a", "kind": "cocycle-table", "construct": construct,
             "expect": ""},
            {"id": "b", "kind": "pairing", "construct": construct,
             "cycle": "0,1 -> 1\n", "expect": "0"}])
        first, second = (it["witness"] for it in result["items"])
        assert first and first == second

    def test_shared_inputs_are_not_mutated(self, monkeypatch):
        handed, _ = self._spy(monkeypatch)
        catalog.run(catalog.load_catalog())
        monkeypatch.undo()
        # the run's checker still holds the spy, which records these calls
        for make, key, args, value in list(handed):
            fresh = make(*args)
            if hasattr(value, "table"):  # a parsed quandle
                assert (value.table, value.labels, value.name) == (
                    fresh.table, fresh.labels, fresh.name)
            else:  # a construct report, catalog quandle text or a ring
                assert value == fresh


def _wrong(value):
    """A value of the same type that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    return value[1:] if value else [7]


_EXPECT_KEYS = ("expect", "expect_t", "expect_tq", "expect_colorings",
                "expect_none")
_PERTURBED = [(entry["id"], key) for entry in catalog.load_catalog()
              for key in _EXPECT_KEYS if key in entry]
_IDS = [entry["id"] for entry in catalog.load_catalog() if "expect" in entry]
_ENTRIES = {
    "homology": {"kind": "homology", "quandle": "R(3)",
                 "coeff": "Z3[T]/(T+1)", "degree": 2, "expect": [3, 3]},
    "table": {"kind": "cocycle-table", "construct": {
        "family": "modular", "p": 3, "m": 2, "h": "T+1"},
        "expect": "0,2 -> 1\n1,0 -> 2\n1,2 -> 1\n2,0 -> 2\n"},
    "iso": {"kind": "iso", "first": {"product": ["R(2)", "R(3)"]},
            "second": {"product": ["R(3)", "R(2)"]}, "expect": True},
}
# (entry, changed fields, witness) of fields of the wrong JSON type
_MISTYPED = {
    "degree-text": ("homology", {"degree": "2"}, "degree must be an integer"),
    "degree-boolean": ("homology", {"degree": True},
                       "degree must be an integer"),
    "oracle-text": ("homology", {"oracle": "no"}, "oracle must be a boolean"),
    "coeff-integer": ("homology", {"coeff": 3}, "coeff must be a string"),
    "quandle-list": ("homology", {"quandle": ["R(3)"]},
                     "quandle must be a string"),
    "construct-list": ("table", {"construct": []},
                       "construct must be a mapping"),
    "p-float": ("table", {"construct": {"family": "modular", "p": 3.7,
                                        "m": 2, "h": "T+1"}},
                "p must be an integer"),
    "h-missing": ("table", {"construct": {"family": "modular", "p": 3,
                                          "m": 2}}, "h is missing"),
    "product-of-one": ("iso", {"first": {"product": ["R(2)"]}},
                       "product must be a list of two strings"),
    "extension-list": ("iso", {"first": {"extension": []}},
                       "extension must be a mapping"),
}


class TestCatalogDispatch:
    def test_non_object_entry_is_refused(self, capsys, tmp_path):
        with pytest.raises(ValueError, match="catalog entry 1 is not"):
            catalog.load_catalog('[{"kind": "iso"}, 2]')
        bad = tmp_path / "catalog.json"
        bad.write_text("[1, 2]")
        code, out, err = run(capsys, ["verify-suite", "--catalog", str(bad)])
        assert code == 2 and out == ""
        assert err == "error: catalog entry 0 is not a JSON object\n"

    @pytest.mark.parametrize("eid,key", _PERTURBED,
                             ids=["%s:%s" % p for p in _PERTURBED])
    def test_every_expectation_is_checked(self, eid, key):
        entry = next(e for e in catalog.load_catalog() if e["id"] == eid)
        assert catalog.check(entry) == (True, None)
        ok, witness = catalog.check(dict(entry, **{key: _wrong(entry[key])}))
        assert not ok and witness

    def test_every_kind_and_field_is_exercised(self):
        # every field the kind table reads is in a bundled entry's report
        entries = catalog.load_catalog()
        assert set(catalog._KINDS) <= {e["kind"] for e in entries}
        for kind, (_path, reads) in catalog._KINDS.items():
            results = [catalog.result(e) for e in entries
                       if e["kind"] == kind]
            for field in reads:
                assert any(field in r for r in results), (kind, field)

    @pytest.mark.parametrize("eid", _IDS)
    def test_entry_without_expect_fails(self, eid):
        entry = next(e for e in catalog.load_catalog() if e["id"] == eid)
        del entry["expect"]
        assert catalog.check(entry) == (False, "expect is missing")

    def test_cocycle_table_without_construct_fails(self):
        item, = catalog.run([{"kind": "cocycle-table",
                              "expect": "0,2 -> 1\n"}])["items"]
        assert not item["pass"]
        assert item["witness"] == "cocycle is missing from the report"

    def test_unknown_construct_family_fails(self):
        for kind in ("cocycle-table", "pairing"):
            item, = catalog.run([{
                "kind": kind, "construct": {"family": "obstruction2"},
                "cycle": "", "expect": "0"}])["items"]
            assert item == {"id": "entry-0", "pass": False, "witness":
                            "CocycleError: unknown cocycle family "
                            "'obstruction2'"}

    def test_non_cocycle_is_not_passed(self):
        entry = {"kind": "not-coboundary", "quandle": "R(3)",
                 "coeff": "Z3[T]/(T+1)", "degree": 2,
                 "cocycle": "0,1 -> 1\n"}
        expected = (False, "is_cocycle is false, expected true")
        assert catalog.check(entry) == expected
        # the requirement is fixed: an entry cannot ask for a non-cocycle
        assert catalog.check(dict(entry, is_cocycle=False)) == expected

    def test_catalog_reads_no_quandle_file(self, tmp_path):
        table = tmp_path / "r3.txt"
        table.write_text("3\n0 2 1\n2 1 0\n1 0 2\n")
        iso = {"kind": "iso", "first": "@%s" % table, "second": "R(3)",
               "expect": True}
        lift = {"kind": "lift", "quandle": "@%s" % table,
                "coeff": "Z3[T]/(T+1)", "seeds": "0,1 -> 1\n", "expect": ""}
        pairing = {"kind": "pairing", "construct": dict(lift, family="lift"),
                   "cycle": "", "expect": "0"}
        for entry in (iso, lift, pairing):
            item, = catalog.run([entry])["items"]
            assert not item["pass"]
            assert "unknown quandle name '@" in item["witness"]
            assert "0 2 1" not in item["witness"]

    def test_lift_of_no_seed_fails_with_the_lifts_refusal(self):
        lift = {"quandle": "R(3)", "coeff": "Z3[T]/(T+1)", "seeds": ""}
        for entry in ({"kind": "lift", "expect": "", **lift},
                      {"kind": "cocycle-table", "expect": "",
                       "construct": dict(lift, family="lift")}):
            item, = catalog.run([entry])["items"]
            assert item["witness"] == \
                "CocycleError: need at least one seed value"

    def test_unknown_quandle_spec_fails_with_witness(self):
        item, = catalog.run([{
            "kind": "iso", "first": {"sum": ["R(3)", "R(3)"]},
            "second": "R(3)", "expect": False}])["items"]
        assert item == {"id": "entry-0", "pass": False, "witness":
                        "ValueError: cannot interpret quandle spec "
                        "{'sum': ['R(3)', 'R(3)']}"}

    @pytest.mark.parametrize("name,change,witness", _MISTYPED.values(),
                             ids=_MISTYPED.keys())
    def test_mistyped_field_fails_with_witness(self, name, change, witness):
        entry = _ENTRIES[name]
        assert catalog.check(entry) == (True, None)
        item, = catalog.run([dict(entry, **change)])["items"]
        assert item["witness"] == "ValueError: " + witness

    def test_key_naming_no_option_is_left_alone(self):
        entry = dict(_ENTRIES["homology"], cocycle_degree="two")
        assert catalog.check(entry) == (True, None)

    @pytest.mark.parametrize("entry", [
        {"kind": "k" * 100000},
        {"kind": "cocycle-table", "construct": {"family": "f" * 100000},
         "expect": ""},
        {"kind": "iso", "first": {"sum": "s" * 100000}, "second": "R(3)",
         "expect": False}], ids=["kind", "family", "quandle-spec"])
    def test_long_value_is_shown_short_in_its_witness(self, entry):
        item, = catalog.run([entry])["items"]
        assert not item["pass"] and len(item["witness"]) < 300

    def test_unknown_kind_fails_with_witness(self):
        assert catalog.check({"kind": "nope"}) == \
            (False, "unknown catalog entry kind 'nope'")

    def test_parser_and_command_table_agree(self):
        paths = set()
        todo = [cli.build_parser()]
        while todo:
            p = todo.pop()
            subs = [a for a in p._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                paths.add(p.get_default("command_path"))
            for a in subs:
                todo.extend(a.choices.values())
        assert paths == set(cli._COMMANDS)


# A child process runs one command through main() and reports the twistq
# modules (and dataclasses and hashlib) it holds afterwards.  It starts
# with -S, so the site module's imports do not count, and finds twistq on
# an explicit sys.path.
_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from twistq import cli
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] in ("twistq", "dataclasses",
                                                      "hashlib"))]))
"""
_BASE = ["twistq", "twistq.cli"]
_QUANDLE = _BASE + ["twistq.coeff", "twistq.limits", "twistq.quandle"]
_CHAIN = _QUANDLE + ["twistq.chain"]
_SOLVE = _CHAIN + ["twistq.exactlin"]
_COCYCLES = _CHAIN + ["twistq.cocycles"]
_KNOT = _CHAIN + ["twistq.knot"]
_COMPLEX = ["--quandle", "R(3)", "--coeff", "Z3[T]/(T+1)", "--degree", "2"]
_SES = ["--ambient", "Z9[T]/(T+1)", "--sub", "3", "--quandle", "R(3)"]
_STATE_SUM = ["--quandle", "T(2)", "--coeff", "Z[T]/(T^2-1)"]
# (argv, exit code, modules besides hashlib, which only a report loads)
_LOADS = [
    (["no-such-command"], 64, _BASE),
    (["homology"] + _COMPLEX, 0, _SOLVE),
    (["cohomology"] + _COMPLEX, 0, _SOLVE),
    (["cocycle", "verify", "--cocycle", "{phi}"] + _COMPLEX, 0, _SOLVE),
    (["cocycle", "pair", "--cocycle", "{phi}", "--cycle", "{cycle}"]
     + _COMPLEX, 0, _CHAIN),
    (["cocycle", "construct", "modular", "--p", "3", "--m", "2",
      "--h", "T+1"], 0, _COCYCLES),
    (["cocycle", "construct", "polynomial", "--p", "3", "--m", "2",
      "--h", "T+1"], 0, _COCYCLES),
    (["cocycle", "construct", "dihedral", "--n", "3"], 0, _COCYCLES),
    (["cocycle", "construct", "obstruction2", "--eta", "0,1,2"] + _SES, 0,
     _COCYCLES),
    (["cocycle", "construct", "obstruction3", "--phi", "{zero}"] + _SES, 0,
     _COCYCLES),
    (["cocycle", "construct", "lift", "--quandle", "R(3)",
      "--coeff", "Z3[T]/(T+1)", "--seeds", "{seeds}"], 0, _COCYCLES),
    (["quandle", "info", "--quandle", "R(3)"], 0, _QUANDLE),
    (["quandle", "iso", "--first", "R(3)", "--second", "T(3)"], 0,
     _QUANDLE),
    (["invariant", "--pd", "{hopf}", "--cocycle", "{hopf_phi}"]
     + _STATE_SUM, 0, _KNOT),
    (["invariant-surface", "--surface", "{surface}", "--cocycle", "{zero}"]
     + _STATE_SUM, 0, _KNOT),
    (["verify-suite"], 0, _COCYCLES + ["twistq.catalog", "twistq.exactlin",
                                       "twistq.knot"]),
]
_FILES = {"phi": "0,1 -> 2\n0,2 -> 1\n1,0 -> 1\n1,2 -> 2\n"
                 "2,0 -> 2\n2,1 -> 1\n",
          "cycle": "1,0 -> 1\n2,0 -> 2\n", "zero": "",
          "seeds": "0,1 -> 1\n", "hopf": HOPF,
          "hopf_phi": "0,1 -> T\n1,0 -> 1\n",
          "surface": "sheets: x y\ntp: sign=+1 L=0 x=x y=y z=x\n"}


def _with_files(tmp_path, argv):
    """argv with each {name} replaced by the path of a file holding
    _FILES[name]."""
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    return [a.format(**{n: str(tmp_path / n) for n in _FILES}) for a in argv]


def _probe(argv):
    """(exit code, sorted modules) of argv run by _PROBE."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, src] + argv,
                          capture_output=True, text=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])


_LOAD_IDS = [" ".join(itertools.takewhile(lambda a: a[0] != "-", argv))
             for argv, _, _ in _LOADS]


@pytest.mark.parametrize("argv,code,modules", _LOADS, ids=_LOAD_IDS)
def test_command_loads_only_its_modules(tmp_path, argv, code, modules):
    got_code, loaded = _probe(_with_files(tmp_path, argv))
    assert got_code == code
    assert loaded == sorted(modules + ["hashlib"] * (code == 0))


def test_bad_integer_option_loads_only_limits():
    assert _probe(["homology", "--degree", "x"] + _COMPLEX[:4]) == \
        [64, sorted(_BASE + ["twistq.limits"])]


def test_refused_input_loads_no_hashlib():
    assert _probe(["quandle", "info", "--quandle", "R(x)"]) == \
        [2, sorted(_QUANDLE)]


def test_one_front_end_per_m_process(tmp_path):
    # run as `python -m twistq.cli`, the front end is __main__ and
    # registers itself as twistq.cli, so the catalog's import of it runs
    # nothing a second time and finds the one table and store
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "twistq.cli",
         "verify-suite"], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "twistq.catalog" in imported and "twistq.cli" not in imported
    assert json.loads(proc.stdout)["result"]["failed"] == 0


def test_every_launcher_prints_the_same_report(capsys, tmp_path):
    # cProfile -m runs the front end through runpy.run_module, in a
    # namespace of no module: it registers nothing, and the catalog
    # imports a second twistq.cli, with the same report
    code, out, _ = run(capsys, ["verify-suite"])
    assert code == 0 and json.loads(out)["result"]["failed"] == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for launcher in (["-m"], ["-m", "cProfile", "-m"]):
        proc = subprocess.run(
            [sys.executable, "-S"] + launcher + ["twistq.cli", "verify-suite"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[0] == out.splitlines()[0], launcher


def test_profiled_launcher_shares_as_main_does(capsys, tmp_path):
    # under cProfile -m the catalog dispatches through the twistq.cli it
    # imports, and catalog.run opens that module's store: the profile
    # counts the parses, validations and coboundaries that main() makes
    package = os.path.dirname(cli.__file__)
    watched = {("coeff.py", "parse_ring"), ("quandle.py", "_validate"),
               ("chain.py", "delta")}

    def calls(stats):
        counted = dict.fromkeys(watched, 0)
        for (path, _, name), (_, ncalls, *_) in stats.stats.items():
            where = (os.path.basename(path), name)
            if os.path.dirname(path) == package and where in watched:
                counted[where] += ncalls
        return counted
    profile = cProfile.Profile()
    assert profile.runcall(cli.main, ["verify-suite"]) == 0
    capsys.readouterr()
    in_process = calls(pstats.Stats(profile))
    assert all(in_process.values()), in_process
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "cProfile", "-o", str(tmp_path / "prof"),
         "-m", "twistq.cli", "verify-suite"], capture_output=True, text=True,
        timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(package)))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert calls(pstats.Stats(str(tmp_path / "prof"))) == in_process


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), wall time left out."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, "\n".join(line for line in err.split("\n")
                                 if not line.startswith("wall-time: "))


def _parity(capsys, monkeypatch, argv):
    """Assert main(argv) with the command's own parser gives what it gives
    with the whole tree; returns that outcome."""
    mine = _outcome(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_command_path", lambda argv: None)
        assert _outcome(capsys, argv) == mine, argv
    return mine


# argv words of the parser fuzz: every command word and option, the root's
# flag, help, `--`, unknown words and a few values
_WORDS = sorted(
    {word for path in cli._COMMANDS for word in path.split()}
    | {flag for _, options in cli._COMMANDS.values() for flag, _ in options}
    | {"--pretty", "--", "-h", "-x", "--bogus", "bogus", "R(3)", "3", "-1",
       "x", ""})


class TestParserParity:
    """main builds options only for the command argv's leading words
    name; what it prints and returns is what the whole tree gives."""

    @pytest.mark.parametrize("node", NODES, ids=[
        " ".join(node) or "twistq" for node in NODES])
    def test_help_and_usage(self, capsys, monkeypatch, node):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parity(capsys, monkeypatch, node + ["--help"])[0] == 0
        assert _parity(capsys, monkeypatch, node + ["--bogus"])[0] == \
            cli.EX_USAGE

    @pytest.mark.parametrize("argv,code", [(a, c) for a, c, _ in _LOADS],
                             ids=_LOAD_IDS)
    def test_commands(self, capsys, monkeypatch, tmp_path, argv, code):
        assert _parity(capsys, monkeypatch,
                       _with_files(tmp_path, argv))[0] == code

    def test_only_the_named_command_gets_options(self):
        def options(parser):
            return [a.dest for a in parser._actions if a.option_strings]
        assert cli._command_path(["cocycle", "construct", "lift", "-h"]) \
            == "cocycle construct lift"
        for argv in (["cocycle", "construct"], ["--pretty", "homology"],
                     ["cocycle", "-x", "construct", "lift"], ["lift"]):
            assert cli._command_path(argv) is None
        subs = cli.build_parser("quandle iso")._subparsers._group_actions[0]
        quandle = subs.choices["quandle"]._subparsers._group_actions[0]
        assert options(quandle.choices["iso"]) == ["help", "first", "second"]
        assert options(quandle.choices["info"]) == ["help"]
        assert options(subs.choices["homology"]) == ["help"]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(NODES), st.lists(st.sampled_from(_WORDS),
                                            max_size=7))
    def test_fuzzed_argv(self, capsys, monkeypatch, node, words):
        # every handler is replaced: parity is the parser's, not the
        # computation's, so a run only echoes the inputs it was given
        for path, (_, options) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, path, (dict, options))
        _parity(capsys, monkeypatch, node + words)
