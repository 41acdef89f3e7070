"""Tests for the command line surface: reports, determinism, exit codes."""

import hashlib
import io
import json
import os
import sys

import pytest

from fermatmf.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_enumerate_counts_the_catalogs(capsys):
    for catalog, expected in (("rank2_3gen", 72),
                              ("nonorientable_4gen", 432),
                              ("nonorientable_5gen", 162)):
        code, data = run_json(capsys, ["enumerate", "--catalog", catalog])
        assert code == 0
        record = data["checks"][0]
        assert record["count"] == expected
        assert len(record["representatives"]) == expected


def test_enumerate_rejects_unknown_catalogs(capsys):
    code, out, err = run(capsys, ["enumerate", "--catalog", "everything"])
    assert code == 2
    assert not out
    assert "catalog" in err


def test_verify_a_single_family(capsys):
    code, data = run_json(capsys,
                          ["verify", "--family", "theta3:a=-1,b=-w,c=w+1"])
    assert code == 0
    assert data["checks"][0]["outcome"] == "pass"
    assert data["checks"][0]["check"] == "factorization"


def test_verify_all_covers_every_catalog_member(capsys):
    code, data = run_json(capsys, ["verify", "--all"])
    assert code == 0
    assert data["summary"] == {"total": 666, "failed": 0, "inconclusive": 0}


def test_verify_needs_a_target(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "verify needs" in err


def test_malformed_family_ids_are_usage_errors(capsys):
    code, _, err = run(capsys, ["verify", "--family", "nope:a=1"])
    assert code == 2
    assert "unknown family" in err


def test_equiv_reports_the_u_swap_collision(capsys):
    code, data = run_json(capsys, [
        "equiv",
        "--left", "phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w",
        "--right", "psi_t_sigma:t=3,sigma=234,a=-1,b=-w,u=w^2",
        "--reduced"])
    assert code == 0
    record = data["checks"][0]
    assert record["outcome"] == "equivalent_with_witness"
    assert len(record["witness"]) == 2
    assert record["reduced"] is True


def test_equiv_separates_unrelated_slots(capsys):
    code, data = run_json(capsys, [
        "equiv",
        "--left", "rho:sigma=234,a=-1,b=-w,u=w,normalized=1",
        "--right", "mu:sigma=234,a=-1,b=-w,u=w,normalized=1",
        "--reduced"])
    assert code == 0
    assert data["checks"][0]["outcome"] == "not_equivalent"


_U_SWAP = ["--left", "phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w",
           "--right", "psi_t_sigma:t=3,sigma=234,a=-1,b=-w,u=w^2"]


@pytest.mark.parametrize("argv, digest", [
    (_U_SWAP,
     "6575c6e26ebf65809fbd528d2d5403de069f5aa3d497aa93a4c4df5ab07203eb"),
    (_U_SWAP + ["--reduced"],
     "46ba198401a8fe37abc2f8a72e6c11c4334d7c7e8cd7e3ff5857d69a1d35196f"),
    (["--left", "rho:sigma=234,a=-1,b=-w,u=w",
      "--right", "rho:sigma=234,a=-1,b=-w,u=w^2"],
     "5d6d2c9f61b5853bd768d928fe9105d883be6968378ef3031288ad197c6eab4d"),
], ids=["u_swap", "u_swap_reduced", "rho_u_swap"])
def test_equiv_reports_are_byte_identical(capsys, argv, digest):
    # golden sha256 of the JSON report: any change to a verdict, a method
    # or a witness matrix shows up here
    code, out, _ = run(capsys, ["equiv"] + argv + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_moduli_solve_prints_the_printed_solution(capsys):
    code, data = run_json(capsys, ["moduli", "solve", "--lambda", "0,-1"])
    assert code == 0
    record = data["checks"][0]
    # gamma list is a1..a15; the default free values are (1, 0, 0)
    assert record["gamma"][6] == "1"
    assert record["gamma"][7] == "1"      # a8 = -b
    assert record["gamma"][9] == "-1"     # a10 = b
    assert record["nullity"] == 3
    assert record["rank"] == 6


def test_moduli_sample_is_byte_identical_per_seed(capsys):
    argv = ["moduli", "sample", "--lambda", "0,-1", "--seed", "3",
            "--budget", "40", "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)["checks"][0]
    assert record["outcome"] == "pass"
    assert record["certified"] is True
    assert len(record["gamma"]) == 15


def test_moduli_sample_reports_an_exhausted_budget(capsys):
    code, data = run_json(capsys, ["moduli", "sample", "--lambda", "0,-1",
                                   "--seed", "1", "--budget", "0"])
    assert code == 0
    record = data["checks"][0]
    assert record["outcome"] == "inconclusive"
    assert "budget" in record["detail"]


def test_a_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["moduli", "sample", "--lambda", "0,-1",
                                  "--budget", "-1"])
    assert code == 2
    assert not out
    assert "--budget" in err and ">= 0" in err


def test_moduli_act_defaults_to_the_zero_gamma_pencil(capsys):
    code, data = run_json(capsys, ["moduli", "act", "--lambda", "0,-1",
                                   "--kind", "Uk", "--k", "1"])
    assert code == 0
    moved = data["checks"][0]["matrix"]
    code2, data2 = run_json(capsys, ["moduli", "act", "--lambda", "0,-1",
                                     "--kind", "Uk", "--k", "-1"])
    # k and -k act identically on the pencil
    assert moved == data2["checks"][0]["matrix"]
    assert "x1" in moved


def test_moduli_act_checks_the_h_law(capsys):
    code, _, err = run(capsys, ["moduli", "act", "--field", "sextic",
                                "--lambda", "1,g", "--kind", "H",
                                "--coeffs", "1,1,1,1"])
    assert code == 2
    assert "K1*K4" in err


def test_pfaffian_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0, x1; -x1, 0"))
    code, data = run_json(capsys, ["pfaffian"])
    assert code == 0
    assert data["checks"][0]["value"] == "x1"


def test_det_reads_a_file(capsys, tmp_path):
    target = tmp_path / "mat.txt"
    target.write_text("x1, 0;\n0, x2", encoding="utf-8")
    code, data = run_json(capsys, ["det", "--matrix", str(target)])
    assert code == 0
    assert data["checks"][0]["value"] == "x1*x2"


def test_pfaffian_rejects_non_skew_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x1, 0; 0, x1"))
    code, out, err = run(capsys, ["pfaffian"])
    assert code == 2
    assert not out


def test_the_json_report_is_versioned(capsys):
    _, data = run_json(capsys, ["enumerate", "--catalog", "rank2_3gen"])
    assert data["schema"] == 1
    assert data["exit"] == 0
    assert set(data["summary"]) == {"total", "failed", "inconclusive"}


def test_bare_invocations_are_usage_errors(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["moduli"])[0] == 2
    code, _, err = run(capsys, ["moduli", "solve", "--lambda", "1,1"])
    assert code == 2
    assert "curve" in err


def test_help_exits_cleanly(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["verify", "--bogus"])[0] == 2


class _ClosedPipe:
    """A stdout whose reader has gone away, backed by a scratch file
    descriptor that ``main`` may redirect."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, _text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_pipe_exits_quietly(monkeypatch, tmp_path, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["enumerate", "--catalog", "rank2_3gen", "--format", "json"])
    finally:
        os.close(fd)
    assert code == 1
    assert not capsys.readouterr().err
