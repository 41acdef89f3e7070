"""Tests for the command line surface: reports, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
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


def test_the_verify_all_report_is_byte_identical(capsys):
    # golden sha256 of the stdout of `verify --all --format json`, the
    # bytes the benchmark's catalog workload hashes
    code, out, _ = run(capsys, ["verify", "--all", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a9e620712b3dabaab45df71a81e9248a6d3b57eced3cc3fb2e6bf41df02a398e")


def test_verify_certifies_a_six_gen_pencil_by_its_pfaffian(capsys):
    # at gamma = 0 the pencil is the bare alpha block, whose Pfaffian
    # misses the x4^3 of f
    pencil = "six_gen:lam=0:-1:1,gamma=%s"
    code, data = run_json(capsys, ["verify", "--family",
                                   pencil % ":".join(["0"] * 15)])
    assert code == 1
    record = data["checks"][0]
    assert (record["outcome"], record["check"]) == ("fail", "factorization")
    assert "Pf(Lambda) != f" in record["detail"]
    # the gamma that `moduli sample --lambda=0,-1 --seed 1` certifies
    _, sample = run_json(capsys, ["moduli", "sample", "--lambda=0,-1",
                                  "--seed", "1"])
    gamma = ":".join(g.replace(" ", "") for g in sample["checks"][0]["gamma"])
    code, data = run_json(capsys, ["verify", "--family", pencil % gamma])
    assert code == 0
    assert data["checks"][0]["outcome"] == "pass"


_TEXT_REPORTS = {
    "verify": (["verify", "--family", "theta3:a=-1,b=-w,c=w+1"], """\
command: verify
pass  factorization  theta3:a=-1,b=-w,c=w+1
summary: 1 checks, 0 failed, 0 inconclusive
"""),
    "equiv": (["equiv", "--left", "phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w",
               "--right", "psi_t_sigma:t=3,sigma=234,a=-1,b=-w,u=w^2"], """\
command: equiv
equivalent_with_witness  scalar_equivalence  \
phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w vs \
psi_t_sigma:t=3,sigma=234,a=-1,b=-w,u=-w-1
  method: determinant_polynomial
  reduced: False
  witness:
    0, -1, 0, 0; 1, 0, 0, 0; 0, 0, 0, 1; 0, 0, -1, 0
    0, 1, 0, 0; -1, 0, 0, 0; 0, 0, 0, -1; 0, 0, 1, 0
summary: 1 checks, 0 failed, 0 inconclusive
"""),
    "moduli_sample": (["moduli", "sample", "--lambda=0,-1", "--seed", "1"],
                      """\
command: moduli sample
pass  sample  [0:-1:1]
  certified: True
  gamma:
    3
    2
    -1
    0
    0
    0
    0
    -w - 1
    0
    0
    1
    w
    1
    -w
    -w - 1
  seed: 1
summary: 1 checks, 0 failed, 0 inconclusive
"""),
    "moduli_sample_budget_0": (["moduli", "sample", "--lambda=0,-1",
                                "--budget", "0"], """\
command: moduli sample
inconclusive  sample  [0:-1:1]
  detail: no certified point within budget 0
  seed: 1
summary: 1 checks, 0 failed, 1 inconclusive
"""),
}


@pytest.mark.parametrize("name", sorted(_TEXT_REPORTS))
def test_the_default_text_report_is_exact(capsys, name):
    argv, expected = _TEXT_REPORTS[name]
    code, out, err = run(capsys, argv)
    assert code == 0 and not err
    assert out == expected


def test_verify_needs_a_target(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "verify needs" in err


def test_verify_takes_all_or_one_family_not_both(capsys):
    code, out, err = run(capsys, ["verify", "--all", "--family",
                                  "alpha3:b=-1,c=-1,d=-1,eps=w"])
    assert code == 2 and not out
    assert "not allowed with argument" in err


def test_malformed_family_ids_are_usage_errors(capsys):
    code, _, err = run(capsys, ["verify", "--family", "nope:a=1"])
    assert code == 2
    assert "unknown family" in err


def test_eps_zero_reports_like_any_eps_that_is_no_root(capsys):
    # a = b*c*d/eps is computed only after eps is checked
    for eps in ("0", "1"):
        fid = "alpha3:b=-1,c=-1,d=-1,eps=%s" % eps
        for name in ("alpha3", "beta3"):
            text = fid.replace("alpha3", name)
            code, data = run_json(capsys, ["verify", "--family", text])
            assert code == 1
            record = data["checks"][0]
            assert record["outcome"] == "fail"
            assert record["detail"] == \
                "eps must be a primitive cube root of unity"
        code, out, err = run(capsys, ["equiv", "--left", fid, "--right",
                                      "alpha3:b=-1,c=-1,d=-1,eps=w"])
        assert code == 2 and not out
        assert err == "error: eps must be a primitive cube root of unity\n"


@pytest.mark.parametrize("fid, detail", [
    ("alpha3:b=1,c=-1,d=-1,eps=w", "b must satisfy b^3 = -1"),
    ("beta3:b=-1,c=2,d=-1,eps=w", "c must satisfy c^3 = -1"),
])
def test_a_root_that_is_no_root_is_named_by_its_own_key(capsys, fid, detail):
    # a = b*c*d/eps is derived from checked roots, so the report names the
    # key of the id, never the derived a
    code, data = run_json(capsys, ["verify", "--family", fid])
    assert code == 1
    record = data["checks"][0]
    assert record["outcome"] == "fail"
    assert record["detail"] == detail


@pytest.mark.parametrize("argv", [
    ["enumerate", "--catalog", "rank2_3gen"],
    ["verify", "--all"],
    ["moduli", "sample", "--lambda=0,-1", "--budget", "0"],
])
def test_a_field_without_w_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--field", "rationals"])
    assert code == 2 and not out
    assert err == "error: field NumberField(Q) does not contain w\n"


def test_moduli_solve_still_runs_over_the_rationals(capsys):
    code, data = run_json(capsys, ["moduli", "solve", "--lambda=0,-1",
                                   "--field", "rationals"])
    assert code == 0
    assert data["checks"][0]["outcome"] == "pass"


def test_equiv_reports_the_u_swap_collision(capsys):
    code, data = run_json(capsys, [
        "equiv",
        "--left", "phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w",
        "--right", "psi_t_sigma:t=3,sigma=234,a=-1,b=-w,u=w^2",
        "--reduced"])
    assert code == 0
    record = data["checks"][0]
    assert set(record) == {"subject", "check", "outcome", "method",
                           "witness", "reduced"}
    assert record["outcome"] == "equivalent_with_witness"
    assert len(record["witness"]) == 2
    assert all(isinstance(w, str) for w in record["witness"])
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


@pytest.mark.parametrize("lam, digest", [
    ("--lambda=0,-1",
     "302976a4fa85e06250edd0424d5f049679bcac7d8402f993192bd7ef97d3097b"),
    ("--lambda=-w,0",
     "1c708c33600ea9f99c8f8adabd688090dc96fc16c0bd9f96e815e9892a916b5d"),
], ids=["lambda_0_-1", "lambda_-w_0"])
def test_moduli_sample_reports_are_byte_identical(capsys, lam, digest):
    # golden sha256 of the JSON reports for seeds 1-10, one after another:
    # any change to a sampled block or to the order of the search shows up
    reports = []
    for seed in range(1, 11):
        code, out, _ = run(capsys, ["moduli", "sample", lam, "--seed",
                                    str(seed), "--budget", "1000",
                                    "--format", "json"])
        assert code == 0
        reports.append(out)
    assert hashlib.sha256("".join(reports).encode()).hexdigest() == digest


def test_the_sextic_moduli_solve_report_is_byte_identical(capsys):
    code, out, _ = run(capsys, ["moduli", "solve", "--field", "sextic",
                                "--lambda", "1,g*w", "--free", "1,-2,3",
                                "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bcdc79fa4d7b8196d7e025d83f639f6cd3553863ed3465d84a066e47cdffd0a7")


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
    assert all(isinstance(v, str) for v in record["gamma"])


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
    # a budget that is no integer at all is refused the same way
    code, out, err = run(capsys, ["moduli", "sample", "--lambda", "0,-1",
                                  "--budget", "x"])
    assert code == 2
    assert not out
    assert "expected an integer >= 0" in err


def test_a_negative_value_may_follow_its_option(capsys):
    # "--lambda -w,0" is joined to "--lambda=-w,0" before argparse sees it
    spaced = run(capsys, ["moduli", "sample", "--lambda", "-w,0", "--seed",
                          "2", "--budget", "1000", "--format", "json"])
    joined = run(capsys, ["moduli", "sample", "--lambda=-w,0", "--seed",
                          "2", "--budget", "1000", "--format", "json"])
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["checks"][0]["certified"]
    code, data = run_json(capsys, ["moduli", "solve", "--lambda", "0,-1",
                                   "--free", "-1,0,0"])
    assert code == 0
    assert data["checks"][0]["outcome"] == "pass"
    assert data["checks"][0]["gamma"][6] == "-1"
    code, data = run_json(capsys, ["moduli", "act", "--lambda", "0,-1",
                                   "--kind", "Uk", "--k", "-w"])
    assert code == 0
    code, _, err = run(capsys, ["moduli", "act", "--field", "sextic",
                                "--lambda", "1,g", "--kind", "H",
                                "--coeffs", "-1,1,1,1"])
    assert code == 2
    assert "K1*K4" in err


def test_an_option_without_its_value_is_a_usage_error(capsys):
    for argv in (["moduli", "sample", "--lambda"],
                 ["moduli", "sample", "--lambda", "--format", "json"],
                 ["moduli", "solve", "--lambda", "0,-1", "--free"]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert "expected one argument" in err


def test_only_moduli_sample_takes_a_seed_and_a_budget(capsys):
    for argv in (["verify", "--all"], ["enumerate", "--catalog", "rank2_3gen"],
                 ["moduli", "solve", "--lambda", "0,-1"], ["det"]):
        for knob in (["--seed", "3"], ["--budget", "5"]):
            code, out, err = run(capsys, argv + knob)
            assert code == 2
            assert not out
            assert "unrecognized arguments" in err


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


def test_moduli_act_reads_its_pencil_from_a_file(capsys, tmp_path):
    from fermatmf.families import CurvePoint, GammaBlock, build_six_gen
    from fermatmf.field import omega_field
    from fermatmf.matrix import format_matrix

    F = omega_field()
    pencil = build_six_gen(CurvePoint.affine(F, 0, -1), GammaBlock.zero(F))
    target = tmp_path / "pencil.txt"
    target.write_text(format_matrix(pencil), encoding="utf-8")
    argv = ["moduli", "act", "--lambda", "0,-1", "--kind", "Uk", "--k", "2"]
    code, from_file = run_json(capsys, argv + ["--matrix", str(target)])
    assert code == 0
    # the file holds the zero-Gamma pencil, which is also the default
    _, default = run_json(capsys, argv)
    assert from_file["checks"] == default["checks"]


def test_moduli_act_checks_the_h_law(capsys):
    code, _, err = run(capsys, ["moduli", "act", "--field", "sextic",
                                "--lambda", "1,g", "--kind", "H",
                                "--coeffs", "1,1,1,1"])
    assert code == 2
    assert "K1*K4" in err


def test_pfaffian_reads_stdin(capsys, stdin):
    stdin("0, x1; -x1, 0")
    code, data = run_json(capsys, ["pfaffian"])
    assert code == 0
    assert data["checks"][0]["value"] == "x1"


def test_det_reads_a_file(capsys, tmp_path):
    target = tmp_path / "mat.txt"
    target.write_text("x1, 0;\n0, x2", encoding="utf-8")
    code, data = run_json(capsys, ["det", "--matrix", str(target)])
    assert code == 0
    assert data["checks"][0]["value"] == "x1*x2"


def test_pfaffian_rejects_non_skew_input(capsys, stdin):
    stdin("x1, 0; 0, x1")
    code, out, err = run(capsys, ["pfaffian"])
    assert code == 2
    assert not out


_ALPHA3 = "alpha3:b=-1,c=-1,d=-1,eps=w"
# at gamma = 0, Pf(Lambda) = f3: a pencil, but no factorization of f
_BARE_PENCIL = "six_gen:lam=0:-1:1,gamma=" + ":".join(["0"] * 15)
# {tmp} stands for a directory holding not_utf8.txt, a single 0xff byte
_NOT_UTF8 = "{tmp}/not_utf8.txt"
_RHO = "rho:sigma=234,a=-1,b=-w,u=w"


def _equiv_left(left):
    return ["equiv", "--left", left, "--right", _RHO]


@pytest.mark.parametrize("argv, piped, message", [
    (["verify", "--family", "nope:a=1"], None,
     "unknown family name 'nope'"),
    (["enumerate", "--catalog", "everything"], None,
     "unknown catalog 'everything'"),
    (["equiv", "--left", _ALPHA3, "--right", "rho:sigma=234,a=-1,b=-w,u=w"],
     None, "dimension mismatch: 3x3 vs 5x5"),
    (["moduli", "solve", "--lambda", "1,1"], None,
     "point does not lie on the curve f3 = 0"),
    (["moduli", "sample", "--lambda", "0,q"], None,
     "--lambda: unknown name 'q' (at position 0)"),
    (["moduli", "act", "--lambda", "0,-1", "--kind", "Uk"], None,
     "kind Uk needs the scale k"),
    (["det"], "x1, x2; x3", "ragged rows"),
    (["pfaffian"], "x1, 0; 0, x1", "matrix is not skew-symmetric"),
    (["equiv", "--left", _BARE_PENCIL, "--right", _BARE_PENCIL], None,
     "six_gen: Pf(Lambda) != f"),
    (["moduli", "solve"], None, "--lambda A,B is required"),
    (["moduli", "solve", "--lambda", "0,-1", "--free", "1,2"], None,
     "--free needs 3 comma-separated values"),
    (["moduli", "act", "--lambda", "0,-1", "--kind", "H", "--coeffs", "1,1"],
     None, "--coeffs needs 4 comma-separated values"),
    (["moduli", "act", "--lambda", "0,-1", "--kind", "Uk", "--k", "q"], None,
     "--k: unknown name 'q' (at position 0)"),
    (["det", "--matrix", "{tmp}/missing.txt"], None,
     "[Errno 2] No such file or directory: '{tmp}/missing.txt'"),
    (["det", "--matrix", _NOT_UTF8], None,
     "unexpected '\\udcff' (at position 0)"),
    (["det"], b"x1\xff", "unexpected '\\udcff' (at position 2)"),
    (["moduli", "act", "--lambda", "0,-1", "--kind", "Uk", "--k", "2",
      "--matrix", _NOT_UTF8], None, "unexpected '\\udcff' (at position 0)"),
    (["det"], "x1^\u00b2", "expected a number (at position 3)"),
    (_equiv_left("phi_lambda:lam=0:-1:1"), None,
     "phi_lambda needs a 4-coordinate point"),
    (_equiv_left("curve_alpha:lam=-1:0:0:1"), None,
     "curve_alpha needs a 3-coordinate point"),
    (_equiv_left("rho:sigma"), None, "expected key=value, got 'sigma'"),
    (_equiv_left("rho:sigma=234,sigma=243,a=-1,b=-w,u=w"), None,
     "duplicate parameter 'sigma'"),
    (_equiv_left(_RHO + ",normalized=2"), None,
     "normalized must be 0 or 1, got '2'"),
    (_equiv_left("curve_alpha:lam=0:1"), None,
     "lam needs 3 or 4 ':'-separated coordinates"),
    (_equiv_left("mubar:sigma=234,a=-1,b=-w,u=w,normalized=0"), None,
     "mubar has no un-normalized display"),
    (["moduli", "act", "--lambda=0,-1", "--kind", "S2", "--matrix", "-"],
     "x1, x2; x3, x4", "the action applies to a 6x6 matrix"),
    (["det"], "(" * 3000 + "x1" + ")" * 3000,
     "nesting deeper than 100 (at position 100)"),
    (["det"], "x2*" + "-" * 5000 + "x1",
     "nesting deeper than 100 (at position 103)"),
    (["det"], "(x1+x2+x3+x4+1)^12*(x1+x2+x3+x4+1)^12",
     "product above total degree 12 (at position 19)"),
    (["det"], "+".join(["(x1+x2+x3+x4+1)^12"] * 20),
     "products and powers above 10000 terms (at position 111)"),
], ids=["verify", "enumerate", "equiv", "moduli_solve", "moduli_sample",
        "moduli_act", "det", "pfaffian", "equiv_bare_pencil",
        "missing_lambda", "free_count", "coeffs_count", "k_malformed",
        "missing_file", "det_not_utf8", "det_stdin_not_utf8",
        "moduli_act_not_utf8",
        "det_superscript_exponent", "lambda_needs_surface_point",
        "curve_alpha_needs_curve_point", "bare_key", "duplicate_key",
        "normalized_value", "lam_coordinate_count", "mubar_unnormalized",
        "moduli_act_not_6x6", "det_deep_parentheses", "det_deep_signs",
        "det_product_of_powers", "det_long_sum_of_powers"])
def test_malformed_input_is_one_error_line(capsys, stdin, tmp_path,
                                           argv, piped, message):
    (tmp_path / "not_utf8.txt").write_bytes(b"\xff")
    stdin(piped or "")
    code, out, err = run(capsys, [a.replace("{tmp}", str(tmp_path))
                                  for a in argv])
    assert code == 2
    assert not out
    assert err == "error: %s\n" % message.replace("{tmp}", str(tmp_path))


_NINES = "9" * 3000


@pytest.mark.parametrize("text, message", [
    ("x1 + " + "9" * 5000, "number too long (at position 5)"),
    (_NINES + "*" + _NINES, "product above 4300 digits (at position 3001)"),
    ("(" + "9" * 400 + ")^12", "power above 4300 digits (at position 403)"),
], ids=["overlong_number", "long_product", "long_power"])
def test_the_digit_limits_are_the_programs_own(capsys, stdin,
                                               int_digit_limit, text,
                                               message):
    stdin(text)
    assert run(capsys, ["det"]) == (2, "", "error: %s\n" % message)


def test_a_long_result_prints_exactly(capsys, stdin, int_digit_limit):
    # (10^3000 - 1)^2 has 6000 digits, past the interpreter's default limit
    stdin("%s, 0; 0, %s" % (_NINES, _NINES))
    code, out, err = run(capsys, ["det"])
    assert code == 0 and not err
    square = "9" * 2999 + "8" + "0" * 2999 + "1"
    assert "  value: %s" % square in out.splitlines()


@pytest.mark.parametrize("knob", [
    ["--seed", "1_0"], ["--seed", "\u0661"], ["--budget", "\u0662"],
    ["--seed", "+1"], ["--seed", " 1"], ["--budget", "1_0"],
    ["--seed", "9" * 4301],
], ids=["seed_underscore", "seed_arabic_indic", "budget_arabic_indic",
        "seed_plus", "seed_space", "budget_underscore", "seed_overlong"])
def test_seed_and_budget_take_ascii_digits_only(capsys, int_digit_limit,
                                                knob):
    code, out, err = run(capsys, ["moduli", "sample", "--lambda", "0,-1",
                                  "--budget", "0"] + knob)
    assert code == 2 and not out
    assert "error: argument %s: expected an integer" % knob[0] in err


def test_a_seed_may_be_negative_or_long(capsys, int_digit_limit):
    for seed in ("-3", "9" * 4300):
        code, data = run_json(capsys, ["moduli", "sample", "--lambda", "0,-1",
                                       "--seed", seed, "--budget", "0"])
        assert code == 0
        assert data["checks"][0]["seed"] == int(seed)


def _bidiagonal(n):
    return "; ".join(", ".join("x1" if j == i else "x2" if j == i + 1 else "0"
                               for j in range(n)) for i in range(n))


@pytest.mark.parametrize("command, what", [("det", "determinant"),
                                           ("pfaffian", "Pfaffian")])
def test_matrices_above_8x8_are_refused_before_expansion(
        capsys, monkeypatch, stdin, command, what):
    from fermatmf import matrix

    def no_expansion(*_):
        raise AssertionError("expansion started")

    monkeypatch.setattr(matrix, "_minor", no_expansion)
    monkeypatch.setattr(matrix, "_pf_recursive", no_expansion)
    stdin(_bidiagonal(9))
    code, out, err = run(capsys, [command])
    assert code == 2 and not out
    assert err == "error: %s of a 9x9 matrix: sizes stop at 8x8\n" % what


_POWER12 = "(x1^12 + x2)"


@pytest.mark.parametrize("command, text, message", [
    ("det", "%s, %s; %s, %s" % ((_POWER12,) * 4),
     "determinant of degree up to 24"),
    ("pfaffian", "0, %s, 0, 0; -%s, 0, 0, 0; 0, 0, 0, x1; 0, 0, -x1, 0"
     % (_POWER12, _POWER12), "Pfaffian of degree up to 13"),
], ids=["det", "pfaffian"])
def test_results_above_degree_12_are_refused_before_expansion(
        capsys, monkeypatch, stdin, command, text, message):
    from fermatmf import matrix

    def no_expansion(*_):
        raise AssertionError("expansion started")

    monkeypatch.setattr(matrix, "_minor", no_expansion)
    monkeypatch.setattr(matrix, "_pf_recursive", no_expansion)
    stdin(text)
    code, out, err = run(capsys, [command])
    assert code == 2 and not out
    assert err == "error: %s: degrees stop at 12\n" % message


@pytest.mark.parametrize("command, text, value", [
    ("det", "x1^6, x2; 0, x2^6", "x1^6*x2^6"),
    ("pfaffian", "0, x1^12; -x1^12, 0", "x1^12"),
], ids=["det", "pfaffian"])
def test_a_result_of_degree_12_still_expands(capsys, stdin,
                                             command, text, value):
    stdin(text)
    code, data = run_json(capsys, [command])
    assert code == 0
    assert data["checks"][0]["value"] == value


@pytest.mark.parametrize("exponent", [13, 60])
def test_a_power_above_degree_12_is_refused_before_expansion(
        capsys, monkeypatch, stdin, exponent):
    from fermatmf import poly

    def no_expansion(*_):
        raise AssertionError("expansion started")

    monkeypatch.setattr(poly, "power", no_expansion)
    stdin("(x1+x2+x3+x4)^%d" % exponent)
    code, out, err = run(capsys, ["det"])
    assert code == 2 and not out
    assert err == ("error: power above exponent or total degree 12 "
                   "(at position 14)\n")


def test_an_8x8_determinant_still_expands(capsys, stdin):
    stdin(_bidiagonal(8))
    code, data = run_json(capsys, ["det"])
    assert code == 0
    assert data["checks"][0]["value"] == "x1^8"


@pytest.mark.parametrize("exc", [KeyError, ValueError])
def test_a_non_package_exception_propagates(monkeypatch, exc):
    # main maps FermatmfError alone, so a bug in a handler is not reported
    # as a usage error
    from fermatmf import cli

    def broken(args, field):
        raise exc("bug")

    monkeypatch.setattr(cli, "_cmd_enumerate", broken)
    with pytest.raises(exc):
        main(["enumerate", "--catalog", "rank2_3gen"])


def test_an_internal_fault_in_equiv_propagates(monkeypatch):
    # a witness whose determinant comes out zero fails equiv's own
    # re-check: a fault of the program, not bad input, so no exit 2.  Only
    # the constant witness blocks in x1..x4 are faked; the block
    # determinants in the solution space's parameters stay exact.
    from fermatmf import equiv
    from fermatmf.poly import NVARS

    determinant = equiv.determinant

    def faulty(M):
        if M.nvars == NVARS and all(a.is_constant() for row in M.entries
                                    for a in row):
            return 0
        return determinant(M)

    monkeypatch.setattr(equiv, "determinant", faulty)
    with pytest.raises(AssertionError, match="internal witness check"):
        main(["equiv"] + _U_SWAP)


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


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run_module(args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-m"] + args, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_cli_module_runs_as_a_script():
    done = run_module(["fermatmf.cli", "moduli", "sample", "--lambda", "0,-1",
                       "--budget", "-1"])
    assert done.returncode == 2
    assert not done.stdout
    assert "expected an integer >= 0" in done.stderr


def test_the_package_runs_as_a_script(capsys):
    argv = ["enumerate", "--catalog", "rank2_3gen", "--format", "json"]
    done = run_module(["fermatmf"] + argv)
    code, out, _ = run(capsys, argv)
    assert done.returncode == code == 0
    assert done.stdout == out
