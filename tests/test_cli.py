import ast
import dataclasses
import gc
import io
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import volcur._cache
import volcur.cli
import volcur.esp
import volcur.sampling
import volcur.spectra
from oracles import inverse_square_psd, random_psd
from volcur import (
    NumericalError,
    PiecewiseDyadicSpectrum,
    PsdMatrix,
    Spectrum,
    bound_reports,
    enumerate_distribution,
    esp_all,
    esp_geometric_ratio,
    esp_ratio,
    expected_error_exact,
    generate_geometric,
    load_matrix,
    make_spectrum,
)
from volcur.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def psd_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 1\n1 2\n")
    return str(p)


@pytest.fixture()
def identity5_file(tmp_path):
    p = tmp_path / "eye5.txt"
    p.write_text("\n".join(" ".join(str(float(i == j)) for j in range(5))
                           for i in range(5)) + "\n")
    return str(p)


class TestEspCommand:
    def test_values_match_library(self, capsys):
        code, out, err = run_cli(["esp", "--spectrum", "geom:q=0.5,n=3", "--k", "3"],
                                 capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "j,e_j"
        vec = esp_all(generate_geometric(0.5, 3), 3)
        for j, line in enumerate(lines[1:]):
            field = line.split(",")
            assert int(field[0]) == j
            assert float(field[1]) == pytest.approx(vec[j], rel=1e-15)

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "s.txt"
        p.write_text("1 2 3\n")
        code, out, _ = run_cli(["esp", "--input", str(p), "--k", "3"], capsys)
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == pytest.approx([1.0, 6.0, 11.0, 6.0])

    def test_integer_spectrum_prints_exact_values(self, tmp_path, capsys):
        p = tmp_path / "s.txt"
        p.write_text("3,1,2\n")
        code, out, err = run_cli(["esp", "--input", str(p), "--k", "2"], capsys)
        assert (code, out, err) == (0, "j,e_j\n0,1\n1,6\n2,11\n", "")

    @pytest.mark.parametrize("k", ["5", str(10**18)])
    def test_k_past_the_spectrum_is_rejected(self, k, capsys):
        # e_j = 0 for j > n, so there is nothing to print past n
        code, out, err = run_cli(["esp", "--spectrum", "geom:q=0.5,n=4", "--k", k], capsys)
        assert (code, out, err) == (1, "", f"error: k must be at most 4, got {k}\n")

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(["esp", "--k", "2"], capsys)
        assert code == 1 and "error:" in err
        code, _, err = run_cli(
            ["esp", "--spectrum", "geom:q=0.5,n=3", "--input", "x", "--k", "2"],
            capsys)
        assert code == 1


class TestRatioCommand:
    def test_single_k(self, capsys):
        code, out, _ = run_cli(["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "1"],
                               capsys)
        assert code == 0
        k, val = out.strip().splitlines()[1].split(",")
        expect = esp_ratio(generate_geometric(0.5, 3), 1)
        assert (int(k), float(val)) == (1, pytest.approx(expect, rel=1e-15))

    def test_k_range(self, capsys):
        code, out, _ = run_cli(["ratio", "--spectrum", "pow:p=2,n=40", "--k", "1..4"],
                               capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [1, 2, 3, 4]

    def test_k_at_n_rejected(self, capsys):
        code, _, err = run_cli(["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "3"],
                               capsys)
        assert code == 1 and "error:" in err

    def test_dyadic_fast_path_matches_direct(self, capsys):
        code, out, _ = run_cli(
            ["ratio", "--spectrum", "dyadic:lmax=8,base=0.25", "--k", "1..8"], capsys)
        assert code == 0
        lam = Spectrum(PiecewiseDyadicSpectrum(lmax=8, base=0.25))
        for row in out.strip().splitlines()[1:]:
            k_s, v_s = row.split(",")
            assert float(v_s) == pytest.approx(esp_ratio(lam, int(k_s)), rel=1e-10)


    def test_flat_spectrum_does_not_overflow(self, capsys):
        code, out, _ = run_cli(
            ["ratio", "--spectrum", "pow:p=0.01,n=100000", "--k", "120..121"], capsys)
        assert code == 0
        values = [float(row.split(",")[1]) for row in out.strip().splitlines()[1:]]
        assert all(np.isfinite(v) and v > 0.0 for v in values)
        assert values[1] < values[0]


class TestExpectedErrorCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["expected-error", "--spectrum", "geom:q=0.5,n=8", "--k", "1..5"], capsys)
        assert code == 0
        lam = generate_geometric(0.5, 8)
        for row in out.strip().splitlines()[1:]:
            k_s, v_s = row.split(",")
            assert float(v_s) == pytest.approx(
                expected_error_exact(lam, int(k_s)), rel=1e-14)


    def test_deep_geometric_k(self, capsys):
        # e_60 of (1, 1/2, ..., 2^-199) is about 1e-532
        code, out, err = run_cli(
            ["expected-error", "--spectrum", "geom:q=0.5,n=200", "--k", "60"], capsys)
        assert code == 0 and err == ""
        k_s, v_s = out.strip().splitlines()[1].split(",")
        assert float(v_s) == pytest.approx(61 * esp_geometric_ratio(0.5, 200, 60), rel=1e-12)


class TestBoundsCommand:
    def test_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--spectrum", "pow:p=2,n=100", "--k", "1..3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,exact_ratio,simple_bound,dyadic_bound,expected_error,optimal_error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "100" and first[1] == "1"
        assert first[4] == ""  # no --mu given

    def test_mu_fills_dyadic_column(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--spectrum", "pow:p=2,n=1023", "--k", "2",
             "--mu", "dyadic:lmax=10,base=0.25"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        exact, dyadic = float(row[2]), float(row[4])
        assert exact <= dyadic * (1.0 + 1e-12)

    def test_dyadic_spectrum_row_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--spectrum", "dyadic:lmax=3,base=0.25", "--k", "1",
             "--mu", "dyadic:lmax=3,base=0.5"], capsys)
        assert code == 0
        [report] = bound_reports(PiecewiseDyadicSpectrum(3, 0.25), [1],
                                 mu=PiecewiseDyadicSpectrum(3, 0.5))
        assert report.dyadic_bound is not None
        cells = [report.exact_ratio, report.simple_bound, report.dyadic_bound,
                 report.expected_error, report.optimal_error]
        assert out.splitlines()[1] == ",".join(
            ["7", "1"] + [format(x, ".17g") for x in cells])

    @pytest.mark.parametrize("mu, dyadic", [([], ""), (["--mu", "dyadic:lmax=2,base=0.5"], "0.625")],
                             ids=["no_mu", "mu"])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_row_format(self, tmp_path, mu, dyadic, fmt, capsys):
        # lambda = (1/2, 1/2, 1/2): e_2/e_1 = 0.75/1.5 and tail sum 1 at k = 1;
        # mu = (1, 1/2, 1/2) gives e_2/e_1 = 1.25/2; no mu leaves the cell blank
        p = tmp_path / "s.txt"
        p.write_text("0.5\n0.5\n0.5\n")
        code, out, err = run_cli(
            ["bounds", "--input", str(p), "--k", "1", "--format", fmt, *mu], capsys)
        assert code == 0 and err == ""
        want = ("n,k,exact_ratio,simple_bound,dyadic_bound,expected_error,optimal_error\n"
                f"3,1,0.5,1,{dyadic},1,1\n")
        assert out == (want if fmt == "csv" else want.replace(",", "\t"))

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--spectrum", "pow:p=2,n=10", "--k", "1", "--format", "tsv"],
            capsys)
        assert code == 0
        assert "\t" in out and "," not in out


class TestApproxCommand:
    def test_two_by_two(self, psd_file, capsys):
        code, out, _ = run_cli(
            ["approx", "--input", psd_file, "--k", "1", "--seed", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        fields = dict(line.split(",", 1) for line in lines[:4])
        assert fields["subset"] in ("1", "2")
        # either kept index leaves the same Schur trace
        assert float(fields["error_nuclear"]) == pytest.approx(1.5)
        assert float(fields["expected_error"]) == pytest.approx(
            expected_error_exact(make_spectrum([3.0, 1.0]), 1))
        assert float(fields["optimal_error"]) == pytest.approx(1.0)
        matrix = np.array([[float(x) for x in row.split()] for row in lines[4:]])
        kept = int(fields["subset"]) - 1
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(matrix[kept, :], m[kept, :], rtol=1e-15)

    def test_k_at_the_rank_expects_zero_error(self, tmp_path, capsys):
        p = tmp_path / "r1.txt"
        p.write_text("1 1\n1 1\n")
        code, out, err = run_cli(["approx", "--input", str(p), "--k", "1"], capsys)
        assert code == 0, err
        assert out.splitlines()[2] == "expected_error,0"

    def test_out_file_holds_matrix(self, psd_file, tmp_path, capsys):
        out_path = tmp_path / "approx.txt"
        code, out, _ = run_cli(
            ["approx", "--input", psd_file, "--k", "1", "--seed", "0",
             "--out", str(out_path)], capsys)
        assert code == 0
        matrix = np.array([[float(x) for x in row.split()]
                           for row in out_path.read_text().strip().splitlines()])
        assert matrix.shape == (2, 2)
        # summary still goes to stdout, matrix only to the file
        assert "error_nuclear" in out
        assert len(out.strip().splitlines()) == 4

    def test_tsv_separates_matrix_rows_by_tabs(self, psd_file, capsys):
        argv = ["approx", "--input", psd_file, "--k", "1", "--seed", "3"]
        code, csv, _ = run_cli(argv, capsys)
        assert code == 0
        code, tsv, _ = run_cli(argv + ["--format", "tsv"], capsys)
        assert code == 0 and " " not in tsv and "," not in tsv
        assert tsv == csv.replace(",", "\t").replace(" ", "\t")

    def test_unwritable_out_prints_nothing(self, psd_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "approx.txt"
        code, out, err = run_cli(
            ["approx", "--input", psd_file, "--k", "1", "--out", str(out_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"

    def test_gram_input(self, tmp_path, capsys):
        p = tmp_path / "x.txt"
        p.write_text("1 0\n1 1\n0 2\n")
        code, out, _ = run_cli(
            ["approx", "--input", str(p), "--gram", "--k", "1", "--seed", "5"],
            capsys)
        assert code == 0
        assert "error_nuclear" in out

    def test_rbf_kernel_input(self, tmp_path, capsys):
        p = tmp_path / "pts.txt"
        p.write_text("0.0\n1.0\n2.5\n")
        code, out, _ = run_cli(
            ["approx", "--input", str(p), "--kernel", "rbf", "--sigma", "1.0",
             "--k", "2", "--seed", "1"], capsys)
        assert code == 0
        assert "subset" in out

    def test_rbf_requires_sigma(self, tmp_path, capsys):
        p = tmp_path / "pts.txt"
        p.write_text("0.0\n1.0\n")
        code, _, err = run_cli(
            ["approx", "--input", str(p), "--kernel", "rbf", "--k", "1"], capsys)
        assert code == 1 and "sigma" in err

    def test_k_above_rank_is_numerical_error(self, tmp_path, capsys):
        p = tmp_path / "r1.txt"
        p.write_text("1 1\n1 1\n")
        code, _, err = run_cli(["approx", "--input", str(p), "--k", "2"], capsys)
        assert code == 2 and "error:" in err


class TestSampleCommand:
    def test_rows_are_one_based_sorted(self, identity5_file, capsys):
        code, out, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "20",
             "--seed", "9"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 20
        for row in rows:
            a, b = (int(x) for x in row.split(","))
            assert 1 <= a < b <= 5

    def test_seed_reproducibility(self, identity5_file, capsys):
        _, out1, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "10",
             "--seed", "4"], capsys)
        _, out2, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "10",
             "--seed", "4"], capsys)
        assert out1 == out2

    def test_zero_draws_rejected(self, identity5_file, capsys):
        code, _, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "0"],
            capsys)
        assert code == 1


    def test_deep_spectrum_prints_full_subsets(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        np.savetxt(path, inverse_square_psd(), fmt="%.17g")
        code, out, err = run_cli(
            ["sample", "--input", str(path), "--k", "150", "--seed", "3"], capsys)
        assert code == 0 and err == ""
        assert len(set(out.strip().split(","))) == 150

    def test_draw_without_k_distinct_indices_exits_2(
            self, identity5_file, capsys, monkeypatch):
        monkeypatch.setattr(volcur.sampling, "esp_marginals",
                            lambda spec, k: np.zeros((k + 1, spec.n + 1)))
        code, out, err = run_cli(
            ["sample", "--input", identity5_file, "--k", "2"], capsys)
        assert code == 2 and out == "" and "distinct" in err


class TestVerifyCommand:
    def test_identity_passes(self, identity5_file, capsys):
        code, out, _ = run_cli(["verify", "--input", identity5_file, "--k", "2"],
                               capsys)
        assert code == 0
        line = out.strip().splitlines()[0]
        brute = float(line.split("bruteforce=")[1].split()[0])
        exact = float(line.split("exact=")[1].split()[0])
        assert brute == pytest.approx(3.0, rel=1e-12)
        assert exact == pytest.approx(3.0, rel=1e-14)
        assert out.strip().splitlines()[-1] == "verify: PASS"

    def test_two_by_two(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        p.write_text("2 0\n0 1\n")
        code, out, _ = run_cli(["verify", "--input", str(p), "--k", "1"], capsys)
        assert code == 0
        line = out.strip().splitlines()[0]
        assert "k=1" in line
        val = float(line.split("exact=")[1].split()[0])
        assert val == pytest.approx(4.0 / 3.0)

    def test_k_range(self, identity5_file, capsys):
        code, out, _ = run_cli(["verify", "--input", identity5_file, "--k", "1..3"],
                               capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize("diagonal", [
        [1e-160, 1e-160, 1e-170, 1e-170],       # five of six 2 x 2 volumes underflow as doubles
        [1e-200] * 4,                           # every 2-subset's volume is 1e-400
        # rank 3: at k = 3 exact is 0 and brute force 1.08e-11, 4 times the dropped 2.7e-12,
        # within the allowance (k+1) (n - rank) RANK_TOL lambda_max = 1.2e-11
        [1.0, 1.0, 1.0, 9e-13, 9e-13, 9e-13],
    ], ids=["underflowing-volumes", "tiny-scale", "dropped-eigenvalues"])
    def test_passes_at_any_scale_and_at_the_rank(self, diagonal, tmp_path, capsys):
        p = tmp_path / "d.txt"
        np.savetxt(p, np.diag(diagonal), fmt="%.17g")
        code, out, err = run_cli(["verify", "--input", str(p), "--k", "1..3"], capsys)
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()] == ["k=1", "k=2", "k=3", "verify:"]
        assert out.splitlines()[-1] == "verify: PASS"

    @pytest.mark.parametrize("text, k, det", [("5\n", "1", 5.0), ("2 1\n1 2\n", "1..2", 3.0)],
                             ids=["1x1", "2x2"])
    def test_k_up_to_n(self, text, k, det, tmp_path, capsys):
        # k = n, as approx and sample take it: one subset, no error, normalizer det M
        p = tmp_path / "m.txt"
        p.write_text(text)
        code, out, err = run_cli(["verify", "--input", str(p), "--k", k], capsys)
        assert (code, err) == (0, "")
        *_, last, verdict = out.splitlines()
        assert last.startswith(f"k={k[-1]} bruteforce=0 exact=0 rel_err=0.000e+00 ")
        assert verdict == "verify: PASS"
        dist = enumerate_distribution(load_matrix(p), int(k[-1]))
        assert math.ldexp(*dist.normalizer) == pytest.approx(det, rel=1e-15)

    def test_one_enumeration_per_k(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m8.txt"
        np.savetxt(path, random_psd(np.random.default_rng(9), 8, 8), fmt="%.17g")
        calls = []
        factor = volcur.sampling._subset_factor
        monkeypatch.setattr(volcur.sampling, "_subset_factor",
                            lambda m, s: calls.append(s.shape) or factor(m, s))
        code, out, _ = run_cli(["verify", "--input", str(path), "--k", "1..4"], capsys)
        assert code == 0 and out.endswith("verify: PASS\n")
        assert calls == [(math.comb(8, k), k) for k in range(1, 5)]   # one batch per k

    def test_k_range_end_is_checked_before_any_enumeration(self, tmp_path, capsys,
                                                          monkeypatch):
        path = tmp_path / "m12.txt"
        np.savetxt(path, random_psd(np.random.default_rng(12), 12, 12), fmt="%.17g")
        calls = []
        monkeypatch.setattr(volcur.cli, "enumerate_distribution",
                            lambda *args: calls.append(args))
        code, out, err = run_cli(["verify", "--input", str(path), "--k", f"1..{10**18}"],
                                 capsys)
        assert (code, out, err) == (
            2, "", f"error: cannot volume-sample {10**18} columns from a rank-12 matrix\n")
        assert calls == []

    @pytest.mark.parametrize("n, k", [(13, "1..12"), (20, "1..2")])
    def test_n_past_twelve_passes_within_the_enumeration_cap(self, n, k, tmp_path, capsys):
        path = tmp_path / "m.txt"
        np.savetxt(path, random_psd(np.random.default_rng(n), n, n), fmt="%.17g")
        code, out, err = run_cli(["verify", "--input", str(path), "--k", k], capsys)
        assert (code, err) == (0, "") and out.endswith("verify: PASS\n")

    @pytest.mark.parametrize("k, first", [("15", "C(30,15) = 155117520"),
                                          ("1..15", "C(30,7) = 2035800")], ids=["15", "1..15"])
    def test_size_cap(self, k, first, tmp_path, capsys, monkeypatch):
        # every k is counted before any is enumerated; the first past the cap is named
        path = tmp_path / "m30.txt"
        np.savetxt(path, random_psd(np.random.default_rng(30), 30, 30), fmt="%.17g")
        calls = []
        monkeypatch.setattr(volcur.sampling, "_subset_factor", lambda *args: calls.append(args))
        code, out, err = run_cli(["verify", "--input", str(path), "--k", k], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: enumerating all {first} subsets exceeds the enumeration cap of 1000000\n"
        assert calls == []

    def test_k_above_rank_rejected(self, tmp_path, capsys):
        p = tmp_path / "r1.txt"
        p.write_text("1 1\n1 1\n")
        code, _, _ = run_cli(["verify", "--input", str(p), "--k", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "approx", "sample"])
    def test_k_past_the_matrix_rank_exits_2_with_one_message(self, command, tmp_path,
                                                              monkeypatch, capsys):
        p = tmp_path / "ones3.txt"
        np.savetxt(p, np.ones((3, 3)))        # rank 1, n = 3: k = 2 is within n - 1
        monkeypatch.setattr(volcur.sampling, "_subset_factor", None)   # never reached
        code, out, err = run_cli([command, "--input", str(p), "--k", "2"], capsys)
        assert (code, out, err) == (
            2, "", "error: cannot volume-sample 2 columns from a rank-1 matrix\n")

    def test_out_file_holds_report(self, identity5_file, tmp_path, capsys):
        report = tmp_path / "v.out"
        code, out, _ = run_cli(["verify", "--input", identity5_file, "--k", "2",
                                "--out", str(report)], capsys)
        assert code == 0 and out == ""
        lines = report.read_text().splitlines()
        assert lines[0].startswith("k=2 bruteforce=")
        assert lines[-1] == "verify: PASS"

    def test_k_at_rank_passes_with_zero_errors(self, tmp_path, capsys):
        p = tmp_path / "r2.txt"
        # rank 2, n = 3
        p.write_text("2 1 0\n1 2 0\n0 0 0\n")
        code, out, _ = run_cli(["verify", "--input", str(p), "--k", "2"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == "verify: PASS"

    @pytest.mark.filterwarnings("error")
    def test_answers_where_c_k_is_finite(self, tmp_path, capsys):
        # c_1 = 4e200, and the ratio e_2 / e_1 is read from the pairs
        p = tmp_path / "d200.txt"
        np.savetxt(p, np.diag([1e200] * 4))
        code, out, err = run_cli(["verify", "--input", str(p), "--k", "1"], capsys)
        assert (code, err) == (0, "")
        assert float(out.split("exact=")[1].split()[0]) == pytest.approx(3e200, rel=1e-15)
        assert out.splitlines()[-1] == "verify: PASS"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_c_k_is_one_error_line_naming_k(self, tmp_path, capsys):
        # c_2 = 6e400 and c_3 = 4e600 leave double range but not their pairs, so
        # diag(1e200 x 4) passes; on diag(8.9e307 x 4) the errors themselves overflow
        p = tmp_path / "d200.txt"
        np.savetxt(p, np.diag([1e200] * 4))
        code, out, err = run_cli(["verify", "--input", str(p), "--k", "1..3"], capsys)
        assert (code, err, out.splitlines()[-1]) == (0, "", "verify: PASS")
        np.savetxt(p, np.diag([8.9e307] * 4))
        assert run_cli(["verify", "--input", str(p), "--k", "1"], capsys) == (
            2, "", "error: a value at k = 1 overflows double precision\n")

    def test_fail_branch_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m5.txt"
        np.savetxt(path, random_psd(np.random.default_rng(5), 5, 5), fmt="%.17g")
        enumerate_distribution = volcur.cli.enumerate_distribution

        def off_by_1e6(m, k):
            dist = enumerate_distribution(m, k)
            return dataclasses.replace(dist, errors=dist.errors * (1.0 + 1e-6))
        monkeypatch.setattr(volcur.cli, "enumerate_distribution", off_by_1e6)
        code, out, err = run_cli(["verify", "--input", str(path), "--k", "1..2"], capsys)
        assert (code, err) == (2, "")
        assert out.splitlines()[-1] == "verify: FAIL"
        assert all(float(line.split("rel_err=")[1].split()[0]) > 1e-7
                   for line in out.splitlines()[:-1])

    def test_fail_branch_reads_c_k_below_double_range(self, tmp_path, capsys, monkeypatch):
        # c_2 = 6e-400 of diag(1e-200 x 4) is 0.0 as a double; a doubled pair still fails
        path = tmp_path / "d.txt"
        np.savetxt(path, np.diag([1e-200] * 4))
        enumerate_distribution = volcur.cli.enumerate_distribution

        def doubled(m, k):
            dist = enumerate_distribution(m, k)
            mantissa, exponent = dist.normalizer
            return dataclasses.replace(dist, normalizer=(mantissa, exponent + 1))
        monkeypatch.setattr(volcur.cli, "enumerate_distribution", doubled)
        code, out, err = run_cli(["verify", "--input", str(path), "--k", "2"], capsys)
        assert (code, err) == (2, "")
        line, verdict = out.splitlines()
        assert float(line.split("normalizer_rel_err=")[1]) == pytest.approx(1.0, rel=1e-9)
        assert verdict == "verify: FAIL"


class TestFigureCommand:
    def test_ordered_columns(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--spectrum", "pow:p=2,n=255", "--mu",
             "dyadic:lmax=8,base=0.25", "--k", "1..16"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,ratio_lambda,ratio_mu,simple_bound"
        assert len(lines) == 17
        for row in lines[1:]:
            _, r_lam, r_mu, sb = (float(x) for x in row.split(","))
            assert r_lam <= r_mu * (1.0 + 1e-12)
            assert r_mu <= sb * (1.0 + 1e-12)

    def test_length_mismatch(self, capsys):
        code, _, err = run_cli(
            ["figure", "--spectrum", "pow:p=2,n=100", "--mu",
             "dyadic:lmax=8,base=0.25", "--k", "1..4"], capsys)
        assert code == 1 and "error:" in err

    def test_reads_an_input_file(self, tmp_path, capsys):
        # figure resolves its spectrum as every spectral command does
        p = tmp_path / "s.txt"
        p.write_text("".join(f"{1.0 / i**2!r}\n" for i in range(1, 1024)))
        tail = ["--mu", "dyadic:lmax=10,base=0.25", "--k", "1..3"]
        code, out, err = run_cli(["figure", "--input", str(p), *tail], capsys)
        assert code == 0, err
        assert out == run_cli(["figure", "--spectrum", "pow:p=2,n=1023", *tail], capsys)[1]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["figure", "--spectrum", "pow:p=2,n=1023", "--mu",
                "dyadic:lmax=10,base=0.25", "--k", "1..32"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0


def unconverged(*args, **kwargs):
    """A stand-in for np.linalg.eigh that fails as LAPACK does."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["esp", "--input", "/nonexistent/s.txt", "--k", "1"],
                               capsys)
        assert code == 1 and "error:" in err

    def test_non_psd_matrix(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n2 1\n")
        code, _, _ = run_cli(["approx", "--input", str(p), "--k", "1"], capsys)
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["esp", "--nope", "1", "--k", "1"], capsys)
        assert code == 1

    def test_undecodable_spectrum_file(self, tmp_path, capsys):
        p = tmp_path / "s.txt"
        p.write_bytes(b"1.0\n\xff\n")
        code, out, err = run_cli(["esp", "--input", str(p), "--k", "1"], capsys)
        assert code == 1 and out == ""
        assert "error: cannot read spectrum file" in err

    @pytest.mark.parametrize("command", [
        ["ratio"], ["expected-error"], ["bounds"], ["figure", "--mu", "dyadic:lmax=4,base=0.25"],
    ], ids=["ratio", "expected-error", "bounds", "figure"])
    @pytest.mark.parametrize("text, detail", [
        ("3 1\n1 3\n", "holds a 2 x 2 table; give one line of values, or one value per line"),
        (None, "holds a 12 x 12 table; give one line of values, or one value per line"),
        ("3,1\n2", "line 2: the number of columns changed from 2 to 1"),
    ], ids=["2x2", "wishart12", "ragged"])
    def test_a_table_given_as_a_spectrum_is_one_error_line(self, command, text, detail,
                                                           tmp_path, capsys):
        # the 2 x 2 file was once the spectrum {3, 3, 1, 1}: `ratio --k 1` printed 2.75
        p = tmp_path / "table.txt"
        if text is None:
            g = np.random.default_rng(12).standard_normal((12, 12))
            np.savetxt(p, g @ g.T)
        else:
            p.write_text(text)
        code, out, err = run_cli(command + ["--input", str(p), "--k", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{detail}\n")

    @pytest.mark.parametrize("extra, message", [
        (["--kernel", "poly", "--sigma", "1"], "invalid choice: 'poly'"),
        (["--spectrum", "geom:q=0.5,n=2"], "unrecognized arguments: --spectrum"),
        (["--kernel", "rbf", "--sigma", "nan"], "error: sigma must be positive"),
    ])
    def test_matrix_command_usage_errors(self, psd_file, extra, message, capsys):
        for command in ("approx", "sample", "verify"):
            code, out, err = run_cli(
                [command, "--input", psd_file, "--k", "1"] + extra, capsys)
            assert code == 1 and out == "", command
            assert message in err, command

    # the shift that keeps the largest point in range takes the distance of 0
    # and the next point, and 2 sigma^2, to 0 alike
    @pytest.mark.parametrize("command, points, sigma", [
        ("sample", "0.0\n1e-200\n1e150\n", "1e-200"),
        ("approx", "0\n1e-100\n1e300\n", "1e-100"),
        ("approx", "0\n1e-100\n1e300\n", "1e-160"),
    ], ids=["0, 1e-200, 1e150", "0, 1e-100, 1e300 at 1e-100", "0, 1e-100, 1e300 at 1e-160"])
    def test_sigma_whose_square_underflows_is_one_error_line(self, command, points, sigma,
                                                             tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text(points)
        proc = python_dash_m([command, "--input", str(p), "--kernel", "rbf",
                              "--sigma", sigma, "--k", "1"], PYTHONWARNINGS="error")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: sigma = {sigma} is too small for the data's range: "
                               "scaled to fit it, 2 sigma^2 and the squared distance of two "
                               "distinct points both underflow to 0\n")

    # k is the kernel's rank, so the approximation printed is the kernel
    @pytest.mark.parametrize("points, sigma, k, rows", [
        ("0.0\n1e-200\n", "1e-200", 2, ["1 {e}", "{e} 1"]),
        ("0\n1\n3\n", "1e-300", 3, ["1 0 0", "0 1 0", "0 0 1"]),
        ("1e300\n1e300\n", "1e-200", 1, ["1 1", "1 1"]),
        ("0\n1e-200\n1e100\n", "1e-200", 3, ["1 {e} 0", "{e} 1 0", "0 0 1"]),
    ], ids=["d = sigma", "unit apart, sigma 1e-300", "equal at 1e300", "d = sigma beside 1e100"])
    def test_sigma_whose_square_underflows_answers_data_on_its_scale(self, points, sigma, k,
                                                                     rows, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text(points)
        proc = python_dash_m(["approx", "--input", str(p), "--kernel", "rbf",
                              "--sigma", sigma, "--k", str(k)], PYTHONWARNINGS="error")
        assert (proc.returncode, proc.stderr) == (0, "")
        entry = format(np.exp(-0.5), ".17g")
        assert proc.stdout.splitlines()[-len(rows):] == [r.format(e=entry) for r in rows]

    def test_subnormal_two_sigma_squared_is_silent(self, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text("0.0\n1.0\n3.0\n")
        proc = python_dash_m(["sample", "--input", str(p), "--kernel", "rbf",
                              "--sigma", "1e-160", "--k", "1", "--draws", "3"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 3

    def test_overflowing_matrix_is_one_error_line(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("1e308 1e308\n1e308 1e308\n")
        message = "error: matrix eigenvalues overflow double precision\n"
        for command in ("approx", "sample", "verify"):
            assert run_cli([command, "--input", str(p), "--k", "1"], capsys) == (2, "", message)
        proc = python_dash_m(["sample", "--input", str(p), "--k", "1"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    @pytest.mark.filterwarnings("error")
    def test_gram_entry_whose_double_overflows_is_answered(self, tmp_path, capsys):
        # X^T X = diag(9.025e307, 1): 2 * 9.025e307 overflows, so that block
        # is symmetrized by halves, and the eigenvalue 9.025e307 is finite
        p = tmp_path / "x.txt"
        p.write_text("9.5e153 0\n0 1\n")
        code, out, err = run_cli(["approx", "--input", str(p), "--gram", "--k", "1"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] in ("subset,1", "subset,2")

    def test_overflowing_approx_summary_is_one_error_line(self, tmp_path, capsys):
        # each entry is finite when symmetrized, but the Schur complement's trace is not
        p = tmp_path / "diag4.txt"
        np.savetxt(p, np.diag([8.9e307] * 4), fmt="%.17g")
        out_path = tmp_path / "cur.txt"
        message = "error: error_nuclear overflows double precision\n"
        for extra in ([], ["--out", str(out_path)]):
            argv = ["approx", "--input", str(p), "--k", "1"] + extra
            assert run_cli(argv, capsys) == (2, "", message)
            proc = python_dash_m(argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
        assert not out_path.exists()

    def test_overflowing_gram_is_one_error_line(self, tmp_path, capsys):
        # X is finite, X^T X is not: exit 2, and no numpy warning
        p = tmp_path / "x.txt"
        p.write_text("1e200 1\n1 1\n")
        argv = ["approx", "--input", str(p), "--gram", "--k", "1"]
        message = "error: X^T X overflows double precision\n"
        assert run_cli(argv, capsys) == (2, "", message)
        proc = python_dash_m(argv, PYTHONWARNINGS="error")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    @pytest.mark.parametrize("sigma", ["1", "1e150"])
    def test_rbf_on_large_coordinates_answers(self, sigma, tmp_path):
        # points 1e160 apart: the kernel is the identity, so either one may be drawn
        p = tmp_path / "pts.txt"
        p.write_text("1e160\n0\n")
        proc = python_dash_m(["sample", "--input", str(p), "--kernel", "rbf",
                              "--sigma", sigma, "--k", "1", "--draws", "4"],
                             PYTHONWARNINGS="error")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert set(proc.stdout.split()) <= {"1", "2"} and len(proc.stdout.split()) == 4

    @pytest.mark.parametrize("argv, patch, code, message", [
        (["figure", "--spectrum", "dyadic:lmax=10,base=0.5",
          "--mu", "dyadic:lmax=10,base=0.25", "--k", "1"], None, 1,
         "domination fails at position 2: spectrum value 0.5 exceeds majorant value 0.25"),
        (["bounds", "--spectrum", "dyadic:lmax=11,base=0.25",
          "--mu", "dyadic:lmax=10,base=0.25", "--k", "1"], None, 1,
         "majorant has only 1023 entries but the spectrum is positive at position 1024"),
        (["approx", "--input", "{collinear}", "--k", "2"],
         (volcur.cli, "sample_subsets", lambda m, k, draws, seed: np.array([[0, 1]])), 2,
         "pivot block is singular at step 2 of 2"),
        (["verify", "--input", "{eye3}", "--k", "1"],
         (volcur.sampling, "_subset_factor",
          lambda m, s: (np.zeros(s.shape), np.zeros((len(s), m.n)), None)), 2,
         "every 1-subset has volume 0: its pivot block is singular"),
        (["sample", "--input", "{ones3}", "--k", "2"], None, 2,
         "cannot volume-sample 2 columns from a rank-1 matrix"),
        (["sample", "--input", "{eye3}", "--k", "1"], (np.linalg, "eigh", unconverged), 2,
         "eigensolver did not converge: Eigenvalues did not converge"),
    ], ids=["domination", "majorant-length", "singular-pivot", "no-positive-volume",
            "past-the-rank", "eigensolver"])
    def test_each_raise_site_exits_with_its_family_code(self, argv, patch, code, message,
                                                        tmp_path, monkeypatch, capsys):
        # split_head_tail, the one library-only raise site, is tested in test_spectra.py
        g = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])    # columns 0 and 1 coincide
        files = {}
        for name, a in (("collinear", g @ g.T), ("eye3", np.eye(3)), ("ones3", np.ones((3, 3)))):
            files[name] = str(tmp_path / f"{name}.txt")
            np.savetxt(files[name], a)
        if patch is not None:
            monkeypatch.setattr(*patch)
        argv = [arg.format(**files) for arg in argv]
        assert run_cli(argv, capsys) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, k", [
        (["ratio", "--k", "0..2"], 0),
        (["expected-error", "--k", "0..2"], 0),
        (["expected-error", "--k", "1..2"], 1),      # 2 * 1e308, though the ratio is finite
        (["bounds", "--k", "0..2"], 0),
        (["bounds", "--k", "1..2"], 1),              # the tail sum 2e308
    ])
    def test_overflowing_spectral_value_is_one_error_line(self, argv, k, tmp_path, capsys):
        p = tmp_path / "s.txt"
        p.write_text("1e308\n1e308\n1e308\n")
        message = f"error: a value at k = {k} overflows double precision\n"
        assert run_cli(argv + ["--input", str(p)], capsys) == (2, "", message)

    def test_spectral_values_short_of_overflow_print(self, tmp_path, capsys):
        p = tmp_path / "s.txt"
        p.write_text("1e308\n1e308\n1e308\n")
        code, out, err = run_cli(["ratio", "--input", str(p), "--k", "1..2"], capsys)
        assert (code, err) == (0, "")
        assert out == "k,ratio\n1,1e+308\n2,3.3333333333333337e+307\n"

    @pytest.mark.parametrize("text, k, j", [("1e308\n1e308\n1e308\n", "0..3", 1),
                                            ("1e300\n1e300\n", "2", 2)],
                             ids=["1e308x3", "1e300x2"])
    def test_overflowing_esp_names_the_first_j(self, text, k, j, tmp_path, capsys):
        # and the scale-free command a CLI user can run instead
        p = tmp_path / "s.txt"
        p.write_text(text)
        assert run_cli(["esp", "--input", str(p), "--k", k], capsys) == (
            2, "", f"error: ESP values overflow double precision at this scale, first at "
                   f"j = {j}; use esp_ratios (volcur ratio), which is scale free\n")

    @pytest.mark.parametrize("command", ["approx", "sample"])
    def test_single_k_commands_refuse_a_range_of_any_length(self, command, identity5_file,
                                                             capsys):
        code, out, err = run_cli([command, "--input", identity5_file, "--k", f"1..{10**20}"],
                                 capsys)
        assert (code, out, err) == (1, "", f"error: {command} takes a single k, not a range\n")

    def test_malformed_k_range(self, capsys):
        for argv in (
            ["esp", "--spectrum", "geom:q=0.5,n=3", "--k", "a..b"],
            ["ratio", "--spectrum", "geom:q=0.5,n=10", "--k=-1..2"],
            ["expected-error", "--spectrum", "geom:q=0.5,n=10", "--k=-1..1"],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 1, argv
            assert out == "", argv

    @pytest.mark.parametrize("argv, code, message", [
        (["esp", "--spectrum", "geom:q=0.5,n=4"], 1, "k must be at most 4, got 10**18"),
        (["ratio", "--spectrum", "geom:q=0.5,n=4"], 1, "k must be at most 3, got 10**18"),
        (["expected-error", "--spectrum", "geom:q=0.5,n=4"], 1,
         "k must be at most 3, got 10**18"),
        (["bounds", "--spectrum", "geom:q=0.5,n=4"], 1, "k must be at most 3, got 10**18"),
        (["figure", "--spectrum", "geom:q=0.5,n=4", "--mu", "dyadic:lmax=3,base=0.5"], 1,
         "k must be at most 3, got 10**18"),
        (["verify", "--input", "IDENTITY5"], 2,
         "cannot volume-sample 10**18 columns from a rank-5 matrix"),
        (["approx", "--input", "IDENTITY5"], 1, "approx takes a single k, not a range"),
        (["sample", "--input", "IDENTITY5"], 1, "sample takes a single k, not a range"),
    ], ids=["esp", "ratio", "expected-error", "bounds", "figure", "verify", "approx", "sample"])
    def test_k_range_is_checked_before_it_is_built(self, argv, code, message, identity5_file,
                                                   capsys):
        argv = [identity5_file if a == "IDENTITY5" else a for a in argv]
        got = run_cli(argv + ["--k", f"1..{10**18}"], capsys)
        message = message.replace("10**18", str(10**18))
        assert got == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec", ["pow:p=2,n=1000000000000000", "geom:q=0.5,n=1073741825"])
    def test_generated_spectrum_above_the_cap_exits_3(self, spec, capsys):
        code, out, err = run_cli(["expected-error", "--spectrum", spec, "--k", "1"], capsys)
        n = spec.rpartition("=")[2]
        assert (code, out) == (3, "")
        assert err == f"error: n = {n} exceeds the generated-spectrum cap 1073741824\n"

    def test_draws_past_the_dense_cap_exit_3(self, psd_file, capsys):
        # 10^12 one-index draws would need 7.28 TiB: refused before anything is allocated
        got = run_cli(["sample", "--input", psd_file, "--k", "1", "--draws", str(10**12)], capsys)
        assert got == (3, "", f"error: {10**12} draws x 1 indices exceed the dense-array cap "
                              "1073741824\n")

    def test_failed_run_writes_no_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "never.csv"
        code, _, _ = run_cli(
            ["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "5",
             "--out", str(out_path)], capsys)
        assert code == 1
        assert not out_path.exists()


class TestOneEigensolve:
    """Each matrix command decomposes its matrix with exactly one eigh."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counted(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.fixture()
    def inputs(self, tmp_path):
        rng = np.random.default_rng(51)
        matrix, data = tmp_path / "m.txt", tmp_path / "x.txt"
        np.savetxt(matrix, random_psd(rng, 8, 8), fmt="%.17g")
        np.savetxt(data, rng.standard_normal((10, 3)), fmt="%.17g")
        return str(matrix), str(data)

    @pytest.mark.parametrize("argv", [
        ["sample", "matrix", "--k", "3", "--draws", "4"],
        ["approx", "matrix", "--k", "3"],
        ["verify", "matrix", "--k", "1..3"],
        ["approx", "data", "--gram", "--k", "2"],
        ["approx", "data", "--kernel", "rbf", "--sigma", "1.0", "--k", "3"],
    ])
    def test_one_eigh_per_command(self, argv, inputs, solves, capsys):
        path = inputs[0] if argv[1] == "matrix" else inputs[1]
        code, out, err = run_cli([argv[0], "--input", path, *argv[2:]], capsys)
        assert code == 0, err
        assert out
        assert solves == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("argv", [
        ["sample", "--k", "3", "--draws", "4"],
        ["approx", "--k", "3"],
        ["verify", "--k", "1..3"],
    ])
    def test_commands_read_the_matrix_decomposition_directly(self, argv, inputs, monkeypatch,
                                                            capsys):
        # m's eigenpairs are the one eigensolve; eigendecompose(m) only hands
        # them back, so a call to it would count as a second solve where
        # solves are counted
        calls = []

        def counted(m):
            calls.append(m)
            return m.vectors, m.eigenvalues
        for module in (volcur.cli, volcur.psd, volcur.sampling):
            if hasattr(module, "eigendecompose"):
                monkeypatch.setattr(module, "eigendecompose", counted)
        code, _, err = run_cli([argv[0], "--input", inputs[0], *argv[1:]], capsys)
        assert code == 0, err
        assert calls == []

    def test_eigensolver_failure_is_typed(self, psd_file, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        with pytest.raises(NumericalError, match="^eigensolver did not converge: "
                                                 "Eigenvalues did not converge$"):
            PsdMatrix(np.eye(2))
        code, out, err = run_cli(["sample", "--input", psd_file, "--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "did not converge" in err


class TestOneEspTable:
    """Each spectral command builds exactly one plain-spectrum ESP table,
    and none for a dyadic spectrum, majorant or not; verify builds one too,
    the invariant sums that it reads its ratios from, whatever its k range."""

    @pytest.fixture()
    def tables(self, monkeypatch):
        calls = []
        prefix_rows = volcur.esp._prefix_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return prefix_rows(*args, **kwargs)
        monkeypatch.setattr(volcur.esp, "_prefix_rows", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["ratio", "--spectrum", "pow:p=1,n=500", "--k", "1..32"],
        ["expected-error", "--spectrum", "pow:p=1,n=500", "--k", "1..32"],
        ["figure", "--spectrum", "pow:p=2,n=1023",
         "--mu", "dyadic:lmax=10,base=0.25", "--k", "1..32"],
        ["bounds", "--spectrum", "pow:p=1,n=500", "--k", "1..32"],
        ["bounds", "--spectrum", "pow:p=2,n=1023",
         "--mu", "dyadic:lmax=10,base=0.25", "--k", "1..32"],
        ["bounds", "--spectrum", "dyadic:lmax=12,base=0.25",
         "--mu", "dyadic:lmax=12,base=0.5", "--k", "1..32"],
    ])
    def test_one_table_per_command(self, argv, tables, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 33
        assert len(tables) == (0 if argv[2].startswith("dyadic:") else 1)

    def test_verify_builds_one_table(self, tables, tmp_path, capsys):
        path = tmp_path / "m7.txt"
        np.savetxt(path, random_psd(np.random.default_rng(7), 7, 7), fmt="%.17g")
        code, out, err = run_cli(["verify", "--input", str(path), "--k", "1..6"], capsys)
        assert code == 0 and out.endswith("verify: PASS\n"), err
        assert len(tables) == 1


def columns(argv, capsys, *names):
    """The named columns of a spectral command's CSV output, as strings."""
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    header, *rows = (line.split(",") for line in out.splitlines())
    return [[row[header.index(name)] for row in rows] for name in names]


class TestOneValuePerSpectrum:
    """Every command prints the same exact ratio for a spectrum, plain or
    dyadic, with or without a majorant beside it."""

    @pytest.mark.parametrize("spectrum, mu", [
        ("pow:p=2,n=1023", "dyadic:lmax=10,base=0.25"),
        ("dyadic:lmax=12,base=0.25", "dyadic:lmax=12,base=0.5"),
    ])
    def test_commands_agree(self, spectrum, mu, capsys):
        given = ["--spectrum", spectrum, "--k", "1..32"]
        cells = ("exact_ratio", "simple_bound", "expected_error", "optimal_error")
        [ratio] = columns(["ratio", *given], capsys, "ratio")
        [expected] = columns(["expected-error", *given], capsys, "expected_error")
        bounds = columns(["bounds", *given], capsys, *cells)
        [figure] = columns(["figure", *given, "--mu", mu], capsys, "ratio_lambda")
        assert columns(["bounds", *given, "--mu", mu], capsys, *cells) == bounds
        assert ratio == bounds[0] == figure
        assert expected == bounds[2]
        assert len(ratio) == 32

    @pytest.mark.parametrize("given, mu, zero_from", [
        (["--input", "RANK3"], "dyadic:lmax=3,base=0.5", 3),
        # a full-rank formula whose entries underflow to zero from i = 1075
        (["--spectrum", "geom:q=0.5,n=2000"], None, 1074),
    ], ids=["rank-3-file", "geom-underflow"])
    def test_past_the_rank_every_command_prints_zero(self, given, mu, zero_from, tmp_path,
                                                     capsys):
        # e_{k+1}/e_k <= tail_sum(k) pins the ratio to 0 where e_k = 0
        path = tmp_path / "rank3.txt"
        path.write_text("1,0.5,0.5,0,0,0,0\n")
        given = [str(path) if a == "RANK3" else a for a in given]
        n = 7 if mu else 2000
        given += ["--k", f"0..{n - 1}"]
        [ratio] = columns(["ratio", *given], capsys, "ratio")
        [expected] = columns(["expected-error", *given], capsys, "expected_error")
        exact, errors = columns(["bounds", *given], capsys, "exact_ratio", "expected_error")
        assert ratio == exact and expected == errors and len(ratio) == n
        if mu:
            assert columns(["figure", *given, "--mu", mu], capsys, "ratio_lambda") == [ratio]
        values = np.array(ratio + expected, dtype=float)
        assert not np.any(np.isnan(values))
        assert set(ratio[zero_from:] + expected[zero_from:]) == {"0"}
        assert "0" not in ratio[: zero_from - 1]

    @pytest.mark.parametrize("spectrum, mu, message", [
        ("dyadic:lmax=10,base=0.5", "dyadic:lmax=10,base=0.25",
         "domination fails at position 2: spectrum value 0.5 exceeds majorant value 0.25"),
        ("dyadic:lmax=11,base=0.25", "dyadic:lmax=10,base=0.25",
         "majorant has only 1023 entries but the spectrum is positive at position 1024"),
    ])
    def test_dyadic_domination_messages(self, spectrum, mu, message, capsys):
        code, out, err = run_cli(
            ["bounds", "--spectrum", spectrum, "--mu", mu, "--k", "1"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["bounds", "figure"])
    def test_a_file_of_the_majorants_entries_is_dominated(self, command, tmp_path, capsys):
        # 0.4**2 is 0.16000000000000003; numpy's vectorized power can give 0.16
        path = tmp_path / "mu.txt"
        path.write_text("".join(f"{0.4**level:.17g}\n" * 2**level for level in range(6)))
        code, out, err = run_cli([command, "--input", str(path),
                                  "--mu", "dyadic:lmax=6,base=0.4", "--k", "1..3"], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4


README = Path(__file__).resolve().parents[1] / "README.md"


PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


class TestReadmeExamples:
    """The README's command examples print exactly what the README shows,
    and its python blocks run, so none can call a name the package lost."""

    @pytest.mark.parametrize("block", PYTHON_BLOCKS,
                             ids=[f"block{i}" for i in range(1, len(PYTHON_BLOCKS) + 1)])
    def test_python_block_runs(self, block):
        exec(compile(block, "README.md", "exec"), {})

    @pytest.mark.parametrize("command", [
        "expected-error --spectrum geom:q=0.5,n=32 --k 1..3",
        "figure --spectrum pow:p=2,n=1023 --mu dyadic:lmax=10,base=0.25 --k 1..3",
    ])
    def test_output_matches_readme(self, command, capsys):
        lines = README.read_text().splitlines()
        start = lines.index(f"$ volcur {command}") + 1
        shown = "\n".join(lines[start:lines.index("", start)]) + "\n"
        code, out, err = run_cli(command.split(), capsys)
        assert code == 0, err
        assert out == shown


class TestMatrixOutput:
    """approx writes its matrix with np.savetxt; %.17g must match format()."""

    def test_savetxt_matches_format(self, tmp_path):
        rng = np.random.default_rng(52)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16]
        values = np.concatenate([bits[np.isfinite(bits)][:3000],
                                 rng.standard_normal(994), edges])
        rows = values.reshape(100, 40)
        want = "".join(" ".join(format(float(x), ".17g") for x in row) + "\n"
                       for row in rows)
        path = tmp_path / "m.txt"
        np.savetxt(path, rows, fmt="%.17g")
        assert path.read_bytes() == want.encode("ascii")
        stream = io.StringIO()
        np.savetxt(stream, rows, fmt="%.17g")
        assert stream.getvalue() == want


def python_dash_m(argv, **env):
    """`python -m volcur.cli argv` in a child process, with env added to its environment."""
    return subprocess.run([sys.executable, "-m", "volcur.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, **env})


class TestModuleEntryPoint:
    """cli.run(), the process entry: it freezes the import graph for the
    collector, then exits with main()'s code; main() itself never freezes."""

    def test_python_dash_m(self):
        proc = python_dash_m(["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "1"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "k,ratio"

    @pytest.mark.parametrize("argv", [
        ["figure", "--spectrum", "pow:p=2,n=255", "--mu", "dyadic:lmax=8,base=0.25",
         "--k", "1..16"],
        ["sample", "--input", "{eye5}", "--k", "2", "--draws", "20", "--seed", "9"],
    ], ids=["figure", "sample"])
    def test_stdout_matches_in_process_main(self, argv, identity5_file, capsys):
        argv = [arg.format(eye5=identity5_file) for arg in argv]
        proc = python_dash_m(argv)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "") and out
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("argv, code", [
        (["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "5"], 1),
        (["approx", "--input", "{rank1}", "--k", "2"], 2),
        (["ratio", "--spectrum", "pow:p=2,n=1000000000000000", "--k", "1"], 3),
    ], ids=["validation", "numerical", "cap"])
    def test_exit_codes_pass_through(self, argv, code, tmp_path, capsys):
        rank1 = tmp_path / "r1.txt"
        rank1.write_text("1 1\n1 1\n")
        argv = [arg.format(rank1=rank1) for arg in argv]
        proc = python_dash_m(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv, capsys)
        assert proc.returncode == code and proc.stderr.startswith("error: ")

    def test_a_reader_that_stops_early_is_not_an_error(self, tmp_path):
        # approx on eye(300) writes about 180 kB, past the pipe's buffer, so the
        # command is still writing when the reader closes its end
        eye = tmp_path / "eye300.txt"
        np.savetxt(eye, np.eye(300))
        proc = subprocess.Popen(
            [sys.executable, "-m", "volcur.cli", "approx", "--input", str(eye), "--k", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first.startswith(b"subset,") and err == b""

    @pytest.mark.parametrize("command, text, where", [
        ("approx", "1 2\n3 x\n", "line 2, column 2: could not convert string 'x' to float64"),
        ("approx", "1 2\n\n3", "line 3: the number of columns changed from 2 to 1"),
        ("approx", "1, 2\n\n\n3, 4,\n\n5 6 7\n",
         "line 6: the number of columns changed from 2 to 3"),
        ("approx", "1 2\r\n\r\n3 4\r\n5 x\r\n",
         "line 4, column 2: could not convert string 'x' to float64"),
        ("ratio", "3, 1, x, 2\n", "line 1, column 3: could not convert string 'x' to float64"),
        # about 270 kB: the fault is read in a later 64 Ki block than the head
        ("approx", "0.5 0.25\n" * 30000 + "\n1 y\n",
         "line 30002, column 2: could not convert string 'y' to float64"),
    ], ids=["bad_token", "ragged", "blank_lines", "crlf", "commas", "past_the_first_block"])
    def test_a_pipe_is_located_as_a_file_is(self, command, text, where, tmp_path):
        # numpy's own location counts nonblank rows from 0; the message names the file's line
        p = tmp_path / "bad.txt"
        p.write_bytes(text.encode())
        what = "matrix" if command == "approx" else "spectrum"
        runs = [(subprocess.run([sys.executable, "-m", "volcur.cli", command, "--input", path,
                                 "--k", "1"], input=text.encode(), capture_output=True), path)
                for path in (str(p), "/dev/stdin")]
        for proc, path in runs:
            assert (proc.returncode, proc.stdout) == (1, b"")
            assert proc.stderr.decode() == f"error: malformed {what} file {path}: {where}\n"

    def test_main_and_import_leave_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert run_cli(["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "1"], capsys)[0] == 0
        assert gc.get_freeze_count() == before
        proc = subprocess.run([sys.executable, "-c", "import gc; before = gc.get_freeze_count(); "
                               "import volcur, volcur.cli; print(before, gc.get_freeze_count())"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        before, after = proc.stdout.split()
        assert before == after

    def test_the_entry_freezes_before_the_command(self):
        # an exit hook runs after the command, before the interpreter's teardown
        code = ("import atexit, gc, sys, volcur.cli; "
                "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
                "sys.argv[1:] = ['ratio', '--spectrum', 'geom:q=0.5,n=3', '--k', '1']; "
                "volcur.cli.run()")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "True"

    def test_console_script_is_the_module_entry(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        [target] = re.findall(r'^\[project\.scripts\]\nvolcur = "([^"]+)"$', pyproject, re.M)
        module, _, name = target.partition(":")
        assert module == "volcur.cli"
        tree = ast.parse(Path(volcur.cli.__file__).read_text())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert ast.unparse(block).splitlines()[1:] == [f"    {name}()"]
        assert callable(getattr(volcur.cli, name))


def no_solve(patch):
    """From here on, a read of the input file or an eigensolve fails the test: only the
    cache may answer."""
    patch.setattr(volcur._cache, "_read_table", lambda *args: pytest.fail("read"))
    patch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigensolved"))


def entry_arrays(entry, count):
    with open(entry, "rb") as file:
        return [np.load(file) for _ in range(count)]


def save_entry(entry, arrays):
    with open(entry, "wb") as file:
        for x in arrays:
            np.save(file, x)


def read_cached(path):
    """_cache._read of path as a spectrum file, returning the table it reads: the parse on
    a miss, the entry on a hit."""
    return volcur._cache._read(path, "spectrum", "", lambda arrays: arrays[0])


# ways to damage a cache entry, given its path and the arrays it holds
DAMAGE = {
    "truncated": lambda entry, arrays: entry.write_bytes(entry.read_bytes()[:-8]),
    "empty": lambda entry, arrays: entry.write_bytes(b""),
    "wrong-shape": lambda entry, arrays: save_entry(entry, [x[..., :-1] for x in arrays]),
    "1d": lambda entry, arrays: save_entry(entry, [x.ravel() for x in arrays]),
    "int": lambda entry, arrays: save_entry(entry, [x.astype(np.int64) for x in arrays]),
}


class TestInputCache:
    """The volcur command's one cache entry per input file, named by the file's bytes,
    how it is read and transformed, and all that eigh's bits depend on: a hit is
    what a miss computes, so what a command prints never depends on the cache."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--k", "50", "--draws", "40", "--seed", "3"],
        ["approx", "--k", "20", "--seed", "5", "--out", "{out}"],
    ], ids=["sample", "approx"])
    def test_a_miss_a_hit_and_npy_print_the_same(self, argv, spd1000, entries, tmp_path, capsys,
                                                  monkeypatch):
        npy = tmp_path / "spd1000.npy"
        np.save(npy, np.loadtxt(spd1000))
        runs = []
        for i, source in enumerate((spd1000, spd1000, npy, npy)):   # each file's miss, then hit
            out = tmp_path / f"cur{i}.txt"
            command = [argv[0], "--input", str(source), *(a.format(out=out) for a in argv[1:])]
            with monkeypatch.context() as patch:
                if i % 2:
                    no_solve(patch)
                runs.append((run_cli(command, capsys), out.read_bytes() if out.exists() else None))
            assert entries() == 1 + i // 2      # the .npy twin's bytes are another input
        code, stdout, stderr = runs[0][0]
        assert (code, stderr) == (0, "") and stdout
        assert runs[1:] == [runs[0]] * 3

    def test_each_transform_of_a_file_is_its_own_entry(self, entries, tmp_path, capsys,
                                                       monkeypatch):
        # a plain read, --gram, and --kernel rbf at sigma 2 and one ulp above
        path = tmp_path / "m.txt"
        np.savetxt(path, random_psd(np.random.default_rng(12), 12, 12), fmt="%.17g")
        sigmas = ["2", repr(math.nextafter(2.0, 3.0))]
        forms = [[], ["--gram"], *(["--kernel", "rbf", "--sigma", s] for s in sigmas)]
        argvs = [["approx", "--input", str(path), "--k", "2", *form] for form in forms]
        runs = []
        for i, argv in enumerate(argvs):
            runs.append(run_cli(argv, capsys))
            assert runs[-1][0] == 0
            assert entries() == i + 1
        no_solve(monkeypatch)
        assert [run_cli(argv, capsys) for argv in argvs] == runs
        assert entries() == 4

    def test_a_plain_entry_never_answers_gram(self, cache, entries, tmp_path, capsys,
                                              monkeypatch):
        path = tmp_path / "m.txt"
        np.savetxt(path, random_psd(np.random.default_rng(13), 6, 6), fmt="%.17g")
        plain = ["approx", "--input", str(path), "--k", "1"]
        with monkeypatch.context() as patch:
            patch.setattr(volcur._cache, "_cache_dir", lambda: None)
            want = run_cli([*plain, "--gram"], capsys)
        stored = run_cli(plain, capsys)
        [entry] = cache.iterdir()
        a, w, v = entry_arrays(entry, 3)
        save_entry(entry, [2.0 * a, 2.0 * w, v])     # a planted matrix under the plain key
        assert run_cli([*plain, "--gram"], capsys) == want
        assert entries() == 2
        assert run_cli(plain, capsys) != stored     # the plant answers the plain read

    def test_a_cache_that_cannot_be_made_changes_nothing(self, psd_file, tmp_path):
        argv = ["sample", "--input", psd_file, "--k", "1", "--draws", "5", "--seed", "2"]
        want = python_dash_m(argv, XDG_CACHE_HOME=str(tmp_path / "xdg"))
        (tmp_path / "blocked").mkdir()
        (tmp_path / "blocked" / "volcur").write_text("a regular file\n")
        got = python_dash_m(argv, XDG_CACHE_HOME=str(tmp_path / "blocked"))
        assert (got.returncode, got.stderr) == (0, "")
        assert got.stdout == want.stdout != ""

    def test_a_pipe_is_not_cached(self, psd_file, cache):
        argv = ["sample", "--input", "/dev/stdin", "--k", "1", "--draws", "5", "--seed", "2"]
        piped = subprocess.run([sys.executable, "-m", "volcur.cli", *argv], input="2 1\n1 2\n",
                               capture_output=True, text=True)
        assert (piped.returncode, piped.stderr) == (0, "")
        assert not cache.exists()
        assert piped.stdout == python_dash_m([*argv[:2], psd_file, *argv[3:]]).stdout

    @staticmethod
    def eigen_digest(path, base, threads=None, prelude="import volcur"):
        """A digest of the eigenpairs the volcur command reads from path, in a fresh process
        that runs prelude first, with XDG_CACHE_HOME=base and OPENBLAS_NUM_THREADS=threads
        (unset for None)."""
        code = (f"{prelude}\nimport hashlib, volcur.cli as cli\n"
                f"args = cli.build_parser().parse_args(['sample', '--input', {str(path)!r}, "
                "'--k', '1'])\n"
                "m = cli._resolve_matrix(args)\n"
                "print(hashlib.sha256(m.eigenvalues.values.tobytes() "
                "+ m.vectors.tobytes()).hexdigest())")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["XDG_CACHE_HOME"] = str(base)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    @pytest.fixture()
    def m300(self, tmp_path):
        # eigh's bits at n = 300 differ between one and two OpenBLAS threads.  The
        # matrix is formed here, once: a product formed in each child would differ
        # by setting too.  Also returns a cache base where nothing is cached.
        path = tmp_path / "m.npy"
        np.save(path, random_psd(np.random.default_rng(0), 300, 300))
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "volcur").write_text("a regular file: no cache\n")
        return path, blocked

    def test_each_thread_setting_hits_its_own_bits(self, cache, entries, m300):
        # an entry stored under one setting must not answer the other
        path, blocked = m300
        for threads in ("1", "2"):
            want = self.eigen_digest(path, blocked, threads)
            assert [self.eigen_digest(path, cache.parent, threads) for _ in range(2)] == [want] * 2
        assert entries() == 2

    @pytest.mark.parametrize("first, stored", [("numpy", 0), ("volcur", 1)])
    def test_a_setting_made_after_numpy_loaded_is_not_the_key(self, first, stored, cache,
                                                              entries, m300):
        # OpenBLAS reads its thread count once, as numpy loads: a process that sets
        # it later runs with the old one.  Where volcur loaded numpy, the entry is
        # keyed by the setting numpy loaded with; where numpy came first, that is
        # unknown, and nothing is stored.  A later process that starts with the
        # late setting gets its own bits either way.
        path, blocked = m300
        late = f"import os, {first}; os.environ['OPENBLAS_NUM_THREADS'] = '1'"
        assert (self.eigen_digest(path, cache.parent, prelude=late)
                == self.eigen_digest(path, blocked))
        assert entries() == stored
        want = self.eigen_digest(path, blocked, "1")
        assert [self.eigen_digest(path, cache.parent, "1") for _ in range(2)] == [want] * 2
        assert entries() == stored + 1

    @pytest.mark.parametrize("unknown", [
        lambda patch: patch.setattr(volcur._cache, "_BLAS_SETTING", None),
        lambda patch: patch.setitem(sys.modules, "threadpoolctl", types.ModuleType("threadpoolctl")),
    ], ids=["numpy-loaded-first", "threadpoolctl-loaded"])
    def test_no_entry_where_the_blas_setting_is_unknown(self, unknown, cache, psd_file, capsys,
                                                        monkeypatch):
        unknown(monkeypatch)
        assert run_cli(["sample", "--input", psd_file, "--k", "1"], capsys)[0] == 0
        assert not cache.exists()

    @staticmethod
    def small_input(kind, tmp_path):
        """A small input's command, and the number of arrays in its entry."""
        if kind == "spectrum":
            (tmp_path / "s.txt").write_text("3 1 2 0.5\n")
            return ["ratio", "--input", str(tmp_path / "s.txt"), "--k", "1..3"], 1
        np.savetxt(tmp_path / "m.txt", random_psd(np.random.default_rng(7), 5, 5), fmt="%.17g")
        return ["approx", "--input", str(tmp_path / "m.txt"), "--k", "2"], 3

    # any 2-D table is a spectrum file's parse, so no shape is wrong for one
    @pytest.mark.parametrize("kind, damage", [
        (kind, damage) for kind in ("matrix", "spectrum") for damage in DAMAGE
        if (kind, damage) != ("spectrum", "wrong-shape")])
    def test_a_damaged_entry_is_a_miss_and_is_replaced(self, kind, damage, cache, tmp_path,
                                                       capsys):
        argv, count = self.small_input(kind, tmp_path)
        want = run_cli(argv, capsys)
        [entry] = cache.iterdir()
        stored = entry.read_bytes()
        DAMAGE[damage](entry, entry_arrays(entry, count))
        assert run_cli(argv, capsys) == want
        assert entry.read_bytes() == stored
        assert list(cache.iterdir()) == [entry]

    @pytest.mark.parametrize("mode, other_uid", [(0o770, 0), (0o702, 0), (0o700, 1)],
                             ids=["group-writable", "world-writable", "another-users"])
    def test_a_directory_others_may_write_is_no_cache(self, cache, monkeypatch, mode, other_uid,
                                                     tmp_path, capsys):
        rng = np.random.default_rng(8)
        paths = [tmp_path / "m.txt", tmp_path / "n.txt"]
        for path in paths:
            np.savetxt(path, random_psd(rng, 5, 5), fmt="%.17g")
        argv = ["approx", "--input", str(paths[0]), "--k", "3"]
        want = run_cli(argv, capsys)
        [entry] = cache.iterdir()
        a, w, v = entry_arrays(entry, 3)
        save_entry(entry, [2.0 * a, 2.0 * w, v])     # a planted matrix under m.txt's name
        cache.chmod(mode)
        with monkeypatch.context() as patch:
            patch.setattr(os, "getuid", lambda: cache.stat().st_uid + other_uid)
            assert run_cli(argv, capsys) == want
            assert run_cli(["approx", "--input", str(paths[1]), "--k", "3"], capsys)[0] == 0
        assert list(cache.iterdir()) == [entry]     # nothing stored
        cache.chmod(0o700)
        assert run_cli(argv, capsys) != want        # the plant, where it may be trusted

    @pytest.mark.parametrize("matrix, code, message", [
        (lambda g: g + g.T, 1, "matrix is not PSD: smallest eigenvalue -22.7 below "
                               "-1e-10 * lambda_max"),
        (lambda g: np.full_like(g, 8.9e307), 2, "matrix eigenvalues overflow double precision"),
    ], ids=["not-psd", "overflow"])
    def test_a_refusal_is_the_same_on_a_hit(self, matrix, code, message, entries, tmp_path,
                                            capsys, monkeypatch):
        path = tmp_path / "m.npy"
        np.save(path, matrix(np.random.default_rng(1).standard_normal((64, 64))))
        argv = ["sample", "--input", str(path), "--k", "1"]
        for _ in range(2):
            assert run_cli(argv, capsys) == (code, "", f"error: {message}\n")
            assert entries() == 1
            no_solve(monkeypatch)

    @pytest.mark.parametrize("data, message", [
        (b"1 2\n3 x\n", "malformed matrix file {p}: line 2, column 2: "
                        "could not convert string 'x' to float64"),
        (b"1 2\n3\n", "malformed matrix file {p}: line 2: the number of columns changed "
                      "from 2 to 1"),
        (b"\n \n", "matrix file {p} is empty"),
        (b"1 \xff\n", "cannot read matrix file {p}: 'utf-8' codec can't decode byte 0xff "
                      "in position 2: invalid start byte"),
        (b"2 1\n0 2\n", "matrix is not symmetric (max asymmetry 1)"),
    ], ids=["bad_token", "ragged", "empty", "undecodable", "asymmetric"])
    def test_a_refusal_before_eigh_stores_nothing(self, tmp_path, cache, data, message, capsys):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        for _ in range(2):
            assert run_cli(["sample", "--input", str(p), "--k", "1"], capsys) == (
                1, "", f"error: {message.format(p=p)}\n")
        assert not cache.exists()

    def test_a_hit_is_the_parse_bit_for_bit(self, tmp_path, entries, monkeypatch):
        odd = tmp_path / "odd.txt"
        odd.write_text("-0.0 nan 5e-324\n-inf 1.7976931348623157e308 0.1\n")
        want = read_cached(odd)
        assert entries() == 1
        no_solve(monkeypatch)
        got = read_cached(odd)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable

    def test_a_rewrite_of_the_same_size_and_time_is_a_miss(self, tmp_path, entries):
        p = tmp_path / "m.txt"
        p.write_text("2 1\n1 2\n")
        assert read_cached(p).tolist() == [[2, 1], [1, 2]]
        before = p.stat()
        p.write_text("3 1\n1 3\n")
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (p.stat().st_size, p.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert read_cached(p).tolist() == [[3, 1], [1, 3]]
        assert entries() == 2

    def test_a_file_changed_while_it_is_read_is_not_stored(self, tmp_path, cache, monkeypatch):
        p = tmp_path / "m.txt"
        p.write_text("2 1\n1 2\n")
        read = volcur._cache._read_table

        def rewritten(path, what, file):
            table = read(path, what, file)
            p.write_text("30 1\n1 30\n")
            return table
        monkeypatch.setattr(volcur._cache, "_read_table", rewritten)
        assert read_cached(p).tolist() == [[2, 1], [1, 2]]
        assert not cache.exists()

    def test_the_least_recently_used_entries_go_past_the_cap(self, tmp_path, cache,
                                                              monkeypatch):
        paths, stored = [tmp_path / f"m{i}.txt" for i in range(4)], []
        for i, p in enumerate(paths):
            p.write_text(f"{i} 1\n1 {i}\n")
        for p in paths[:3]:
            known = set(cache.glob("*.npy"))
            read_cached(p)
            [entry] = set(cache.glob("*.npy")) - known
            stored.append(entry)
        for i, entry in enumerate(stored, 1):      # stored in order, long ago
            os.utime(entry, ns=(i * 10**9, i * 10**9))
        size = stored[0].stat().st_size
        monkeypatch.setattr(volcur._cache, "_CACHE_CAP", 3 * size)
        read_cached(paths[0])           # a hit: m0 is now the most recently used
        read_cached(paths[3])           # the fourth entry evicts m1's
        kept = set(cache.iterdir())
        assert stored[1] not in kept and {stored[0], stored[2]} <= kept
        assert len(kept) == 3 and sum(e.stat().st_size for e in kept) <= 3 * size

    @pytest.mark.parametrize("age, kept", [(0, True), (2 * 3600, False)],
                             ids=["in-flight", "dead"])
    def test_a_temp_file_goes_only_once_its_store_is_dead(self, tmp_path, cache, entries,
                                                          monkeypatch, age, kept):
        # another process's temp file, past the cap alone: one written just now is
        # a store in flight, and one two hours older than every entry a store that
        # died; the dead one goes first, and then nothing else need go
        paths = [tmp_path / f"m{i}.txt" for i in range(2)]
        for i, p in enumerate(paths):
            p.write_text(f"{i} 1\n1 {i}\n")
        read_cached(paths[0])
        [entry] = cache.glob("*.npy")
        temp = cache / f"{'0' * 64}.99999.tmp"
        temp.write_bytes(b"\0" * 4 * entry.stat().st_size)
        written = entry.stat().st_mtime_ns - age * 10**9
        os.utime(temp, ns=(written, written))
        monkeypatch.setattr(volcur._cache, "_CACHE_CAP", 2 * entry.stat().st_size)
        read_cached(paths[1])
        assert temp.exists() == kept and entry.exists()
        assert entries() == 2

    def test_an_interrupted_store_leaves_no_file(self, tmp_path, cache, monkeypatch):
        p = tmp_path / "m.txt"
        p.write_text("2 1\n1 2\n")

        def interrupted(out, table):
            out.write(b"\x93NUMPY")
            raise KeyboardInterrupt
        monkeypatch.setattr(np, "save", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read_cached(p)
        assert list(cache.iterdir()) == []

    def test_an_input_past_the_cap_is_not_stored(self, tmp_path, cache, monkeypatch):
        small, large = tmp_path / "small.txt", tmp_path / "large.txt"
        small.write_text("2 1\n1 2\n")
        large.write_text("1 0 0\n0 1 0\n0 0 1\n")
        read_cached(small)
        [entry] = cache.glob("*.npy")
        monkeypatch.setattr(volcur._cache, "_CACHE_CAP", 9 * 8 - 1)
        assert read_cached(large).tolist() == np.eye(3).tolist()
        assert sorted(cache.iterdir()) == [entry]

    def test_the_library_writes_nothing(self, cache, tmp_path):
        # every library call that reads or forms a matrix or spectrum, in a fresh
        # process where volcur loaded numpy, as the command does
        g = np.random.default_rng(14).standard_normal((100, 100))
        np.savetxt(tmp_path / "m.txt", g @ g.T, fmt="%.17g")
        np.save(tmp_path / "m.npy", g @ g.T)
        (tmp_path / "s.txt").write_text("3 1 2 0.5\n")
        np.save(tmp_path / "s.npy", np.array([[3.0, 1.0, 2.0, 0.5]]))
        # numpy.random loads hashlib: the child reads g from a file
        np.save(tmp_path / "g.npy", g)
        code = (f"import volcur\nimport sys, numpy as np\nbase = {str(tmp_path)!r}\n"
                "g = np.load(f'{base}/g.npy')\n"
                "volcur.PsdMatrix(g @ g.T)\n"
                "for name in ('m.txt', 'm.npy'):\n"
                "    volcur.read_array(f'{base}/{name}'), volcur.load_matrix(f'{base}/{name}')\n"
                "for name in ('s.txt', 's.npy'):\n"
                "    volcur.load_spectrum(f'{base}/{name}')\n"
                "volcur.gram_matrix(g), volcur.rbf_kernel_matrix(g, 2.0)\n"
                "print('hashlib' in sys.modules, 'volcur._cache' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\n", "")
        assert not cache.exists()


class TestUnreachedRefusals:
    """Refusals that no other test reaches: the exit code and the one stderr line."""

    @pytest.mark.parametrize("argv, message", [
        (["ratio", "--spectrum", "geom:q=0.5,n=8", "--k", "5..3"], "empty k range '5..3'"),
        (["bounds", "--spectrum", "geom:q=0.5,n=8", "--mu", "geom:q=0.5,n=8", "--k", "1"],
         "--mu must be a dyadic generator spec"),
        (["approx", "--k", "1"], "this command requires --input <matrix file>"),
        (["approx", "--input", "{eye2}", "--gram", "--kernel", "rbf", "--sigma", "1",
          "--k", "1"], "--gram and --kernel are mutually exclusive"),
        (["figure", "--spectrum", "geom:q=0.5,n=8", "--k", "1"], "figure requires --mu (dyadic)"),
        (["ratio", "--input", "{empty}", "--k", "1"], "spectrum file {empty} is empty"),
        (["ratio", "--spectrum", "geom:q", "--k", "1"], "malformed generator parameter 'q'"),
        (["ratio", "--spectrum", "geom:q=x,n=3", "--k", "1"],
         "malformed generator spec 'geom:q=x,n=3': could not convert string to float: 'x'"),
        (["approx", "--input", "{nan}", "--k", "1"], "matrix entries must be finite"),
    ], ids=["empty-k-range", "non-dyadic-mu", "no-input", "gram-and-kernel", "figure-no-mu",
            "empty-spectrum-file", "parameter-without-value", "non-numeric-parameter",
            "nan-matrix-entry"])
    def test_exits_1_with_one_error_line(self, argv, message, tmp_path, capsys):
        files = {"eye2": tmp_path / "eye2.txt", "empty": tmp_path / "empty.txt",
                 "nan": tmp_path / "nan.txt"}
        np.savetxt(files["eye2"], np.eye(2))
        files["empty"].write_text("")
        files["nan"].write_text("nan 1\n1 1\n")
        argv = [arg.format(**files) for arg in argv]
        assert run_cli(argv, capsys) == (1, "", f"error: {message.format(**files)}\n")

    def test_tail_of_zeros_prints_what_the_head_alone_prints(self, tmp_path, capsys,
                                                             monkeypatch):
        # past 65536 entries the tail is scanned only to the order _tail_order
        # certifies; a tail of zeros sums to 0, which needs order 0
        values = np.concatenate([1.0 / np.arange(1, 65537) ** 2, np.zeros(4464)])
        long, head = tmp_path / "long.txt", tmp_path / "head.txt"
        np.savetxt(long, values, fmt="%.17g")
        np.savetxt(head, values[:65536], fmt="%.17g")
        totals, tail_order = [], volcur.esp._tail_order
        monkeypatch.setattr(volcur.esp, "_tail_order",
                            lambda h, total: totals.append(total) or tail_order(h, total))
        argv = ["expected-error", "--k", "1..64", "--input"]
        answer = run_cli(argv + [str(long)], capsys)
        assert totals == [0.0]
        assert answer[0] == 0 and answer == run_cli(argv + [str(head)], capsys)
