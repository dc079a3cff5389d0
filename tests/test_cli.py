import io
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volcur.esp
import volcur.sampling
from oracles import inverse_square_psd, random_psd
from volcur import (
    EigensolverError,
    PiecewiseDyadicSpectrum,
    PsdMatrix,
    bound_reports,
    esp_all,
    esp_geometric_ratio,
    esp_ratio,
    expected_error_exact,
    generate_geometric,
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
        lam = PiecewiseDyadicSpectrum(lmax=8, base=0.25).materialized
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
        assert out.strip().splitlines()[1] == report.csv_row()

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

    def test_env_seed_fallback(self, identity5_file, capsys, monkeypatch):
        monkeypatch.setenv("VOLCUR_SEED", "4")
        _, out_env, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "10"],
            capsys)
        monkeypatch.delenv("VOLCUR_SEED")
        _, out_seed, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "10",
             "--seed", "4"], capsys)
        assert out_env == out_seed

    def test_flag_overrides_env(self, identity5_file, capsys, monkeypatch):
        monkeypatch.setenv("VOLCUR_SEED", "4")
        _, out_flag, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "10",
             "--seed", "8"], capsys)
        monkeypatch.delenv("VOLCUR_SEED")
        _, out_direct, _ = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "10",
             "--seed", "8"], capsys)
        assert out_flag == out_direct

    def test_bad_env_seed(self, identity5_file, capsys, monkeypatch):
        monkeypatch.setenv("VOLCUR_SEED", "not-a-number")
        code, _, err = run_cli(
            ["sample", "--input", identity5_file, "--k", "2", "--draws", "1"],
            capsys)
        assert code == 1 and "VOLCUR_SEED" in err

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

    def test_one_enumeration_per_k(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m8.txt"
        np.savetxt(path, random_psd(np.random.default_rng(9), 8, 8), fmt="%.17g")
        calls = []
        factor = volcur.sampling._subset_factor
        monkeypatch.setattr(volcur.sampling, "_subset_factor",
                            lambda *args: calls.append(1) or factor(*args))
        code, out, _ = run_cli(["verify", "--input", str(path), "--k", "1..4"], capsys)
        assert code == 0 and out.endswith("verify: PASS\n")
        assert len(calls) == sum(math.comb(8, k) for k in range(1, 5))

    def test_size_cap(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        n = 13
        p.write_text("\n".join(
            " ".join(str(float(i == j)) for j in range(n)) for i in range(n)) + "\n")
        code, _, err = run_cli(["verify", "--input", str(p), "--k", "1"], capsys)
        assert code == 3 and "n <= 12" in err

    def test_k_above_rank_rejected(self, tmp_path, capsys):
        p = tmp_path / "r1.txt"
        p.write_text("1 1\n1 1\n")
        code, _, _ = run_cli(["verify", "--input", str(p), "--k", "2"], capsys)
        assert code == 1

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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["figure", "--spectrum", "pow:p=2,n=1023", "--mu",
                "dyadic:lmax=10,base=0.25", "--k", "1..32"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0


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

    @pytest.mark.parametrize("extra, message", [
        (["--kernel", "poly", "--sigma", "1"], "invalid choice: 'poly'"),
        (["--spectrum", "geom:q=0.5,n=2"], "unrecognized arguments: --spectrum"),
    ])
    def test_matrix_command_usage_errors(self, psd_file, extra, message, capsys):
        for command in ("approx", "sample", "verify"):
            code, out, err = run_cli(
                [command, "--input", psd_file, "--k", "1"] + extra, capsys)
            assert code == 1 and out == "", command
            assert message in err, command

    def test_malformed_k_range(self, capsys):
        for argv in (
            ["esp", "--spectrum", "geom:q=0.5,n=3", "--k", "a..b"],
            ["ratio", "--spectrum", "geom:q=0.5,n=10", "--k=-1..2"],
            ["expected-error", "--spectrum", "geom:q=0.5,n=10", "--k=-1..1"],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 1, argv
            assert out == "", argv

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

    def test_eigensolver_failure_is_typed(self, psd_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError):
            PsdMatrix(np.eye(2))
        code, out, err = run_cli(["sample", "--input", psd_file, "--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "did not converge" in err


class TestOneEspTable:
    """Each spectral command builds exactly one plain-spectrum ESP table."""

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
    ])
    def test_one_table_per_command(self, argv, tables, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 33
        assert len(tables) == 1


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeExamples:
    """The README's command examples print exactly what the README shows."""

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


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "volcur.cli", "ratio", "--spectrum",
             "geom:q=0.5,n=3", "--k", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "k,ratio"
