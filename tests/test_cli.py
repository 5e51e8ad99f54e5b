"""CLI behavior: exit codes, report artifacts, atomic writes, env override."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import cli, exactalg, geometry, localize


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestVerifyCommand:
    def test_pass_and_report(self, tmp_path):
        out = tmp_path / "verify.json"
        code = cli.main(["verify", "--k", "2", "--jmax", "4", "--pmax", "4", "-o", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["pass"] is True
        identities = [c["identity"] for c in report["checks"]]
        assert "x2-localizer-bracket" in identities
        assert "x1-localized-power-bracket" in identities
        delta = next(c for c in report["checks"] if c["identity"] == "x1-localized-power-bracket")
        assert delta["delta"][0] == "-1/2"
        assert not delta["convention_comparison"]["positive"]["matches"]
        assert delta["closed_form"]["matches"] is True
        assert report["gamma_reproduces_delta"] is True

    def test_planted_wrong_gamma_fails(self, tmp_path, monkeypatch):
        # a gamma that no longer reproduces delta fails the suite, though every check passes
        real = localize.verify_gamma_expansion

        def planted(jmax, k, table):
            report = real(jmax, k, table)
            return {**report, "gamma": ["1/1", *report["gamma"][1:]]}

        monkeypatch.setattr(localize, "verify_gamma_expansion", planted)
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--k", "2", "--jmax", "4", "--pmax", "4", "-o", str(out)]) == 1
        report = read_json(out)
        assert report["gamma_reproduces_delta"] is False
        assert all(c["pass"] for c in report["checks"])

    def test_planted_wrong_binomial_fails(self, tmp_path, monkeypatch):
        # a closed form that misses the extracted delta fails the suite, with every residual zero
        real = localize.binomial
        monkeypatch.setattr(localize, "binomial", lambda a, n: real(a, n) + (n == 3))
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--k", "2", "--jmax", "4", "--pmax", "4", "-o", str(out)]) == 1
        report = read_json(out)
        delta = next(c for c in report["checks"] if c["identity"] == "x1-localized-power-bracket")
        assert delta["closed_form"]["matches"] is False and delta["pass"] is False
        assert delta["delta_p_independent"] and delta["delta_abs_le_1"]
        residuals = [
            case["residual_terms"]
            for check in report["checks"]
            for case in check.get("cases", [])
            if "residual_terms" in case
        ]
        assert residuals and not any(residuals)
        assert all(c["pass"] for c in report["checks"] if c is not delta)

    def test_k_below_two_is_config_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "1"])
        assert exc.value.code == 2

    def test_deep_report_bytes_are_pinned(self, tmp_path):
        # the report of the fraction-per-coefficient kernels, before the
        # integer-numerator products, commutator and delta elimination
        out = tmp_path / "verify-deep.json"
        argv = ["verify", "--k", "2", "--jmax", "12", "--pmax", "24", "-o", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4865a044141f4416fd35f37ef2e9fd8b0a044dc8ab6a2b1ffb9d014e0386d7e1"
        )

    @pytest.mark.parametrize(
        "depths, digest",
        [
            (["--k", "3", "--jmax", "12", "--pmax", "40"],
             "50069b46360a5343f0b99232408dcd11b913bd18867773df3a48d7b43d08a25e"),
            (["--k", "5", "--jmax", "8", "--pmax", "12"],
             "3863e828c287537b4a7ecb0a7b54cc82fec756b1205ceac5db6ec33286995425"),
        ],
    )
    def test_ci_deep_report_bytes_are_pinned(self, tmp_path, depths, digest):
        # the two deep runs CI makes, where Dt moves across t^3 and t^5; taken
        # before the product skipped the terms that are zero by structure
        out = tmp_path / "verify.json"
        assert cli.main(["verify", *depths, "-o", str(out)]) == 0
        assert sha256_of(out) == digest

    def test_failing_report_bytes_are_pinned(self, tmp_path, monkeypatch):
        # a[3][1] off by 1/7 moves delta_2, read from block 3, so every level
        # p >= 4 keeps a residual; these are the bytes the per-level
        # elimination wrote before delta was read per localizer
        real = exactalg.a_table_recurrence

        def planted(jmax):
            table = real(jmax)
            entries = dict(table.entries)
            entries[(3, 1)] += Fraction(1, 7)
            return exactalg.CoeffTable(table.jmax, entries, table.provenance)

        monkeypatch.setattr(exactalg, "a_table_recurrence", planted)
        out = tmp_path / "verify-planted.json"
        argv = ["verify", "--k", "2", "--jmax", "6", "--pmax", "8", "-o", str(out)]
        assert cli.main(argv) == 1
        delta = next(
            c for c in read_json(out)["checks"] if c["identity"] == "x1-localized-power-bracket"
        )
        assert [c["residual_terms"] for c in delta["cases"]] == [0, 0, 0, 1, 3, 6, 10, 15]
        assert sha256_of(out) == (
            "33af5e9fbab816ff04cfd59203fc56ec6e00e43ec703a9eb7bbc1ea3df355e6f"
        )

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["verify", "--k", "2", "--jmax", "3", "--pmax", "3", "-o", str(a)])
        cli.main(["verify", "--k", "2", "--jmax", "3", "--pmax", "3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCoeffsCommand:
    def test_report_and_table_roundtrip(self, tmp_path):
        out = tmp_path / "coeffs.json"
        table_out = tmp_path / "table.json"
        code = cli.main(["coeffs", "--jmax", "8", "--table-out", str(table_out), "-o", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["dual_route_agree"] and report["recurrence_holds"]
        assert report["bernoulli_identity"]
        assert report["bernoulli_head"][:2] == ["1/1", "-1/2"]
        doc = json.loads(table_out.read_text())
        entries = {tuple(map(int, key.split("/"))): Fraction(v) for key, v in doc["entries"]}
        assert doc["jmax"] == 8 and entries == exactalg.a_table_recurrence(8).entries

    def test_planted_wrong_band_inverse_fails(self, tmp_path, monkeypatch):
        # a wrong c_2 in the band inverse breaks the Bernoulli identity, not the tables
        real = exactalg.matrix_inverse_coeffs

        def planted(m_max):
            coeffs = real(m_max)
            coeffs[2] += 1
            return coeffs

        monkeypatch.setattr(exactalg, "matrix_inverse_coeffs", planted)
        out = tmp_path / "coeffs.json"
        assert cli.main(["coeffs", "--jmax", "8", "-o", str(out)]) == 1
        report = read_json(out)
        assert report["bernoulli_identity"] is False
        assert report["dual_route_agree"] is True and report["pass"] is False

    @staticmethod
    def _plant_in_both_routes(monkeypatch, jprime):
        # one wrong entry a[jmax][jprime], the same in both routes, so they still agree
        def planted(build):
            def wrong(jmax):
                table = build(jmax)
                entries = dict(table.entries)
                entries[(jmax, jprime)] += 1
                return exactalg.CoeffTable(table.jmax, entries, table.provenance)
            return wrong

        for name in ("a_table_recurrence", "a_table_generating"):
            monkeypatch.setattr(exactalg, name, planted(getattr(exactalg, name)))

    def test_planted_wrong_entry_fails_recurrence(self, tmp_path, monkeypatch):
        self._plant_in_both_routes(monkeypatch, 1)
        out = tmp_path / "coeffs.json"
        assert cli.main(["coeffs", "--jmax", "8", "-o", str(out)]) == 1
        report = read_json(out)
        assert report["dual_route_agree"] and report["recurrence_holds"] is False
        assert report["pass"] is False

    def test_planted_last_boundary_entry_fails_recurrence(self, tmp_path, monkeypatch):
        # a[jmax][0] enters no row relation: only the pin a[j][0] = (-1)^j catches it
        self._plant_in_both_routes(monkeypatch, 0)
        out = tmp_path / "coeffs.json"
        assert cli.main(["coeffs", "--jmax", "8", "-o", str(out)]) == 1
        report = read_json(out)
        assert report["dual_route_agree"] and report["recurrence_holds"] is False
        assert report["pass"] is False

    def test_report_and_table_bytes_are_pinned(self, tmp_path, monkeypatch):
        # the bytes of the Fraction-per-operation back-substitution and recurrence check
        monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path))
        argv = ["coeffs", "--jmax", "40", "--table-out", "table.json", "-o", "coeffs.json"]
        assert cli.main(argv) == 0
        assert sha256_of(tmp_path / "coeffs.json") == (
            "f6f0726ffe863ced766df0a5ab950d63627b31a5f6db4da84b2ad4c7927a1b40"
        )
        assert sha256_of(tmp_path / "table.json") == (
            "f5fa54707ae2183ba7cbce5cab002e36f9fd59b01c0d548fbd480b7fa3304157"
        )

    def test_tiny_jmax_rejected(self, monkeypatch, capsys):
        # every refused depth gets the growth scan's message before any table is built
        def must_not_run(jmax):
            raise AssertionError("a table was built for a refused jmax")

        monkeypatch.setattr(exactalg, "a_table_recurrence", must_not_run)
        for jmax in ("-1", "0", "1"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["coeffs", "--jmax", jmax])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert "error: jmax must be >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--jmax", str(cli._MAX_DEPTH + 1), "--table-out", "table.json"],
        ["verify", "--jmax", str(cli._MAX_DEPTH + 1)],
        ["verify", "--pmax", str(cli._MAX_DEPTH + 1)],
        ["verify", "--jmax", "1000000", "--pmax", "1000000"],
    ],
)
def test_depth_above_the_cap_is_config_error(argv, tmp_path, monkeypatch, capsys):
    # a depth-n table holds (n+1)(n+2)/2 entries: a refused depth builds none
    # and writes nothing
    def must_not_run(jmax):
        raise AssertionError("a table was built for a refused depth")

    monkeypatch.setattr(exactalg, "a_table_recurrence", must_not_run)
    monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "-o", "report.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"exceeds the cap of {cli._MAX_DEPTH}" in err
    assert list(tmp_path.iterdir()) == []


def test_depth_cap_accepts_the_cap():
    assert cli._depth(str(cli._MAX_DEPTH)) == cli._MAX_DEPTH
    assert cli._depth("-3") == -3  # lower bounds are each check's own


class TestClassifyCommand:
    def test_prints_label(self, capsys):
        code = cli.main(["classify", "--k", "2", "--t", "0", "--x", "1,0",
                         "--tau", "0", "--xi", "2,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Sigma2"

    def test_depth_one_point(self, capsys):
        code = cli.main(["classify", "--k", "2", "--t", "1", "--x", "1,0",
                         "--tau", "0", "--xi", "1,-1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Sigma1"

    def test_negative_mu_is_config_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--k", "2", "--mu", "-1", "--t", "0",
                      "--x", "1,0", "--tau", "0", "--xi", "2,0"])
        assert exc.value.code == 2

    def test_mu_moves_the_readme_point_off_sigma2(self, capsys):
        code = cli.main(["classify", "--k", "2", "--mu", "1/2", "--t", "0", "--x", "1,0",
                         "--tau", "0", "--xi", "2,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Noncharacteristic"

    def test_sigma2_report_carries_its_rank(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = cli.main(["classify", "--k", "2", "--t", "0", "--x", "1,0",
                         "--tau", "0", "--xi", "2,0", "-o", str(out)])
        assert code == 0
        report = read_json(out)
        assert (report["k"], report["mu"]) == (2, "0/1")
        assert (report["rank"], report["degenerate"], report["pass"]) == (2, True, True)

    def test_sigma1_at_x_zero_fails(self, tmp_path, capsys):
        # x = 0 lies outside the ring: the label is Sigma1, but its bracket matrix is singular
        out = tmp_path / "c.json"
        code = cli.main(["classify", "--k", "2", "--t", "1", "--x", "0,0",
                         "--tau", "0", "--xi", "1,0", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().out.strip() == "Sigma1"
        report = read_json(out)
        assert report["label"] == "Sigma1"
        assert (report["rank"], report["degenerate"], report["pass"]) == (0, True, False)

    def test_planted_label_fails(self, monkeypatch, capsys):
        # a Sigma2 point reported as Sigma1 fails the dichotomy
        def planted(cov, params):
            return geometry.StratumLabel.SIGMA1, {"ambiguous": False}

        monkeypatch.setattr(geometry, "classify_detailed", planted)
        code = cli.main(["classify", "--k", "2", "--t", "0", "--x", "1,0",
                         "--tau", "0", "--xi", "2,0"])
        assert code == 1

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        cli.main(["classify", "--k", "3", "--t", "0", "--x", "2,1", "--tau", "1",
                  "--xi", "0,1", "-o", str(out)])
        report = read_json(out)
        assert report["label"] == "Noncharacteristic"
        assert report["flags"] == {"ambiguous": False}


class TestFlowCommand:
    def test_short_run_passes(self, tmp_path):
        out = tmp_path / "flow.json"
        csv = tmp_path / "traj.csv"
        code = cli.main(["flow", "--t-end", "2", "-o", str(out), "--csv-out", str(csv)])
        assert code == 0
        report = read_json(out)
        assert report["pass"] and report["norm_x_monotone"]
        header = csv.read_text().splitlines()[0]
        assert header == "time,x1,x2,xi1,xi2,dot_x_xi,x_A_xi,norm_x"

    def test_csv_format_routes_to_output(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main(["flow", "--t-end", "0.1", "--csv-out", str(out)])
        assert code == 0
        assert out.read_text().startswith("time,x1")
        summary = json.loads(capsys.readouterr().out)
        assert summary["suite"] == "hamilton-flow"

    def test_closed_leaves_at_mu_zero(self, tmp_path):
        out = tmp_path / "flow.json"
        assert cli.main(["flow", "--mu", "0", "--t-end", "6", "-o", str(out)]) == 0
        report = read_json(out)
        assert report["params"]["mu"] == 0.0
        assert report["state_frozen_from"] is None

    def test_fit_is_null_when_x_never_moves(self, tmp_path):
        # at h = 1.5e-17 the steps move xi but never x, so every window angle is equal
        out = tmp_path / "flow.json"
        argv = ["flow", "--x0", "1.2,0.7", "--h", "1.5e-17", "--t-end", "1.5e-14", "-o", str(out)]
        assert cli.main(argv) == 0
        assert '"log_spiral_fit": null' in out.read_text()

    def test_default_report_and_csv_bytes_are_pinned(self, tmp_path, monkeypatch):
        # the bytes of the loop that evaluated the leaf on all 50,000 rows
        monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path))
        assert cli.main(["flow", "--csv-out", "traj.csv", "-o", "flow.json"]) == 0
        assert sha256_of(tmp_path / "flow.json") == (
            "295046270d6e47132ad9008795aa1dc622fb3c78768af443c923e9c47d9f0cdc"
        )
        assert sha256_of(tmp_path / "traj.csv") == (
            "24daa41f3d30f01a8514206716ac96b25e07f265357c1df0e024ecd3aac073d0"
        )

    def test_bad_annulus_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", "--a", "2", "--b", "1"])
        assert exc.value.code == 2

    def test_csv_is_streamed_not_buffered(self, tmp_path):
        # the rows go straight to the file: --csv-out may not hold the CSV text in memory
        def traced_peak(*extra):
            args = cli._build_parser().parse_args(["flow", "--t-end", "10", *extra])
            tracemalloc.start()
            try:
                cli.run_flow(args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        csv = tmp_path / "traj.csv"
        without = traced_peak()
        with_csv = traced_peak("--csv-out", str(csv))
        assert with_csv - without < csv.stat().st_size / 10


class TestCutoffCommand:
    def test_small_family(self, tmp_path):
        out = tmp_path / "cut.json"
        samples = tmp_path / "samples.csv"
        code = cli.main(["cutoff", "--N", "16", "-o", str(out),
                         "--samples-out", str(samples)])
        assert code == 0
        report = read_json(out)
        assert report["band_gaps"] == ["1/4", "1/16", "1/36", "1/64"]
        assert report["budgets"] == [16, 8, 4, 2]
        assert report["pass"]
        assert samples.read_text().startswith("r,phi,dphi,d2phi")

    def test_samples_csv_bytes_are_pinned(self, tmp_path):
        # the CSV of one evaluation per order, before the orders shared their bases
        samples = tmp_path / "s.csv"
        assert cli.main(["cutoff", "--N", "256", "--samples-out", str(samples),
                         "-o", str(tmp_path / "cut.json")]) == 0
        assert hashlib.sha256(samples.read_bytes()).hexdigest() == (
            "073c42bed6eb55ecb944daedccec5e20449a5dba9fc4502b32cc4f8ca4169d60"
        )

    def test_grid_report_bytes_are_pinned(self, tmp_path):
        # the report of the grid 4, 16, 64, 256, 1024 that the runner listed
        # before bound_check_grid derived it from N
        out = tmp_path / "grid.json"
        assert cli.main(["cutoff", "--N", "1024", "--grid", "-o", str(out)]) == 0
        assert sha256_of(out) == (
            "7e4eb15ed5fa14c5fe643ad1e09552c922f6dad163a63ee5c4b5176b5c645275"
        )

    def test_samples_above_their_cap_exit_two_and_write_no_file(self, tmp_path, capsys):
        samples = tmp_path / "big.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["cutoff", "--N", "4096", "--samples-out", str(samples)])
        assert exc.value.code == 2
        assert "--samples-out needs N <= 2048" in capsys.readouterr().err
        assert not samples.exists() and not list(tmp_path.iterdir())

    def test_bad_n_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cutoff", "--N", "12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["--kmax", "0"], ["--kmax", "-3"], ["--kmax", "0", "--grid"]])
    def test_nonpositive_kmax_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cutoff", "--N", "16", *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", [[], ["--grid"]])
    def test_n_above_the_cap_exits_two_before_any_row_is_built(self, grid):
        # a child with 1 GiB of address space: the refusal comes before any band is checked
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "stratakit.cli", "cutoff", "--N", "131072", *grid],
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "exceeds the cap of 65536" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_report_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path / "redirected"))
    code = cli.main(["verify", "--k", "2", "--jmax", "3", "--pmax", "3",
                     "-o", "nested/verify.json"])
    assert code == 0
    assert (tmp_path / "redirected" / "nested" / "verify.json").exists()


def test_report_all_quick(tmp_path, capsys):
    outdir = tmp_path / "reports"
    code = cli.main(["report-all", "--quick", "--outdir", str(outdir)])
    assert code == 0
    summary = read_json(outdir / "summary.json")
    assert summary["pass"] is True
    expected = {"coeffs", "verify_k2", "verify_k3", "geometry", "flow", "cutoff"}
    assert expected <= set(summary["sections"])
    assert all(summary["sections"].values())
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "cutoff_samples.csv").exists()
    geom = read_json(outdir / "geometry.json")
    assert geom["sigma1_nondegenerate"] == geom["samples"]
    assert geom["sigma2_degenerate"] == geom["samples"]


def test_report_all_sections_equal_their_subcommands(tmp_path, capsys):
    outdir = tmp_path / "reports"
    assert cli.main(["report-all", "--quick", "--k", "2", "--outdir", str(outdir)]) == 0
    subcommands = {
        "coeffs": ["coeffs", "--jmax", "12"],
        "verify_k2": ["verify", "--k", "2", "--jmax", "6", "--pmax", "5"],
        "flow": ["flow", "--t-end", "5", "--csv-out", str(outdir / "trajectory.csv")],
        "cutoff": ["cutoff", "--N", "16", "--samples-out", str(outdir / "cutoff_samples.csv")],
    }
    for name, argv in subcommands.items():
        out = tmp_path / f"{name}.json"
        assert cli.main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == (outdir / f"{name}.json").read_bytes(), name


def test_off_stratum_sample_fails_geometry_with_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(geometry, "sample_sigma1", geometry.sample_sigma2)
    outdir = tmp_path / "reports"
    assert cli.main(["report-all", "--quick", "--outdir", str(outdir)]) == 1
    summary = read_json(outdir / "summary.json")
    assert summary["sections"]["geometry"] is False
    assert read_json(outdir / "geometry.json")["sigma1_nondegenerate"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cutoff", "--N", "8", "--r2", "inf"],
        ["flow", "--h", "nan"],
        ["flow", "--h", "inf"],
        ["flow", "--mu", "inf"],
        ["flow", "--richardson-tol", "nan", "--t-end", "0.01"],
        ["classify", "--k", "2", "--t", "nan", "--x", "1,0", "--tau", "0", "--xi", "1,0"],
        ["classify", "--k", "2", "--t", "0", "--x", "1,0", "--tau", "0", "--xi", "inf,0"],
        ["flow", "--h", "0.3", "--t-end", "0.1"],
        ["flow", "--t-end", "0.0015", "--h", "0.001"],
        ["classify", "--k", "2", "--t", "0", "--x", "1,0", "--tau", "0", "--xi", "0,0"],
        ["verify", "--jmax", "2", "--pmax", "2", "-o", "{file}/x.json"],
        ["report-all", "--quick", "--outdir", "{file}"],
        ["cutoff", "--N", "8", "--r1", "1/0"],
        ["classify", "--k", "2", "--t", "1/0", "--x", "1,0", "--tau", "0", "--xi", "1,0"],
        ["flow", "--mu", "1/0"],
        ["report-all", "--quick", "--k", "2,x", "--outdir", "{tmp}/r"],
        ["report-all", "--quick", "--k", "", "--outdir", "{tmp}/r"],
        ["flow", "--richardson-tol", "-1", "--t-end", "0.01"],
        ["flow", "--richardson-tol", "1e-20", "--t-end", "0.01"],
        ["flow", "--x0", "1e200,0", "--t-end", "0.01"],
        ["flow", "--x0", "1.5,0", "--mu", "100", "--t-end", "1", "--h", "0.01"],
        ["flow", "--x0", "3,0"],
        ["flow", "--x0", "1,0"],
        ["flow", "--x0", "0,0"],
        ["flow", "--mu", "-1/2"],
        ["flow", "--a", "1e200", "--b", "1e201", "--x0", "2e200,0", "--t-end", "0.01"],
        ["flow", "--mu", "1e400", "--t-end", "0.01"],
        ["cutoff", "--N", "4", "--kmax", "1", "--r2", "1e400"],
        ["flow", "--xi0", "0,0", "--t-end", "0.01"],
        ["flow", "--t-end", "1000", "--h", "1e-6"],
        ["report-all", "--quick", "--k", "2,2", "--outdir", "{tmp}/r"],
        ["flow", "--drift-tol", "1"],
        ["classify", "--variant", "closed", "--k", "2", "--t", "0", "--x", "1,0", "--tau", "0",
         "--xi", "2,0"],
        ["classify", "--a", "1", "--k", "2", "--t", "0", "--x", "1,0", "--tau", "0", "--xi", "2,0"],
        ["classify", "--b", "2", "--k", "2", "--t", "0", "--x", "1,0", "--tau", "0", "--xi", "2,0"],
        ["flow", "--k", "2", "--t-end", "0.01"],
        ["verify", "--delta-convention-check", "none", "--jmax", "2", "--pmax", "2"],
        ["flow", "--x0", "1.2,0.7", "--h", "1e-20", "--t-end", "1e-17"],
    ],
)
def test_bad_configuration_exits_two_without_traceback(argv, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory\n")
    argv = [a.format(file=blocker, tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err


def test_failed_write_leaves_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old bytes\n")

    def write(fh):
        fh.write("partial")
        raise RuntimeError("stopped partway")

    with pytest.raises(RuntimeError):
        cli._write_atomic(target, write)
    assert target.read_text() == "old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_unwritable_outdir_fails_before_any_section(monkeypatch, tmp_path, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a report section ran before the --outdir check")

    monkeypatch.setattr(cli, "run_coeffs", must_not_run)
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["report-all", "--quick", "--outdir", str(blocker)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"stratakit: error: cannot write {blocker}" in err


# values that have each broken some argument parser at least once
FUZZ_POOL = ["1/0", "nan", "inf", "1e400", "-1", "0", "1/3", "2,x", ""]

# per subcommand: the flags drawn (each with a few valid values besides the
# pool), and the ones always given, which keep every run small
FUZZ_FLAGS = {
    "coeffs": ({"--jmax": ["2", "6"]}, ["--jmax"]),
    "verify": (
        {"--k": ["2", "3"], "--jmax": ["1", "6"], "--pmax": ["1", "4"]},
        ["--jmax", "--pmax"],
    ),
    "classify": (
        {
            "--k": ["2", "3"], "--t": ["1", "1/2"], "--x": ["1,0", "0,1"], "--tau": ["1"],
            "--xi": ["1,0", "0,0", "1,-1"], "--mu": ["1/2"],
        },
        ["--k", "--t", "--x", "--tau", "--xi"],
    ),
    "flow": (
        {
            "--t-end": ["0.01", "0.002"], "--h": ["0.001", "0.002"], "--mu": ["0.5", "100"],
            "--x0": ["1.2,0", "1e200,0", "0,0"], "--xi0": ["-0.96,0.48", "0,0"],
            "--a": ["1"], "--b": ["2"], "--richardson-tol": ["1e-9", "1e-20"],
        },
        ["--t-end"],
    ),
    "cutoff": (
        {"--N": ["4", "8", "16"], "--r1": ["1", "1/3"], "--r2": ["2"], "--kmax": ["1", "8"]},
        ["--N"],
    ),
    "report-all": ({"--k": ["2", "3", "2,3"], "--seed": ["7"]}, []),
}


@st.composite
def cli_argv(draw, commands):
    command = draw(st.sampled_from(commands))
    flags, required = FUZZ_FLAGS[command]
    chosen = required + draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3))
    argv = [command]
    for flag in dict.fromkeys(chosen):
        argv += [flag, draw(st.sampled_from(flags[flag] + FUZZ_POOL))]
    if command == "cutoff" and draw(st.booleans()):
        argv.append("--grid")
    return argv


def assert_exit_contract(argv):
    """cli.main returns or exits with 0, 1 or 2; any other exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "report-all":
            argv = argv + ["--quick", "--outdir", f"{tmp}/reports"]
        else:
            argv = argv + ["-o", f"{tmp}/out"]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv


@given(cli_argv(["coeffs", "verify", "classify", "flow", "cutoff"]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzzed_argv_keeps_exit_contract(argv):
    assert_exit_contract(argv)


@given(cli_argv(["report-all"]))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_fuzzed_report_all_argv_keeps_exit_contract(argv):
    assert_exit_contract(argv)


def loaded_modules(code):
    """The stratakit layers, ``dataclasses`` and ``inspect`` that a fresh interpreter has
    loaded after ``code``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
    env.pop(cli.REPORT_DIR_ENV, None)
    probe = (
        f"{code}\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('stratakit.') or m in ('dataclasses', 'inspect'))), file=sys.stderr)"
    )
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp,
                              capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


LAYERS = {f"stratakit.{m}" for m in ("cutoff", "exactalg", "geometry", "localize", "opalg")}


def test_importing_the_cli_loads_no_layer():
    assert not loaded_modules("import stratakit.cli") & LAYERS


def test_cutoff_loads_only_cutoff_and_exactalg():
    loaded = loaded_modules("from stratakit import cli; cli.main(['cutoff', '--N', '16'])")
    assert {"stratakit.cutoff", "stratakit.exactalg"} <= loaded
    assert not loaded & {"stratakit.geometry", "stratakit.localize", "stratakit.opalg",
                         "dataclasses"}


def test_coeffs_loads_exactalg_alone():
    loaded = loaded_modules("from stratakit import cli; cli.main(['coeffs', '--jmax', '4'])")
    assert loaded & LAYERS == {"stratakit.exactalg"}
    assert "dataclasses" not in loaded


def test_verify_loads_no_geometry_or_cutoff():
    # nor dataclasses: LocalizerN and ModelOps are named tuples
    loaded = loaded_modules(
        "from stratakit import cli; cli.main(['verify', '--jmax', '2', '--pmax', '2'])"
    )
    assert loaded & LAYERS == {"stratakit.exactalg", "stratakit.localize", "stratakit.opalg"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["flow", "--t-end", "5"],
    ["classify", "--k", "2", "--t", "0", "--x", "1,0", "--tau", "0", "--xi", "2,0"],
], ids=["flow", "classify"])
def test_flow_and_classify_load_geometry_and_exactalg_alone(argv):
    # ModelParams, Covector and Trajectory are named tuples, so neither
    # dataclasses nor the inspect module it imports is loaded
    loaded = loaded_modules(f"from stratakit import cli; cli.main({argv!r})")
    assert loaded & LAYERS == {"stratakit.exactalg", "stratakit.geometry"}
    assert not loaded & {"dataclasses", "inspect"}


def test_report_all_loads_no_dataclasses():
    loaded = loaded_modules("from stratakit import cli; cli.main(['report-all', '--quick'])")
    assert loaded & LAYERS == LAYERS
    assert not loaded & {"dataclasses", "inspect"}
