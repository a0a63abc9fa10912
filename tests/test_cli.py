"""End-to-end CLI tests: config handling, file schemas, determinism, exits."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import ptdilate
from ptdilate import cli, dilation, simulator
from ptdilate.cli import MAX_AUDIT_NODES, MAX_NODES, RunConfig, ValidationError, main
from ptdilate.dilation import DilationConfig, dilate
from ptdilate.fitkit import fit_r, fit_rows
from ptdilate.numkit import TimeGrid
from ptdilate.pauli import extract_a_series
from ptdilate.ptmodel import analytic_p0, pt_eigenvalues, pt_hamiltonian
from ptdilate.pulse import NVParams, subspace_h0, synthesize
from ptdilate.readout import noisy_p0_curve
from ptdilate.simulator import ZeroBranch, branch_populations, simulate_pt


def run(*argv):
    return main(list(argv))


def read_meta(path):
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("# ")
    return json.loads(first[2:])


def write_matrix(path, r_values, ts, mat):
    """A sweep matrix file: header r,t..., then one row per r."""
    lines = [",".join(["r", *map(repr, map(float, ts))])]
    lines += [",".join(map(repr, [float(r), *map(float, row)])) for r, row in zip(r_values, mat)]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return header, body


def assert_table(path, columns, expected):
    """The file's header is ``columns`` and its body reads back to exactly
    the columns ``expected`` (NaN where a noisy read failed)."""
    header, body = read_csv(path)
    assert header == list(columns)
    assert np.array_equal(body, np.column_stack(expected), equal_nan=True)


def record_fit_times(monkeypatch):
    """Make the CLI's ``fit_rows`` record the times of every call it gets."""
    times = []

    def recording(t, rows):
        times.append(t)
        return fit_rows(t, rows)

    monkeypatch.setattr(cli, "fit_rows", recording)
    return times


def forbid_compute(monkeypatch, why):
    """Make the CLI's horizon pre-flight and every dilation raise ``why``."""

    def no_compute(*args):
        raise AssertionError(why)

    monkeypatch.setattr(cli, "check_horizon", no_compute)
    monkeypatch.setattr(cli, "dilate", no_compute)
    monkeypatch.setattr(simulator, "dilate", no_compute)


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_aggregated_validation_report(self):
        cfg = RunConfig(r_list=[], t1=-1.0, repetitions=-1)
        with pytest.raises(ValidationError) as err:
            cfg.validate()
        msg = str(err.value)
        assert "r_list" in msg and "t1" in msg and "repetitions" in msg

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"r_list": [0.3], "n_nodes": 101, "t1": 1.0}))
        out = tmp_path / "out"
        assert run(
            "simulate", "--config", str(cfg_file), "--n-nodes", "201",
            "--outdir", str(out),
        ) == 0
        meta = read_meta(out / "trajectory_r0p3.csv")
        assert meta["config"]["n_nodes"] == 201  # flag wins
        assert meta["config"]["r_list"] == [0.3]  # file value kept

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("simulate", {"n_nodes": "11"}),
            ("simulate", {"n_nodes": 11.5}),
            ("simulate", {"r_list": 0.6}),
            ("simulate", {"seed": True}),
            ("sweep", {"seed": 1.5, "repetitions": 10}),
            ("sweep", {"seed": -1, "repetitions": 10}),
            ("sweep", {"seed": -1}),
        ],
    )
    def test_wrong_field_type_fails_before_compute(self, tmp_path, capsys, command, bad):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(bad))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg_file), "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert next(iter(bad)) in err
        assert not out.exists()  # no sweep_p0.csv or any other output

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("simulate", ("--t1", "inf")),
            ("dilate", ("--t1", "inf")),
        ],
        ids=["simulate-t1-inf", "dilate-t1-inf"],
    )
    def test_non_finite_flag_is_validation_error(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        assert run(command, "--r", "0.6", "--n-nodes", "101", *flags, "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert f"{flags[0][2:]} must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            '{"r_list": [0.6, NaN]}',
            '{"r_list": [Infinity]}',
            '{"pl_rates": [0.04, 0.03, NaN, 0.034]}',
            '{"audit_times": [0.5, Infinity]}',
            '{"nv": {"b_field": NaN}}',
        ],
        ids=["r_list-nan", "r_list-inf", "pl_rates-nan", "audit_times-inf", "nv-nan"],
    )
    def test_non_finite_json_number_is_validation_error(self, tmp_path, capsys, bad):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(bad)
        out = tmp_path / "out"
        assert run(
            "sweep", "--config", str(cfg_file), "--n-nodes", "11", "--t1", "0.1",
            "--repetitions", "10", "--workers", "1", "--outdir", str(out),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert next(iter(json.loads(bad))) in err
        assert not out.exists()

    def test_integer_past_float_range_is_validation_error(self, tmp_path, capsys):
        # json reads 400 nines as an exact int that no float can hold.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"r_list": [%s]}' % ("9" * 400))
        out = tmp_path / "out"
        assert run(
            "simulate", "--config", str(cfg_file), "--n-nodes", "11", "--t1", "0.1",
            "--outdir", str(out),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "r_list must be a list of finite numbers" in err
        assert not out.exists()

    def test_horizon_past_condition_limit_fails_before_output(self, tmp_path, capsys):
        # cond W passes 1e14 at t = 16.0875 for r = 1.4 on 8001 nodes over
        # [0, 30]; r = 0.6 is fine and must not be computed or written first.
        out = tmp_path / "out"
        assert run("simulate", "--r", "0.6", "--r", "1.4", "--t1", "30", "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "r = 1.4: propagator condition number first exceeds 1e+14 at t = 16.0875" in err
        assert "r = 0.6" not in err
        assert not out.exists()

    def test_overflowing_strength_is_named_not_the_horizon(self, tmp_path, capsys):
        # k = sqrt(1 - r^2) overflows at r = 1e200, so W is NaN at t0 itself,
        # where no t1 can help.
        out = tmp_path / "out"
        assert run(
            "simulate", "--r", "1e200", "--n-nodes", "11", "--t1", "1", "--outdir", str(out)
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "r = 1e+200: propagator condition number" in err
        assert "at t = 0; r is too large" in err
        assert "shorten t1" not in err
        assert not out.exists()

    def test_fit_skips_the_horizon_check(self, tmp_path):
        # fit never dilates, so a config whose r_list and t1 lie past the
        # horizon (r = 1.4 to t1 = 30, as in the horizon test) does not stop it.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"r_list": [1.4], "t1": 30}))
        ts = np.linspace(0.0, 4.0, 21)
        path = write_matrix(tmp_path / "m.csv", [0.6], ts, [analytic_p0(0.6, ts)])
        out = tmp_path / "out"
        assert run(
            "fit", "--config", str(cfg_file), "--input", str(path), "--outdir", str(out)
        ) == 0
        assert (out / "fits.csv").exists()

    @pytest.mark.parametrize("command", ["dilate", "simulate", "sweep", "pulses", "verify"])
    def test_one_singular_vector_pass_per_r(self, tmp_path, monkeypatch, command):
        # The horizon pre-flight needs no singular vectors, so each r takes
        # one top_singular_2x2 pass: dilate's own.
        calls, svd = [], dilation.top_singular_2x2

        def counting(p, u, q):
            calls.append(len(p))
            return svd(p, u, q)

        monkeypatch.setattr(dilation, "top_singular_2x2", counting)
        assert run(
            command, "--r", "0", "--r", "0.6", "--r", "1.4", "--n-nodes", "101",
            "--t1", "2", "--workers", "1", "--outdir", str(tmp_path),
        ) == 0
        assert calls == [101, 101, 101]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nodes": 10}))
        assert run("simulate", "--config", str(cfg_file)) == 1

    def test_substeps_key_is_unknown(self, tmp_path, capsys):
        # The evolution takes one step per grid interval; more nodes, not a
        # substep count, refine it.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"substeps": 1}))
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg_file), "--outdir", str(out)) == 1
        assert "unknown config keys: ['substeps']" in capsys.readouterr().err
        assert not out.exists()

    def test_substeps_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--substeps", "2")
        assert info.value.code == 1
        assert "unrecognized arguments: --substeps" in capsys.readouterr().err

    def test_t0_key_is_unknown(self, tmp_path, capsys):
        # Every run covers [0, t1]: H_s is constant, so only the time since
        # |0> was prepared matters, and the oracle is compared at that time.
        assert "t0" not in RunConfig.__dataclass_fields__
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"t0": 1.0}))
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg_file), "--outdir", str(out)) == 1
        assert "unknown config keys: ['t0']" in capsys.readouterr().err
        assert not out.exists()

    def test_t0_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--t0", "1", "--n-nodes", "11", "--outdir", str(tmp_path))
        assert info.value.code == 1
        assert "unrecognized arguments: --t0" in capsys.readouterr().err

    def test_margin_key_is_unknown(self, tmp_path, capsys):
        # m0 = (1 + MARGIN) / mu' with the fixed dilation.MARGIN: any
        # positive margin gives the same post-selected dynamics on a grid
        # that resolves it, and a small one is silently less accurate.
        assert "margin" not in RunConfig.__dataclass_fields__
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"margin": 0.1}))
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg_file), "--outdir", str(out)) == 1
        assert "unknown config keys: ['margin']" in capsys.readouterr().err
        assert not out.exists()

    def test_margin_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run("simulate", "--margin", "0.1", "--n-nodes", "11", "--outdir", str(out))
        assert info.value.code == 1
        assert "unrecognized arguments: --margin" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def traced_run(*argv):
        """``run(*argv)`` and the peak of the memory it allocated, in bytes."""
        tracemalloc.start()
        try:
            return run(*argv), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_nodes_past_bound_rejected_before_allocation(self, tmp_path, capsys):
        RunConfig(n_nodes=MAX_NODES).validate()
        out = tmp_path / "out"
        code, peak = self.traced_run(
            "simulate", "--n-nodes", str(MAX_NODES + 1), "--outdir", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert f"n_nodes must be in [2, {MAX_NODES}], got {MAX_NODES + 1}" in err
        assert peak < 10_000_000  # the run itself would peak near 2 GB
        assert not out.exists()

    def test_audit_nodes_past_bound_rejected_before_allocation(self, tmp_path, capsys):
        # The audit steps 0.015 carrier cycles and takes ceil(t_max / dt) + 1
        # fine nodes: MAX_AUDIT_NODES + 1 here, one too many.
        dt = 0.015 / (max(subspace_h0(NVParams())[1]) / (2.0 * math.pi))
        t_max = (MAX_AUDIT_NODES - 0.5) * dt
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"audit_times": [t_max]}))
        out = tmp_path / "out"
        code, peak = self.traced_run(
            "pulses", "--lab-audit", "--config", str(cfg_file), "--r", "0.6",
            "--t1", repr(t_max), "--n-nodes", "11", "--outdir", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert f"needs {MAX_AUDIT_NODES + 1} fine nodes, more than {MAX_AUDIT_NODES}" in err
        assert peak < 10_000_000
        assert not out.exists()

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PTDILATE_OUTDIR", str(tmp_path))
        assert run("simulate", "--r", "0.2", "--n-nodes", "51", "--t1", "0.5") == 0
        assert (tmp_path / "trajectory_r0p2.csv").exists()


class TestDilateCommand:
    def test_hermitian_case_columns(self, tmp_path):
        assert run(
            "dilate", "--r", "0", "--n-nodes", "101", "--t1", "2",
            "--outdir", str(tmp_path),
        ) == 0
        header, body = read_csv(tmp_path / "aseries_r0.csv")
        assert header == ["t", "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"]
        assert np.max(np.abs(body[:, 1] - 1.0)) < 1e-9  # A1 constant 1
        assert np.max(np.abs(body[:, 2:])) < 1e-9

    def test_diagnostics_json(self, tmp_path):
        assert run(
            "dilate", "--r", "0.6", "--n-nodes", "201", "--t1", "2",
            "--outdir", str(tmp_path),
        ) == 0
        diag = json.loads((tmp_path / "dilation_r0p6.json").read_text())
        assert diag["diagnostics"]["hermiticity"] <= 1e-10
        assert diag["m0"] > 1.0

    def test_invalid_margin_no_partial_files(self, tmp_path):
        # The margin is fixed (dilation.MARGIN): --margin is a usage error.
        out = tmp_path / "clean"
        with pytest.raises(SystemExit) as info:
            run("dilate", "--r", "0.6", "--margin", "-1", "--outdir", str(out))
        assert info.value.code == 1
        assert not out.exists() or not list(out.iterdir())


class TestSimulateCommand:
    def test_oracle_columns_and_accuracy(self, tmp_path):
        assert run(
            "simulate", "--r", "0.6", "--n-nodes", "2001", "--t1", "4",
            "--outdir", str(tmp_path),
        ) == 0
        header, body = read_csv(tmp_path / "trajectory_r0p6.csv")
        assert header == ["t", "p0_sim", "p0_oracle", "abs_error", "success_prob"]
        meta = read_meta(tmp_path / "trajectory_r0p6.csv")
        assert meta["max_error"] <= 1e-4
        assert np.max(body[:, 3]) == pytest.approx(meta["max_error"])

    def test_distinct_r_values_get_distinct_files(self, tmp_path):
        # Six significant digits would name both trajectory_r0p123457.csv.
        assert run(
            "simulate", "--r", "0.1234567", "--r", "0.1234568", "--r", "1.0",
            "--n-nodes", "11", "--t1", "0.1", "--outdir", str(tmp_path),
        ) == 0
        names = ["trajectory_r0p1234567.csv", "trajectory_r0p1234568.csv", "trajectory_r1.csv"]
        assert sorted(os.listdir(tmp_path)) == names
        assert [read_meta(tmp_path / n)["r"] for n in names] == [0.1234567, 0.1234568, 1.0]

    def test_empty_r_list_is_validation_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"r_list": []}))
        assert run("simulate", "--config", str(cfg_file)) == 1


class TestSweepAndFit:
    def test_matrix_layout_and_initial_column(self, tmp_path):
        assert run(
            "sweep", "--r", "0", "--r", "0.5", "--r", "1.2",
            "--n-nodes", "401", "--outdir", str(tmp_path), "--workers", "1",
        ) == 0
        header, body = read_csv(tmp_path / "sweep_p0.csv")
        assert header[0] == "r"
        assert np.allclose(body[:, 1], 1.0)  # P0(t=0) = 1 for every r

    def test_noisy_matrix_is_seed_deterministic(self, tmp_path):
        args = (
            "sweep", "--r", "0.5", "--n-nodes", "101", "--t1", "2",
            "--repetitions", "2000", "--seed", "9", "--outdir", str(tmp_path),
            "--workers", "1",
        )
        assert run(*args) == 0
        first = (tmp_path / "sweep_p0_noisy.csv").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "sweep_p0_noisy.csv").read_bytes() == first

    def test_fit_recovers_strengths(self, tmp_path):
        assert run(
            "sweep", "--r", "0.4", "--r", "1.1", "--n-nodes", "2001",
            "--outdir", str(tmp_path), "--workers", "1",
        ) == 0
        assert run(
            "fit", "--input", str(tmp_path / "sweep_p0.csv"),
            "--outdir", str(tmp_path),
        ) == 0
        _, fits = read_csv(tmp_path / "fits.csv")
        assert np.max(np.abs(fits[:, 1] - fits[:, 0])) <= 1e-3
        header, curve = read_csv(tmp_path / "eigencurve.csv")
        assert header[0] == "r_nominal"
        assert curve[0, 2] == 0.0  # Im E+ = 0 below the transition
        assert curve[1, 1] == 0.0  # Re E+ = 0 above it

    def test_pooled_sweep_matches_serial(self, tmp_path):
        # Below the metadata line, which names workers and outdir, the
        # process-pool matrices equal the serial ones byte for byte.
        args = (
            "sweep", "--r", "0", "--r", "0.6", "--r", "1.4", "--n-nodes", "101",
            "--t1", "2", "--repetitions", "2000", "--seed", "5",
        )
        for workers in ("1", "2"):
            assert run(*args, "--workers", workers, "--outdir", str(tmp_path / workers)) == 0
        names = ["sweep_p0.csv", "sweep_p0_noisy.csv"]
        assert sorted(os.listdir(tmp_path / "1")) == sorted(os.listdir(tmp_path / "2")) == names
        for name in names:
            serial, pooled = ((tmp_path / w / name).read_text().split("\n", 1) for w in "12")
            assert pooled[1] == serial[1]
            assert json.loads(pooled[0][2:])["config"]["workers"] == 2

    # Four strengths at 101 nodes under a node bound of 303: the pool may
    # hold 303 // 101 = 3 dilation peaks.
    CAPPED_SWEEP = (
        "sweep", "--r", "0", "--r", "0.3", "--r", "0.6", "--r", "1.4",
        "--n-nodes", "101", "--t1", "2",
    )

    def test_auto_workers_capped_by_memory(self, tmp_path, monkeypatch):
        pools = []

        class Pool:  # records its size and maps in-process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "MAX_NODES", 303)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert run(*self.CAPPED_SWEEP, "--outdir", str(tmp_path)) == 0
        assert pools == [3]
        assert read_meta(tmp_path / "sweep_p0.csv")["config"]["workers"] == 0

    def test_explicit_workers_past_memory_cap_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_NODES", 303)
        monkeypatch.setattr(cli, "simulate_pt", None)  # any compute would raise TypeError
        out = tmp_path / "out"
        assert run(*self.CAPPED_SWEEP, "--workers", "4", "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "workers must be <= 3 at n_nodes = 101" in err
        assert "got 4" in err
        assert not out.exists()

    def test_each_r_simulated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return simulate_pt(*args, **kwargs)

        monkeypatch.setattr("ptdilate.cli.simulate_pt", counting)
        assert run(
            "sweep", "--r", "0", "--r", "0.5", "--r", "1.2", "--n-nodes", "101",
            "--t1", "2", "--repetitions", "100", "--outdir", str(tmp_path),
            "--workers", "1",
        ) == 0
        assert calls == [0.0, 0.5, 1.2]  # noisy rows reuse the same pass
        assert (tmp_path / "sweep_p0_noisy.csv").exists()

    def test_noisy_matrix_holds_the_readout_times_only(self, tmp_path, monkeypatch):
        # 2001 nodes: the noise-free matrix keeps every node, the noisy one
        # draws and writes every 10th (201 readout times), and fit reads
        # both at the same times.
        r_values, seed = (0.0, 0.6, 1.4), 5
        args = [
            "sweep", *(a for r in r_values for a in ("--r", str(r))), "--n-nodes", "2001",
            "--t1", "4", "--repetitions", "2000", "--seed", str(seed),
        ]
        for workers in ("1", "2"):
            assert run(*args, "--workers", workers, "--outdir", str(tmp_path / workers)) == 0
        clean_path, noisy_path = (tmp_path / "1" / f"sweep_p0{k}.csv" for k in ("", "_noisy"))
        clean_header, _ = read_csv(clean_path)
        noisy_header, _ = read_csv(noisy_path)
        assert len(clean_header) == 2002
        assert noisy_header == ["r", *clean_header[1::10]]
        assert read_meta(noisy_path)["readout_stride"] == 10
        grid, rates = TimeGrid(0.0, 4.0, 2001), RunConfig().rates
        expected = []
        for idx, r in enumerate(r_values):
            traj, _ = simulate_pt(r, grid)
            rng = np.random.default_rng([seed, idx])
            pops = branch_populations(traj.states[::10])
            expected.append(noisy_p0_curve(pops, rates, 2000, seed=rng))
        assert_table(noisy_path, noisy_header, [r_values, expected])
        serial, pooled = ((tmp_path / w / noisy_path.name).read_text().split("\n", 1) for w in "12")
        assert pooled[1] == serial[1]
        times = record_fit_times(monkeypatch)
        for path in (clean_path, noisy_path):
            assert run("fit", "--input", str(path), "--outdir", str(tmp_path / "fit")) == 0
        assert len(times[0]) == 201
        assert np.array_equal(times[0], times[1])

    @pytest.mark.slow
    def test_readout_time_draws_fit_like_strided_node_draws(self):
        # The noisy rows drawn at the readout times only fit, on average, to
        # the same r_exp as rows drawn at every node and then strided, as
        # sweep did before: the mean r_exp over 20 seeds agrees within 3
        # standard errors of the difference, at each r.
        r_values, seeds, reps = [0.3, 0.6, 0.9], range(20), 500_000
        grid = TimeGrid(0.0, 8.0, 8001)
        stride = cli._readout_stride(grid.n_nodes)
        ts = grid.times()[::stride]
        for idx, r in enumerate(r_values):
            pops = branch_populations(simulate_pt(r, grid)[0].states)
            new, old = [], []
            for seed in seeds:
                cfg = RunConfig(r_list=r_values, seed=seed, repetitions=reps)
                new.append(cli._sweep_worker(cfg, idx)[1])
                rng = np.random.default_rng([seed, idx])
                old.append(noisy_p0_curve(pops, cfg.rates, reps, seed=rng)[::stride])
            r_new, r_old = ([f.r_exp for f in fit_rows(ts, rows)] for rows in (new, old))
            diff = np.mean(r_new) - np.mean(r_old)
            se = math.hypot(np.std(r_new, ddof=1), np.std(r_old, ddof=1)) / math.sqrt(len(seeds))
            print(f"\nr={r}: mean r_exp {np.mean(r_new):.5f} (readout times) vs "
                  f"{np.mean(r_old):.5f} (strided), diff {diff:.1e}, SE {se:.1e}")
            assert 0 < se <= 1e-2
            assert abs(diff) <= 3 * se

    def test_max_points_is_an_upper_bound(self, tmp_path, monkeypatch):
        # 999 intervals at 201 points: stride 5 keeps 200 columns (stride 4
        # would keep 250).
        ts = np.linspace(0.0, 8.0, 1000)
        path = write_matrix(tmp_path / "m.csv", [0.6], ts, [analytic_p0(0.6, ts)])
        times = record_fit_times(monkeypatch)
        assert run("fit", "--input", str(path), "--outdir", str(tmp_path)) == 0
        assert len(times) == 1
        assert np.array_equal(times[0], ts[::5])
        assert len(times[0]) == 200

    def test_fit_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,0.0,0.1\n0.5,1.0,0.9\n")
        assert run("fit", "--input", str(bad), "--outdir", str(tmp_path)) == 1

    @pytest.mark.parametrize("max_points", [0, 1, 2])
    def test_max_points_below_three_rejected_before_reading(self, tmp_path, capsys, max_points):
        out = tmp_path / "out"
        assert run(
            "fit", "--input", str(tmp_path / "missing.csv"), "--outdir", str(out),
            "--max-points", str(max_points),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "max_points" in err
        assert not out.exists()

    def test_row_with_too_few_finite_samples_names_its_r(self, tmp_path, capsys):
        ts = np.linspace(0.0, 4.0, 21)
        mat = np.array([analytic_p0(r, ts) for r in (0.4, 0.7, 1.3)])
        mat[1, 2:] = np.nan  # the r = 0.7 row keeps two finite reads
        path = write_matrix(tmp_path / "m.csv", [0.4, 0.7, 1.3], ts, mat)
        out = tmp_path / "out"
        assert run("fit", "--input", str(path), "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert "r_nominal" in err and "0.7" in err and "1.3" not in err
        assert not out.exists()

    def test_fit_rows_equal_per_row_fit_r(self, tmp_path, monkeypatch):
        # Strided, with NaN reads in some rows and a row pinned to the
        # scan edge (r = 2.4 lies beyond it), so degenerate rows are
        # covered too.  The rows with 1e-8 noise sit on scan grid points,
        # where the reported SSE is often the table score itself, so
        # these rows also show the order in which the batch sums it.
        ts = np.linspace(0.0, 8.0, 81)
        r_nominal = [0.0, 0.3, 0.6, 0.8, 1.0, 1.4, 2.4]
        rng = np.random.default_rng(3)
        noise = np.array([1e-2, 1e-8, 1e-8, 1e-8, 1e-2, 1e-2, 1e-2])[:, None]
        mat = np.array([analytic_p0(r, ts) for r in r_nominal])
        mat = np.clip(mat + rng.normal(size=mat.shape) * noise, 0.0, 1.0)
        mat[2, [4, 8, 9, 40]] = np.nan
        mat[5, ::3] = np.nan
        path = write_matrix(tmp_path / "m.csv", r_nominal, ts, mat)
        batches = []

        def recording(*args, **kwargs):
            batches.append(fit_rows(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr("ptdilate.cli.fit_rows", recording)
        assert run(
            "fit", "--input", str(path), "--outdir", str(tmp_path), "--max-points", "21",
        ) == 0
        stride = 4  # (81 - 1) // (21 - 1)
        expected = []
        for row in mat:
            samples = np.column_stack([ts[::stride], row[::stride]])
            expected.append(fit_r(samples[np.isfinite(samples[:, 1])]))
        assert batches == [expected]
        assert [f.degenerate for f in expected] == [False] * 6 + [True]
        _, fits = read_csv(tmp_path / "fits.csv")
        assert fits[:, 1].tolist() == [f.r_exp for f in expected]
        assert fits[:, 2].tolist() == [f.stderr for f in expected]


class TestReadMatrix:
    """``fit`` parses only column 0 and the readout columns of a matrix."""

    def write_small(self, tmp_path, rows_text):
        """A header of 21 times over [0, 4] and the given body lines."""
        header = ",".join(["r", *map(repr, np.linspace(0.0, 4.0, 21).tolist())])
        path = tmp_path / "m.csv"
        path.write_text("\n".join([header, *rows_text]) + "\n")
        return path

    @pytest.mark.parametrize("max_points, stride", [(201, 10), (21, 100)])
    def test_strided_read_equals_full_parse_then_stride(self, tmp_path, max_points, stride):
        ts = TimeGrid(0.0, 4.0, 2001).times()
        r_values = [0.0, 0.6, 1.4]
        mat = np.array([analytic_p0(r, ts) for r in r_values])
        mat[0, [0, 10, 11, 700]] = np.nan
        mat[2, ::30] = np.nan
        path = str(tmp_path / "m.csv")
        cli._write_matrix(path, {}, r_values, ts, mat)
        with open(path) as fh:
            full = np.loadtxt([ln for ln in fh if ln[0] != "#"][1:], delimiter=",", ndmin=2)
        r_read, ts_read, rows, got_stride = cli._read_matrix(path, max_points)
        assert got_stride == stride
        assert np.array_equal(r_read, full[:, 0])
        assert np.array_equal(ts_read, ts[::stride])
        assert np.array_equal(rows, full[:, 1:][:, ::stride], equal_nan=True)
        assert np.isnan(rows).any()

    @pytest.mark.parametrize("width", [21, 23], ids=["short", "long"])
    def test_row_of_wrong_width_rejected(self, tmp_path, capsys, width):
        good = ",".join(["0.6", *["0.5"] * 21])
        bad = ",".join(["0.9", *["0.5"] * (width - 1)])
        path = self.write_small(tmp_path, [good, bad])
        out = tmp_path / "out"
        assert run("fit", "--input", str(path), "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert f"row width {width} does not match header (22 columns)" in err
        assert not out.exists()

    def test_non_numeric_cell_in_a_read_column_rejected(self, tmp_path):
        ts = np.linspace(0.0, 4.0, 21)
        cells = [repr(float(v)) for v in analytic_p0(0.6, ts)]
        cells[4] = "oops"
        path = self.write_small(tmp_path, [",".join(["0.6", *cells])])
        out = tmp_path / "out"
        assert run("fit", "--input", str(path), "--outdir", str(out), "--max-points", "11") == 1
        assert not out.exists()

    def test_non_numeric_cell_in_a_skipped_column_is_not_parsed(self, tmp_path):
        # 21 times at 11 points: stride 2 reads times 0, 2, ..., 20 only.
        ts = np.linspace(0.0, 4.0, 21)
        cells = [repr(float(v)) for v in analytic_p0(0.6, ts)]
        cells[5] = "oops"
        path = self.write_small(tmp_path, [",".join(["0.6", *cells])])
        r_read, ts_read, rows, stride = cli._read_matrix(str(path), 11)
        assert stride == 2
        assert np.array_equal(rows, [analytic_p0(0.6, ts)[::2]])

    @pytest.mark.parametrize(
        "text, column",
        [
            ("r,0.0,nan,0.2,0.3\n0.6,1.0,0.99,0.96,0.9\n", "header column 3 holds the non-finite time 'nan'"),
            ("r,0.0,inf,0.2,0.3\n0.6,1.0,0.99,0.96,0.9\n", "header column 3 holds the non-finite time 'inf'"),
            ("r,0.0,0.1,0.2,0.3\n0.6,1.0,0.99,0.96,0.9\nnan,1.0,0.9,0.8,0.7\n", "column 1 of data row 2 holds nan"),
            ("r,0.0,0.1,0.2,0.3\n0.6,1.0,inf,0.96,0.9\n", "column 3 of data row 1 holds inf"),
            ("r,0.0,0.1,0.2,0.3\n0.6,1.0,0.99,-inf,0.9\n", "column 4 of data row 1 holds -inf"),
        ],
        ids=["nan_time", "inf_time", "nan_r", "inf_p0", "minus_inf_p0"],
    )
    def test_non_finite_input_rejected_up_front(self, tmp_path, capsys, text, column):
        # Only nan marks a failed read, and only in a P0 cell: a non-finite
        # time, strength or infinite P0 is a validation error naming the file
        # and the column, before any fit, warning or output.
        path = tmp_path / "m.csv"
        path.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--input", str(path), "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert str(path) in err and column in err
        assert not out.exists()

    def test_header_only_matrix_names_the_missing_rows(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("r,0.0,0.1,0.2\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--input", str(path), "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "no data rows" in err
        assert not out.exists()

    def test_too_few_finite_samples_names_the_full_matrix_stride(self, tmp_path, capsys):
        # 81 times at 21 points: stride 4, and the r = 0.7 row keeps two
        # finite reads among the 21 readout columns.
        ts = np.linspace(0.0, 8.0, 81)
        mat = np.array([analytic_p0(r, ts) for r in (0.4, 0.7)])
        mat[1, 8:] = np.nan
        path = write_matrix(tmp_path / "m.csv", [0.4, 0.7], ts, mat)
        out = tmp_path / "out"
        assert run(
            "fit", "--input", str(path), "--outdir", str(out), "--max-points", "21",
        ) == 1
        err = capsys.readouterr().err
        assert "fewer than 3 finite samples at stride 4" in err
        assert not out.exists()


class TestPulsesAndVerify:
    def test_pulse_file_reports_roundtrip(self, tmp_path):
        assert run(
            "pulses", "--r", "0.6", "--n-nodes", "201", "--t1", "2",
            "--outdir", str(tmp_path),
        ) == 0
        meta = read_meta(tmp_path / "pulses_r0p6.csv")
        assert meta["roundtrip_residual"] <= 1e-9
        header, _ = read_csv(tmp_path / "pulses_r0p6.csv")
        assert header == ["t", "omega_rabi", "phase", "freq1_offset", "freq2_offset"]

    def test_csv_bodies_match_to_csv(self, tmp_path):
        args = ("--r", "0.6", "--n-nodes", "101", "--t1", "1", "--outdir", str(tmp_path))
        assert run("dilate", *args) == 0
        assert run("pulses", *args) == 0
        result = dilate(pt_hamiltonian(0.6), DilationConfig(TimeGrid(0.0, 1.0, 101)))
        aser = extract_a_series(result.hsa_series)
        w1, w2 = carriers = subspace_h0(NVParams())[1]
        prog = synthesize(aser, carriers)
        ts = aser.grid.times()
        tables = (
            ("aseries_r0p6.csv", "t,A1,A2,A3,A4,B1,B2,B3,B4", [ts, aser.a, aser.b]),
            (
                "pulses_r0p6.csv",
                "t,omega_rabi,phase,freq1_offset,freq2_offset",
                [ts, prog.omega_rabi, prog.phase, prog.freq1 - w1, prog.freq2 - w2],
            ),
        )
        for name, header, columns in tables:
            rows = np.column_stack(columns).tolist()
            expected = "".join(",".join(map(repr, row)) + "\n" for row in rows)
            meta, body = (tmp_path / name).read_text().split("\n", 1)
            assert meta.startswith("# ")
            assert body == header + "\n" + expected

    @pytest.mark.parametrize("audit_times", [[], [0.2]])
    def test_lab_audit_times_checked_before_compute(self, tmp_path, capsys, audit_times):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"audit_times": audit_times}))
        out = tmp_path / "out"
        assert run(
            "pulses", "--lab-audit", "--config", str(cfg_file), "--r", "0.6",
            "--t1", "0.1", "--n-nodes", "11", "--outdir", str(out),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "audit_times" in err
        assert not out.exists()

    def test_verify_passes_on_defaults(self, tmp_path):
        assert run(
            "verify", "--r", "1.0", "--n-nodes", "1001", "--t1", "4",
            "--outdir", str(tmp_path),
        ) == 0

    def test_verify_fails_on_a_corrupted_metric(self, tmp_path, capsys, monkeypatch):
        # Hermiticity, block antisymmetry and min eig(M - I) hold by
        # construction of the stored blocks and of m0, so a metric and an
        # H_sa corrupted at one node show only in the metric-ODE residual.
        def corrupted_dilate(h_s, cfg):
            result = dilate(h_s, cfg)
            result.m_series.data[100] *= 1.5
            result.hsa_series.data[100] *= 3
            return result

        monkeypatch.setattr(cli, "dilate", corrupted_dilate)
        assert run("verify", "--r", "0.6", "--n-nodes", "401", "--outdir", str(tmp_path)) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_verify_fails_on_a_non_hermitian_metric(self, tmp_path, capsys, monkeypatch):
        # Only entry (1, 0) of M moves at one node: a metric-ODE residual
        # that took M as Hermitian, reading three entries, would not see it.
        def corrupted_dilate(h_s, cfg):
            result = dilate(h_s, cfg)
            m = result.m_series.data
            m[100, 1, 0] += 0.1 * np.linalg.norm(m[100])
            return result

        monkeypatch.setattr(cli, "dilate", corrupted_dilate)
        assert run("verify", "--r", "0.6", "--n-nodes", "401", "--outdir", str(tmp_path)) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_metadata_header_reproducibility_fields(self, tmp_path):
        assert run(
            "simulate", "--r", "0.3", "--n-nodes", "101", "--t1", "1",
            "--seed", "4", "--outdir", str(tmp_path),
        ) == 0
        meta = read_meta(tmp_path / "trajectory_r0p3.csv")
        assert {"config", "config_sha256", "seed", "version"} <= set(meta)
        assert meta["seed"] == 4


class TestExitCodes:
    @pytest.mark.parametrize(
        "nv, message",
        [({"b_field": -5}, "magnetic field must be > 0"), ({"bfield": 5}, "'bfield'")],
        ids=["negative-field", "unknown-field"],
    )
    @pytest.mark.parametrize("command", ["dilate", "simulate", "sweep", "pulses", "fit", "verify"])
    def test_bad_nv_override_fails_before_compute(
        self, tmp_path, capsys, monkeypatch, command, nv, message
    ):
        # Every command builds the NV parameters during validation, before
        # the horizon check or any dilation runs.
        forbid_compute(monkeypatch, "computed before the NV overrides were validated")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nv": nv}))
        ts = np.linspace(0.0, 4.0, 21)
        matrix = write_matrix(tmp_path / "sweep.csv", [0.6], ts, [analytic_p0(0.6, ts)])
        extra = ("--input", str(matrix)) if command == "fit" else ("--n-nodes", "101")
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg_file), *extra, "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dilate", "verify"])
    def test_two_node_grid_fails_before_compute(self, tmp_path, capsys, monkeypatch, command):
        # The metric-ODE central differences of verify_dilation have no
        # interior node on a 2-node grid.
        forbid_compute(monkeypatch, "computed before n_nodes was validated")
        out = tmp_path / "out"
        assert run(command, "--n-nodes", "2", "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert f"{command} needs n_nodes >= 3, got 2" in err
        assert not out.exists()

    def test_two_node_grid_simulates(self, tmp_path):
        assert run("simulate", "--n-nodes", "2", "--outdir", str(tmp_path)) == 0
        assert (tmp_path / "trajectory_r0p6.csv").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # A numeric (not config) failure raised by a stage exits 2.
        def no_branch(r, grid):
            raise ZeroBranch("post-selected branch vanished")

        monkeypatch.setattr(cli, "simulate_pt", no_branch)
        assert run("simulate", "--n-nodes", "11", "--outdir", str(tmp_path)) == 2
        assert "numeric failure: ZeroBranch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dilate", "simulate", "sweep", "pulses", "fit", "verify"])
    def test_singular_pl_rates_fail_before_compute(self, tmp_path, capsys, monkeypatch, command):
        # Equal PL rates make the readout inversion singular: a config error
        # for every command, found when the rates are built during validation.
        forbid_compute(monkeypatch, "computed before the PL rates were validated")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pl_rates": [0.03, 0.03, 0.03, 0.03]}))
        ts = np.linspace(0.0, 4.0, 21)
        matrix = write_matrix(tmp_path / "sweep.csv", [0.6], ts, [analytic_p0(0.6, ts)])
        extra = ("--input", str(matrix)) if command == "fit" else ("--n-nodes", "101")
        out = tmp_path / "out"
        assert run(
            command, "--config", str(cfg_file), *extra, "--repetitions", "100", "--outdir", str(out)
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ValidationError")
        assert "pl_rates rejected: inversion matrix condition" in err
        assert not out.exists()

    def test_validation_exit_code(self, tmp_path):
        assert run("simulate", "--t1", "-1", "--outdir", str(tmp_path)) == 1

    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--r", "abc"), ("fit",), ("nosuchcommand",), ()],
        ids=["bad-float", "fit-without-input", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse's own usage-error code, 2, is the numeric-failure code here.
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ptdilate") and "error:" in err

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("simulate", "--help")])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 0

    def test_module_entry_point_prints_version(self):
        # The child imports the same package as this process.
        src = os.path.dirname(os.path.dirname(ptdilate.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ptdilate", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == ptdilate.__version__ + "\n"


class TestCsvTables:
    """Each CSV the CLI writes: its header, and a body that reads back
    exactly to the library values it was built from."""

    GRID = TimeGrid(0.0, 2.0, 101)
    ARGS = ("--n-nodes", "101", "--t1", "2")
    R_SWEEP = (0.0, 0.6, 1.4)
    SWEEP_ARGS = (
        "sweep", "--r", "0", "--r", "0.6", "--r", "1.4", *ARGS,
        "--repetitions", "2000", "--seed", "5", "--workers", "1",
    )

    def sweep_rows(self):
        """The noise-free and the noisy P0 row of each r, as ``sweep`` builds them."""
        rates = RunConfig().rates
        rows, noisy = [], []
        for idx, r in enumerate(self.R_SWEEP):
            traj, _ = simulate_pt(r, self.GRID)
            rng = np.random.default_rng([5, idx])
            rows.append(traj.p0)
            noisy.append(noisy_p0_curve(branch_populations(traj.states), rates, 2000, seed=rng))
        return np.array(rows), np.array(noisy)

    @pytest.mark.parametrize("r,tag", [(0.6, "0p6"), (1.4, "1p4")])
    def test_trajectory(self, tmp_path, r, tag):
        assert run("simulate", "--r", str(r), *self.ARGS, "--outdir", str(tmp_path)) == 0
        traj, _ = simulate_pt(r, self.GRID)
        ts = self.GRID.times()
        oracle = analytic_p0(r, ts)
        assert_table(
            tmp_path / f"trajectory_r{tag}.csv",
            ["t", "p0_sim", "p0_oracle", "abs_error", "success_prob"],
            [ts, traj.p0, oracle, np.abs(traj.p0 - oracle), traj.success_prob],
        )

    def test_aseries_and_pulses(self, tmp_path):
        args = ("--r", "1.4", *self.ARGS, "--outdir", str(tmp_path))
        assert run("dilate", *args) == 0
        assert run("pulses", *args) == 0
        result = dilate(pt_hamiltonian(1.4), DilationConfig(self.GRID))
        aser = extract_a_series(result.hsa_series)
        w1, w2 = carriers = subspace_h0(NVParams())[1]
        prog = synthesize(aser, carriers)
        ts = self.GRID.times()
        assert_table(
            tmp_path / "aseries_r1p4.csv",
            ["t", "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"],
            [ts, aser.a, aser.b],
        )
        assert_table(
            tmp_path / "pulses_r1p4.csv",
            ["t", "omega_rabi", "phase", "freq1_offset", "freq2_offset"],
            [ts, prog.omega_rabi, prog.phase, prog.freq1 - w1, prog.freq2 - w2],
        )

    def test_sweep_matrices(self, tmp_path):
        assert run(*self.SWEEP_ARGS, "--outdir", str(tmp_path)) == 0
        columns = ["r", *map(repr, self.GRID.times().tolist())]
        rows, noisy = self.sweep_rows()
        assert_table(tmp_path / "sweep_p0.csv", columns, [self.R_SWEEP, rows])
        assert_table(tmp_path / "sweep_p0_noisy.csv", columns, [self.R_SWEEP, noisy])
        assert np.isnan(noisy).any()  # failed reads round-trip as nan

    @pytest.mark.parametrize("kind,noisy", [("", False), ("_noisy", True)], ids=["clean", "noisy"])
    def test_fits_and_eigencurve(self, tmp_path, kind, noisy):
        assert run(*self.SWEEP_ARGS, "--outdir", str(tmp_path)) == 0
        assert run(
            "fit", "--input", str(tmp_path / f"sweep_p0{kind}.csv"), "--outdir", str(tmp_path),
        ) == 0
        fits = fit_rows(self.GRID.times(), self.sweep_rows()[noisy])
        eig = np.array([pt_eigenvalues(f.r_exp) for f in fits])
        assert_table(
            tmp_path / "fits.csv",
            ["r_nominal", "r_exp", "stderr", "reE_plus", "imE_plus"],
            [self.R_SWEEP, [f.r_exp for f in fits], [f.stderr for f in fits], eig[:, 0].real,
             eig[:, 0].imag],
        )
        assert_table(
            tmp_path / "eigencurve.csv",
            ["r_nominal", "reE_plus", "imE_plus", "reE_minus", "imE_minus"],
            [self.R_SWEEP, eig[:, 0].real, eig[:, 0].imag, eig[:, 1].real, eig[:, 1].imag],
        )
