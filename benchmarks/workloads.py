"""The four benchmark workloads, each a closed loop with one caller.

A workload is built by its constructor (inputs plus one small warm-up
call), then driven one iteration at a time.  ``iteration(i)`` is the timed
work; ``evaluate`` checks its output against the paper's oracles outside
the timed region and returns the accuracy values and layer counters it
read.  ``finish`` runs the checks that need every replicate of a run.

All ptdilate calls go through the module objects in ``pt`` so that a
tracer installed on those modules sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field

import numpy as np

PSI0 = np.array([1.0, 0.0], dtype=complex)


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)


def _max(outcomes, key: str) -> float:
    return max(o.values[key] for o in outcomes)


class Workload:
    name = ""
    block = 1  # iterations between two looks at the clock
    trace_iterations = 1  # iterations per traced pass
    ref_reps = 1  # calibration references after each iteration (~1 ms each)

    def finish(self, outcomes: list[Outcome]) -> list[str] | None:
        """Problems found across all replicates, or None when not checked."""
        return None


class Panel(Workload):
    """Acceptance panel r in {0, 0.6, 1.0, 1.4}; one iteration is one r."""

    name = "panel"
    block = 4  # whole cycles over the panel, so every run weighs each r alike
    trace_iterations = 4
    ref_reps = 5
    R_PANEL = (0.0, 0.6, 1.0, 1.4)

    def __init__(self, pt, seed: int, workdir: str):
        self.pt = pt
        self.grid = pt.numkit.TimeGrid(0.0, 8.0, 8001)
        k = seed % len(self.R_PANEL)
        self.order = self.R_PANEL[k:] + self.R_PANEL[:k]
        _, self.carriers = pt.pulse.subspace_h0(pt.pulse.NVParams())
        self._chain(0.6, pt.numkit.TimeGrid(0.0, 0.1, 11))

    def _chain(self, r: float, grid) -> dict:
        pt = self.pt
        h_s = pt.ptmodel.pt_hamiltonian(r)
        result = pt.dilation.dilate(h_s, pt.dilation.DilationConfig(grid))
        initial = pt.simulator.prepare_initial(PSI0, math.sqrt(result.m0 - 1.0))
        traj = pt.simulator.evolve_dilated(result.hsa_series, initial)
        oracle = pt.ptmodel.analytic_p0(r, grid.times())
        report = pt.dilation.verify_dilation(result, h_s)
        aser = pt.pauli.extract_a_series(result.hsa_series)
        prog = pt.pulse.synthesize(aser, self.carriers)
        resid = pt.pulse.rotating_frame_check(prog, aser)
        return {
            "r": r,
            "oracle_err": float(np.max(np.abs(traj.p0 - oracle))),
            "hermiticity": report.hermiticity,
            "block": report.block_antisym,
            "min_eig": report.min_eig_m_minus_i,
            "b_max": float(np.max(np.abs(aser.b))),
            "rwa_resid": resid,
        }

    def iteration(self, i: int) -> dict:
        return self._chain(self.order[i % len(self.order)], self.grid)

    def evaluate(self, out: dict) -> Outcome:
        limits = (  # criterion 6 plus the oracle and round-trip bounds
            ("oracle_err", 1e-4),
            ("hermiticity", 1e-10),
            ("block", 1e-9),
            ("b_max", 1e-9),
            ("rwa_resid", 1e-9),
        )
        problems = [
            f"r={out['r']:g}: {key} {out[key]:.3e} > {bound:g}"
            for key, bound in limits
            if not out[key] <= bound
        ]
        if not out["min_eig"] >= 0.099:
            problems.append(f"r={out['r']:g}: min eig(M-I) {out['min_eig']:.4f} < 0.099")
        values = {
            "oracle_err": out["oracle_err"],
            "invariant_resid": max(out["hermiticity"], out["block"], out["b_max"]),
            "rwa_resid": out["rwa_resid"],
        }
        return Outcome(problems, values)

    def summary(self, outcomes: list[Outcome], busy_s: float) -> dict:
        return {
            "nodes_per_s": (len(outcomes) * self.grid.n_nodes / busy_s, "1/s"),
            "oracle_err_max": (_max(outcomes, "oracle_err"), "1"),
            "invariant_resid_max": (_max(outcomes, "invariant_resid"), "1"),
            "rwa_resid_max": (_max(outcomes, "rwa_resid"), "1"),
        }


class SweepFit(Workload):
    """The CLI job behind the bifurcation figure: sweep, then fit both matrices."""

    name = "sweep_fit"
    ref_reps = 9
    # r >= 1.1 stays in: the noisy fits there are a known silent-wrong defect
    # that this workload records rather than hides.
    R_SWEEP = tuple(round(0.1 * k, 1) for k in range(16))
    N_NODES = 8001

    def __init__(self, pt, seed: int, workdir: str):
        self.cli = pt.cli
        self.outdir = os.path.join(workdir, "sweep_fit")
        self.jobs = self._jobs(self.R_SWEEP, self.N_NODES, 500_000, seed, self.outdir)
        warm = os.path.join(workdir, "warmup")
        for argv in self._jobs((0.6,), 11, 1000, seed, warm):
            self._run(argv)
        shutil.rmtree(warm)

    @staticmethod
    def _jobs(r_list, n_nodes, repetitions, seed, outdir) -> list[list[str]]:
        r_args = [a for r in r_list for a in ("--r", repr(r))]
        sweep = ["sweep", *r_args, "--n-nodes", str(n_nodes), "--repetitions",
                 str(repetitions), "--seed", str(seed), "--workers", "1",
                 "--outdir", outdir]
        fits = [
            ["fit", "--input", os.path.join(outdir, f"sweep_p0{kind}.csv"),
             "--outdir", os.path.join(outdir, f"fit{kind}")]
            for kind in ("", "_noisy")
        ]
        return [sweep, *fits]

    def _run(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ptdilate {argv[0]} exited {code}")

    def iteration(self, i: int) -> None:
        for argv in self.jobs:
            self._run(argv)

    def _read_fits(self, kind: str) -> np.ndarray:
        path = os.path.join(self.outdir, f"fit{kind}", "fits.csv")
        with open(path) as fh:
            rows = [ln for ln in fh if not ln.startswith("#")][1:]
        return np.loadtxt(rows, delimiter=",", ndmin=2)

    def evaluate(self, out) -> Outcome:
        written = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(self.outdir)
            for f in files
        )
        clean, noisy = self._read_fits(""), self._read_fits("_noisy")
        shutil.rmtree(self.outdir)
        outcome = Outcome(layer={"cli.bytes_written": written})
        for kind, fits in (("clean", clean), ("noisy", noisy)):
            if fits.shape[0] != len(self.R_SWEEP):
                outcome.problems.append(f"{kind}: {fits.shape[0]} fit rows")
                return outcome
            err = np.abs(fits[:, 1] - fits[:, 0])
            outcome.values[f"r_err.{kind}"] = float(np.max(err))
            if kind == "noisy":
                outcome.values["r_err.noisy_at_r"] = float(fits[np.argmax(err), 0])
        if not outcome.values["r_err.clean"] <= 1e-3:
            outcome.problems.append(
                f"noise-free r_exp off nominal by {outcome.values['r_err.clean']:.3e} > 1e-3"
            )
        return outcome

    def summary(self, outcomes: list[Outcome], busy_s: float) -> dict:
        n = len(outcomes)
        worst = max(outcomes, key=lambda o: o.values["r_err.noisy"])
        return {
            "nodes_per_s": (n * len(self.R_SWEEP) * self.N_NODES / busy_s, "1/s"),
            "fits_per_s": (n * 2 * len(self.R_SWEEP) / busy_s, "1/s"),
            "r_err_max.clean": (_max(outcomes, "r_err.clean"), "1"),
            "r_err_max.noisy": (worst.values["r_err.noisy"], "1"),
            "r_err_max.noisy_at_r": (worst.values["r_err.noisy_at_r"], "1"),
        }


class Recover(Workload):
    """Acceptance criterion 9 as a throughput loop; one iteration is one replicate."""

    name = "recover"
    trace_iterations = 25
    R_TRUE = 0.6
    REPETITIONS = 500_000

    def __init__(self, pt, seed: int, workdir: str):
        self.pt = pt
        self.seed = seed
        grid = pt.numkit.TimeGrid(0.0, 8.0, 1601)
        traj, _ = pt.simulator.simulate_pt(self.R_TRUE, grid)
        stride = 20  # 81 samples
        self.pops = pt.simulator.branch_populations(traj.states)[::stride]
        self.ts = grid.times()[::stride]
        self.rates = pt.readout.PLRates()
        self._replicate(repetitions=0, seed=None)

    def _replicate(self, repetitions: int, seed) -> float:
        pt = self.pt
        p0 = pt.readout.noisy_p0_curve(self.pops, self.rates, repetitions, seed=seed)
        keep = np.isfinite(p0)
        return pt.fitkit.fit_r(np.column_stack([self.ts[keep], p0[keep]])).r_exp

    def iteration(self, i: int) -> float:
        return self._replicate(self.REPETITIONS, [self.seed, i])

    def evaluate(self, r_exp: float) -> Outcome:
        problems = [] if math.isfinite(r_exp) else [f"r_exp {r_exp}"]
        return Outcome(problems, {"r_exp": r_exp})

    def summary(self, outcomes: list[Outcome], busy_s: float) -> dict:
        fits = [o.values["r_exp"] for o in outcomes]
        out = {"fits_per_s": (len(fits) / busy_s, "1/s")}
        out["r_exp.mean"] = (statistics.fmean(fits), "1")
        if len(fits) > 1:
            out["r_exp.sd"] = (statistics.stdev(fits), "1")
        return out

    def finish(self, outcomes: list[Outcome]) -> list[str] | None:
        fits = [o.values["r_exp"] for o in outcomes if not o.problems]
        if len(fits) < 3:
            return [f"only {len(fits)} replicates; need 3 for the criterion-9 checks"]
        spread = statistics.stdev(fits)
        se = spread / math.sqrt(len(fits))
        mean = statistics.fmean(fits)
        problems = []
        if not abs(mean - self.R_TRUE) <= 3.0 * se:
            problems.append(f"mean r_exp {mean:.5f} is more than 3 SE ({se:.5f}) from 0.6")
        if not 0.0012 <= spread <= 0.03:
            problems.append(f"replicate spread {spread:.5f} outside [0.0012, 0.03]")
        return problems


class LabAudit(Workload):
    """Lab-frame (no-RWA) audit of criterion 11 at r = 0.6."""

    name = "lab_audit"
    ref_reps = 9
    R = 0.6
    AUDIT_TIMES = (0.5, 1.0, 2.0)
    CYCLES_PER_STEP = 0.015

    def __init__(self, pt, seed: int, workdir: str):
        self.pt = pt
        self.coarse = pt.numkit.TimeGrid(0.0, 2.0, 2001)
        self.nv = pt.pulse.NVParams()
        _, self.carriers = pt.pulse.subspace_h0(self.nv)
        f_carrier = max(self.carriers) / (2.0 * math.pi)
        n_fine = int(math.ceil(2.0 * f_carrier / self.CYCLES_PER_STEP)) + 1
        self.fine = pt.numkit.TimeGrid(0.0, 2.0, n_fine)
        self.audit_idx = [int(round(t / self.fine.dt)) for t in self.AUDIT_TIMES]
        self._chain(pt.numkit.TimeGrid(0.0, 0.01, 11), pt.numkit.TimeGrid(0.0, 0.002, 201))

    def _chain(self, coarse, fine):
        pt = self.pt
        result = pt.dilation.dilate(
            pt.ptmodel.pt_hamiltonian(self.R), pt.dilation.DilationConfig(coarse)
        )
        aser = pt.pauli.extract_a_series(result.hsa_series)
        prog = pt.pulse.synthesize(aser, self.carriers)
        initial = pt.simulator.prepare_initial(PSI0, math.sqrt(result.m0 - 1.0))
        return pt.pulse.simulate_lab_frame(prog, aser, self.nv, fine, initial)

    def iteration(self, i: int) -> float:
        lab = self._chain(self.coarse, self.fine)
        ts = self.fine.times()[self.audit_idx]
        rot = self.pt.ptmodel.analytic_p0(self.R, ts)
        return float(np.max(np.abs(lab.p0[self.audit_idx] - rot)))

    def evaluate(self, dev: float) -> Outcome:
        problems = [] if dev <= 0.02 else [f"RWA deviation {dev:.4f} > 0.02"]
        return Outcome(problems, {"rwa_dev": dev})

    def summary(self, outcomes: list[Outcome], busy_s: float) -> dict:
        steps = self.fine.n_nodes - 1
        return {
            "lab_steps_per_s": (len(outcomes) * steps / busy_s, "1/s"),
            "rwa_dev_max": (_max(outcomes, "rwa_dev"), "1"),
        }


WORKLOADS = {w.name: w for w in (Panel, SweepFit, Recover, LabAudit)}
