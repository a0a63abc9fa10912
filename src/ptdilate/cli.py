"""Command-line orchestration of the dilation / simulation / fitting pipeline.

Subcommands: ``dilate``, ``simulate``, ``sweep``, ``pulses``, ``fit``,
``verify``.  Configuration is a single JSON document (``--config``) with
individual flags overriding file values; every output file embeds a
``# {json}`` metadata header (config hash, seed, package version) that
suffices to re-run the job.  Floats are emitted in shortest round-trip
decimal form and files are written atomically, so identical config +
seed gives byte-identical outputs.

Exit codes: 0 success, 1 validation or usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain

import numpy as np

from . import __version__
from .dilation import (
    MARGIN,
    DilationConfig,
    SingularPropagator,
    check_horizon,
    dilate,
    verify_dilation,
)
from .fitkit import fit_rows
from .numkit import TimeGrid
from .pauli import extract_a_series
from .pulse import (
    GridTooCoarse,
    NVParams,
    rotating_frame_check,
    simulate_lab_frame,
    subspace_h0,
    synthesize,
)
from .ptmodel import analytic_p0, pt_hamiltonian
from .readout import PLRates, noisy_p0_curve
from .simulator import ZeroBranch, branch_populations, prepare_initial, simulate_pt

__all__ = ["RunConfig", "ValidationError", "main"]

# Resource bounds, checked before anything is allocated.  Peak RSS grows by
# ~0.35 kB per grid node, the dilation's peak (`simulate`, `pulses`, one-r
# `sweep`, `dilate` and `verify` at r = 1.4, t1 = 16: 149-152 MB at 300,001
# nodes, 467 MB at 1,200,001, by `ru_maxrss`), so ~1.3 GB at MAX_NODES
# (extrapolated).  The lab audit, run once the dilation is freed, keeps 16 B per
# fine node (its p0 and success_prob) and ~0.13 kB per grid node: `pulses
# --lab-audit` at r = 0.6, t1 = 32, 32,001 nodes reads 71.5 MB auditing to t = 16
# and 95.0 MB to t = 32 (1,551,035 fine nodes more: 15.9 B each), 196 MB to
# t = 100 (9,693,968 fine nodes, as that slope predicts) and 103.5 MB to t = 32
# at 100,001 nodes.  So an audit at both bounds takes ~1.3 GB (extrapolated;
# x86-64, numpy 2.4), the dilation's peak at MAX_NODES.  A pooled sweep holds
# one such peak per worker, so it runs at most MAX_NODES // n_nodes.
MAX_NODES = 3_500_000
MAX_AUDIT_NODES = 50_000_000
# At most this many readout times per curve: one prepare-evolve-readout run each.
READOUT_POINTS = 201

_NUMERIC_ERRORS = (
    SingularPropagator,
    ZeroBranch,
    GridTooCoarse,
    np.linalg.LinAlgError,
)


class ValidationError(ValueError):
    """Aggregated configuration problems; message lists every issue."""


def _is_real(v) -> bool:
    """A number within the float range; booleans, NaN and Infinity are not."""
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max  # False for NaN; ints compare exactly
    )


# Accepted values per RunConfig field annotation, and how to name them.
_FIELD_TYPES = {
    "int": (lambda v: _is_real(v) and isinstance(v, int), "an integer"),
    "float": (_is_real, "a finite number"),
    "list[float]": (lambda v: isinstance(v, list) and all(map(_is_real, v)), "a list of finite numbers"),
    "dict": (lambda v: isinstance(v, dict) and all(map(_is_real, v.values())), "an object of finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@dataclass
class RunConfig:
    """All knobs of a pipeline run; see field comments for units."""

    r_list: list[float] = field(default_factory=lambda: [0.6])
    t1: float = 8.0
    n_nodes: int = 8001
    seed: int = 0
    repetitions: int = 0  # 0 = noise-free expectations
    pl_rates: list[float] = field(
        default_factory=lambda: [0.040, 0.030, 0.028, 0.034]
    )
    nv: dict = field(default_factory=dict)  # NVParams field overrides
    outdir: str = "."
    workers: int = 0  # 0 = processor count
    audit_times: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0])

    def validate(self) -> None:
        problems = [
            f"{f.name} must be {desc}, got {getattr(self, f.name)!r}"
            for f in fields(self)
            for ok, desc in [_FIELD_TYPES[f.type]]
            if not ok(getattr(self, f.name))
        ]
        if problems:
            raise ValidationError("; ".join(problems))
        if not self.r_list:
            problems.append("r_list must not be empty")
        elif any(r < 0 for r in self.r_list):
            problems.append(f"r values must be >= 0, got {self.r_list}")
        if not self.t1 > 0:
            problems.append(f"t1 must be > 0 (runs cover [0, t1]), got {self.t1}")
        if not 2 <= self.n_nodes <= MAX_NODES:
            problems.append(f"n_nodes must be in [2, {MAX_NODES}], got {self.n_nodes}")
        if self.repetitions < 0:
            problems.append(f"repetitions must be >= 0, got {self.repetitions}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.workers < 0:
            problems.append(f"workers must be >= 0, got {self.workers}")
        try:
            NVParams(**self.nv)
        except (TypeError, ValueError) as exc:  # an unknown field or a bad value
            problems.append(f"nv overrides rejected: {exc}")
        try:
            PLRates(rates=tuple(self.pl_rates))
        except ValueError as exc:  # a wrong count, a negative or a singular inversion
            problems.append(f"pl_rates rejected: {exc}")
        if problems:
            raise ValidationError("; ".join(problems))

    def check_horizon(self) -> None:
        """Dilate's horizon check for every r, before any compute or output."""
        problems = []
        for r in self.r_list:
            try:
                check_horizon(pt_hamiltonian(r), self.grid)
            except SingularPropagator as exc:
                fix = "r is too large: H_s overflows at t = 0" if exc.at_t0 else "shorten t1"
                problems.append(f"r = {r:g}: {exc}; {fix}")
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(0.0, self.t1, self.n_nodes)

    @property
    def rates(self) -> PLRates:
        return PLRates(rates=tuple(self.pl_rates))

    @property
    def nv_params(self) -> NVParams:
        return NVParams(**self.nv)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = set(loaded) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        data.update(loaded)
    # Each flag's dest is the name of the field it overrides; --r fills r_list.
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    overrides["r_list"] = args.r
    for key, val in overrides.items():
        if val is not None:
            data[key] = val
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg


def _metadata(cfg: RunConfig, **extra) -> dict:
    blob = json.dumps(asdict(cfg), sort_keys=True)
    meta = {
        "config": asdict(cfg),
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": cfg.seed,
        "version": __version__,
    }
    meta.update(extra)
    return meta


def _atomic_write(path: str, chunks) -> None:
    """Write the strings ``chunks`` to a temp file beside ``path``, then rename it."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rtag(r: float) -> str:
    """File-name tag of r: every digit of its shortest round-trip form, so
    distinct strengths never share a file (``0.6`` -> ``0p6``, ``1.0`` -> ``1``)."""
    return repr(float(r)).removesuffix(".0").replace(".", "p").replace("-", "m")


def _write_csv(path: str, meta: dict, columns, rows) -> None:
    """Atomically write the ``# {json}`` metadata line, the header and the rows.

    Every value is written in shortest round-trip form (``repr``), so equal
    numbers always give equal bytes.  Each row becomes Python floats in one
    ``tolist`` call, and lines are formatted as they are written, so the
    whole text is never held in memory.
    """
    head = ["# " + json.dumps(meta, sort_keys=True) + "\n", ",".join(columns) + "\n"]
    body = (",".join(map(repr, np.asarray(row, dtype=float).tolist())) + "\n" for row in rows)
    _atomic_write(path, chain(head, body))


def cmd_dilate(cfg: RunConfig, args: argparse.Namespace) -> int:
    for r in cfg.r_list:
        result = dilate(pt_hamiltonian(r), DilationConfig(cfg.grid))
        report = verify_dilation(result, pt_hamiltonian(r))
        aser = extract_a_series(result.hsa_series)
        _write_csv(
            os.path.join(cfg.outdir, f"aseries_r{_rtag(r)}.csv"),
            _metadata(cfg, r=r, m0=result.m0),
            ("t", "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"),
            np.column_stack([aser.grid.times(), aser.a, aser.b]),
        )
        diag = _metadata(
            cfg,
            r=r,
            m0=result.m0,
            mu_prime=result.mu_prime,
            diagnostics=asdict(report),
        )
        _atomic_write(
            os.path.join(cfg.outdir, f"dilation_r{_rtag(r)}.json"),
            [json.dumps(diag, sort_keys=True, indent=2) + "\n"],
        )
        print(
            f"r={r:g} m0={result.m0:.6g} hermiticity={report.hermiticity:.3e} "
            f"block={report.block_antisym:.3e} min_eig={report.min_eig_m_minus_i:.3e}"
        )
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    for r in cfg.r_list:
        traj, _ = simulate_pt(r, cfg.grid)
        ts = cfg.grid.times()
        oracle = analytic_p0(r, ts)
        err = np.abs(traj.p0 - oracle)
        max_err = float(np.max(err))
        _write_csv(
            os.path.join(cfg.outdir, f"trajectory_r{_rtag(r)}.csv"),
            _metadata(cfg, r=r, max_error=max_err),
            ("t", "p0_sim", "p0_oracle", "abs_error", "success_prob"),
            zip(ts, traj.p0, oracle, err, traj.success_prob),
        )
        print(f"r={r:g} max_error={max_err:.6e}")
    return 0


def _readout_stride(n: int) -> int:
    """Smallest stride that keeps at most ``READOUT_POINTS`` of ``n`` samples."""
    return -(-(n - 1) // (READOUT_POINTS - 1)) if n > READOUT_POINTS else 1


def _sweep_worker(cfg: RunConfig, idx: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Noise-free P0 row of the idx-th r at every node and, with repetitions,
    its noisy row at the readout times only (every ``_readout_stride`` node)."""
    traj, _ = simulate_pt(cfg.r_list[idx], cfg.grid)
    if cfg.repetitions == 0:
        return traj.p0, None
    rng = np.random.default_rng([cfg.seed, idx])
    pops = branch_populations(traj.states[:: _readout_stride(cfg.n_nodes)])
    return traj.p0, noisy_p0_curve(pops, cfg.rates, cfg.repetitions, seed=rng)


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Write ``sweep_p0.csv`` at every node and, with repetitions,
    ``sweep_p0_noisy.csv`` at the at most ``READOUT_POINTS`` readout times."""
    n = len(cfg.r_list)
    cap = MAX_NODES // cfg.n_nodes  # one dilation peak per worker; n_nodes <= MAX_NODES
    if cfg.workers > cap:
        raise ValidationError(
            f"workers must be <= {cap} at n_nodes = {cfg.n_nodes} (one peak of "
            f"n_nodes per worker, at most {MAX_NODES} in all), got {cfg.workers}"
        )
    workers = min(cfg.workers or os.cpu_count() or 1, n, cap)
    worker = partial(_sweep_worker, cfg)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows, noisy = zip(*pool.map(worker, range(n)))
    else:
        rows, noisy = zip(*map(worker, range(n)))
    ts = cfg.grid.times()
    meta = _metadata(cfg, kind="noise-free")
    _write_matrix(os.path.join(cfg.outdir, "sweep_p0.csv"), meta, cfg.r_list, ts, rows)
    if cfg.repetitions > 0:
        stride = _readout_stride(cfg.n_nodes)
        meta = _metadata(
            cfg, kind="poisson", noise="numpy-default_rng-poisson",
            repetitions=cfg.repetitions, readout_stride=stride,
        )
        path = os.path.join(cfg.outdir, "sweep_p0_noisy.csv")
        _write_matrix(path, meta, cfg.r_list, ts[::stride], noisy)
    print(f"sweep: {len(cfg.r_list)} r values x {cfg.n_nodes} nodes")
    return 0


def cmd_pulses(cfg: RunConfig, args: argparse.Namespace) -> int:
    nv = cfg.nv_params
    _, carriers = subspace_h0(nv)
    if args.lab_audit:
        if not (cfg.audit_times and all(0 < t <= cfg.t1 for t in cfg.audit_times)):
            raise ValidationError(
                f"audit_times must be a non-empty list of times in (0, t1] = "
                f"(0, {cfg.t1}], got {cfg.audit_times}"
            )
        dt = 0.015 / (max(carriers) / (2.0 * math.pi))  # 0.015 carrier cycles
        t_max = max(cfg.audit_times)
        fine = TimeGrid(0.0, t_max, int(math.ceil(t_max / dt)) + 1)
        if fine.n_nodes > MAX_AUDIT_NODES:
            raise ValidationError(
                f"the lab audit to t = {t_max} needs {fine.n_nodes} fine nodes, "
                f"more than {MAX_AUDIT_NODES}; audit earlier times"
            )
    for r in cfg.r_list:
        result = dilate(pt_hamiltonian(r), DilationConfig(cfg.grid))
        aser = extract_a_series(result.hsa_series)
        m0 = result.m0
        del result  # the audit reads only m0; H_sa and M would outlive their use
        prog = synthesize(aser, carriers)
        resid = rotating_frame_check(prog, aser)
        meta = _metadata(
            cfg,
            r=r,
            roundtrip_residual=resid,
            carriers=list(carriers),
        )
        if args.lab_audit:
            meta["lab_audit"] = _lab_audit(cfg, r, m0, aser, prog, nv, fine)
        w1, w2 = prog.carriers
        _write_csv(
            os.path.join(cfg.outdir, f"pulses_r{_rtag(r)}.csv"),
            meta,
            ("t", "omega_rabi", "phase", "freq1_offset", "freq2_offset"),
            zip(prog.grid.times(), prog.omega_rabi, prog.phase, prog.freq1 - w1, prog.freq2 - w2),
        )
        print(f"r={r:g} roundtrip_residual={resid:.3e}")
    return 0


def _lab_audit(cfg, r, m0, aser, prog, nv, fine) -> dict:
    initial = prepare_initial(np.array([1.0, 0.0], dtype=complex), math.sqrt(m0 - 1.0))
    lab = simulate_lab_frame(prog, aser, nv, fine, initial)
    report = []
    for tq in cfg.audit_times:
        idx = int(round(tq / fine.dt))
        rot = float(analytic_p0(r, fine.node_times(idx, idx + 1)[0]))
        report.append(
            {
                "t": tq,
                "p0_lab": float(lab.p0[idx]),
                "p0_rot": rot,
                "deviation": abs(float(lab.p0[idx]) - rot),
            }
        )
    return {"points": report, "max_deviation": max(p["deviation"] for p in report)}


def _write_matrix(path: str, meta: dict, r_values, ts, mat) -> None:
    """A sweep matrix: header ``r`` then the times, one row ``r, P0(t)...`` per r."""
    # Lazy, so the ~8k time labels are freed once joined instead of living
    # through the whole write (that list alone raised peak RSS ~0.5 MB).
    columns = chain(["r"], map(repr, np.asarray(ts, dtype=float).tolist()))
    _write_csv(path, meta, columns, (np.concatenate(([r], row)) for r, row in zip(r_values, mat)))


def _read_matrix(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(r, ts[::stride], P0[:, ::stride], stride)`` of a sweep matrix, where
    ``stride = _readout_stride(len(ts))``, the stride of ``sweep``'s noisy rows.
    Every row must be as wide as the header, but only column 0 and the readout
    columns are parsed, so a malformed cell in a column that ``fit`` skips is
    not an error.  Times and strengths must be finite, and a P0 cell may be
    nan (a failed read) but not infinite; errors number the columns from 1,
    ``r`` being column 1."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if not lines:
        raise ValidationError(f"{path}: empty input")
    header = lines[0].rstrip("\n").split(",")
    if header[0] != "r":
        raise ValidationError(
            f"{path}: expected first column 'r' in the matrix header, got {header[0]!r}"
        )
    try:
        ts = np.array([float(v) for v in header[1:]])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric time column in header: {exc}")
    if not np.all(np.isfinite(ts)):
        col = int(np.argmin(np.isfinite(ts))) + 1
        raise ValidationError(f"{path}: header column {col + 1} holds the non-finite time {header[col]!r}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows:
        raise ValidationError(f"{path}: the matrix has a header but no data rows")
    for ln in rows:
        if ln.count(",") != len(ts):
            raise ValidationError(
                f"{path}: row width {ln.count(',') + 1} does not match header "
                f"({len(ts) + 1} columns)"
            )
    stride = _readout_stride(len(ts))
    cols = [0, *range(1, len(ts) + 1, stride)]
    body = np.loadtxt(rows, delimiter=",", ndmin=2, usecols=cols)
    bad = np.isinf(body)
    bad[:, 0] |= np.isnan(body[:, 0])
    if bad.any():
        row, c = np.argwhere(bad)[0]
        raise ValidationError(f"{path}: column {cols[c] + 1} of data row {row + 1} holds {body[row, c]}")
    return body[:, 0], ts[::stride], body[:, 1:], stride


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    input_path = args.input
    r_nominal, ts, rows, stride = _read_matrix(input_path)
    short = r_nominal[np.count_nonzero(np.isfinite(rows), axis=1) < 3]
    if short.size:
        raise ValidationError(
            f"{input_path}: rows r_nominal={[float(r) for r in short]} keep fewer "
            f"than 3 finite samples at stride {stride}; a fit needs 3"
        )
    fits = fit_rows(ts, rows)
    meta = _metadata(cfg, input=os.path.basename(input_path))
    _write_csv(
        os.path.join(cfg.outdir, "fits.csv"),
        meta,
        ("r_nominal", "r_exp", "stderr", "reE_plus", "imE_plus"),
        ((r, f.r_exp, f.stderr, f.e_plus.real, f.e_plus.imag) for r, f in zip(r_nominal, fits)),
    )
    # The bifurcation curve E+- = +-sqrt(1 - r_exp^2) of each fitted strength.
    _write_csv(
        os.path.join(cfg.outdir, "eigencurve.csv"),
        meta,
        ("r_nominal", "reE_plus", "imE_plus", "reE_minus", "imE_minus"),
        (
            (r, f.e_plus.real, f.e_plus.imag, f.e_minus.real, f.e_minus.imag)
            for r, f in zip(r_nominal, fits)
        ),
    )
    for r, fit in zip(r_nominal, fits):
        print(f"r={r:g} r_exp={fit.r_exp:.6f} stderr={fit.stderr:.2e}")
    return 0


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    worst_fail = 0
    for r in cfg.r_list:
        h_s = pt_hamiltonian(r)
        result = dilate(h_s, DilationConfig(cfg.grid))
        report = verify_dilation(result, h_s)
        # The first three hold by construction.  The metric's central differences
        # measured <= 0.36 (dt |H_s|)^2 when resolved, plus ~1e-15 / (dt |H_s|).
        step = cfg.grid.dt * np.linalg.norm(h_s)
        ok = (
            report.hermiticity <= 1e-10
            and report.block_antisym <= 1e-9
            and report.min_eig_m_minus_i >= 0.99 * MARGIN
            and report.metric_ode <= step**2 + 1e-13 / step
        )
        status = "ok" if ok else "FAIL"
        print(
            f"r={r:g} {status} hermiticity={report.hermiticity:.3e} "
            f"block={report.block_antisym:.3e} metric_ode={report.metric_ode:.3e} "
            f"min_eig={report.min_eig_m_minus_i:.3e}"
        )
        if not ok:
            worst_fail = 2
    return worst_fail


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--r", type=float, action="append", help="non-Hermiticity strength (repeatable)")
    p.add_argument("--t1", type=float)
    p.add_argument("--n-nodes", dest="n_nodes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--outdir")
    p.add_argument("--workers", type=int)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 like a validation error; 2 is numeric failure
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptdilate",
        description="Hermitian dilation, dilated-evolution simulation, NV pulse "
        "synthesis, readout modeling and strength fitting for PT-symmetric "
        "two-level Hamiltonians",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    # ``main`` calls the subcommand's ``run(cfg, args)``.
    for name, run, help_text in (
        ("dilate", cmd_dilate, "emit drive-coefficient series and dilation diagnostics"),
        ("simulate", cmd_simulate, "trajectories with oracle comparison"),
        ("sweep", cmd_sweep, "P0 matrix over r and t (optionally with shot noise)"),
        ("pulses", cmd_pulses, "MW pulse programs (optionally with a lab-frame audit)"),
        ("fit", cmd_fit, "fit strengths and the eigenvalue curve from a sweep matrix"),
        ("verify", cmd_verify, "run the dilation invariant checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        _add_common(p)
        if name == "pulses":
            p.add_argument(
                "--lab-audit",
                action="store_true",
                help="integrate the lab-frame drives and report RWA deviations",
            )
        if name == "fit":
            p.add_argument("--input", required=True, help="sweep matrix CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command in ("dilate", "verify") and cfg.n_nodes < 3:
            # verify_dilation's metric-ODE differences need an interior node.
            raise ValidationError(f"{args.command} needs n_nodes >= 3, got {cfg.n_nodes}")
        if args.command != "fit":  # every other command dilates
            cfg.check_horizon()
        return args.run(cfg, args)
    # Numeric errors first: several of them (LinAlgError among them) are
    # ValueError subclasses.
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, TypeError) as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
