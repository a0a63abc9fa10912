"""Photoluminescence readout model for the four-level NV register.

Two linear stages share the level ordering (|0 1>, |0 0>, |-1 1>,
|-1 0>):

1. Calibration: five pulse sequences applied to the optically polarized
   state give a 5x4 linear system whose unknowns are the per-level PL
   rates N_i, with rows mixing the electron polarization ``p_e`` (the
   nuclear polarization is taken as 1).
2. Population inversion: three sequences applied to the final state
   (none, a selective pi on MW1, a selective pi on RF1) permute the
   level populations before readout; together with the unit-sum row
   they form a 4x4 system solved exactly for the populations.

``simulate_counts`` adds Poisson shot noise at a given repetition count
(``repetitions = 0`` means noise-free per-shot expectations), so the
full chain can be exercised end to end with or without noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEVELS",
    "CALIBRATION_SEQUENCES",
    "MEASUREMENT_SEQUENCES",
    "RankDeficient",
    "SingularReadout",
    "ZeroSelectionBranch",
    "PLRates",
    "CountRecord",
    "PopulationEstimate",
    "calibration_design",
    "inversion_matrix",
    "expected_calibration_counts",
    "expected_counts",
    "simulate_counts",
    "calibrate_rates",
    "populations_from_counts",
    "noisy_p0_curve",
    "p0_from_populations",
]

LEVELS = ("0e1n", "0e0n", "-1e1n", "-1e0n")
CALIBRATION_SEQUENCES = ("none", "piMW1", "piRF1", "piMW1+piRF1", "piMW1+piRF2")
MEASUREMENT_SEQUENCES = ("none", "piMW1", "piRF1")

# Electron polarizations this close to 1/2 make calibration rows
# pairwise degenerate.
_PE_DEGENERACY_WINDOW = 1e-6

# Selected-branch population below which the conditional P0 is undefined.
_MIN_BRANCH = 1e-12


class RankDeficient(ValueError):
    """The calibration system has rank < 4 (e.g. p_e = 1/2)."""


class SingularReadout(ValueError):
    """The population-inversion matrix is numerically singular."""


class ZeroSelectionBranch(ValueError):
    """The post-selected nuclear branch carries no population."""


@dataclass(frozen=True)
class PLRates:
    """Expected detected photons per readout for each fully populated level.

    The default values are synthetic but plausible for single-NV confocal
    counting (a few hundredths of a photon per shot, pairwise distinct so
    the inversion stays well conditioned); they are configuration, not
    measured data.
    """

    rates: tuple[float, float, float, float] = (0.040, 0.030, 0.028, 0.034)

    def __post_init__(self):
        if len(self.rates) != 4:
            raise ValueError(f"need 4 level rates, got {len(self.rates)}")
        if any(r < 0 for r in self.rates):
            raise ValueError(f"rates must be >= 0, got {self.rates}")

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)


@dataclass
class CountRecord:
    """Per-shot PL of one pulse sequence.

    ``counts`` is in per-shot units: Poisson totals are divided by
    ``repetitions`` after sampling, and ``repetitions = 0`` marks a
    noise-free expectation value.
    """

    sequence_id: str
    counts: float
    repetitions: int

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError(f"counts must be >= 0, got {self.counts}")
        if self.repetitions < 0:
            raise ValueError(f"repetitions must be >= 0, got {self.repetitions}")


@dataclass
class PopulationEstimate:
    """Inverted level populations plus inversion diagnostics."""

    populations: np.ndarray  # (4,), clamped to [0, 1], unit sum
    clamped: bool  # True when the raw solution left [0, 1]
    condition: float  # condition number of the 4x4 system


def calibration_design(p_e: float) -> np.ndarray:
    """(5, 4) coefficient matrix of the rate-calibration system.

    Row k gives the weights of the four level rates in calibration
    sequence k for electron polarization ``p_e`` (nuclear polarization
    fixed at 1).
    """
    pe = float(p_e)
    if not 0.0 < pe <= 1.0:
        raise ValueError(f"p_e must be in (0, 1], got {pe}")
    return np.array(
        [
            [pe, 0.0, 1.0 - pe, 0.0],
            [1.0 - pe, 0.0, pe, 0.0],
            [0.0, pe, 1.0 - pe, 0.0],
            [0.0, 1.0 - pe, pe, 0.0],
            [1.0 - pe, 0.0, 0.0, pe],
        ]
    )


def inversion_matrix(rates: PLRates) -> np.ndarray:
    """(4, 4) matrix of the population-inversion system.

    Rows: the plain rate vector; the rates with levels |0 1> and |-1 1>
    swapped (pi on MW1); with |0 1> and |0 0> swapped (pi on RF1); and
    the unit-sum row.
    """
    n = rates.vector
    return np.array(
        [
            [n[0], n[1], n[2], n[3]],
            [n[2], n[1], n[0], n[3]],
            [n[1], n[0], n[2], n[3]],
            [1.0, 1.0, 1.0, 1.0],
        ]
    )


def expected_calibration_counts(rates: PLRates, p_e: float) -> np.ndarray:
    """Noise-free per-shot PL of the five calibration sequences."""
    return calibration_design(p_e) @ rates.vector


def expected_counts(populations: np.ndarray, rates: PLRates) -> np.ndarray:
    """Noise-free per-shot PL of the three measurement sequences.

    Entry k is the permuted-population overlap with the rates, i.e. the
    first three rows of ``inversion_matrix`` applied to the populations.
    """
    populations = np.asarray(populations, dtype=float)
    if populations.shape != (4,):
        raise ValueError(f"expected 4 populations, got shape {populations.shape}")
    if np.any(populations < -1e-12):
        raise ValueError("populations must be >= 0")
    return inversion_matrix(rates)[:3] @ populations


def _inversion(rates: PLRates) -> tuple[np.ndarray, float]:
    """Population-inversion matrix and its condition number.

    Raises SingularReadout when the condition exceeds 1e12.
    """
    amat = inversion_matrix(rates)
    cond = float(np.linalg.cond(amat))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularReadout(
            f"inversion matrix condition {cond:.3e} exceeds 1e12"
        )
    return amat, cond


def _draw(mu: np.ndarray, repetitions: int, seed) -> np.ndarray:
    """Per-shot PL: Poisson(repetitions x mu) / repetitions, or ``mu`` at 0."""
    if repetitions == 0:
        return mu
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.poisson(mu * repetitions) / repetitions


def _invert(amat: np.ndarray, per_shot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Populations from rows of per-shot PL of the measurement sequences.

    Solves the permuted-rate system plus the unit-sum row, clamps the
    solution to [0, 1] and renormalizes.  Returns the (n, 4) populations
    and whether clamping changed each row.
    """
    rhs = np.concatenate([per_shot, np.ones((len(per_shot), 1))], axis=1)
    raw = np.linalg.solve(amat, rhs.T).T
    clipped = np.clip(raw, 0.0, 1.0)
    total = clipped.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise SingularReadout("clamped populations sum to zero")
    return clipped / total, np.any(clipped != raw, axis=1)


def _conditional_p0(pops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P0 = P(|0 1>) / (P(|0 1>) + P(|-1 1>)) per row, and the denominators.

    Rows whose selected branch carries less than 1e-12 get NaN.
    """
    denom = pops[:, 0] + pops[:, 2]
    out = np.full(len(denom), np.nan)
    ok = denom >= _MIN_BRANCH
    out[ok] = pops[ok, 0] / denom[ok]
    return out, denom


def simulate_counts(
    populations: np.ndarray,
    rates: PLRates,
    repetitions: int,
    seed: int | np.random.Generator | None = None,
) -> list[CountRecord]:
    """Measurement-sequence counts with Poisson shot noise.

    Total photons of sequence k are drawn as Poisson(repetitions x
    expected per-shot PL) and normalized back to per-shot units;
    ``repetitions = 0`` skips sampling and returns the expectations.
    Deterministic for a fixed integer seed.
    """
    if repetitions < 0:
        raise ValueError(f"repetitions must be >= 0, got {repetitions}")
    counts = _draw(expected_counts(populations, rates), repetitions, seed)
    return [
        CountRecord(sequence_id=s, counts=float(c), repetitions=repetitions)
        for s, c in zip(MEASUREMENT_SEQUENCES, counts)
    ]


def _counts_vector(records: list[CountRecord], expected_ids: tuple[str, ...]) -> np.ndarray:
    if len(records) != len(expected_ids):
        raise ValueError(
            f"expected {len(expected_ids)} records {expected_ids}, got {len(records)}"
        )
    by_id = {rec.sequence_id: rec.counts for rec in records}
    missing = [s for s in expected_ids if s not in by_id]
    if missing:
        raise ValueError(f"missing sequence records: {missing}")
    return np.array([by_id[s] for s in expected_ids], dtype=float)


def calibrate_rates(
    records: list[CountRecord], p_e: float
) -> tuple[PLRates, float]:
    """Least-squares PL rates from the five calibration sequences.

    Returns the rates together with the residual norm of the
    overdetermined 5x4 system (a calibration-quality metric).  Raises
    RankDeficient when ``p_e`` is within 1e-6 of 1/2, where the row
    pairs (1, 2) and (3, 4) degenerate.
    """
    if abs(p_e - 0.5) < _PE_DEGENERACY_WINDOW:
        raise RankDeficient(
            f"calibration rows are pair-degenerate at p_e = {p_e}"
        )
    design = calibration_design(p_e)
    counts = _counts_vector(records, CALIBRATION_SEQUENCES)
    sol, res, rank, _ = np.linalg.lstsq(design, counts, rcond=None)
    if rank < 4:
        raise RankDeficient(f"calibration system has rank {rank} < 4")
    residual = float(np.linalg.norm(design @ sol - counts))
    sol = np.clip(sol, 0.0, None)
    return PLRates(rates=tuple(float(v) for v in sol)), residual


def populations_from_counts(
    records: list[CountRecord], rates: PLRates
) -> PopulationEstimate:
    """Exact solve of the permuted-rate system plus the unit-sum row.

    The raw solution is clamped to [0, 1] and renormalized; ``clamped``
    flags whether clamping changed anything (expected under shot noise).
    Raises SingularReadout when the matrix condition exceeds 1e12.
    """
    amat, cond = _inversion(rates)
    counts = _counts_vector(records, MEASUREMENT_SEQUENCES)
    pops, clamped = _invert(amat, counts[None])
    return PopulationEstimate(
        populations=pops[0], clamped=bool(clamped[0]), condition=cond
    )


def noisy_p0_curve(
    populations: np.ndarray,
    rates: PLRates,
    repetitions: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Vectorized measure-and-invert chain over a stack of populations.

    For each (4,) row of ``populations``: simulate the three
    measurement-sequence counts (Poisson at ``repetitions`` shots, or
    exact when 0), invert the permuted-rate system, clamp/renormalize,
    and return the conditional |0>_e population.  The same kernels as
    ``simulate_counts`` -> ``populations_from_counts`` ->
    ``p0_from_populations``, batched for sweep-sized inputs.
    """
    pops = np.atleast_2d(np.asarray(populations, dtype=float))
    if pops.shape[-1] != 4:
        raise ValueError(f"expected rows of 4 populations, got shape {pops.shape}")
    amat, _ = _inversion(rates)
    est, _ = _invert(amat, _draw(pops @ amat[:3].T, repetitions, seed))
    # Entries whose selected branch carries (numerically) no recovered
    # population are undefined under this noise draw; they come back NaN
    # rather than failing the whole batch.
    out, _ = _conditional_p0(est)
    return out if np.asarray(populations).ndim == 2 else out[0]


def p0_from_populations(populations: np.ndarray) -> float:
    """Conditional |0>_e population within the selected |1>_n branch.

    P0 = P(|0 1>) / (P(|0 1>) + P(|-1 1>)); the |1>_n branch is the one
    onto which the ancilla post-selection maps.
    """
    p0, denom = _conditional_p0(np.asarray(populations, dtype=float)[None])
    if denom[0] < _MIN_BRANCH:
        raise ZeroSelectionBranch(
            f"selected-branch population {denom[0]:.3e} below 1e-12"
        )
    return float(p0[0])
