"""Photoluminescence readout model for the four-level NV register.

Every population array and rate vector is in the level order
(|0 1>, |0 0>, |-1 1>, |-1 0>).

Measure and invert: three sequences applied to the final state (none,
pi on MW1, pi on RF1) permute the level populations before readout;
together with the unit-sum row they form a 4x4 system solved exactly
for the populations.  The chain works on stacks with any leading shape:

    populations (..., 4)
      -> simulate_counts          (..., 3)  per-shot PL of the three sequences,
                                            Poisson at ``repetitions`` shots
                                            (``expected_counts`` when 0)
      -> populations_from_counts  (..., 4)  clamped to the simplex, plus the
                                            (...,) flags of clamped rows
      -> p0_from_populations      (...,)    conditional P0, NaN on an empty branch

``noisy_p0_curve`` is that composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularReadout",
    "PLRates",
    "inversion_matrix",
    "expected_counts",
    "simulate_counts",
    "populations_from_counts",
    "noisy_p0_curve",
    "p0_from_populations",
]

# Selected-branch population below which the conditional P0 is undefined.
_MIN_BRANCH = 1e-12


class SingularReadout(ValueError):
    """The population-inversion matrix is numerically singular."""


@dataclass(frozen=True)
class PLRates:
    """Expected detected photons per readout for each fully populated level.

    The default values are synthetic but plausible for single-NV confocal
    counting (a few hundredths of a photon per shot, pairwise distinct so
    the inversion stays well conditioned); they are configuration, not
    measured data.  Raises SingularReadout when the condition of their
    ``inversion_matrix`` exceeds 1e12.
    """

    rates: tuple[float, float, float, float] = (0.040, 0.030, 0.028, 0.034)

    def __post_init__(self):
        if len(self.rates) != 4:
            raise ValueError(f"need 4 level rates, got {len(self.rates)}")
        if any(r < 0 for r in self.rates):
            raise ValueError(f"rates must be >= 0, got {self.rates}")
        cond = float(np.linalg.cond(inversion_matrix(self)))
        if not cond <= 1e12:
            raise SingularReadout(f"inversion matrix condition {cond:.3e} exceeds 1e12")

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)


def inversion_matrix(rates: PLRates) -> np.ndarray:
    """(4, 4) matrix of the population-inversion system.

    Rows: the plain rate vector (no pulse); the rates with levels |0 1>
    and |-1 1> swapped (pi on MW1); with |0 1> and |0 0> swapped (pi on
    RF1); and the unit-sum row.
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


def expected_counts(populations: np.ndarray, rates: PLRates) -> np.ndarray:
    """Noise-free per-shot PL of the three measurement sequences.

    Maps populations (..., 4) to (..., 3) in the sequence order (none,
    pi MW1, pi RF1): the first three rows of ``inversion_matrix`` applied
    to each population vector.
    """
    populations = np.asarray(populations, dtype=float)
    if populations.shape[-1:] != (4,):
        raise ValueError(f"expected rows of 4 populations, got shape {populations.shape}")
    if np.any(populations < -1e-12):
        raise ValueError("populations must be >= 0")
    return populations @ inversion_matrix(rates)[:3].T


def simulate_counts(
    populations: np.ndarray,
    rates: PLRates,
    repetitions: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Per-shot PL (..., 3) of the measurement sequences with shot noise.

    Total photons of each sequence are drawn as Poisson(repetitions x
    expected per-shot PL) and normalized back to per-shot units;
    ``repetitions = 0`` skips sampling and returns ``expected_counts``.
    Deterministic for a fixed integer seed.
    """
    if repetitions < 0:
        raise ValueError(f"repetitions must be >= 0, got {repetitions}")
    mu = expected_counts(populations, rates)
    if repetitions == 0:
        return mu
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.poisson(mu * repetitions) / repetitions


def populations_from_counts(
    counts: np.ndarray, rates: PLRates
) -> tuple[np.ndarray, np.ndarray]:
    """Exact solve of the permuted-rate system plus the unit-sum row.

    ``counts`` is per-shot PL (..., 3) in the order of ``expected_counts``.
    Returns the populations (..., 4), clamped to [0, 1] and renormalized,
    and a (...,) flag of the rows that clamping changed (expected under
    shot noise); ``PLRates`` keeps the matrix conditioned.  For finite
    counts the renormalizing sum cannot be zero: the unit-sum row makes
    each solved row sum to 1, so one of its four levels is >= 1/4 and
    stays so after clamping to [0, 1].
    """
    amat = inversion_matrix(rates)
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1:] != (3,):
        raise ValueError(f"expected rows of 3 counts, got shape {counts.shape}")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0):
        raise ValueError("counts must be finite and >= 0")
    lead = counts.shape[:-1]
    flat = counts.reshape(-1, 3)
    rhs = np.concatenate([flat, np.ones((len(flat), 1))], axis=1)
    raw = np.linalg.solve(amat, rhs.T).T
    clipped = np.clip(raw, 0.0, 1.0)
    pops = (clipped / clipped.sum(axis=1, keepdims=True)).reshape(*lead, 4)
    return pops, np.any(clipped != raw, axis=1).reshape(lead)


def p0_from_populations(populations: np.ndarray) -> np.ndarray:
    """Conditional |0>_e population (...,) within the selected |1>_n branch.

    P0 = P(|0 1>) / (P(|0 1>) + P(|-1 1>)) for each (4,) population row;
    the |1>_n branch is the one onto which the ancilla post-selection
    maps.  Rows whose branch carries less than 1e-12 are undefined and
    come back NaN.  ``simulator._postselect_batch`` floors exact states
    at 1e-60 instead, as valid runs reach weights near 1e-14; here the
    floor decides which noisy reads are NaN.  A single row gives a scalar.
    """
    pops = np.asarray(populations, dtype=float)
    denom = pops[..., 0] + pops[..., 2]
    out = np.full(denom.shape, np.nan)
    ok = denom >= _MIN_BRANCH
    out[ok] = pops[..., 0][ok] / denom[ok]
    return out[()]


def noisy_p0_curve(
    populations: np.ndarray,
    rates: PLRates,
    repetitions: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """P0 read out through the whole measure-and-invert chain.

    ``simulate_counts`` -> ``populations_from_counts`` ->
    ``p0_from_populations`` over populations (..., 4), giving (...,).
    """
    counts = simulate_counts(populations, rates, repetitions, seed)
    return p0_from_populations(populations_from_counts(counts, rates)[0])
