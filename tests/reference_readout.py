"""Test-side reference oracle: PL-rate calibration of the readout chain.

The package takes the PL rates as configuration (``ptdilate.readout.PLRates``)
and never calibrates them.  This module keeps the calibration model for
the tests to check the rates and the inversion against.  Imported by the
tests; not itself a test module.

Calibration: five pulse sequences applied to the optically polarized
state (none, pi on MW1, pi on RF1, pi on MW1 + pi on RF1, pi on MW1 +
pi on RF2) give a 5x4 linear system whose unknowns are the per-level PL
rates, with rows mixing the electron polarization ``p_e`` (the nuclear
polarization is taken as 1).  ``calibrate_rates`` takes the (5,) per-shot
PL in that sequence order.
"""

import numpy as np

from ptdilate.readout import PLRates

# Electron polarizations this close to 1/2 make calibration rows
# pairwise degenerate.
_PE_DEGENERACY_WINDOW = 1e-6


class RankDeficient(ValueError):
    """The calibration system has rank < 4 (e.g. p_e = 1/2)."""


def calibration_design(p_e: float) -> np.ndarray:
    """(5, 4) coefficient matrix of the rate-calibration system.

    Row k gives the weights of the four level rates in calibration
    sequence k (none, pi MW1, pi RF1, pi MW1 + pi RF1, pi MW1 + pi RF2)
    for electron polarization ``p_e`` (nuclear polarization fixed at 1).
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


def expected_calibration_counts(rates: PLRates, p_e: float) -> np.ndarray:
    """Noise-free per-shot PL of the five calibration sequences."""
    return calibration_design(p_e) @ rates.vector


def calibrate_rates(counts: np.ndarray, p_e: float) -> tuple[PLRates, float]:
    """Least-squares PL rates from the five calibration sequences.

    ``counts`` is the (5,) per-shot PL in the order of
    ``calibration_design``.  Returns the rates together with the residual
    norm of the overdetermined 5x4 system (a calibration-quality metric).
    Raises RankDeficient when ``p_e`` is within 1e-6 of 1/2, where the
    row pairs (1, 2) and (3, 4) degenerate.
    """
    if abs(p_e - 0.5) < _PE_DEGENERACY_WINDOW:
        raise RankDeficient(
            f"calibration rows are pair-degenerate at p_e = {p_e}"
        )
    design = calibration_design(p_e)
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (5,):
        raise ValueError(f"expected 5 calibration counts, got shape {counts.shape}")
    sol, res, rank, _ = np.linalg.lstsq(design, counts, rcond=None)
    if rank < 4:
        raise RankDeficient(f"calibration system has rank {rank} < 4")
    residual = float(np.linalg.norm(design @ sol - counts))
    sol = np.clip(sol, 0.0, None)
    return PLRates(rates=tuple(float(v) for v in sol)), residual
