"""Threshold selection over illumination factors and the selective enhancement branch.

The threshold maximizes the inter-class variance between the below- and
above-threshold factor groups, scanned over uniform histogram bin edges.
Images whose illumination factor falls at or below the threshold are
enhanced; brighter images pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor3, frozen_array
from .illumination import illumination_factor, retinex_enhance

DEFAULT_BINS = 256


@dataclass(frozen=True)
class FactorPopulation:
    """Illumination factors of a reference image population, all in (0, 1]."""

    factors: np.ndarray
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        arr = frozen_array(self.factors, "factors").ravel()
        if arr.size == 0:
            raise ValueError("factor population must be non-empty")
        if arr.min() <= 0.0 or arr.max() > 1.0:
            raise ValueError("factors must lie in (0, 1]")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        object.__setattr__(self, "factors", arr)


@dataclass(frozen=True)
class ThresholdReport:
    t_star: float
    sigma_b2: float
    omega0: float
    omega1: float
    mu0: float
    mu1: float
    mu_t: float
    degenerate: bool = False


def bin_edges(bins: int) -> np.ndarray:
    """Candidate thresholds: the `bins` uniform bin edges k/bins, k = 1..bins."""
    return np.arange(1, bins + 1, dtype=np.float64) / float(bins)


def _split_stats(n: int, k, sum0, total: float):
    """Group proportions/means and inter-class variance for below-counts `k`.

    Works elementwise on arrays of candidate splits or on scalars; the same
    expression tree is used in both cases so scalar re-evaluation at the
    chosen threshold reproduces the scanned value bit for bit.
    """
    k = np.asarray(k, dtype=np.float64)
    sum0 = np.asarray(sum0, dtype=np.float64)
    nf = float(n)
    omega0 = k / nf
    omega1 = 1.0 - omega0
    mu0 = np.where(k > 0, sum0 / np.maximum(k, 1.0), 0.0)
    rest = nf - k
    mu1 = np.where(rest > 0, (total - sum0) / np.maximum(rest, 1.0), 0.0)
    mu_t = omega0 * mu0 + omega1 * mu1
    d0 = mu0 - mu_t
    d1 = mu1 - mu_t
    sigma = omega0 * (d0 * d0) + omega1 * (d1 * d1)
    sigma = np.where((k == 0) | (k == nf), 0.0, sigma)
    return omega0, omega1, mu0, mu1, mu_t, sigma


def otsu_threshold(pop: FactorPopulation) -> ThresholdReport:
    """Pick the bin-edge threshold maximizing the inter-class variance.

    Ties are resolved to the midpoint of the leftmost maximal run of bin
    edges. A single-valued population returns that value with the
    `degenerate` flag set and zero variance.
    """
    factors = pop.factors
    srt = np.sort(factors)
    n = srt.size
    if srt[0] == srt[-1]:
        value = float(srt[0])
        return ThresholdReport(
            t_star=value,
            sigma_b2=0.0,
            omega0=1.0,
            omega1=0.0,
            mu0=value,
            mu1=0.0,
            mu_t=value,
            degenerate=True,
        )

    prefix = np.concatenate([[0.0], np.cumsum(srt, dtype=np.float64)])
    total = float(prefix[-1])
    edges = bin_edges(pop.bins)
    counts = np.searchsorted(srt, edges, side="right")
    sums = prefix[counts]
    _, _, _, _, _, sigma = _split_stats(n, counts, sums, total)

    best = float(sigma.max())
    at_max = np.flatnonzero(sigma == best)
    breaks = np.flatnonzero(np.diff(at_max) > 1)
    last = at_max[breaks[0]] if breaks.size else at_max[-1]
    first = at_max[0]
    t_star = (float(edges[first]) + float(edges[last])) / 2.0

    k_star = int(np.searchsorted(srt, t_star, side="right"))
    sum_star = float(prefix[k_star])
    om0, om1, mu0, mu1, mu_t, sig_star = _split_stats(n, k_star, sum_star, total)
    return ThresholdReport(
        t_star=t_star,
        sigma_b2=float(sig_star),
        omega0=float(om0),
        omega1=float(om1),
        mu0=float(mu0),
        mu1=float(mu1),
        mu_t=float(mu_t),
        degenerate=False,
    )


def selective_enhance(
    x: Tensor3, i: Tensor3, t_star: float
) -> tuple[Tensor3, bool]:
    """Enhance iff the illumination factor is at or below the threshold.

    The boundary is inclusive. When no enhancement fires, the input image
    object is returned unchanged (it is immutable), bit for bit.
    """
    if not 0.0 < t_star <= 1.0:
        raise ValueError(f"t_star must lie in (0, 1], got {t_star}")
    if (i.height, i.width) != (x.height, x.width):
        raise ValueError(
            f"illumination shape {i.shape} does not match image {x.shape}"
        )
    lam = illumination_factor(i)
    if lam <= t_star:
        return retinex_enhance(x, i), True
    return x, False


def factor_histogram(factors: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Counts of factors over `bins` uniform bins spanning (0, 1]."""
    counts, _ = np.histogram(
        np.asarray(factors, dtype=np.float64), bins=bins, range=(0.0, 1.0)
    )
    return counts
