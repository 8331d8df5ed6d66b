"""Binomial and Poisson point processes over a common density.

The two processes are coupled through a shared draw sequence: for one seed,
the Poisson cloud consists of the first N points of the same i.i.d. stream
the binomial cloud reads, with N drawn from an independent counting stream.
Clouds are immutable after creation and reproduce bit-identically from
(density, provenance, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import Density
from .errors import InputError, count, real
from .rng import COUNT_STREAM, POINT_STREAM, generator

# the largest intensity numpy's Poisson sampler takes
_POISSON_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray = field(repr=False)
    provenance: str  # "binomial" or "poisson"
    size_parameter: float  # n for binomial, lambda for poisson
    seed: int

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise InputError("points must be a (count, d) array")
        if not np.isfinite(pts).all():
            raise InputError("points must have finite coordinates; got NaN or infinity")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def sample_binomial(n: int, density: Density, seed: int) -> PointCloud:
    """Exactly n i.i.d. draws from the density."""
    n = count(n, "binomial sample size", 1)
    pts = density.sample(generator(seed, POINT_STREAM), n)
    return PointCloud(points=pts, provenance="binomial", size_parameter=float(n), seed=int(seed))


def sample_poisson(lam: float, density: Density, seed: int) -> PointCloud:
    """Poisson(lambda) many i.i.d. draws from the density.

    The count N is drawn first from its own stream, then N points are read
    from the same point stream a binomial cloud with this seed would use.
    """
    lam = real(lam, "poisson intensity", 0)
    if lam > _POISSON_MAX:
        raise InputError(f"poisson intensity must be at most {_POISSON_MAX:.4g}, got {lam}")
    n = int(generator(seed, COUNT_STREAM).poisson(lam))
    if n == 0:
        pts = np.empty((0, density.dimension))
    else:
        pts = density.sample(generator(seed, POINT_STREAM), n)
    return PointCloud(points=pts, provenance="poisson", size_parameter=lam, seed=int(seed))
