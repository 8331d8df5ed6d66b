"""Probability densities on R^d used to drive the point processes.

Three bounded families are supported: a uniform density on an axis-aligned
box, an isotropic Gaussian, and a piecewise-constant density on a regular
grid over a box.  Each one normalizes to 1, evaluates pointwise, exposes its
sup norm, and samples i.i.d. draws from a supplied generator.

The uniform box tests membership one coordinate column at a time: a
comparison broadcast over (count, d) rows runs numpy's inner loop d elements
at a time, and at d = 2 that loop overhead, not the arithmetic, sets the
time of the constant estimator's outer factor.  The result is the same
boolean mask.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InputError
from .rng import standard_normals


class Density:
    """Common interface: ``dimension``, ``sup_norm``, ``pdf``, ``sample``."""

    dimension: int

    def pdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_config()})"


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise InputError(f"expected points of dimension {d}, got shape {x.shape}")
    return x, single


class UniformBox(Density):
    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != 1 or lo.size == 0 or lo.shape != hi.shape:
            raise ConfigurationError("uniform-box lo/hi must be equal-length nonempty vectors")
        if not np.all(hi > lo):
            raise ConfigurationError("uniform-box requires hi > lo in every coordinate")
        self.lo = lo
        self.hi = hi
        self.volume = float(np.prod(hi - lo))

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @property
    def sup_norm(self) -> float:
        return 1.0 / self.volume

    def pdf(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dimension)
        inside = np.ones(pts.shape[0], dtype=bool)
        for column, lo, hi in zip(pts.T, self.lo, self.hi):
            inside &= column >= lo
            inside &= column <= hi
        out = np.where(inside, 1.0 / self.volume, 0.0)
        return out[0] if single else out

    def sample(self, rng, count: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random((count, self.dimension))

    def to_config(self) -> dict:
        return {"kind": "uniform-box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


class GaussianIsotropic(Density):
    def __init__(self, mean, sigma):
        mean = np.asarray(mean, dtype=np.float64)
        if mean.ndim != 1 or mean.size == 0:
            raise ConfigurationError("gaussian mean must be a nonempty vector")
        sigma = float(sigma)
        if not sigma > 0:
            raise ConfigurationError("gaussian sigma must be positive")
        self.mean = mean
        self.sigma = sigma

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    @property
    def sup_norm(self) -> float:
        d = self.dimension
        return float((2.0 * np.pi * self.sigma**2) ** (-d / 2.0))

    def pdf(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dimension)
        sq = np.sum((pts - self.mean) ** 2, axis=1)
        out = self.sup_norm * np.exp(-0.5 * sq / self.sigma**2)
        return out[0] if single else out

    def sample(self, rng, count: int) -> np.ndarray:
        d = self.dimension
        z = standard_normals(rng, count * d).reshape(count, d)
        return self.mean + self.sigma * z

    def to_config(self) -> dict:
        return {"kind": "gaussian-isotropic", "mean": self.mean.tolist(), "sigma": self.sigma}


class PiecewiseConstantGrid(Density):
    """Per-cell constant density on a regular grid over [lo, hi].

    ``weights`` holds one nonnegative relative weight per cell, shaped
    (m_1, ..., m_d); they are rescaled so the density integrates to 1.
    """

    def __init__(self, lo, hi, weights):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if lo.ndim != 1 or lo.size == 0 or lo.shape != hi.shape:
            raise ConfigurationError("grid lo/hi must be equal-length nonempty vectors")
        if not np.all(hi > lo):
            raise ConfigurationError("grid requires hi > lo in every coordinate")
        if w.ndim != lo.shape[0]:
            raise ConfigurationError(
                f"weights must have one axis per dimension ({lo.shape[0]}), got {w.ndim}"
            )
        if np.any(w < 0) or not np.any(w > 0):
            raise ConfigurationError("weights must be nonnegative with a positive total")
        self.lo = lo
        self.hi = hi
        self.cell_volume = float(np.prod((hi - lo) / np.asarray(w.shape)))
        # normalize so the cell-volume-weighted sum is 1
        self.density = w / (w.sum() * self.cell_volume)

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @property
    def shape(self) -> tuple:
        return self.density.shape

    @property
    def sup_norm(self) -> float:
        return float(self.density.max())

    def pdf(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dimension)
        shape = np.asarray(self.shape)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        frac = (pts - self.lo) / (self.hi - self.lo)
        idx = np.clip((frac * shape).astype(np.int64), 0, shape - 1)
        out = np.zeros(len(pts))
        if inside.any():
            flat = np.ravel_multi_index(idx[inside].T, self.shape)
            out[inside] = self.density.ravel()[flat]
        return out[0] if single else out

    def sample(self, rng, count: int) -> np.ndarray:
        probs = self.density.ravel() * self.cell_volume
        cells = rng.choice(probs.size, size=count, p=probs)
        idx = np.stack(np.unravel_index(cells, self.shape), axis=1)
        widths = (self.hi - self.lo) / np.asarray(self.shape)
        return self.lo + (idx + rng.random((count, self.dimension))) * widths

    def to_config(self) -> dict:
        # report the normalized per-cell values; round-trips to the same density
        return {
            "kind": "piecewise-constant-grid",
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "weights": self.density.tolist(),
        }


_DENSITY_FIELDS = {
    "uniform-box": {"lo", "hi"},
    "gaussian-isotropic": {"mean", "sigma"},
    "piecewise-constant-grid": {"lo", "hi", "weights"},
}


def density_from_config(config: dict) -> Density:
    """Build a density from its JSON description."""
    if not isinstance(config, dict) or not isinstance(config.get("kind"), str):
        raise ConfigurationError("density config must be an object with a string 'kind'")
    kind = config["kind"]
    if kind not in _DENSITY_FIELDS:
        raise ConfigurationError(f"unsupported density kind: {kind!r}")
    fields = {k: v for k, v in config.items() if k != "kind"}
    expected = _DENSITY_FIELDS[kind]
    if set(fields) != expected:
        raise ConfigurationError(
            f"density kind {kind!r} takes fields {sorted(expected)}, got {sorted(fields)}"
        )
    try:
        if kind == "uniform-box":
            return UniformBox(fields["lo"], fields["hi"])
        if kind == "gaussian-isotropic":
            return GaussianIsotropic(fields["mean"], fields["sigma"])
        return PiecewiseConstantGrid(fields["lo"], fields["hi"], fields["weights"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"density config has a malformed field: {exc}") from None
