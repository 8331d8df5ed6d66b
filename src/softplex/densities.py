"""Probability densities on R^d used to drive the point processes.

Three bounded families are supported: a uniform density on an axis-aligned
box, an isotropic Gaussian, and a piecewise-constant density on a regular
grid over a box.  Each one normalizes to 1, evaluates pointwise, exposes its
sup norm, samples i.i.d. draws from a supplied generator, and gives the
integral of f^(p+1) over an axis-aligned box in closed form: the density
factor of the limit constants.  The Gaussian's box mass imports scipy's
normal CDF where it is taken, so the other families never load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, InputError, box, real
from .rng import standard_normals


class Density:
    """Common interface: ``dimension``, ``sup_norm``, ``pdf``, ``sample``, ``power_integral``."""

    dimension: int

    def pdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def power_integral(self, power: float, lo=-np.inf, hi=np.inf) -> float:
        """The integral of f^(power+1) over the box [lo, hi]; the defaults give all of R^d.

        A value beyond the float range comes back as inf or NaN, without a
        warning; the caller decides whether it can use it.
        """
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


def _box(lo, hi, d: int) -> list[np.ndarray]:
    """Box bounds as length-d vectors; a scalar bound holds on every axis."""
    box = [np.asarray(bound, dtype=np.float64) for bound in (lo, hi)]
    if any(bound.shape not in ((), (d,)) for bound in box):
        raise InputError(f"box bounds must be scalars or of dimension {d}")
    return [np.broadcast_to(bound, (d,)) for bound in box]


def _check(density: Density, kind: str, *params) -> None:
    """Refuse NaN or infinite parameters, and a sup norm that is not finite and positive."""
    if not all(np.isfinite(p).all() for p in params):
        raise ConfigurationError(f"{kind} parameters must be finite")
    try:
        real(density.sup_norm, f"{kind} sup norm", 0, ConfigurationError)
    except ArithmeticError:  # 1 / 0.0, 0.0 to a negative power, or an overflow
        raise ConfigurationError(f"{kind} sup norm is out of the range of a float") from None


def _overlaps(edges_lo, edges_hi, lo, hi):
    """Lengths of [edges_lo, edges_hi] & [lo, hi], 0 where they miss."""
    return np.maximum(np.minimum(edges_hi, hi) - np.maximum(edges_lo, lo), 0.0)


class UniformBox(Density):
    def __init__(self, lo, hi):
        self.lo, self.hi = box(lo, hi, "uniform-box")
        with np.errstate(all="ignore"):  # checked next
            self.volume = float(np.prod(self.hi - self.lo))
        _check(self, "uniform-box", self.lo, self.hi)

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @property
    def sup_norm(self) -> float:
        return 1.0 / self.volume

    def pdf(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dimension)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        out = np.where(inside, 1.0 / self.volume, 0.0)
        return out[0] if single else out

    def power_integral(self, power, lo=-np.inf, hi=np.inf) -> float:
        """The box's share of the support times V^-power: exactly 1.0 for the unit box."""
        share = _overlaps(self.lo, self.hi, *_box(lo, hi, self.dimension)) / (self.hi - self.lo)
        with np.errstate(over="ignore"):
            return float(np.prod(share) * np.float64(self.volume) ** -power)

    def sample(self, rng, count: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random((count, self.dimension))

    def to_config(self) -> dict:
        return {"kind": "uniform-box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


class GaussianIsotropic(Density):
    def __init__(self, mean, sigma):
        self.mean = mean = np.asarray(mean, dtype=np.float64)
        if mean.ndim != 1 or mean.size == 0:
            raise ConfigurationError("gaussian mean must be a nonempty vector")
        self.sigma = real(sigma, "gaussian sigma", 0, ConfigurationError)
        _check(self, "gaussian", mean)

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

    def power_integral(self, power, lo=-np.inf, hi=np.inf) -> float:
        """sup_norm^p (p + 1)^(-d/2), p = power, times the box's mass under
        N(mean, sigma^2 / (p + 1))."""
        from scipy.special import ndtr

        d = self.dimension
        lo, hi = ((b - self.mean) * math.sqrt(power + 1.0) / self.sigma for b in _box(lo, hi, d))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.float64(self.sup_norm) ** power * np.prod(ndtr(hi) - ndtr(lo))
                         / np.float64(power + 1.0) ** (d / 2))

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
        self.lo, self.hi = lo, hi = box(lo, hi, "grid")
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != lo.shape[0]:
            raise ConfigurationError(
                f"weights must have one axis per dimension ({lo.shape[0]}), got {w.ndim}"
            )
        if np.any(w < 0) or not np.any(w > 0):
            raise ConfigurationError("weights must be nonnegative with a positive total")
        with np.errstate(all="ignore"):  # checked next
            self.cell_volume = float(np.prod((hi - lo) / np.asarray(w.shape)))
            # normalize so the cell-volume-weighted sum is 1
            self.density = w / (w.sum() * self.cell_volume)
        _check(self, "grid", lo, hi, w)

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

    def power_integral(self, power, lo=-np.inf, hi=np.inf) -> float:
        """Sum over cells of vol(cell & box) * w^(power+1); the volumes are
        the outer product of the per-axis overlap lengths."""
        lo, hi = _box(lo, hi, self.dimension)
        edges = [np.linspace(a, b, cells + 1) for a, b, cells in zip(self.lo, self.hi, self.shape)]
        overlaps = [_overlaps(e[:-1], e[1:], a, b) for e, a, b in zip(edges, lo, hi)]
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(math.prod(np.ix_(*overlaps)) * self.density ** (power + 1)))

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
