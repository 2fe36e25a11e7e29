"""Cubature grids per needlet level, sky masks, dilation, and region pairs.

The grid family is Gauss-Legendre in cos(theta) times an equispaced phi ring:
ceil(B^(j+1)) + 1 GL nodes and 2*ceil(B^(j+1)) + 1 longitudes, with pixel
weight lambda_k = (GL weight) * 2pi / n_phi.  This integrates products of two
spin harmonics exactly up to degree band_limit = 2*ceil(B^(j+1)), which is
the only property the estimators rely on.  Pixels are ordered ring-major:
k = i_theta * n_phi + i_phi, rings from the north pole down, phi ascending
from 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (EmptyObservedRegionError, EmptyRegionError,
                     InvalidBandwidthError, InvalidMaskFileError,
                     ResourceLimitError)
from .wigner import SphPoint

_DOT_CHUNK = 1 << 22  # elements per distance-matrix block


@dataclass(frozen=True, eq=False)
class CubatureGrid:
    """Cubature points xi_jk and weights lambda_jk for one needlet level."""

    j: int
    B: float
    theta: np.ndarray = field(repr=False)       # ring colatitudes, ascending
    cos_theta: np.ndarray = field(repr=False)   # exact GL nodes for the rings
    phi: np.ndarray = field(repr=False)         # ring longitudes
    ring_weights: np.ndarray = field(repr=False)  # lambda per pixel, one per ring
    band_limit: int = 0

    @property
    def n_theta(self) -> int:
        return self.theta.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def n_pixels(self) -> int:
        return self.theta.size * self.phi.size

    @property
    def theta_pixels(self) -> np.ndarray:
        return np.repeat(self.theta, self.n_phi)

    @property
    def phi_pixels(self) -> np.ndarray:
        return np.tile(self.phi, self.n_theta)

    @property
    def cos_theta_pixels(self) -> np.ndarray:
        return np.repeat(self.cos_theta, self.n_phi)

    @property
    def weights(self) -> np.ndarray:
        return np.repeat(self.ring_weights, self.n_phi)

    @property
    def unit_vectors(self) -> np.ndarray:
        st = np.sqrt(1.0 - self.cos_theta_pixels ** 2)
        ph = self.phi_pixels
        return np.column_stack([st * np.cos(ph), st * np.sin(ph),
                                self.cos_theta_pixels])

    @property
    def fingerprint(self) -> tuple:
        return (self.j, round(self.B, 12), self.n_theta, self.n_phi)

    def point(self, k: int) -> SphPoint:
        i, q = divmod(int(k), self.n_phi)
        return SphPoint(float(self.theta[i]), float(self.phi[q]))


def build_cubature(j: int, B: float, max_pixels: int = 8_000_000) -> CubatureGrid:
    """Build the level-j grid; exact for harmonic products up to 2*ceil(B^(j+1))."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if not B > 1.0:
        raise InvalidBandwidthError(f"bandwidth B={B} must be > 1")
    n = math.ceil(B ** (j + 1))
    n_theta, n_phi = n + 1, 2 * n + 1
    if n_theta * n_phi > max_pixels:
        raise ResourceLimitError(
            f"level j={j} needs {n_theta * n_phi} pixels > cap {max_pixels}")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # theta ascending = cos(theta) descending
    x, w = x[order], w[order]
    return CubatureGrid(
        j=j, B=float(B),
        theta=np.arccos(np.clip(x, -1.0, 1.0)),
        cos_theta=x,
        phi=2.0 * math.pi * np.arange(n_phi) / n_phi,
        ring_weights=w * (2.0 * math.pi / n_phi),
        band_limit=2 * n,
    )


def geodesic_distance(p: SphPoint, q: SphPoint) -> float:
    """Great-circle distance: arccos of the clamped inner product."""
    dot = (math.sin(p.theta) * math.sin(q.theta) * math.cos(p.phi - q.phi)
           + math.cos(p.theta) * math.cos(q.theta))
    return math.acos(min(1.0, max(-1.0, dot)))


def _within_distance(grid: CubatureGrid, targets: np.ndarray, epsilon: float) -> np.ndarray:
    """Boolean per pixel: geodesic distance to the target pixel set <= epsilon."""
    out = targets.copy()
    if epsilon <= 0.0 or not targets.any() or targets.all():
        return out
    vec = grid.unit_vectors
    tv = vec[targets]
    rest = np.flatnonzero(~targets)
    cos_eps = math.cos(min(epsilon, math.pi))
    rows = max(1, _DOT_CHUNK // max(1, tv.shape[0]))
    for start in range(0, rest.size, rows):
        idx = rest[start:start + rows]
        best = (vec[idx] @ tv.T).max(axis=1)
        out[idx] = best >= cos_eps  # closed condition: d <= epsilon is "in"
    return out


@dataclass(frozen=True, eq=False)
class SkyMask:
    """Masked region G on a grid, with its dilation radius epsilon.

    `excluded` is the raw region G (the integration domain drops these
    pixels); `dilated` is G^eps, the pixel set estimators must additionally
    avoid.  Dilation is always computed from the raw G, so re-dilating at the
    same epsilon is idempotent.
    """

    grid: CubatureGrid
    excluded: np.ndarray = field(repr=False)
    epsilon: float = 0.0
    dilated: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        excl = np.asarray(self.excluded, dtype=bool)
        if excl.shape != (self.grid.n_pixels,):
            raise ValueError("mask length does not match grid pixel count")
        object.__setattr__(self, "excluded", excl)
        object.__setattr__(self, "dilated",
                           _within_distance(self.grid, excl, self.epsilon))
        if self.dilated.all():
            raise EmptyObservedRegionError(
                "no pixel survives the mask after dilation")

    @property
    def observed(self) -> np.ndarray:
        """Pixels outside G^eps (the estimator's summation set)."""
        return ~self.dilated

    @property
    def n_observed(self) -> int:
        return int(self.observed.sum())


def empty_mask(grid: CubatureGrid, epsilon: float = 0.0) -> SkyMask:
    return SkyMask(grid=grid, excluded=np.zeros(grid.n_pixels, dtype=bool),
                   epsilon=epsilon)


def polar_cap_mask(grid: CubatureGrid, sky_fraction: float,
                   epsilon: float = 0.0) -> SkyMask:
    """Mask the polar cap around the north pole covering `sky_fraction` of the sky."""
    if not 0.0 <= sky_fraction < 1.0:
        raise ValueError("sky_fraction must be in [0, 1)")
    cos_edge = 1.0 - 2.0 * sky_fraction  # cap area 2pi(1-cos) = fraction * 4pi
    excluded = grid.cos_theta_pixels > cos_edge
    return SkyMask(grid=grid, excluded=excluded, epsilon=epsilon)


def dilate_mask(mask: SkyMask, epsilon: float) -> SkyMask:
    """Mask with dilation radius epsilon (recomputed from the raw region G)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    return SkyMask(grid=mask.grid, excluded=mask.excluded, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class RegionPair:
    """Two disjoint pixel regions used by the asymmetry statistic."""

    grid: CubatureGrid
    a1: np.ndarray = field(repr=False)
    a2: np.ndarray = field(repr=False)
    epsilon: float = 0.0

    def __post_init__(self):
        a1 = np.asarray(self.a1, dtype=bool)
        a2 = np.asarray(self.a2, dtype=bool)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        if a1.shape != (self.grid.n_pixels,) or a2.shape != (self.grid.n_pixels,):
            raise ValueError("region length does not match grid pixel count")
        if (a1 & a2).any():
            raise EmptyRegionError("regions are not disjoint")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        object.__setattr__(self, "_interior_cache", {})

    def interior(self, which: int) -> np.ndarray:
        """Pixels of region `which` (1 or 2) at distance > epsilon from its complement."""
        if which not in self._interior_cache:
            region = self.a1 if which == 1 else self.a2
            near_complement = _within_distance(self.grid, ~region, self.epsilon)
            inside = region & ~near_complement
            if not inside.any():
                raise EmptyRegionError(
                    f"region {which} has an empty eps-interior (epsilon={self.epsilon})")
            self._interior_cache[which] = inside
        return self._interior_cache[which]


def hemispheres(grid: CubatureGrid, epsilon: float = 0.0) -> RegionPair:
    """North/south hemispheres; an exact-equator ring belongs to neither."""
    cz = grid.cos_theta_pixels
    return RegionPair(grid=grid, a1=cz > 0.0, a2=cz < 0.0, epsilon=epsilon)


def write_mask(path, mask: SkyMask) -> None:
    """Text format: header `mask v1 j=<j> B=<B> npix=<N>`, one excluded index per line."""
    lines = [f"mask v1 j={mask.grid.j} B={mask.grid.B!r} npix={mask.grid.n_pixels}"]
    lines.extend(str(k) for k in np.flatnonzero(mask.excluded))
    Path(path).write_text("\n".join(lines) + "\n")


def read_mask(path, epsilon: float = 0.0, grid: CubatureGrid | None = None) -> SkyMask:
    """Read a mask file; rebuilds the level grid from the header unless given."""
    lines = [(n, line.strip()) for n, line
             in enumerate(Path(path).read_text().splitlines(), start=1)
             if line.strip()]
    if not lines:
        raise InvalidMaskFileError(f"{path}: empty mask file, no header")
    lineno, header = lines[0]
    m = re.fullmatch(r"mask v1 j=(\d+) B=([0-9.eE+-]+) npix=(\d+)", header)
    if m is None:
        raise InvalidMaskFileError(
            f"{path}:{lineno}: header {header!r} is not "
            f"'mask v1 j=<level> B=<bandwidth> npix=<pixels>'")
    try:
        B = float(m.group(2))
    except ValueError:
        raise InvalidMaskFileError(
            f"{path}:{lineno}: header field B={m.group(2)!r} is not a number") from None
    j, npix = int(m.group(1)), int(m.group(3))
    if grid is None:
        grid = build_cubature(j, B)
    if grid.j != j:
        raise InvalidMaskFileError(
            f"{path}:{lineno}: header field j={j} does not match grid level {grid.j}")
    if grid.n_pixels != npix:
        raise InvalidMaskFileError(
            f"{path}:{lineno}: header field npix={npix} does not match the "
            f"{grid.n_pixels} pixels of the level-{grid.j} grid")
    excluded = np.zeros(npix, dtype=bool)
    for lineno, line in lines[1:]:
        try:
            k = int(line)
        except ValueError:
            raise InvalidMaskFileError(
                f"{path}:{lineno}: {line!r} is not a pixel index") from None
        if not 0 <= k < npix:
            raise InvalidMaskFileError(
                f"{path}:{lineno}: pixel index {k} outside 0..{npix - 1}")
        excluded[k] = True
    return SkyMask(grid=grid, excluded=excluded, epsilon=epsilon)
