"""Cubature grids per needlet level, sky masks, dilation, and region pairs.

A level-j grid is ceil(B^(j+1)) + 1 Gauss-Legendre rings in cos(theta), all
with the same 2*ceil(B^(j+1)) + 1 equispaced longitudes; pixel weight
lambda_k = (GL weight) * 2pi / n_phi.  It integrates products of two spin
harmonics exactly up to degree band_limit = 2*ceil(B^(j+1)), the only
property the estimators rely on.  Pixels are ring-major, k = i_theta * n_phi
+ i_phi, rings from the north pole down, phi ascending from 0.  Dilation is
ring-local: a pixel on ring i is >= |theta_i - theta_k| from all of ring k.
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
from .window import NeedletWindow, build_window, check_bandwidth

MAX_PIXELS = 8_000_000  # largest grid any level may build


@dataclass(frozen=True)
class CubatureGrid:
    """Cubature points xi_jk, weights lambda_jk and window b(./B^j) of level j.

    The pair (j, B) fixes the level: the rings and the window are built from
    it, so every function of a level reads j, B and the window from its grid.
    Grids are equal, and hash alike, iff their (j, B) are.  The ring arrays
    are read-only, so one grid can be shared (see build_cubature).
    """

    j: int
    B: float
    # from (j, B): ring colatitudes (ascending), GL nodes, longitudes, weights
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    cos_theta: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    ring_weights: np.ndarray = field(init=False, repr=False, compare=False)
    window: NeedletWindow = field(init=False, repr=False, compare=False)
    # (packed selection, block count) -> its estimator state, filled by
    # estimators._selection (see _GRIDS below)
    _selections: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("level j must be >= 0")
        n = grid_size(self.j, self.B)
        n_theta, n_phi = n + 1, 2 * n + 1
        x, w = np.polynomial.legendre.leggauss(n_theta)
        x, w = x[::-1], w[::-1]  # theta ascending = cos(theta) descending
        object.__setattr__(self, "theta", np.arccos(np.clip(x, -1.0, 1.0)))
        object.__setattr__(self, "cos_theta", x)
        object.__setattr__(self, "phi", 2.0 * math.pi * np.arange(n_phi) / n_phi)
        object.__setattr__(self, "ring_weights", w * (2.0 * math.pi / n_phi))
        object.__setattr__(self, "window", build_window(self.B))
        for values in (self.theta, self.cos_theta, self.phi, self.ring_weights):
            values.flags.writeable = False

    @property
    def n_theta(self) -> int:
        return self.theta.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def band_limit(self) -> int:
        """Exactness degree 2n of the n + 1 Gauss-Legendre rings."""
        return 2 * (self.n_theta - 1)

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
        st, ph = np.sqrt(1.0 - self.cos_theta_pixels ** 2), self.phi_pixels
        return np.column_stack([st * np.cos(ph), st * np.sin(ph), self.cos_theta_pixels])

    @property
    def fingerprint(self) -> tuple:
        """(j, B, n_theta, n_phi) as plain numbers; grids compare with ==."""
        return (self.j, round(self.B, 12), self.n_theta, self.n_phi)

    def point(self, k: int) -> SphPoint:
        i, q = divmod(int(k), self.n_phi)
        return SphPoint(float(self.theta[i]), float(self.phi[q]))


def grid_size(j: int, B: float) -> int:
    """n = ceil(B^(j+1)) of the level-j grid (n + 1 rings of 2n + 1 pixels);
    refuses B by check_bandwidth, then ResourceLimitError past the pixel cap."""
    check_bandwidth(B)
    if (j + 1) * math.log(B) > math.log(MAX_PIXELS):  # before B^(j+1) overflows
        raise ResourceLimitError(f"level j={j} needs > {MAX_PIXELS} pixels (cap)")
    n = math.ceil(B ** (j + 1))
    if (n + 1) * (2 * n + 1) > MAX_PIXELS:
        raise ResourceLimitError(
            f"level j={j} needs {(n + 1) * (2 * n + 1)} pixels > cap {MAX_PIXELS}")
    return n


# (j, B) -> the one grid of that level this process builds; grids are small
# (rings and longitudes only), and transform holds the one harmonic table.
# A grid owns its selection memo (_selections, keyed by the packed bits of a
# pixel selection and the block count asked for): the estimators' block
# partition of each selection, stored as runs of labels, with its block
# weights and sum lambda
_GRIDS: dict = {}


def build_cubature(j: int, B: float) -> CubatureGrid:
    """The level-j grid; exact for harmonic products up to 2*ceil(B^(j+1)).

    Built once per (j, B) in a process: later calls return the same grid.
    """
    key = (j, float(B))
    if key not in _GRIDS:
        _GRIDS[key] = CubatureGrid(j=j, B=float(B))
    return _GRIDS[key]


def header_grid(j: int, B: float, npix: int, error: type, where: str) -> CubatureGrid:
    """The grid a file header's (j, B, npix) names, or `error` naming the
    header field after `where` (the file, and its line in a text format)."""
    try:
        grid = build_cubature(j, B)
    except (InvalidBandwidthError, ResourceLimitError) as exc:
        name = f"B={B}" if isinstance(exc, InvalidBandwidthError) else f"j={j}"
        raise error(f"{where}: header field {name}: {exc}") from None
    if grid.n_pixels != npix:
        raise error(f"{where}: header field npix={npix} does not match the "
                    f"{grid.n_pixels} pixels of the level-{j} grid at B={B!r}")
    return grid


def geodesic_distance(p: SphPoint, q: SphPoint) -> float:
    """Great-circle distance: arccos of the clamped inner product."""
    dot = (math.sin(p.theta) * math.sin(q.theta) * math.cos(p.phi - q.phi)
           + math.cos(p.theta) * math.cos(q.theta))
    return math.acos(min(1.0, max(-1.0, dot)))


def _within_distance(grid: CubatureGrid, targets: np.ndarray, epsilon: float) -> np.ndarray:
    """Boolean per pixel: geodesic distance to the target pixel set <= epsilon.

    The closed test, unit-vector dot >= cos(epsilon), runs per ring pair and
    only where |theta_i - theta_k| <= epsilon + 1e-9: a pair farther apart in
    theta is farther apart on the sphere, by more than the dot's rounding
    (rings lie ~pi / n_theta apart).  Extra memory: n_phi^2 dots.
    """
    out = targets.copy()
    if epsilon <= 0.0 or not targets.any() or targets.all():
        return out
    vec = grid.unit_vectors.reshape(grid.n_theta, grid.n_phi, 3)
    hit, near = targets.reshape(vec.shape[:2]), out.reshape(vec.shape[:2])
    cos_eps = math.cos(min(epsilon, math.pi))
    rings = np.flatnonzero(hit.any(axis=1))
    for i in np.flatnonzero(~hit.all(axis=1)):
        gap = np.abs(grid.theta[rings] - grid.theta[i])
        for k in rings[np.argsort(gap)][:np.count_nonzero(gap <= epsilon + 1e-9)]:
            todo = np.flatnonzero(~near[i])  # pixels of ring i not yet covered
            if todo.size == 0:
                break
            near[i, todo] = (vec[i, todo] @ vec[k, hit[k]].T).max(axis=1) >= cos_eps
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
    dilated: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon={self.epsilon} must be >= 0")
        excl = np.asarray(self.excluded, dtype=bool)
        if excl.shape != (self.grid.n_pixels,):
            raise ValueError("mask length does not match grid pixel count")
        object.__setattr__(self, "excluded", excl)
        object.__setattr__(self, "dilated",
                           _within_distance(self.grid, excl, self.epsilon))
        if self.dilated.all():
            raise EmptyObservedRegionError("no pixel survives the mask after dilation")

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
    return SkyMask(grid=mask.grid, excluded=mask.excluded, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class RegionPair:
    """Two disjoint pixel regions used by the asymmetry statistic."""

    grid: CubatureGrid
    a1: np.ndarray = field(repr=False)
    a2: np.ndarray = field(repr=False)
    epsilon: float = 0.0
    # which (1 or 2) -> eps-interior of that region, computed on first use
    _interior_cache: dict = field(default_factory=dict, init=False,
                                  compare=False, repr=False)

    def __post_init__(self):
        a1, a2 = (np.asarray(a, dtype=bool) for a in (self.a1, self.a2))
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        if a1.shape != (self.grid.n_pixels,) or a2.shape != (self.grid.n_pixels,):
            raise ValueError("region length does not match grid pixel count")
        if (a1 & a2).any():
            raise EmptyRegionError("regions are not disjoint")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon={self.epsilon} must be >= 0")

    def interior(self, which: int) -> np.ndarray:
        """Pixels of region `which` (1 or 2) at distance > epsilon from its complement."""
        if which not in self._interior_cache:
            region = self.a1 if which == 1 else self.a2
            inside = region & ~_within_distance(self.grid, ~region, self.epsilon)
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


def read_mask(path, epsilon: float = 0.0) -> SkyMask:
    """Read a mask file on the grid its header names, level j at bandwidth B."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidMaskFileError(
            f"{path}: byte {exc.start} is not UTF-8") from None
    lines = [(n, line.strip()) for n, line
             in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise InvalidMaskFileError(f"{path}: empty mask file, no header")
    lineno, header = lines[0]
    m = re.fullmatch(r"mask v1 j=(\d+) B=([0-9.eE+-]+) npix=(\d+)", header)
    if m is None:
        raise InvalidMaskFileError(
            f"{path}:{lineno}: header {header!r} is not "
            f"'mask v1 j=<level> B=<bandwidth> npix=<pixels>'")
    j, npix = int(m[1]), int(m[3])  # digits only; B may still not parse
    try:
        B = float(m[2])
    except ValueError:
        raise InvalidMaskFileError(f"{path}:{lineno}: header field "
                                   f"B={m[2]!r} is not a number") from None
    grid = header_grid(j, B, npix, InvalidMaskFileError, f"{path}:{lineno}")
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
