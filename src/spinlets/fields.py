"""Power-spectrum models and Gaussian isotropic spin-field simulation.

A spin-s field is stored through its E/B harmonic coefficients for m >= 0
only; negative orders are implied by the reality constraints
a_{l,-m;E} = conj(a_{lm;E}), a_{l,-m;B} = conj(a_{lm;B}), so the constraint
cannot be violated by construction.  The combined coefficients are
a_{l;ms} = a_{lm;E} + i a_{lm;B} and the field is

    f_s(p) = sum_{lm} a_{l;ms} Y_{lms}(p)        (Q + iU for s = 2).

Gaussian convention: for m > 0 the real and imaginary parts of a_{lm;X} are
i.i.d. N(0, C_lX / 2); a_{l0;X} is real N(0, C_lX).  Hence E|a_{lm;X}|^2 =
C_lX, and the total spin spectrum is C_l = C_lE + C_lB.

All randomness flows through numpy SeedSequence keys built from integer
tuples (base seed, replicate, channel, ...), so draws are reproducible and
order-independent.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InvalidAlmFileError, InvalidChannelCountError, InvalidDegreeError
from .wigner import iter_d_slices


def seed_key(seed) -> tuple:
    """The integer tuple of a seed given as an int or a tuple of ints."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(x) for x in seed)


def rng_from_key(seed) -> np.random.Generator:
    """Generator keyed by an int or tuple of ints (counter-style sub-seeding)."""
    return np.random.default_rng(np.random.SeedSequence(seed_key(seed)))


@dataclass(frozen=True)
class PowerSpectrumModel:
    """Angular power spectrum C_l = amplitude * l^(-alpha) * g(l), l >= l_min.

    g is a slowly varying factor, bounded away from 0 and infinity (g = 1
    when None).  `amplitude` is an overall scale: the total spectrum of a
    field, or a deliberate misscaling when testing noise misspecification.
    """

    alpha: float
    l_min: int = 1
    kind: str = "signal"
    g: Callable | None = None
    amplitude: float = 1.0

    def scaled(self, factor: float) -> "PowerSpectrumModel":
        return replace(self, amplitude=self.amplitude * factor)


def power_law(alpha: float, l_min: int = 1, kind: str = "signal",
              amplitude: float = 1.0) -> PowerSpectrumModel:
    return PowerSpectrumModel(alpha=alpha, l_min=l_min, kind=kind,
                              amplitude=amplitude)


def spin_power_law(alpha: float, s: int, kind: str = "signal",
                   amplitude: float = 1.0) -> PowerSpectrumModel:
    """The power law of a spin-s field: it starts at l = max(1, |s|)."""
    return power_law(alpha, l_min=max(1, abs(s)), kind=kind, amplitude=amplitude)


def eval_cl(model: PowerSpectrumModel, l) -> float | np.ndarray:
    """Spectrum value(s); raises below the model's first nonzero degree."""
    arr = np.asarray(l)
    if np.any(arr < model.l_min):
        raise InvalidDegreeError(
            f"degree below l_min={model.l_min} for {model.kind} model")
    vals = model.amplitude * arr.astype(np.float64) ** (-model.alpha)
    if model.g is not None:
        vals = vals * model.g(arr)
    return float(vals) if np.isscalar(l) else vals


def cl_profile(model: PowerSpectrumModel, ells: np.ndarray) -> np.ndarray:
    """Like eval_cl but returns 0 below l_min (degrees the field does not carry)."""
    ells = np.asarray(ells, dtype=np.int64)
    out = np.zeros(ells.shape, dtype=np.float64)
    ok = ells >= model.l_min
    if np.any(ok):
        out[ok] = eval_cl(model, ells[ok])
    return out


@dataclass(eq=False)
class SpinAlm:
    """Harmonic coefficients of a spin-s field up to band limit L (m >= 0)."""

    s: int
    L: int
    alm_e: np.ndarray  # complex (L+1, L+1), [l, m]; zero where m > l or l < |s|
    alm_b: np.ndarray

    def __post_init__(self):
        expect = (self.L + 1, self.L + 1)
        if self.alm_e.shape != expect or self.alm_b.shape != expect:
            raise ValueError(f"coefficient arrays must have shape {expect}")

    @classmethod
    def zeros(cls, s: int, L: int) -> "SpinAlm":
        shape = (L + 1, L + 1)
        return cls(s=s, L=L, alm_e=np.zeros(shape, dtype=np.complex128),
                   alm_b=np.zeros(shape, dtype=np.complex128))

    def copy(self) -> "SpinAlm":
        return SpinAlm(s=self.s, L=self.L, alm_e=self.alm_e.copy(),
                       alm_b=self.alm_b.copy())

    def __add__(self, other: "SpinAlm") -> "SpinAlm":
        if (self.s, self.L) != (other.s, other.L):
            raise ValueError("cannot add coefficients with different (s, L)")
        return SpinAlm(s=self.s, L=self.L, alm_e=self.alm_e + other.alm_e,
                       alm_b=self.alm_b + other.alm_b)

    def full_coeffs(self) -> np.ndarray:
        """a_{l;ms} for all m in [-L, L]: array [l, m + L].

        Negative orders come from the E/B reality constraints, so
        a_{l,-m;s} = conj(a_{lm;E}) + i conj(a_{lm;B}).
        """
        L = self.L
        out = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
        out[:, L:] = self.alm_e + 1j * self.alm_b
        neg = np.conj(self.alm_e[:, 1:]) + 1j * np.conj(self.alm_b[:, 1:])
        out[:, :L] = neg[:, ::-1]
        return out

    @classmethod
    def from_full(cls, s: int, full: np.ndarray) -> "SpinAlm":
        """The inverse of full_coeffs: a_{lm;E} = (a_{l;ms} + conj a_{l,-m;s})/2,
        a_{lm;B} = -i (a_{l;ms} - conj a_{l,-m;s})/2, zero where m > l."""
        L = full.shape[0] - 1
        alm = cls.zeros(s, L)
        ms = np.arange(L + 1)
        pos = full[:, L:]
        neg = np.concatenate([full[:, L:L + 1], full[:, :L][:, ::-1]], axis=1)
        alm.alm_e[:, :] = 0.5 * (pos + np.conj(neg))
        alm.alm_b[:, :] = -0.5j * (pos - np.conj(neg))
        valid = ms[None, :] <= np.arange(L + 1)[:, None]
        alm.alm_e[~valid] = 0.0
        alm.alm_b[~valid] = 0.0
        return alm

    def norm_squared(self) -> float:
        """sum over all (l, m) of |a_{l;ms}|^2, negative orders included."""
        full = self.full_coeffs()
        return float(np.sum(np.abs(full) ** 2))


def draw_alm(model_e: PowerSpectrumModel, model_b: PowerSpectrumModel,
             s: int, L: int, seed) -> SpinAlm:
    """Independent zero-mean Gaussian E/B coefficients; deterministic in seed."""
    if L < abs(s):
        raise InvalidDegreeError(f"band limit L={L} < |s|={abs(s)}")
    rng = rng_from_key(seed)
    z = rng.standard_normal((2, L + 1, L + 1, 2))
    ells = np.arange(L + 1)
    valid_m = ells[None, :] <= ells[:, None]
    alm = []
    for which, model in enumerate((model_e, model_b)):
        c = cl_profile(model, ells)
        c[ells < abs(s)] = 0.0
        col = np.sqrt(c)[:, None]
        a = (z[which, :, :, 0] + 1j * z[which, :, :, 1]) * (col / math.sqrt(2.0))
        a[:, 0] = z[which, :, 0, 0] * col[:, 0]  # m = 0: real N(0, C_l)
        a[~valid_m] = 0.0
        alm.append(a)
    return SpinAlm(s=s, L=L, alm_e=alm[0], alm_b=alm[1])


def synthesize(alm: SpinAlm, points) -> np.ndarray:
    """Pointwise field values sum_{lm} a_{l;ms} Y_{lms}(p) by direct summation.

    `points` is a sequence of SphPoint or a (theta, phi) array pair; one
    recursion sweep over all their colatitudes, poles included, gives every
    d-value.  Meant for arbitrary point sets; gridded maps go through the
    factorized path in spinlets.transform.
    """
    if isinstance(points, tuple) and len(points) == 2:
        theta = np.asarray(points[0], dtype=np.float64)
        phi = np.asarray(points[1], dtype=np.float64)
    else:
        pts = list(points)
        theta = np.array([p.theta for p in pts])
        phi = np.array([p.phi for p in pts])

    L, s = alm.L, alm.s
    coeffs = alm.full_coeffs()
    out = np.zeros(theta.size, dtype=np.complex128)
    if not np.any(coeffs):
        return out.reshape(theta.shape)

    mu = np.arange(-L, L + 1)
    # d^l_{mu,s} pairs with order m = -mu; phases e^{im phi} = e^{-i mu phi}
    phases = np.exp(-1j * np.outer(mu, phi.ravel()))
    for l, d in iter_d_slices(L, s, theta.ravel()):
        w = coeffs[l, ::-1][(L - l):(L + l + 1)]  # index mu: a_{l,-mu}
        sign = np.where((mu[L - l:L + l + 1] % 2) == 0, 1.0, -1.0)
        norm = math.sqrt((2 * l + 1) / (4.0 * math.pi))
        out += norm * np.einsum(
            "m,mp,mp->p", w * sign, phases[L - l:L + l + 1], d)
    return out.reshape(theta.shape)


def rotate_stokes(value, gamma: float, s: int = 2):
    """Frame rotation by gamma multiplies a spin-s value by exp(i s gamma)."""
    return value * np.exp(1j * s * gamma)


@dataclass(eq=False)
class ChannelSet:
    """Shared signal plus one independent noise draw per detector channel."""

    signal: SpinAlm
    noise: list

    def channel(self, r: int) -> SpinAlm:
        return self.signal + self.noise[r]


def observe_channels(signal: SpinAlm, noise_models, seed) -> ChannelSet:
    """Draw per-channel noise (sub-seeded by channel index) and attach the signal."""
    noise_models = list(noise_models)
    if len(noise_models) < 2:
        raise InvalidChannelCountError(
            "need at least 2 channels (cross-power requires r1 != r2)")
    base = seed_key(seed)
    draws = []
    for r, model in enumerate(noise_models):
        half = model.scaled(0.5)
        draws.append(draw_alm(half, half, signal.s, signal.L, base + (r,)))
    return ChannelSet(signal=signal, noise=draws)


_SALM_MAGIC = b"SALM"


def read_header(raw: bytes, magic: bytes, fields: str, name: str, error: type,
                path) -> tuple:
    """The struct `fields` of a binary header after its `magic`, and the
    payload after the header; `error` names a wrong magic, then a short header."""
    size = len(magic) + struct.calcsize(fields)
    if raw[:len(magic)] != magic:
        raise error(f"{path}: magic {raw[:len(magic)]!r} is not {magic!r}")
    if len(raw) < size:
        raise error(f"{path}: header has {len(raw)} bytes, {name} needs {size}")
    return struct.unpack(fields, raw[len(magic):size]), raw[size:]


def decode_pairs(payload: bytes, error: type, path) -> np.ndarray:
    """The complex values of a little-endian float64 (re, im) payload, bit for
    bit (signed zeros too) in a writable array; `error` names the first
    double that is not finite by its index."""
    data = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise error(f"{path}: payload value {bad[0]} is {data[bad[0]]}, "
                    f"not a finite number")
    return np.frombuffer(payload, dtype="<c16").astype(np.complex128)


def encode_pairs(values: np.ndarray) -> bytes:
    """Complex values as little-endian float64 (re, im) pairs."""
    return np.asarray(values, dtype="<c16").tobytes()


def write_alm(path, alm: SpinAlm) -> None:
    """Binary SALM v1: magic, u32 version, i32 spin, i32 L, packed E then B.

    Float64 (re, im) pairs (see encode_pairs), row-major l ascending, m = 0..l.
    """
    idx = np.tril_indices(alm.L + 1)
    Path(path).write_bytes(_SALM_MAGIC + struct.pack("<Iii", 1, alm.s, alm.L)
                           + encode_pairs(np.concatenate([alm.alm_e[idx],
                                                          alm.alm_b[idx]])))


def read_alm(path) -> SpinAlm:
    """Read a SALM v1 file (see write_alm); a malformed one raises
    InvalidAlmFileError naming the file and the field."""
    (version, s, L), payload = read_header(Path(path).read_bytes(), _SALM_MAGIC,
                                           "<Iii", "SALM v1",
                                           InvalidAlmFileError, path)
    if version != 1:
        raise InvalidAlmFileError(f"{path}: version {version} is not 1")
    if L < 0:
        raise InvalidAlmFileError(f"{path}: band limit L={L} is negative")
    if L < abs(s):
        raise InvalidAlmFileError(f"{path}: band limit L={L} < |s|={abs(s)}")
    n = (L + 1) * (L + 2) // 2
    if len(payload) != 4 * n * 8:
        raise InvalidAlmFileError(
            f"{path}: payload has {len(payload)} bytes, L={L} needs {4 * n * 8}")
    values = decode_pairs(payload, InvalidAlmFileError, path)
    idx = np.tril_indices(L + 1)
    alm = SpinAlm.zeros(s, L)
    alm.alm_e[idx], alm.alm_b[idx] = values[:n], values[n:]
    return alm
