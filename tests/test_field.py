"""Tests for spectrum models, Gaussian draws, synthesis, and channels."""

import math
import struct

import numpy as np
import pytest

from spinlets import (SphPoint, draw_alm, eval_cl, observe_channels, power_law,
                      rotate_stokes, synthesize)
from spinlets.errors import (InvalidAlmFileError, InvalidChannelCountError,
                             InvalidDegreeError)
from spinlets.fields import (PowerSpectrumModel, SpinAlm, read_alm, write_alm)

from oracles import wigner_d_factorial


def test_power_law_value():
    model = power_law(3.0, l_min=1)
    assert eval_cl(model, 2) == pytest.approx(0.125)
    with pytest.raises(InvalidDegreeError):
        eval_cl(model, 0)


def test_rational_spectrum_satisfies_condition():
    # C_l = F1(l) / (l^beta F2(l)) with deg q1, q2 has alpha = beta + q2 - q1
    beta, q1, q2 = 2.5, 1, 2
    g_bound = 5.0
    f1 = lambda l: 3.0 * l + 1.0
    f2 = lambda l: l ** 2 + 2.0 * l + 5.0
    model = PowerSpectrumModel(alpha=beta + q2 - q1, l_min=1,
                               g=lambda l: f1(l) * l ** (q2 - q1) / f2(l))
    ells = np.arange(1, 2000)
    direct = f1(ells) / (ells ** beta * f2(ells))
    assert np.allclose(eval_cl(model, ells), direct, rtol=1e-12)
    g_vals = eval_cl(model, ells) * ells ** model.alpha
    assert np.all(g_vals < g_bound) and np.all(g_vals > 1 / g_bound)


def test_model_bounds():
    model = power_law(2.2, l_min=1)
    ells = np.arange(1, 100)
    cl = eval_cl(model, ells)
    assert np.all(cl <= 1.0 * ells ** -2.2 + 1e-15)
    assert np.all(cl >= 1.0 * ells ** -2.2 - 1e-15)


def test_draw_deterministic():
    half = power_law(3.0, l_min=2).scaled(0.5)
    a = draw_alm(half, half, 2, 16, (9, 1))
    b = draw_alm(half, half, 2, 16, (9, 1))
    c = draw_alm(half, half, 2, 16, (9, 2))
    assert np.array_equal(a.alm_e, b.alm_e) and np.array_equal(a.alm_b, b.alm_b)
    assert not np.array_equal(a.alm_e, c.alm_e)


def test_draw_variances_and_independence():
    l, m = 10, 3
    ce, cb = 0.7, 0.3
    me = power_law(3.0, l_min=1, amplitude=ce * 10 ** 3)
    mb = power_law(3.0, l_min=1, amplitude=cb * 10 ** 3)
    n = 20000
    ae = np.empty(n, dtype=complex)
    ab = np.empty(n, dtype=complex)
    for r in range(n):
        alm = draw_alm(me, mb, 2, 12, (4, r))
        ae[r], ab[r] = alm.alm_e[l, m], alm.alm_b[l, m]
    # E|a_lm;E|^2 = C_lE within 3 standard errors
    for sample, want in ((ae, ce), (ab, cb)):
        power = np.abs(sample) ** 2
        se = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - want) < 3 * se
    # E, B independent: sample cross-moment consistent with zero
    cross = ae * np.conj(ab)
    se = cross.real.std(ddof=1) / math.sqrt(n)
    assert abs(cross.real.mean()) < 3 * se
    # E a a (no conjugate) also vanishes for m > 0
    pseudo = ae * ae
    se = pseudo.real.std(ddof=1) / math.sqrt(n)
    assert abs(pseudo.real.mean()) < 3 * se


def test_m0_real():
    half = power_law(3.0, l_min=2).scaled(0.5)
    alm = draw_alm(half, half, 2, 12, 5)
    assert np.all(alm.alm_e[:, 0].imag == 0.0)
    assert np.all(alm.alm_b[:, 0].imag == 0.0)


def test_summability_tail():
    # sum (2l+1) C_l / 4pi converges for alpha > 2: tail beyond L = 1e3 is
    # below 1e-3 of the total for alpha = 3
    model = power_law(3.0, l_min=1)
    ells = np.arange(1, 100_001)
    terms = (2 * ells + 1) * eval_cl(model, ells) / (4 * math.pi)
    tail = terms[ells > 1000].sum()
    assert tail / terms.sum() < 1e-3


def test_synthesize_zero_and_single_mode():
    s, L = 2, 8
    alm = SpinAlm.zeros(s, L)
    pts = [SphPoint(0.3, 0.1), SphPoint(1.2, 2.0), SphPoint(2.8, 5.5)]
    assert np.all(synthesize(alm, pts) == 0.0)
    # single (l=s, m=0) E-mode: profile is norm * d^l_{0,s}(theta)
    alm.alm_e[s, 0] = 1.0
    vals = synthesize(alm, pts)
    for p, v in zip(pts, vals):
        want = math.sqrt((2 * s + 1) / (4 * math.pi)) * \
            wigner_d_factorial(s, 0, s, p.theta)
        assert v == pytest.approx(want + 0j, abs=1e-13)


def test_synthesize_below_the_spin_is_zero():
    # a field of band limit L < |s| carries no degree: its coefficient
    # arrays hold only l < |s| entries, which no Y_lms has
    alm = SpinAlm.zeros(5, 2)
    alm.alm_e[:, :] = 1.0
    pts = [SphPoint(0.0, 0.0), SphPoint(1.2, 2.0), SphPoint(math.pi, 1.0)]
    assert np.all(synthesize(alm, pts) == 0.0)


def test_synthesize_phase_rotation_bookkeeping():
    # synthesizing phase-shifted coefficients equals sampling at phi + dphi
    s, L = 2, 10
    half = power_law(3.0, l_min=2).scaled(0.5)
    alm = draw_alm(half, half, s, L, 77)
    dphi = 0.731
    shifted = alm.copy()
    ms = np.arange(L + 1)
    phase = np.exp(1j * ms * dphi)
    shifted.alm_e *= phase
    shifted.alm_b *= phase
    theta = np.array([0.4, 1.1, 2.3])
    phi = np.array([0.0, 1.0, 3.0])
    a = synthesize(shifted, (theta, phi))
    b = synthesize(alm, (theta, phi + dphi))
    assert np.allclose(a, b, atol=1e-12)
    # z-rotations leave the local frame angle unchanged: spin factor is 1
    assert np.allclose(rotate_stokes(a, 0.0, s=s), a)


def test_isotropy_proxy_under_z_rotation():
    # law invariance: variance of synthesized values at a point set matches
    # the variance at the z-rotated point set across replicates
    s, L, R = 2, 12, 1000
    half = power_law(3.0, l_min=2).scaled(0.5)
    theta = np.array([0.6, 1.0, 1.7, 2.4])
    phi = np.array([0.2, 2.0, 4.1, 5.3])
    rot = 0.83
    a = np.empty((R, theta.size), dtype=complex)
    b = np.empty_like(a)
    for r in range(R):
        alm = draw_alm(half, half, s, L, (606, r))
        a[r] = synthesize(alm, (theta, phi))
        b[r] = synthesize(alm, (theta, (phi + rot) % (2 * math.pi)))
    va = np.abs(a) ** 2
    vb = np.abs(b) ** 2
    for k in range(theta.size):
        diff = va[:, k] - vb[:, k]
        se = diff.std(ddof=1) / math.sqrt(R)
        assert abs(va[:, k].mean() - vb[:, k].mean()) < 3 * se + 1e-12


def test_rotate_stokes():
    assert rotate_stokes(1.0 + 0j, math.pi, s=2) == pytest.approx(1.0 + 0j)
    assert rotate_stokes(1.0 + 0j, math.pi / 2, s=2) == pytest.approx(-1.0 + 0j)
    z = 0.3 - 1.2j
    assert abs(rotate_stokes(z, 0.613, s=2)) == pytest.approx(abs(z))


def test_observe_channels_requires_two():
    half = power_law(3.0, l_min=2).scaled(0.5)
    signal = draw_alm(half, half, 2, 8, 1)
    with pytest.raises(InvalidChannelCountError):
        observe_channels(signal, [power_law(2.5, kind="noise")], seed=0)


def test_observe_channels_zero_noise_and_independence():
    half = power_law(3.0, l_min=2).scaled(0.5)
    signal = draw_alm(half, half, 2, 8, 1)
    silent = [power_law(2.5, l_min=2, kind="noise", amplitude=0.0)] * 3
    chans = observe_channels(signal, silent, seed=3)
    for r in range(3):
        ch = chans.channel(r)
        assert np.array_equal(ch.alm_e, signal.alm_e)
        assert np.array_equal(ch.alm_b, signal.alm_b)
    # nonzero noise: cross-channel noise covariance consistent with zero
    noisy = [power_law(2.5, l_min=2, kind="noise", amplitude=1.0)] * 2
    n = 4000
    prod = np.empty(n, dtype=complex)
    for r in range(n):
        cs = observe_channels(signal, noisy, seed=(8, r))
        prod[r] = cs.noise[0].alm_e[5, 2] * np.conj(cs.noise[1].alm_e[5, 2])
    se = prod.real.std(ddof=1) / math.sqrt(n)
    assert abs(prod.real.mean()) < 3 * se


def test_channel_total_spectrum():
    # per-channel coefficient power approaches C_l + C_lN within 3 s.e.
    s, l, m, R = 2, 5, 2, 4000
    signal_model = power_law(3.0, l_min=2)
    noise = [power_law(2.5, l_min=2, kind="noise", amplitude=1.0)] * 2
    half = signal_model.scaled(0.5)
    power = np.empty(R)
    for r in range(R):
        sig = draw_alm(half, half, s, 8, (13, r, 0))
        chans = observe_channels(sig, noise, (13, r, 1))
        ch = chans.channel(0)
        a = ch.alm_e[l, m] + 1j * ch.alm_b[l, m]
        power[r] = abs(a) ** 2
    want = eval_cl(signal_model, l) + eval_cl(noise[0], l)
    se = power.std(ddof=1) / math.sqrt(R)
    assert abs(power.mean() - want) < 3 * se


def test_synthesize_at_poles():
    s, L = 2, 6
    half = power_law(3.0, l_min=2).scaled(0.5)
    alm = draw_alm(half, half, s, L, 14)
    vals = synthesize(alm, [SphPoint(0.0, 0.0), SphPoint(math.pi, 1.0),
                            SphPoint(1e-9, 0.3)])
    # poles pick out a single order: Y_lms(0, phi) keeps only m = -s, with
    # d^l_{s,s}(0) = 1; Y_lms(pi, phi) keeps only m = +s, with
    # d^l_{-s,s}(pi) = (-1)^(l-s)
    a = alm.full_coeffs()  # [l, m + L]
    north = south = 0.0j
    for l in range(s, L + 1):
        norm = math.sqrt((2 * l + 1) / (4 * math.pi))
        north += a[l, L - s] * (-1) ** s * norm * np.exp(-1j * s * 0.0)
        south += a[l, L + s] * (-1) ** s * norm * (-1) ** (l - s) * np.exp(1j * s * 1.0)
    assert abs(vals[0] - north) < 1e-13 and abs(vals[1] - south) < 1e-13
    near = synthesize(alm, [SphPoint(1e-6, 0.3)])
    assert abs(near[0] - vals[2]) < 1e-4 * max(1.0, abs(vals[2]))


def test_salm_roundtrip(tmp_path):
    half = power_law(3.0, l_min=2).scaled(0.5)
    alm = draw_alm(half, half, 2, 17, 123)
    path = tmp_path / "field.salm"
    write_alm(path, alm)
    raw = path.read_bytes()
    assert raw[:4] == b"SALM"
    n = (17 + 1) * (17 + 2) // 2
    assert len(raw) == 16 + 4 * n * 8
    back = read_alm(path)
    assert back.s == 2 and back.L == 17
    assert np.array_equal(back.alm_e, alm.alm_e)
    assert np.array_equal(back.alm_b, alm.alm_b)


def _salm_bytes(version=1, s=2, L=3, magic=b"SALM", n_doubles=None):
    if n_doubles is None:
        n_doubles = 4 * (L + 1) * (L + 2) // 2
    return magic + struct.pack("<Iii", version, s, L) + bytes(8 * n_doubles)


@pytest.mark.parametrize("raw, reason", [
    (_salm_bytes(magic=b"SNBC"), "magic b'SNBC' is not b'SALM'"),
    (b"", "magic b'' is not b'SALM'"),
    (b"SALM\x01\x00", "header has 6 bytes, SALM v1 needs 16"),
    (_salm_bytes(version=2), "version 2 is not 1"),
    (_salm_bytes(L=-1, n_doubles=0), "band limit L=-1 is negative"),
    (_salm_bytes(L=-7, n_doubles=0), "band limit L=-7 is negative"),
    (_salm_bytes(n_doubles=39), "payload has 312 bytes, L=3 needs 320"),
    (_salm_bytes(n_doubles=41), "payload has 328 bytes, L=3 needs 320"),
    (_salm_bytes()[:-3], "payload has 317 bytes, L=3 needs 320"),
])
def test_read_alm_rejects_malformed_file(tmp_path, raw, reason):
    path = tmp_path / "bad.salm"
    path.write_bytes(raw)
    with pytest.raises(InvalidAlmFileError) as err:
        read_alm(path)
    assert str(err.value) == f"{path}: {reason}"


def test_read_alm_accepts_minimal_file(tmp_path):
    path = tmp_path / "zero.salm"
    path.write_bytes(_salm_bytes(s=0, L=0))
    alm = read_alm(path)
    assert (alm.s, alm.L) == (0, 0)
    assert not np.any(alm.alm_e) and not np.any(alm.alm_b)
