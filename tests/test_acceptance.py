"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria are evaluated exactly at their stated parameters and tolerances.

Criterion 7 passes.  It compares local envelopes of the needlet, not point
values: the point 2 B^-j lies almost on the first zero of the main lobe, so a
pointwise ratio there measures the node, not the decay, and failed for that
reason (1.3e-2 to 1.5e-2 against the tolerance 1e-2).

Criteria 8 and 10 fail at the stated margin eps = 3 B^-j.  Their printed
lines carry the computed cause: on the same pixels the gap-free estimator
passes criterion 8's tolerances, and the masked value exceeds it on every
replicate by leakage through the cap edge (about 2% of Gamma_j, 0.69 sd at
j = 5).  The leakage does not shrink with j at a fixed multiple of B^-j while
the sd does, so the shift in sd units grows with j (+0.36, +0.69, +1.13
at j = 4, 5, 6).  At j = 5 a margin of 5-6 widths is borderline (KS 0.055,
coupling 0.096) and one of 8 widths passes both; the margin the paper's
masked theorem requires is not settled here, so 3 B^-j is kept.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from spinlets import (build_cubature, build_window, draw_alm, hemispheres,
                      needlet_analyze, needlet_kernel, needlet_synthesize,
                      power_law, theoretical_corr, theoretical_cov)
from spinlets.estimators import (estimate_asymmetry, gamma_theoretical)
from spinlets.mc import (ExperimentPlan, normality_diagnostics, rows_to_csv,
                         run_experiment, fit_variance_slope)
from spinlets.wigner import SphPoint, iter_d_slices
from spinlets.window import band_profile, window_support

from oracles import wigner_d_factorial_mp

B = 2.0
S = 2
THREADS = 2


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- 1
def test_criterion_01_addition_theorem():
    rng = np.random.default_rng(101)
    theta = rng.uniform(0.02, math.pi - 0.02, size=100)
    worst = 0.0
    for s in (0, 1, 2, 3):
        for l, d in iter_d_slices(64, s, theta):
            total = (2 * l + 1) / (4 * math.pi) * np.sum(d ** 2, axis=0)
            worst = max(worst, float(np.max(np.abs(
                total - (2 * l + 1) / (4 * math.pi)))))
    _report(1, worst < 1e-10,
            f"addition theorem, l<=64, s in 0..3, 100 points: "
            f"max |sum - (2l+1)/4pi| = {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------- 2
def test_criterion_02_wigner_oracle():
    angles = (0.1, math.pi / 3, math.pi / 2, 2.5)
    worst = 0.0
    for beta in angles:
        for l in range(0, 21):
            got = {}
            for n in range(-l, l + 1):
                for ll, dcol in iter_d_slices(l, n, np.array([beta])):
                    if ll == l:
                        got[n] = dcol[:, 0]
            refs = wigner_d_factorial_mp(l, beta, dps=40)
            for n in range(-l, l + 1):
                for m in range(-l, l + 1):
                    a = got[n][m + l]
                    ref = refs[m + l, n + l]
                    mag = max(abs(a), abs(ref))
                    if mag > 1e-12:
                        worst = max(worst, abs(a - ref) / mag)
    _report(2, worst < 1e-10,
            f"recursion vs factorial-sum oracle, l<=20, 4 angles: "
            f"max rel err = {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------- 3
def test_criterion_03_cubature_exactness():
    grid = build_cubature(5, B)
    L = 32
    worst = 0.0
    for s in (0, 2):
        tables = {}
        for l, d in iter_d_slices(L, s, grid.theta):
            if l >= abs(s):
                tables[l] = d  # rows mu = -l..l: d^l_{mu,s}(theta_i)
        # theta-part of Y_lms: (-1)^m sqrt((2l+1)/4pi) d^l_{-m,s}
        gfun = {}
        for l in tables:
            norm = math.sqrt((2 * l + 1) / (4 * math.pi))
            for m in range(-l, l + 1):
                sign = -1.0 if m % 2 else 1.0
                gfun[(l, m)] = sign * norm * tables[l][-m + l]
        # pixel sum factorizes: azimuthal root-of-unity sum times ring sum
        # (ring weights already carry the 2pi/n_phi pixel factor)
        azim = {}
        for dm in range(-2 * L, 2 * L + 1):
            azim[dm] = complex(np.sum(np.exp(1j * dm * grid.phi)))
        keys = sorted(gfun)
        w = grid.ring_weights
        for (l1, m1) in keys:
            for (l2, m2) in keys:
                az = azim[m2 - m1]
                if abs(az) < 1e-10 * grid.n_phi and l1 != l2:
                    continue  # bounded by |az| * O(1/n_phi) << tol
                ring = float(np.sum(w * gfun[(l1, m1)] * gfun[(l2, m2)]))
                val = az * ring
                want = 1.0 if (l1, m1) == (l2, m2) else 0.0
                worst = max(worst, abs(val - want))
    _report(3, worst < 1e-8,
            f"spin-harmonic Gram identity on the j=5 grid, s in (0,2), l<=32: "
            f"max |G - I| = {worst:.2e} (tol 1e-8)")


# ---------------------------------------------------------------- 4
def test_criterion_04_tight_frame_isometry():
    L = 30
    half = power_law(3.0, l_min=2).scaled(0.5)
    alm = draw_alm(half, half, S, L, 404)
    alm.alm_e[S, :] = 0.0  # the e_ls = 0 degree is outside every window
    alm.alm_b[S, :] = 0.0
    levels = [needlet_analyze(alm, build_cubature(j, B))
              for j in range(0, 7)]
    recon = needlet_synthesize(levels, L=L)
    err = max(float(np.max(np.abs(recon.alm_e - alm.alm_e))),
              float(np.max(np.abs(recon.alm_b - alm.alm_b))))
    total_beta = sum(float(np.sum(np.abs(c.values) ** 2)) for c in levels)
    norm = alm.norm_squared()
    parseval = abs(total_beta - norm) / norm
    _report(4, err < 1e-8 and parseval < 1e-8,
            f"round trip max coeff err = {err:.2e} (tol 1e-8), "
            f"Parseval rel resid = {parseval:.2e} (tol 1e-8)")


# ---------------------------------------------------------------- 5
def test_criterion_05_coefficient_covariance():
    j, R = 4, 10_000
    win = build_window(B)
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    half = model.scaled(0.5)
    sup = window_support(win, j, S)
    L = sup.stop - 1
    rng = np.random.default_rng(505)
    pix = rng.choice(grid.n_pixels, size=100, replace=False)
    pairs = [(int(pix[2 * i]), int(pix[2 * i + 1])) for i in range(50)]

    # Y matrix over support coefficients at the chosen pixels
    idx_l = np.concatenate([np.full(2 * l + 1, l) for l in sup])
    idx_m = np.concatenate([np.arange(-l, l + 1) for l in sup])
    th = grid.theta_pixels[pix]
    ph = grid.phi_pixels[pix]
    rows = []
    for l, d in iter_d_slices(L, S, th):
        if l < sup.start:
            continue
        norm = math.sqrt((2 * l + 1) / (4 * math.pi))
        m = np.arange(-l, l + 1)
        sign = np.where(m % 2 == 0, 1.0, -1.0)
        rows.append(sign[:, None] * norm * np.exp(1j * np.outer(m, ph))
                    * d[::-1])  # row mu = -m
    Y = np.vstack(rows)
    b = band_profile(win, j, S, idx_l)
    scale = np.sqrt(grid.weights[pix])

    beta = np.empty((R, 100), dtype=complex)
    batch, done = 500, 0
    while done < R:
        nb = min(batch, R - done)
        cs = np.empty((nb, idx_l.size), dtype=complex)
        for r in range(nb):
            alm = draw_alm(half, half, S, L, (505, done + r))
            cs[r] = alm.full_coeffs()[idx_l, idx_m + L]
        beta[done:done + nb] = (cs * b) @ Y * scale
        done += nb

    bad = []
    for (k1, k2) in pairs:
        i1, i2 = list(pix).index(k1), list(pix).index(k2)
        prod = beta[:, i1] * np.conj(beta[:, i2])
        theo = theoretical_cov(grid, model, k1, k2, S)
        for emp, want, se in (
                (prod.real.mean(), theo.real, prod.real.std(ddof=1) / math.sqrt(R)),
                (prod.imag.mean(), theo.imag, prod.imag.std(ddof=1) / math.sqrt(R))):
            if abs(emp - want) > 3 * se:
                bad.append((k1, k2, abs(emp - want) / se))
    _report(5, not bad,
            f"empirical vs theoretical covariance at 50 pairs, R=1e4: "
            f"{50 - len(set((b[0], b[1]) for b in bad))}/50 pairs within 3 s.e."
            + (f", worst {max(b[2] for b in bad):.2f} s.e." if bad else ""))


# ---------------------------------------------------------------- 6
def test_criterion_06_uncorrelation_decay():
    j = 5
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    k0 = (grid.n_theta // 2) * grid.n_phi  # equator ring, phi = 0
    ring = grid.n_theta // 2
    partners, dists = [], []
    p0 = grid.point(k0)
    for q in range(1, grid.n_phi // 2):
        k = ring * grid.n_phi + q
        partners.append(k)
    for i in range(grid.n_theta):
        if i != ring:
            partners.append(i * grid.n_phi)
    from spinlets.grid import geodesic_distance
    scale = B ** (-j)
    xs, ys = [], []
    for k in partners:
        d = geodesic_distance(p0, grid.point(k))
        if d < 5 * scale or d > 64 * scale:
            continue  # stay below the antipodal focusing region
        corr = abs(theoretical_corr(grid, model, k0, k, S))
        xs.append(math.log1p(B ** j * d))
        ys.append(corr)
    xs, ys = np.array(xs), np.array(ys)
    bins = np.linspace(xs.min(), xs.max() + 1e-9, 9)
    env_x, env_y = [], []
    for lo, hi in zip(bins[:-1], bins[1:]):
        sel = (xs >= lo) & (xs < hi)
        if sel.any():
            env_x.append(xs[sel].mean())
            env_y.append(ys[sel].max())
    env_x, env_y = np.array(env_x), np.array(env_y)
    slope = np.polyfit(env_x, np.log(env_y), 1)[0]
    monotone = np.all(env_y[1:] <= env_y[:-1] * 1.1)
    _report(6, slope <= -3.0 and monotone,
            f"correlation envelope exponent = {-slope:.2f} (need >= 3), "
            f"envelope monotone: {monotone}")


# ---------------------------------------------------------------- 7
def _abs_psi(job):
    """|psi_jk0| at distance t south of the equatorial pixel k0 (phi = 0)."""
    j, t = job
    grid = build_cubature(j, B)
    k0 = (grid.n_theta // 2) * grid.n_phi
    p = SphPoint(grid.theta_pixels[k0] + t, 0.0)
    return abs(needlet_kernel(grid, k0, p, S))


def test_criterion_07_localization():
    # The bound |psi_jk(x)| <= C_M B^j / (1 + B^j d)^M is an envelope bound,
    # and a point value at 2 B^-j sits almost on the main lobe's first zero
    # (|psi| ~ 0.013 of the peak there).  So local envelopes are compared:
    # max |psi| over the shell [d, d + pi B^-j], half an oscillation of the
    # window's central degree l ~ B^j, sampled at 7 points on the meridian.
    # The 42 kernel sums run on the pool, costliest level first.
    shells = {(j, d): np.linspace(d, d + math.pi, 7) * B ** (-j)
              for j in (6, 5, 4) for d in (2, 20)}
    jobs = [(j, t) for (j, _), ts in shells.items() for t in ts]
    with ProcessPoolExecutor(THREADS) as pool:
        psi = dict(zip(jobs, pool.map(_abs_psi, jobs)))
    env = {(j, d): max(psi[(j, t)] for t in ts)
           for (j, d), ts in shells.items()}
    ratios = {j: env[(j, 20)] / env[(j, 2)] for j in (4, 5, 6)}
    ok = all(r <= 1e-2 for r in ratios.values())
    detail = ", ".join(f"j={j}: {r:.3e}" for j, r in ratios.items())
    _report(7, ok, f"max|psi| on [d, d + pi B^-j], d = 20 B^-j over "
                   f"d = 2 B^-j (tol <= 1e-2): {detail}")


# ---------------------------------------------------------------- 8 & 10
# Both criteria run at the fixed margin eps = 3 B^-j.  The nearest observed
# pixels then lie on the needlet's first sidelobe, so masked coefficients
# pick up power from across the cap edge.  Each printed line carries that
# leakage as a computed number: the gap-free estimator on the same observed
# pixels, and the signed masked-minus-gap-free shift.
@pytest.fixture(scope="module")
def masked_clt_run():
    plan = ExperimentPlan(B=B, s=S, j_list=(5,), alpha=3.0, replicates=1000,
                          base_seed=20240501, kinds=("masked", "unfeasible"),
                          mask_fraction=0.10, epsilon_scale=3.0)
    _, rows = run_experiment(plan, threads=THREADS)
    out = {"masked": [], "unfeasible": []}
    for (r, j, kind, v, t, vv, s) in rows:
        out[kind].append((v, t, s))
    return out


def test_criterion_08_masked_clt(masked_clt_run):
    std = np.array([s for _, _, s in masked_clt_run["masked"]])
    d = normality_diagnostics(std)
    g = normality_diagnostics([s for _, _, s in masked_clt_run["unfeasible"]])
    ok = abs(d.mean) < 0.1 and abs(d.variance - 1.0) < 0.25 \
        and d.ks_distance < 0.05
    _report(8, ok,
            f"masked CLT (cap 10%, eps=3B^-j, j=5, R=1000): "
            f"mean={d.mean:+.3f} (tol 0.1), var={d.variance:.3f} (tol 1+-0.25), "
            f"KS={d.ks_distance:.3f} (tol 0.05); gap-free on the same pixels: "
            f"mean={g.mean:+.3f}, var={g.variance:.3f}, KS={g.ks_distance:.3f}")


def test_criterion_10_coupling(masked_clt_run):
    m = np.array([v for v, _, _ in masked_clt_run["masked"]])
    u = np.array([v for v, _, _ in masked_clt_run["unfeasible"]])
    gamma = masked_clt_run["masked"][0][1]
    ratio = u.var(ddof=1) / m.var(ddof=1)
    coupling = float(np.mean(np.abs(m - u)) / m.std(ddof=1))
    leak = float(np.mean(m) - np.mean(u))
    ok = 0.95 <= ratio <= 1.05 and coupling < 0.1
    _report(10, ok,
            f"gap-free/masked couplings at criterion-8 setup: "
            f"Var ratio={ratio:.3f} (tol [0.95, 1.05]), "
            f"mean|diff|/sd={coupling:.3f} (tol 0.1); leakage "
            f"(mean(m)-mean(u))/sd(m)={leak / m.std(ddof=1):+.3f} "
            f"= {leak / gamma:.2e} of Gamma, "
            f"share m > u = {float(np.mean(m > u)):.3f}")


# ---------------------------------------------------------------- 9
def test_criterion_09_variance_scaling():
    plan = ExperimentPlan(B=B, s=S, j_list=(3, 4, 5, 6, 7), alpha=3.0,
                          gamma=2.5, noise_level=1.0, channels=3,
                          replicates=150, base_seed=20240504,
                          kinds=("masked", "ap", "cp"), mask_fraction=0.0)
    _, rows = run_experiment(plan, threads=THREADS)
    values = {}
    for (r, j, kind, v, t, vv, s) in rows:
        values.setdefault((kind, j), []).append(v)
    results = {}
    for kind, alpha_eff in (("masked", 3.0), ("ap", 2.5), ("cp", 2.5)):
        js = sorted(j for (k, j) in values if k == kind)
        var = [float(np.var(values[(kind, j)], ddof=1)) for j in js]
        slope, se = fit_variance_slope(js, var)
        want = 2.0 * (1.0 - alpha_eff) * math.log(B)
        results[kind] = (slope, want, abs(slope - want) / abs(want))
    ok = all(rel <= 0.15 for _, _, rel in results.values())
    detail = "; ".join(f"{k}: slope={s:.3f} vs {w:.3f} ({rel * 100:.1f}%)"
                       for k, (s, w, rel) in results.items())
    _report(9, ok, f"log-variance slopes over j=3..7 (tol 15%): {detail}")


# ---------------------------------------------------------------- 11
def test_criterion_11_asymmetry_null():
    j, R = 5, 1000
    win = build_window(B)
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    half = model.scaled(0.5)
    regions = hemispheres(grid, epsilon=3.0 * B ** (-j))
    gamma = gamma_theoretical(win, model, j, S)
    sup = window_support(win, j, S)
    std, z1, z2 = [], [], []
    for r in range(R):
        alm = draw_alm(half, half, S, sup.stop - 1, (777, r))
        coeffs = needlet_analyze(alm, grid)
        rep = estimate_asymmetry(coeffs, regions, model)
        std.append(rep.standardized)
        z1.append((rep.meta["region1_value"] - gamma)
                  / math.sqrt(rep.meta["region1_variance"]))
        z2.append((rep.meta["region2_value"] - gamma)
                  / math.sqrt(rep.meta["region2_variance"]))
    d = normality_diagnostics(np.array(std))
    cross = float(np.mean((np.array(z1) - np.mean(z1))
                          * (np.array(z2) - np.mean(z2))))
    ok = abs(d.mean) < 0.1 and abs(d.variance - 1.0) < 0.25 \
        and d.ks_distance < 0.05 and abs(cross) < 0.1
    _report(11, ok,
            f"hemispheric null (R=1000): mean={d.mean:+.3f}, "
            f"var={d.variance:.3f}, KS={d.ks_distance:.3f}, "
            f"cross-region cov={cross:+.3f} (tol 0.1)")


# ---------------------------------------------------------------- 12 & 13
@pytest.fixture(scope="module")
def channel_null_run():
    plan = ExperimentPlan(B=B, s=S, j_list=(5,), alpha=3.0, gamma=2.5,
                          noise_level=1.0, channels=3, replicates=1000,
                          base_seed=778, kinds=("ap", "cp", "hausman"))
    _, rows = run_experiment(plan, threads=THREADS)
    out = {}
    for (r, j, kind, v, t, vv, s) in rows:
        out.setdefault(kind, []).append((v, t, s))
    return out


def test_criterion_12_ap_cp_unbiased(channel_null_run):
    msgs, ok = [], True
    for kind in ("ap", "cp"):
        vals = np.array([v for v, _, _ in channel_null_run[kind]])
        target = channel_null_run[kind][0][1]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        dev = abs(vals.mean() - target) / se
        ok = ok and dev < 3.0
        msgs.append(f"{kind}: dev = {dev:.2f} s.e.")
    _report(12, ok, f"AP/CP unbiasedness (D=3, gamma=2.5, R=1000): "
                    + ", ".join(msgs) + " (tol 3 s.e.)")


def test_criterion_13_hausman(channel_null_run):
    # identity to machine precision, per realization
    win = build_window(B)
    grid = build_cubature(4, B)
    model = power_law(3.0, l_min=2)
    noise = [power_law(2.5, l_min=2, kind="noise", amplitude=1.0)] * 3
    half = model.scaled(0.5)
    from spinlets.estimators import estimate_hausman
    from spinlets.fields import observe_channels
    worst_resid = 0.0
    sup = window_support(win, 4, S)
    for r in range(20):
        signal = draw_alm(half, half, S, sup.stop - 1, (20240513, r, 0))
        chans = observe_channels(signal, noise, (20240513, r, 1))
        coeffs = [needlet_analyze(chans.channel(c), grid)
                  for c in range(3)]
        rep = estimate_hausman(coeffs, noise, model)
        worst_resid = max(worst_resid, rep.meta["identity_residual"])
    # null statistic at criterion-8 tolerances
    std = np.array([s for _, _, s in channel_null_run["hausman"]])
    d = normality_diagnostics(std)
    # misspecified noise bias (x1.5) drives the statistic beyond +3
    plan = ExperimentPlan(B=B, s=S, j_list=(5,), alpha=3.0, gamma=2.5,
                          noise_level=1.0, channels=3, replicates=100,
                          base_seed=20240514, kinds=("hausman",),
                          noise_bias_factor=1.5)
    _, rows = run_experiment(plan, threads=THREADS)
    shift = float(np.mean([r[6] for r in rows]))
    ok = worst_resid < 1e-10 and abs(d.mean) < 0.1 \
        and abs(d.variance - 1.0) < 0.25 and d.ks_distance < 0.05 \
        and shift > 3.0
    _report(13, ok,
            f"hausman: identity resid={worst_resid:.1e} (tol 1e-10); null "
            f"mean={d.mean:+.3f}, var={d.variance:.3f}, KS={d.ks_distance:.3f}; "
            f"misspecified mean={shift:+.1f} (need > 3)")


# ---------------------------------------------------------------- 14
def test_criterion_14_determinism():
    plan = ExperimentPlan(B=B, s=S, j_list=(4,), alpha=3.0, replicates=10,
                          base_seed=20240515, kinds=("masked", "unfeasible"),
                          mask_fraction=0.10, epsilon_scale=3.0)
    _, rows1 = run_experiment(plan, threads=1)
    _, rows2 = run_experiment(plan, threads=2)
    _, rows3 = run_experiment(plan, threads=1)
    csv1, csv2, csv3 = map(rows_to_csv, (rows1, rows2, rows3))
    ok = csv1 == csv2 == csv3
    _report(14, ok, "same plan and seed give byte-identical raw tables at "
                    "thread counts 1 and 2")
