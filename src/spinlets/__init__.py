"""Spin needlet analysis and spectral estimation on the sphere.

Submodules:
    wigner      - Wigner d-matrices, spin spherical harmonics, degree kernel
    window      - needlet window b(.), spin eigenvalues, level supports
    grid        - cubature grids, sky masks, region pairs
    fields      - power-spectrum models, Gaussian spin-field simulation
    transform   - needlet analysis/synthesis and coefficient covariances
    estimators  - spectral estimators, test statistics, subsampling variance
    mc          - Monte Carlo experiment harness and diagnostics
    cli         - batch command-line front end
"""

__version__ = "0.1.0"

from . import errors
from .wigner import SphPoint, wigner_d, wigner_d_slice, spin_sph_harm, kernel_K
from .window import NeedletWindow, build_window, eval_e_ls, window_support
from .grid import (CubatureGrid, SkyMask, RegionPair, build_cubature,
                   geodesic_distance, dilate_mask, hemispheres)
from .fields import (PowerSpectrumModel, SpinAlm, ChannelSet, power_law,
                     eval_cl, draw_alm, synthesize, rotate_stokes, observe_channels)
from .transform import (NeedletCoefficients, needlet_analyze, masked_analyze,
                        needlet_kernel, needlet_synthesize, roundtrip_error,
                        theoretical_cov, theoretical_corr)
from .estimators import (EstimateReport, gamma_theoretical, estimate,
                         estimate_masked, estimate_asymmetry, estimate_ap,
                         estimate_cp, hausman_statistic, subsampling_variance)
from .mc import (ExperimentPlan, DiagnosticsReport, run_experiment,
                 fit_variance_slope, normality_diagnostics)

__all__ = [
    "SphPoint", "wigner_d", "wigner_d_slice", "spin_sph_harm", "kernel_K",
    "NeedletWindow", "build_window", "eval_e_ls", "window_support",
    "CubatureGrid", "SkyMask", "RegionPair", "build_cubature",
    "geodesic_distance", "dilate_mask", "hemispheres", "PowerSpectrumModel",
    "SpinAlm", "ChannelSet", "power_law", "eval_cl", "draw_alm", "synthesize",
    "rotate_stokes", "observe_channels", "NeedletCoefficients",
    "needlet_analyze", "masked_analyze", "needlet_kernel", "needlet_synthesize",
    "roundtrip_error", "theoretical_cov", "theoretical_corr", "EstimateReport",
    "gamma_theoretical", "estimate", "estimate_masked", "estimate_asymmetry",
    "estimate_ap", "estimate_cp", "hausman_statistic", "subsampling_variance",
    "ExperimentPlan", "DiagnosticsReport", "run_experiment",
    "fit_variance_slope", "normality_diagnostics", "errors",
]
