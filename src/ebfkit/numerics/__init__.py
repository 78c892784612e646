"""Numerical foundation: the special functions, distributions and RNG
streams the engines call."""

from ebfkit.numerics.special import (
    log_gamma,
    log_beta,
    normal_quantile,
)
from ebfkit.numerics.distributions import (
    t_log_pdf,
    f_log_pdf,
    chi2_cdf, chi2_sf,
    noncentral_chi2_cdf,
)
from ebfkit.numerics.rng import RngStream

__all__ = [
    "log_gamma", "log_beta", "normal_quantile",
    "t_log_pdf", "f_log_pdf",
    "chi2_cdf", "chi2_sf", "noncentral_chi2_cdf",
    "RngStream",
]
