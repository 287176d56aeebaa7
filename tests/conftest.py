"""Shared test helpers.

moment_matched_scan builds a noiseless scan whose squared samples equal
the model variance exactly at each grid phase.  On an equispaced grid
covering whole periods the empirical Fourier sums then reproduce the
population moments to machine precision, which turns estimator
inversion identities into exact tests.

fit_moments reads the Fourier moments (C0, C2) that fit_estimate forms,
as its call to ``estimators._fit_row`` receives them.

closed_form_half_width_tol bounds the relative gap between the closed-form
and the discrete angle half-width where ``bounds.phase_average_is_exact``
holds.

column_rows and column_results read the rows of an ``estimators.Estimates``
back as finished rows and as the EstimateResults a one-row finish builds.

Every property test runs under one Hypothesis profile: deterministic
examples, no example database and no per-example deadline, so a test's
``@settings`` gives only its example count.
"""

from unittest import mock

import numpy as np
from hypothesis import settings

from squeezelab import (
    DhdBatch,
    HomodyneScan,
    ScanConfig,
    StateParams,
    estimators,
    eval_variance,
    fit_estimate,
    state_covariance,
)

settings.register_profile("squeezelab", deadline=None, derandomize=True, database=None)
settings.load_profile("squeezelab")


def moment_matched_scan(params, n_psi=900, n=2):
    cfg = ScanConfig(n_psi=n_psi, n=n)
    phases = cfg.phase_grid()
    samples = np.sqrt(eval_variance(params, phases))
    return HomodyneScan(phases=phases, samples=samples)


def fit_moments(scan):
    """(C0, C2) = (mean q^2, mean q^2 exp(-2i psi)) as ``fit_estimate`` forms them."""
    with mock.patch.object(estimators, "_fit_row", wraps=estimators._fit_row) as finish:
        fit_estimate(scan)
    c0, mc, ms = finish.call_args.args
    return c0, complex(mc, -ms)


def closed_form_half_width_tol(s):
    """4 eps (1 + 1/s^2), the discrete Fisher kernel's rounding (its rows lose
    eps / s^2 on the squeezed axis), plus the aliasing bound, at most eps
    where ``bounds.phase_average_is_exact`` holds."""
    eps = np.finfo(float).eps
    return 4.0 * eps * (1.0 + 1.0 / (s * s)) + eps


def column_rows(est) -> list:
    """Each row of an Estimates as the finished-row tuple it came from."""
    flags = list(est.flags.values())
    return [(p, physical, iterations, *(col[i] for col in flags))
            for i, (p, physical, iterations) in enumerate(zip(*est[:3]))]


def column_results(method, est, cov=lambda params, i: None, priors=None) -> list:
    """Each row i of an Estimates as the EstimateResult a one-row finish
    builds of it (``estimators._result``): with the covariance
    ``cov(params, i)``, none by default, and ``priors`` as MoM's priors."""
    return [estimators._result(method, tuple(est.flags), row, lambda p, i=i: cov(p, i),
                               None if priors is None else priors[i])
            for i, row in enumerate(column_rows(est))]


def grid_points():
    """10 x 10 x 4 parameter grid used by the exactness identities."""
    out = []
    for s in np.linspace(0.08, 0.96, 10):
        for k in np.linspace(1.0, 3.7, 10):
            for phi in (0.0, 0.6, 1.57, 2.9):
                out.append(StateParams(float(s), float(k), float(phi)))
    return out


def exact_moment_batch(params, mu=4000, seed=9):
    """DHD pairs whose raw second moments equal Gamma_theta + I exactly."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(mu, 2))
    raw = z.T @ z / mu
    white = z @ np.linalg.inv(np.linalg.cholesky(raw)).T
    target = state_covariance(params) + np.eye(2)
    data = white @ np.linalg.cholesky(target).T
    return DhdBatch(q1=data[:, 0], p2=data[:, 1])
