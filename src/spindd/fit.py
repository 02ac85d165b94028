"""Weighted nonlinear least squares for decay curves and power laws.

S(t) = A exp(-(t/T)^p) + c is linear in A and the offset c is pinned, so
``fit_decay`` projects A out (variable projection: Golub and Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)).  Each trial (log T, p) gets its weighted
least-squares A in closed form, and a damped Gauss-Newton iteration moves the
free nonlinear parameters alone, from the regression of log(-log(S/A)) on
log t.  Parameter uncertainties come from the local quadratic model at the
optimum, cov = (J^T W J)^-1 with W = diag(1/sigma^2), J over every free
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass
class DecayFit:
    model: str  # "stretched_exp" | "exponential" | "power_law"
    params: Dict[str, float]
    uncertainties: Dict[str, float]
    residual_norm: float
    converged: bool


class FitError(RuntimeError):
    pass


def _gauss_newton(residual_jac, theta0, max_iter=200, tol=1e-14):
    """Damped Gauss-Newton; residual_jac(theta) -> (r, J) with weights folded in."""
    theta = np.asarray(theta0, dtype=float)
    r, J = residual_jac(theta)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        A = J.T @ J
        g = J.T @ r
        try:
            step = np.linalg.solve(A + lam * np.diag(np.maximum(np.diag(A), 1e-300)), -g)
        except np.linalg.LinAlgError:
            lam *= 10
            continue
        new = theta + step
        r_new, J_new = residual_jac(new)
        cost_new = float(r_new @ r_new)
        if math.isfinite(cost_new) and cost_new <= cost:
            rel = abs(cost - cost_new) / max(cost, 1e-300)
            theta, r, J, cost = new, r_new, J_new, cost_new
            lam = max(lam * 0.3, 1e-12)
            if rel < tol or float(np.max(np.abs(step))) < 1e-15:
                converged = True
                break
        else:
            lam *= 10
            if lam > 1e12:
                break
    return theta, r, J, cost, converged


def _decay_projection(times, y, weights, fixed, names):
    """project(theta) -> (r, J, p, e, de) at the free nonlinear ``names``.

    e = exp(-(t/T)^p) is the shape and de its derivatives, one per name.  The
    amplitude p["amplitude"] is pinned, or the weighted least-squares value
    for this shape, sum(w^2 e y) / sum(w^2 e^2); r is the weighted residual
    and J its exact Jacobian in theta, through A as well.
    """
    w2 = weights**2

    def project(theta):
        p = dict(fixed)
        p.update(zip(names, theta))
        # clamp so wild trial steps stay evaluable; p holds what the model used
        p["log_t"] = min(max(p["log_t"], -300.0), 300.0)
        stretch = p["stretch"] = min(max(p["stretch"], 0.05), 50.0)
        x = np.maximum(times / math.exp(p["log_t"]), 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            xp = np.minimum(x**stretch, 1e300)
        e = np.exp(-xp)
        # d/d log T and d/d p
        de = [e * stretch * xp if nm == "log_t" else -e * xp * np.log(x) for nm in names]
        dA = [0.0] * len(names)
        if "amplitude" not in fixed:
            # floored: a shape that underflowed everywhere gives A = dA = 0
            norm = max(float(w2 * e @ e), 1e-300)
            p["amplitude"] = float(w2 * e @ y) / norm
            dA = [float(w2 * (y - 2.0 * p["amplitude"] * e) @ d) / norm for d in de]
        A = p["amplitude"]
        J = np.transpose([weights * (A * d + e * a) for d, a in zip(de, dA)])
        return weights * (A * e - y), J, p, e, de

    return project


def _regression_start(times, y, amp0, fixed, names):
    """log(-log(S/A0)) = p log t - p log T: its unweighted regression over the
    points with 0 < S/A0 < 1 (through a pinned T or with a pinned slope p), or
    (T, p) = (max t, 2) where that regression is undefined."""
    ratio = y / amp0
    keep = (times > 0) & (ratio > 0) & (ratio < 1)
    lt, z = np.log(times[keep]), np.log(-np.log(ratio[keep]))
    start = {"log_t": math.log(max(float(times.max()), 1e-300)), "stretch": 2.0}
    if "stretch" in fixed and lt.size:
        start["log_t"] = float(np.mean(lt - z / min(max(fixed["stretch"], 0.05), 50.0)))
    elif "stretch" not in fixed and lt.size >= (1 if "log_t" in fixed else 2):
        u = lt - fixed.get("log_t", lt.mean())
        slope = float(u @ z) / float(u @ u) if u @ u > 0 else 0.0
        if slope > 0:
            start = {"log_t": float(lt.mean() - z.mean() / slope), "stretch": slope}
    return [start[nm] for nm in names]


def fit_decay(
    curve,
    model: str = "stretched_exp",
    fixed_params: Optional[Dict[str, float]] = None,
) -> DecayFit:
    """Fit S(t) = A exp(-(t/T)^p) + c to a coherence curve.

    ``model`` "exponential" fixes p = 1; "stretched_exp" leaves p free unless
    pinned through fixed_params (e.g. {"stretch": 4.0}).  std_errors on the
    curve act as weights when present.  Accepts a CoherenceCurve or a
    (times, values[, std_errors]) tuple.
    """
    times, values, sigmas = _unpack_curve(curve)
    if times.size < 5:
        raise FitError("need at least 5 points to fit a decay")
    if float(np.ptp(values)) == 0.0:
        raise FitError("degenerate curve: constant signal")
    weights = _weights_from_sigmas(sigmas, times.size)

    fixed = {"offset": 0.0}
    if model == "exponential":
        fixed["stretch"] = 1.0
    elif model != "stretched_exp":
        raise ValueError(f"unknown decay model {model!r}")
    if fixed_params:
        for k, v in fixed_params.items():
            if k == "decay_time":
                fixed["log_t"] = math.log(v)
            elif k in ("amplitude", "offset", "stretch"):
                fixed[k] = float(v)
            else:
                raise ValueError(f"unknown parameter {k!r}")
    free = [n for n in ("amplitude", "log_t", "stretch") if n not in fixed]
    names = free[1:] if "amplitude" in free else free
    y = values - fixed["offset"]
    project = _decay_projection(times, y, weights, fixed, names)
    theta, conv = [], True  # every nonlinear parameter pinned: A alone
    if names:
        amp0 = fixed.get("amplitude", float(y[0]) or 1.0)
        theta0 = _regression_start(times, y, amp0, fixed, names)
        theta, _, _, _, conv = _gauss_newton(lambda th: project(th)[:2], theta0)
    r, _, p, e, de = project(theta)
    # past the clamp the cost is flat in p, so an end there is not a minimum
    raw = dict(fixed, **dict(zip(names, theta)))["stretch"]
    conv = conv and 0.05 <= float(raw) <= 50.0
    # uncertainties from the Jacobian over every free parameter, A included
    cols = [weights * e] if "amplitude" in free else []
    cols += [weights * p["amplitude"] * d for d in de]
    unc_map = _uncertainties(np.column_stack(cols), free) if free else {}

    params = {
        "amplitude": p["amplitude"],
        "decay_time": math.exp(p["log_t"]),
        "stretch": p["stretch"],
        "offset": p["offset"],
    }
    unc = {
        "amplitude": unc_map.get("amplitude", 0.0),
        "decay_time": unc_map.get("log_t", 0.0) * params["decay_time"],
        "stretch": unc_map.get("stretch", 0.0),
        "offset": 0.0,
    }
    return DecayFit(model, params, unc, math.sqrt(float(r @ r)), conv)


def fit_power_law(
    points,
    fixed_exponent: Optional[float] = None,
) -> DecayFit:
    """Fit v = k * t^q to positive data; q may be pinned (e.g. -1/2)."""
    times, values, sigmas = _unpack_curve(points)
    if times.size < 4:
        raise FitError("need at least 4 points")
    if np.any(times <= 0) or np.any(values <= 0):
        raise FitError("power-law fit needs positive times and values")
    weights = _weights_from_sigmas(sigmas, times.size)

    # log-log regression as the starting point
    lt, lv = np.log(times), np.log(values)
    if fixed_exponent is None:
        q0, logk0 = np.polyfit(lt, lv, 1)
    else:
        q0 = fixed_exponent
        logk0 = float(np.mean(lv - q0 * lt))
    free = ["log_k"] + ([] if fixed_exponent is not None else ["q"])

    def rj(theta):
        logk = theta[0]
        q = fixed_exponent if fixed_exponent is not None else theta[1]
        model = np.exp(logk) * times**q
        r = (model - values) * weights
        cols = [model * weights]
        if fixed_exponent is None:
            cols.append(model * np.log(times) * weights)
        return r, np.column_stack(cols)

    theta0 = [logk0] + ([] if fixed_exponent is not None else [q0])
    theta, r, J, cost, conv = _gauss_newton(rj, theta0)
    unc_map = _uncertainties(J, free)
    k = math.exp(theta[0])
    q = fixed_exponent if fixed_exponent is not None else float(theta[1])
    params = {"coefficient": k, "exponent": q}
    unc = {
        "coefficient": unc_map.get("log_k", 0.0) * k,
        "exponent": unc_map.get("q", 0.0),
    }
    return DecayFit("power_law", params, unc, math.sqrt(cost), conv)


def _unpack_curve(curve):
    if hasattr(curve, "times"):
        sig = getattr(curve, "std_error", None)
        return (
            np.asarray(curve.times, dtype=float),
            np.asarray(curve.signal, dtype=float),
            None if sig is None else np.asarray(sig, dtype=float),
        )
    parts = [np.asarray(p, dtype=float) for p in curve]
    if len(parts) == 2:
        return parts[0], parts[1], None
    return parts[0], parts[1], parts[2]


def _weights_from_sigmas(sigmas, n):
    if sigmas is None or np.all(sigmas == 0):
        return np.ones(n)
    floor = max(float(np.min(sigmas[sigmas > 0])) * 1e-3, 1e-300)
    return 1.0 / np.maximum(sigmas, floor)


def _uncertainties(J, free):
    try:
        cov = np.linalg.inv(J.T @ J)
        sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        sd = np.full(len(free), math.inf)
    return dict(zip(free, sd))
