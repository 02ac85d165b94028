"""Weighted nonlinear least squares for decay curves and power laws.

Both models are an amplitude times a shape: S(t) = A exp(-(t/T)^p) + c with
the offset c pinned, and v = k t^q.  Each is linear in its amplitude, so one
variable projection fits both (Golub and Pereyra, SIAM J. Numer. Anal. 10,
413 (1973)).  Each trial of the free nonlinear parameters gets its weighted
least-squares amplitude in closed form, and a damped Gauss-Newton iteration
moves the nonlinear parameters alone, from a regression start: log(-log(S/A))
on log t for the decay, log v on log t for the power law.  With no nonlinear
parameter free, as for a pinned shape or the k/sqrt(t) of a sensitivity
scan, the closed-form amplitude is the fit, with no iteration.  Parameter
uncertainties come from the local quadratic model at the optimum,
cov = (J^T W J)^-1 with W = diag(1/sigma^2), J over every free parameter.
Data with no std_error leave sigma to the residuals: W = 1 and the
covariance scaled by RSS/(m - p), m points and p free parameters.
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
    """Damped Gauss-Newton; residual_jac(theta) -> (r, J) with weights folded in.

    A step whose local model predicts a relative decrease below ``tol`` is
    the last one evaluated: past it, accepting or rejecting steps turns on
    rounding, not on the cost.  It is kept unless the cost rises."""
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
        # the decrease the local model predicts, |r|^2 - |r + J step|^2 =
        # -(2 g.step + step.A.step), is at least -g.step, as the damping makes
        # g.step + step.A.step = -lam step.D.step; that bound screens it
        gs = float(g @ step)
        predicted = -gs if -gs >= tol * cost else -(2.0 * gs + float(step @ A @ step))
        last = math.isfinite(predicted) and predicted < tol * cost
        new = theta + step
        r_new, J_new = residual_jac(new)
        cost_new = float(r_new @ r_new)
        if math.isfinite(cost_new) and cost_new <= cost:
            rel = abs(cost - cost_new) / max(cost, 1e-300)
            theta, r, J, cost = new, r_new, J_new, cost_new
            lam = max(lam * 0.3, 1e-12)
            if last or rel < tol or float(np.max(np.abs(step))) < 1e-15:
                converged = True
                break
        elif last:
            converged = True
            break
        else:
            lam *= 10
            if lam > 1e12:
                break
    return theta, r, J, cost, converged


def _variable_projection(shape, y, sigmas, free, theta0, amplitude=None):
    """Fit y = A e(theta), each point weighted by w = 1/sigma, from
    ``theta0``, the nonlinear part of ``free``.

    shape(theta) -> (e, de, p): the shape, its derivatives, one per entry of
    theta, and the parameters it evaluated.  A is ``amplitude``, or for each
    trial theta the weighted least-squares sum(w^2 e y) / sum(w^2 e^2), and J
    the residual's exact Jacobian in theta, through A as well.  Returns theta,
    p with A, the residual norm, whether the fit converged to a finite
    residual with a finite standard deviation of each of ``free``, and
    those deviations: a free parameter the model does not move is not fitted.
    """
    weights = _weights_from_sigmas(sigmas, y.size)
    w2 = weights**2

    def project(theta):
        e, de, p = shape(theta)
        amp, dA = amplitude, [0.0] * len(de)
        if amp is None:
            # floored: a shape that underflowed everywhere gives A = dA = 0
            norm = max(float(w2 * e @ e), 1e-300)
            amp = float(w2 * e @ y) / norm
            dA = [float(w2 * (y - 2.0 * amp * e) @ d) / norm for d in de]
        p["amplitude"] = amp
        J = np.transpose([weights * (amp * d + e * a) for d, a in zip(de, dA)])
        return weights * (amp * e - y), J, p, e, de

    theta, conv = theta0, True  # nothing nonlinear free: A alone
    if len(theta0):
        theta, _, _, _, conv = _gauss_newton(lambda th: project(th)[:2], theta0)
    r, _, p, e, de = project(theta)
    norm = math.sqrt(float(r @ r))
    cols = [weights * e] if "amplitude" in free else []
    cols += [weights * p["amplitude"] * d for d in de]
    unc = _uncertainties(np.column_stack(cols), free) if free else {}
    if (sigmas is None or np.all(sigmas == 0)) and r.size > len(free):
        # no std_error: sigma^2 is estimated as RSS / (m - p)
        scale = norm / math.sqrt(r.size - len(free))
        unc = {name: sd * scale for name, sd in unc.items()}
    conv = conv and math.isfinite(norm) and all(map(math.isfinite, unc.values()))
    return theta, p, norm, conv, unc


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_decay(
    curve,
    model: str = "stretched_exp",
    fixed_params: Optional[Dict[str, float]] = None,
) -> DecayFit:
    """Fit S(t) = A exp(-(t/T)^p) + c to a coherence curve.

    ``model`` "exponential" fixes p = 1; "stretched_exp" leaves p free unless
    pinned through fixed_params (e.g. {"stretch": 4.0}).  std_errors on the
    curve act as weights when present.  Accepts a CoherenceCurve or a
    (times, values[, std_errors or None]) tuple.
    """
    times, values, sigmas = _unpack_curve(curve)
    if times.size < 5:
        raise FitError("need at least 5 points to fit a decay")
    if float(np.ptp(values)) == 0.0:
        raise FitError("degenerate curve: constant signal")

    fixed = {"offset": 0.0}
    if model == "exponential":
        fixed["stretch"] = 1.0
    elif model != "stretched_exp":
        raise ValueError(f"unknown decay model {model!r}")
    for k, v in (fixed_params or {}).items():
        if k == "decay_time":
            fixed["log_t"] = math.log(v)
        elif k in ("amplitude", "offset", "stretch"):
            fixed[k] = float(v)
        else:
            raise ValueError(f"unknown parameter {k!r}")
    free = [n for n in ("amplitude", "log_t", "stretch") if n not in fixed]
    names = free[1:] if "amplitude" in free else free
    y = values - fixed["offset"]

    def shape(theta):
        p = dict(fixed)
        p.update(zip(names, theta))
        # clamp so wild trial steps stay evaluable; p holds what the model used
        p["log_t"] = min(max(p["log_t"], -300.0), 300.0)
        stretch = p["stretch"] = min(max(p["stretch"], 0.05), 50.0)
        x = np.maximum(times / math.exp(p["log_t"]), 1e-300)
        xp = np.minimum(x**stretch, 1e300)
        e = np.exp(-xp)
        # d/d log T and d/d p
        return e, [e * stretch * xp if nm == "log_t" else -e * xp * np.log(x)
                   for nm in names], p

    amp0 = fixed.get("amplitude", float(y[0]) or 1.0)
    theta0 = _regression_start(times, y, amp0, fixed, names) if names else []
    theta, p, norm, conv, unc_map = _variable_projection(shape, y, sigmas, free, theta0,
                                                         fixed.get("amplitude"))
    # past the clamp the cost is flat in p, so an end there is not a minimum
    raw = dict(fixed, **dict(zip(names, theta)))["stretch"]
    conv = conv and 0.05 <= float(raw) <= 50.0

    decay_time = math.exp(p["log_t"])
    params = {"amplitude": p["amplitude"], "decay_time": decay_time,
              "stretch": p["stretch"], "offset": p["offset"]}
    unc = {"amplitude": unc_map.get("amplitude", 0.0),
           "decay_time": unc_map.get("log_t", 0.0) * decay_time,
           "stretch": unc_map.get("stretch", 0.0), "offset": 0.0}
    return DecayFit(model, params, unc, norm, conv)


@np.errstate(over="ignore", invalid="ignore")
def fit_power_law(points, fixed_exponent: Optional[float] = None) -> DecayFit:
    """Fit v = k * t^q to positive data; q may be pinned (e.g. -1/2).

    k is the projected amplitude of the shape t^q: a pinned q leaves it in
    closed form, a free q is searched from the log-log regression slope.
    """
    times, values, sigmas = _unpack_curve(points)
    if times.size < 4:
        raise FitError("need at least 4 points")
    if np.any(times <= 0) or np.any(values <= 0):
        raise FitError("power-law fit needs positive times and values")
    lt = np.log(times)

    def shape(theta):
        q = float(theta[0]) if len(theta) else fixed_exponent
        e = times**q
        return e, [e * lt for _ in theta], {"exponent": q}

    theta0 = [] if fixed_exponent is not None else [float(np.polyfit(lt, np.log(values), 1)[0])]
    free = ["amplitude"] + ["exponent"] * len(theta0)
    _, p, norm, conv, unc = _variable_projection(shape, values, sigmas, free, theta0)
    params = {"coefficient": p["amplitude"], "exponent": p["exponent"]}
    uncs = {"coefficient": unc["amplitude"], "exponent": unc.get("exponent", 0.0)}
    return DecayFit("power_law", params, uncs, norm, conv)


def _unpack_curve(curve):
    """(times, values, sigmas or None) of a CoherenceCurve or a tuple."""
    if hasattr(curve, "times"):
        curve = (curve.times, curve.signal, getattr(curve, "std_error", None))
    parts = [None if p is None else np.asarray(p, dtype=float) for p in curve]
    return parts[0], parts[1], parts[2] if len(parts) > 2 else None


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
