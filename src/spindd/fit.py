"""Weighted nonlinear least squares for decay curves and power laws.

Stretched-exponential fitting has local minima, so the solver is a damped
Gauss-Newton iteration with multi-start over decade-spaced initial decay
times; the winner is the lowest residual (ties broken by smallest T).
Parameter uncertainties come from the local quadratic model at the optimum,
cov = (J^T W J)^-1 with W = diag(1/sigma^2).
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

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": self.params,
            "uncertainties": self.uncertainties,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
        }


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


def _decay_residual_jac(times, values, weights, free, fixed):
    names = list(free)

    def rj(theta):
        p = dict(fixed)
        p.update(zip(names, theta))
        A, c = p["amplitude"], p["offset"]
        # clamp so wild trial steps stay evaluable; the minimum is interior
        stretch = min(max(p["stretch"], 0.05), 50.0)
        T = math.exp(min(max(p["log_t"], -300.0), 300.0))
        x = np.maximum(times / T, 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            xp = np.minimum(x**stretch, 1e300)
        e = np.exp(-xp)
        model = A * e + c
        r = (model - values) * weights
        cols = []
        for nm in names:
            if nm == "amplitude":
                d = e
            elif nm == "offset":
                d = np.ones_like(times)
            elif nm == "log_t":
                d = A * e * stretch * xp  # d/d log T
            elif nm == "stretch":
                d = -A * e * xp * np.log(x)
            cols.append(d * weights)
        return r, np.column_stack(cols)

    return rj


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
    all_names = ["amplitude", "log_t", "stretch", "offset"]
    free = [n for n in all_names if n not in fixed]

    span = float(times[-1] - times[0]) + float(times[0])
    starts_T = [0.1 * span, span, 10.0 * span]
    starts_p = [1.0, 2.0, 3.0] if "stretch" in free else [None]
    amp0 = float(values[0]) if "amplitude" in free else None

    best = None
    rj = _decay_residual_jac(times, values, weights, free, fixed)
    for T0 in starts_T if "log_t" in free else [None]:
        for p0 in starts_p:
            theta0 = []
            for nm in free:
                if nm == "amplitude":
                    theta0.append(amp0 if amp0 != 0 else 1.0)
                elif nm == "log_t":
                    theta0.append(math.log(T0))
                elif nm == "stretch":
                    theta0.append(p0)
                elif nm == "offset":
                    theta0.append(0.0)
            theta, r, J, cost, conv = _gauss_newton(rj, theta0)
            # the residual clamps log_t internally; mirror that here so a
            # runaway start cannot overflow exp()
            theta = [
                min(max(v, -300.0), 300.0) if nm == "log_t" else v
                for nm, v in zip(free, theta)
            ]
            t_now = math.exp(dict(zip(free, theta)).get("log_t", fixed.get("log_t", 0.0)))
            if best is None or cost < best[3] - 1e-300 or (
                abs(cost - best[3]) <= 1e-12 * max(cost, 1e-300) and t_now < best[5]
            ):
                best = (theta, r, J, cost, conv, t_now)

    theta, r, J, cost, conv, _ = best
    sol = dict(fixed)
    sol.update(zip(free, theta))
    unc_map = _uncertainties(J, free)

    params = {
        "amplitude": sol["amplitude"],
        "decay_time": math.exp(sol["log_t"]),
        "stretch": sol["stretch"],
        "offset": sol["offset"],
    }
    unc = {
        "amplitude": unc_map.get("amplitude", 0.0),
        "decay_time": unc_map.get("log_t", 0.0) * params["decay_time"],
        "stretch": unc_map.get("stretch", 0.0),
        "offset": unc_map.get("offset", 0.0),
    }
    return DecayFit(model, params, unc, math.sqrt(cost), conv)


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
