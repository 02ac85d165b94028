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


_LOG_1E299 = math.log(1e299)


def _damped_step(A, g, lam):
    """The step x of (A + lam D) x = -g, D = diag(max(diag A, 1e-300)), or
    None where that system is singular or x is not finite.

    A system of one or two unknowns, all that a projected fit builds, is
    solved in closed form by elimination with partial pivoting, singular
    where a pivot is exactly 0 as in LAPACK's LU; a 2 x 2 elimination is
    forward stable (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 1.10.1)."""
    M = A.tolist()
    for i, row in enumerate(M):
        row[i] += lam * max(row[i], 1e-300)
    r = [-v for v in g.tolist()]
    if len(r) == 1:
        a = M[0][0]
        if a == 0.0:
            return None
        x = [r[0] / a]
    else:
        (a, b), (c, d) = M
        r0, r1 = r
        if abs(c) > abs(a):
            a, b, c, d, r0, r1 = c, d, a, b, r1, r0
        if a == 0.0:
            return None
        lower = c / a
        u = d - lower * b
        if u == 0.0:
            return None
        x1 = (r1 - lower * r0) / u
        x = [(r0 - b * x1) / a, x1]
    return np.array(x) if all(map(math.isfinite, x)) else None


def _gauss_newton(residual_jac, theta0, max_iter=200, tol=1e-14, scale=0.0):
    """Damped Gauss-Newton; residual_jac(theta) -> (r, J, ...) with weights
    folded in.  Returns theta, what residual_jac returned there, its cost
    |r|^2 and whether the iteration converged.

    A step whose local model predicts a relative decrease below ``tol`` is
    the last one evaluated: past it, accepting or rejecting steps turns on
    rounding, not on the cost.  It is kept unless the cost rises.  Where
    the damped system is singular or its step not finite, the damping rises
    tenfold and the step is tried again.

    That point lies about 1e-9 relative short of the optimum, and where it
    lies moves with the last bits of numpy's dispatched exp and power.  So a
    converged iteration goes on with undamped steps while each is shorter
    than the last and moves theta by more than ``tol`` relative: it stops at
    the optimum's rounding floor.  Such a step is not taken where the cost
    rises by more than its rounding, 8 eps |r| ``scale``, ``scale`` being
    the norm of the terms each residual is a difference of."""
    theta = np.asarray(theta0, dtype=float)
    evaluation = residual_jac(theta)
    r, J = evaluation[:2]
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    A, g = J.T @ J, J.T @ r
    for _ in range(max_iter):
        step = _damped_step(A, g, lam)
        if step is None:
            lam *= 10
            continue
        # the decrease the local model predicts, |r|^2 - |r + J step|^2 =
        # -(2 g.step + step.A.step), is at least -g.step, as the damping makes
        # g.step + step.A.step = -lam step.D.step; that bound screens it
        gs = float(g @ step)
        predicted = -gs if -gs >= tol * cost else -(2.0 * gs + float(step @ A @ step))
        last = math.isfinite(predicted) and predicted < tol * cost
        new = theta + step
        trial = residual_jac(new)
        cost_new = float(trial[0] @ trial[0])
        if math.isfinite(cost_new) and cost_new <= cost:
            rel = abs(cost - cost_new) / max(cost, 1e-300)
            theta, evaluation, cost = new, trial, cost_new
            lam = max(lam * 0.3, 1e-12)
            if last or rel < tol or max(map(abs, step.tolist())) < 1e-15:
                converged = True
                break
            r, J = evaluation[:2]
            A, g = J.T @ J, J.T @ r
        elif last:
            converged = True
            break
        else:
            lam *= 10
            if lam > 1e12:
                break
    last_size, trial = math.inf, None  # a rejected trial is not held beside the next
    while converged:
        r, J = evaluation[:2]
        step = _damped_step(J.T @ J, J.T @ r, 0.0)
        size = math.inf if step is None else max(map(abs, step.tolist()))
        if not tol * max(1.0, *map(abs, theta.tolist())) < size < last_size:
            break
        new = theta + step
        trial = residual_jac(new)
        cost_new = float(trial[0] @ trial[0])
        if not cost_new <= cost + 8 * math.ulp(1.0) * math.sqrt(cost) * scale:
            break
        theta, evaluation, cost, last_size = new, trial, cost_new, size
    return theta, evaluation, cost, converged


def _variable_projection(shape, y, sigmas, free, theta0, amplitude=None):
    """Fit y = A e(theta), each point weighted by w = 1/sigma, from
    ``theta0``, the nonlinear part of ``free``.

    shape(theta) -> (E, p): the shape e and its derivatives, one per entry of
    theta, stacked as the rows of E, and the parameters it evaluated.  A is
    ``amplitude``, or for each trial theta the weighted least-squares
    sum(w^2 e y) / sum(w^2 e^2), and J the residual's exact Jacobian in
    theta, through A as well.  Returns theta, p with A, the residual norm,
    whether the fit converged to a finite residual with a finite standard
    deviation of each of ``free``, and those deviations: a free parameter the
    model does not move is not fitted.
    """
    weights = _weights_from_sigmas(sigmas, y.size)
    w2 = weights**2
    w2y = w2 * y

    def project(theta):
        E, p = shape(theta)
        e, de = E[0], E[1:]
        amp = amplitude
        if amp is None:
            # (e, de) . w^2 y and (e, de) . w^2 e; floored: a shape that
            # underflowed everywhere gives A = dA = 0
            ey, ee = (E @ w2y).tolist(), (E @ (w2 * e)).tolist()
            norm = max(ee[0], 1e-300)
            amp = ey[0] / norm
            dA = [(a - 2.0 * amp * b) / norm for a, b in zip(ey[1:], ee[1:])]
        p["amplitude"] = amp
        J = amp * de
        if amplitude is None:
            J += np.multiply.outer(dA, e)
        J *= weights
        return weights * (amp * e - y), J.T, p, E

    if len(theta0):
        theta, (r, _, p, E), _, conv = _gauss_newton(project, theta0,
                                                       scale=math.sqrt(float(w2y @ y)))
    else:  # nothing nonlinear free: A alone
        theta, conv = theta0, True
        r, _, p, E = project(theta)
    norm = math.sqrt(float(r @ r))
    # d r / d A is w e, d r / d theta with A held is w A de
    cols = E * weights
    cols[1:] *= p["amplitude"]
    unc = _uncertainties((cols if "amplitude" in free else cols[1:]).T, free) if free else {}
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
    n = lt.size  # each mean as np.mean takes it: np.add.reduce(v) / n
    if "stretch" in fixed and n:
        v = lt - z / min(max(fixed["stretch"], 0.05), 50.0)
        start["log_t"] = float(np.add.reduce(v) / n)
    elif "stretch" not in fixed and n >= (1 if "log_t" in fixed else 2):
        mean_lt = np.add.reduce(lt) / n
        u = lt - fixed.get("log_t", mean_lt)
        slope = float(u @ z) / float(u @ u) if u @ u > 0 else 0.0
        if slope > 0:
            start = {"log_t": float(mean_lt - np.add.reduce(z) / n / slope), "stretch": slope}
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
    t_min, t_max = float(times.min()), float(times.max())

    def shape(theta):
        p = dict(fixed)
        p.update(zip(names, map(float, theta)))
        # clamp so wild trial steps stay evaluable; p holds what the model used
        p["log_t"] = min(max(p["log_t"], -300.0), 300.0)
        stretch = p["stretch"] = min(max(p["stretch"], 0.05), 50.0)
        T = math.exp(p["log_t"])
        x = times / T
        # each clamp only where it can bind, x^p's with a margin of 10 for
        # rounding; a NaN or a time <= 0 takes both
        if not t_min / T >= 1e-300:
            x = np.maximum(x, 1e-300)
        xp = x**stretch
        hi = t_max / T
        if not (hi > 0.0 and stretch * math.log(hi) < _LOG_1E299):
            xp = np.minimum(xp, 1e300)
        E = np.empty((1 + len(names), times.size))
        e = np.exp(-xp, out=E[0])
        # d/d log T and d/d p
        for row, nm in zip(E[1:], names):
            np.multiply(e, stretch * xp if nm == "log_t" else -xp * np.log(x), out=row)
        return E, p

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
        return (np.array([e, e * lt]) if len(theta) else e[None]), {"exponent": q}

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
