import itertools
import json
import math

import numpy as np
import pytest

from spindd import cli, config, evolve, fit
from spindd.field import RngSpec
from spindd.fit import DecayFit, FitError, fit_decay, fit_power_law


def _stretched(t, amp, T, p):
    return amp * np.exp(-((t / T) ** p))


def test_stretched_exp_round_trip():
    T, p = 0.39e-3, 4.0
    ts = np.linspace(0.05e-3, 0.9e-3, 25)
    res = fit_decay((ts, _stretched(ts, 1.0, T, p)))
    assert res.converged
    assert res.params["decay_time"] == pytest.approx(T, rel=1e-6)
    assert res.params["stretch"] == pytest.approx(p, rel=1e-6)
    assert res.params["amplitude"] == pytest.approx(1.0, rel=1e-6)
    assert res.residual_norm < 1e-8


def test_exponential_round_trip():
    T = 2.44e-3
    ts = np.linspace(0.1e-3, 8e-3, 20)
    res = fit_decay((ts, _stretched(ts, 0.8, T, 1.0)), model="exponential")
    assert res.params["decay_time"] == pytest.approx(T, rel=1e-6)
    assert res.params["stretch"] == 1.0
    assert res.params["amplitude"] == pytest.approx(0.8, rel=1e-6)


def test_fixed_params_respected():
    T, p = 1e-3, 2.0
    ts = np.linspace(1e-4, 3e-3, 15)
    res = fit_decay((ts, _stretched(ts, 1.0, T, p)),
                    fixed_params={"stretch": 2.0, "amplitude": 1.0})
    assert res.params["stretch"] == 2.0
    assert res.params["amplitude"] == 1.0
    assert res.params["decay_time"] == pytest.approx(T, rel=1e-9)
    res2 = fit_decay((ts, _stretched(ts, 1.0, T, p)),
                     fixed_params={"decay_time": T})
    assert res2.params["decay_time"] == pytest.approx(T, rel=1e-15)
    assert res2.params["stretch"] == pytest.approx(p, rel=1e-6)


def test_uncertainty_shrinks_with_doubled_sampling():
    # duplicating every point with the same noise level tightens the
    # parameter standard errors by sqrt(2)
    rng = np.random.default_rng(0)
    T, p, sd = 1e-3, 2.0, 0.01
    ts = np.linspace(1e-4, 3e-3, 40)
    vals = _stretched(ts, 1.0, T, p) + rng.normal(0, sd, ts.size)
    res1 = fit_decay((ts, vals, np.full(ts.size, sd)))
    ts2 = np.concatenate([ts, ts])
    vals2 = np.concatenate([vals, vals])
    res2 = fit_decay((ts2, vals2, np.full(ts2.size, sd)))
    ratio = res1.uncertainties["decay_time"] / res2.uncertainties["decay_time"]
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_weighting_scale_invariance():
    rng = np.random.default_rng(4)
    ts = np.linspace(1e-4, 3e-3, 30)
    vals = _stretched(ts, 1.0, 1e-3, 2.0) + rng.normal(0, 0.02, ts.size)
    a = fit_decay((ts, vals, np.full(ts.size, 0.02)))
    b = fit_decay((ts, vals, np.full(ts.size, 0.08)))
    # scaling all sigmas by a constant must not move the optimum
    assert a.params["decay_time"] == pytest.approx(b.params["decay_time"], rel=1e-8)
    assert a.params["stretch"] == pytest.approx(b.params["stretch"], rel=1e-8)


def test_noisy_stretched_exp_recovers_parameters():
    rng = np.random.default_rng(21)
    T, p = 0.39e-3, 3.0
    ts = np.linspace(0.05e-3, 1.0e-3, 35)
    vals = _stretched(ts, 1.0, T, p) + rng.normal(0, 0.02, ts.size)
    res = fit_decay((ts, vals, np.full(ts.size, 0.02)))
    assert res.params["decay_time"] == pytest.approx(T, rel=0.05)
    assert res.params["stretch"] == pytest.approx(p, rel=0.15)


def test_fit_rejects_degenerate_input():
    ts = np.linspace(1e-4, 1e-3, 10)
    with pytest.raises(FitError):
        fit_decay((ts, np.ones(10)))
    with pytest.raises(FitError):
        fit_decay((ts[:3], np.exp(-ts[:3] / 1e-3)))


def test_power_law_round_trip():
    k, q = 19.4e-9, -0.5
    ts = np.geomspace(0.5, 500, 12)
    res = fit_power_law((ts, k * ts**q), fixed_exponent=-0.5)
    assert res.params["coefficient"] == pytest.approx(k, rel=1e-9)
    free = fit_power_law((ts, k * ts**q))
    assert free.params["exponent"] == pytest.approx(q, abs=1e-9)
    assert free.params["coefficient"] == pytest.approx(k, rel=1e-9)


def test_power_law_noisy_exponent_vs_loglog_oracle():
    rng = np.random.default_rng(17)
    k, q = 5e-9, -0.5
    ts = np.geomspace(0.1, 1000, 40)
    vals = k * ts**q * np.exp(rng.normal(0, 0.02, ts.size))
    res = fit_power_law((ts, vals))
    assert res.params["exponent"] == pytest.approx(-0.5, abs=0.02)
    # independent oracle: ordinary least squares in log-log space (close but
    # not identical, since the fit weights residuals in linear space)
    slope, _ = np.polyfit(np.log(ts), np.log(vals), 1)
    assert res.params["exponent"] == pytest.approx(slope, abs=0.02)


def test_power_law_rejects_nonpositive():
    ts = np.geomspace(1, 10, 6)
    with pytest.raises(FitError):
        fit_power_law((ts, -np.ones(6)))


def test_to_dict_is_json_ready():
    import json

    ts = np.linspace(1e-4, 3e-3, 10)
    res = fit_decay((ts, _stretched(ts, 1.0, 1e-3, 2.0)))
    json.dumps(res.to_dict())


# --- the 9-start fit as a reference ------------------------------------------


def _reference_residual_jac(times, values, weights, free, fixed):
    names = list(free)

    def rj(theta):
        p = dict(fixed)
        p.update(zip(names, theta))
        A, c = p["amplitude"], p["offset"]
        stretch = min(max(p["stretch"], 0.05), 50.0)
        T = math.exp(min(max(p["log_t"], -300.0), 300.0))
        x = np.maximum(times / T, 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            xp = np.minimum(x**stretch, 1e300)
        e = np.exp(-xp)
        r = (A * e + c - values) * weights
        cols = {"amplitude": e, "log_t": A * e * stretch * xp, "stretch": -A * e * xp * np.log(x)}
        return r, np.column_stack([cols[nm] * weights for nm in names])

    return rj


def _reference_fit_decay(curve, model="stretched_exp", fixed_params=None):
    """The fit before variable projection: Gauss-Newton over the free
    (A, log T, p) from a 3 x 3 grid of starts in (T, p), pinned coordinates
    ignored; the lowest residual wins, ties broken by the smallest T."""
    times, values, sigmas = fit._unpack_curve(curve)
    weights = fit._weights_from_sigmas(sigmas, times.size)
    fixed = {"offset": 0.0}
    if model == "exponential":
        fixed["stretch"] = 1.0
    for k, v in (fixed_params or {}).items():
        fixed["log_t" if k == "decay_time" else k] = math.log(v) if k == "decay_time" else v
    free = [n for n in ("amplitude", "log_t", "stretch") if n not in fixed]
    span = float(times[-1] - times[0]) + float(times[0])
    rj = _reference_residual_jac(times, values, weights, free, fixed)
    best = None
    for T0, p0 in itertools.product([0.1 * span, span, 10.0 * span], [1.0, 2.0, 3.0]):
        start = {"amplitude": float(values[0]) or 1.0, "log_t": math.log(T0), "stretch": p0}
        theta, _, J, cost, conv = fit._gauss_newton(rj, [start[nm] for nm in free])
        sol = dict(fixed)
        sol.update(zip(free, theta))
        sol["log_t"] = min(max(sol["log_t"], -300.0), 300.0)
        t_now = math.exp(sol["log_t"])
        if best is None or cost < best[0] - 1e-300 or (
            abs(cost - best[0]) <= 1e-12 * max(cost, 1e-300) and t_now < best[1]
        ):
            best = (cost, t_now, sol, J, conv)
    cost, t_now, sol, J, conv = best
    unc = fit._uncertainties(J, free)
    params = {"amplitude": sol["amplitude"], "decay_time": t_now, "stretch": sol["stretch"]}
    uncs = {"amplitude": unc.get("amplitude", 0.0),
            "decay_time": unc.get("log_t", 0.0) * t_now, "stretch": unc.get("stretch", 0.0)}
    return params, uncs, conv


def _bulk_curve(kind, seed):
    """The benchmark's bulk_cvd decay curves: Hahn at 10 times, CPMG-90 at 12."""
    cfg = {"experiment": "decay", "preset": "bulk_cvd", "seed": seed}
    if kind == "hahn":
        cfg.update(sequence={"kind": "hahn"}, shots=2000,
                   times={"start": "0.06 ms", "stop": "0.86 ms", "count": 10})
    else:
        cfg.update(sequence={"kind": "cpmg", "n_pulses": 90}, shots=1500,
                   times={"start": "0.3 ms", "stop": "6 ms", "count": 12})
    s = config.validate(cfg)["spec"]
    return evolve.coherence_curve(s.field, s.sequence, s.times, s.shots, RngSpec(seed), s.nv)


def _exact(ts, amp, T, p):
    return ts, _stretched(ts, amp, T, p)


def _noisy(seed, T, p, sd, ts):
    vals = _stretched(ts, 1.0, T, p) + np.random.default_rng(seed).normal(0, sd, ts.size)
    return ts, vals, np.full(ts.size, sd)


# the curves of the tests above
_FIXTURES = {
    "stretched": _exact(np.linspace(0.05e-3, 0.9e-3, 25), 1.0, 0.39e-3, 4.0),
    "exponential": _exact(np.linspace(0.1e-3, 8e-3, 20), 0.8, 2.44e-3, 1.0),
    "pinned": _exact(np.linspace(1e-4, 3e-3, 15), 1.0, 1e-3, 2.0),
    "noise_40": _noisy(0, 1e-3, 2.0, 0.01, np.linspace(1e-4, 3e-3, 40)),
    "noise_30": _noisy(4, 1e-3, 2.0, 0.02, np.linspace(1e-4, 3e-3, 30)),
    "noise_35": _noisy(21, 0.39e-3, 3.0, 0.02, np.linspace(0.05e-3, 1.0e-3, 35)),
}
_FIXTURES["doubled"] = tuple(np.concatenate([a, a]) for a in _FIXTURES["noise_40"])


def _assert_matches_reference(curve, **kw):
    res = fit_decay(curve, **kw)
    params, uncs, conv = _reference_fit_decay(curve, **kw)
    assert res.converged and conv
    for name in ("amplitude", "decay_time", "stretch"):
        assert res.params[name] == pytest.approx(params[name], rel=1e-6), name
        assert res.uncertainties[name] == pytest.approx(uncs[name], rel=1e-6), name


@pytest.mark.parametrize("model", ["stretched_exp", "exponential"])
@pytest.mark.parametrize("name", list(_FIXTURES))
def test_projection_matches_multistart_on_fixtures(name, model):
    _assert_matches_reference(_FIXTURES[name], model=model)


@pytest.mark.parametrize("model", ["stretched_exp", "exponential"])
@pytest.mark.parametrize("kind, seed", [("hahn", 1), ("hahn", 2), ("hahn", 5),
                                        ("cpmg", 1), ("cpmg", 2), ("cpmg", 7)])
def test_projection_matches_multistart_on_bulk_cvd_curves(kind, seed, model):
    _assert_matches_reference(_bulk_curve(kind, seed), model=model)


_PINS = {"amplitude": 0.98, "decay_time": 0.42e-3, "stretch": 1.2}


@pytest.mark.parametrize("pinned", [c for r in (1, 2) for c in itertools.combinations(_PINS, r)],
                         ids="+".join)
def test_projection_matches_multistart_with_pinned_parameters(pinned):
    fixed = {k: _PINS[k] for k in pinned}
    _assert_matches_reference(_bulk_curve("hahn", 3), fixed_params=fixed)
    ts, vals = _FIXTURES["pinned"]
    exact = {"amplitude": 0.97, "decay_time": 1.1e-3, "stretch": 2.2}
    _assert_matches_reference((ts, vals), fixed_params={k: exact[k] for k in pinned})
    _assert_matches_reference((ts, vals + 0.05), fixed_params=dict(fixed, offset=0.05))


def test_pinned_shape_is_the_closed_form_amplitude():
    ts = np.linspace(1e-4, 3e-3, 15)
    res = fit_decay((ts, _stretched(ts, 0.8, 1e-3, 2.0)),
                    fixed_params={"decay_time": 1e-3, "stretch": 2.0})
    assert res.converged
    assert res.params["amplitude"] == pytest.approx(0.8, rel=1e-12)
    assert res.residual_norm < 1e-12
    assert res.uncertainties["decay_time"] == res.uncertainties["stretch"] == 0.0
    # nothing free at all: the pinned curve and its residual
    res = fit_decay((ts, _stretched(ts, 0.8, 1e-3, 2.0)),
                    fixed_params={"amplitude": 0.8, "decay_time": 1e-3, "stretch": 2.0})
    assert res.converged and res.params["amplitude"] == 0.8
    assert res.residual_norm < 1e-12
    assert set(res.uncertainties.values()) == {0.0}


def test_regression_start_is_exact_on_exact_data():
    ts = np.linspace(1e-4, 3e-3, 15)
    y = _stretched(ts, 0.8, 1e-3, 2.0)
    fixed = {"offset": 0.0, "amplitude": 0.8}
    start = fit._regression_start(ts, y, 0.8, fixed, ["log_t", "stretch"])
    assert start == pytest.approx([math.log(1e-3), 2.0], rel=1e-9)
    # through a pinned T, and with a pinned slope p
    pinned_t = dict(fixed, log_t=math.log(1e-3))
    assert fit._regression_start(ts, y, 0.8, pinned_t, ["stretch"]) == pytest.approx([2.0])
    pinned_p = dict(fixed, stretch=2.0)
    assert fit._regression_start(ts, y, 0.8, pinned_p, ["log_t"]) == pytest.approx(
        [math.log(1e-3)])


def _count_evaluations(monkeypatch):
    calls = []
    solve = fit._gauss_newton

    def counting(residual_jac, theta0, **kw):
        def counted(theta):
            calls.append(1)
            return residual_jac(theta)
        return solve(counted, theta0, **kw)

    monkeypatch.setattr(fit, "_gauss_newton", counting)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hahn_fit_evaluation_budget(monkeypatch, seed):
    # the 9-start fit made about 700 residual evaluations on these curves
    curve = _bulk_curve("hahn", seed)
    calls = _count_evaluations(monkeypatch)
    res = fit_decay(curve)
    assert res.converged
    assert 0 < len(calls) <= 60


def test_pinned_shape_evaluates_no_residual(monkeypatch):
    ts = np.linspace(1e-4, 3e-3, 15)
    calls = _count_evaluations(monkeypatch)
    fit_decay((ts, _stretched(ts, 0.8, 1e-3, 2.0)), model="exponential",
              fixed_params={"decay_time": 1e-3})
    assert calls == []


@pytest.mark.parametrize("values", [
    [0.2, 0.4, 0.6, 0.8, 1.0, 1.2],  # rising: no point below S/A0 = 1
    [1.0, 1.0, 0.4, 0.0, 0.0, 0.0],  # a single point inside (0, 1)
    [0.5, -0.1, -0.2, -0.1, -0.3, -0.2],  # below zero after the first
    [0.0, -0.3, -0.1, -0.05, -0.02, -0.01],  # S(0) = 0, so A0 = 1
], ids=["rising", "one_inside", "negative", "zero_first"])
def test_fallback_start_returns_a_fit_or_fit_error(values):
    ts = np.linspace(1e-4, 6e-4, 6)
    y = np.asarray(values)
    assert fit._regression_start(ts, y, y[0] or 1.0, {"offset": 0.0}, ["log_t", "stretch"]) == [
        math.log(6e-4), 2.0]
    try:
        res = fit_decay((ts, y))
    except FitError:
        return
    assert isinstance(res, DecayFit)


def test_fit_ending_on_the_stretch_clamp_reports_it_unconverged(tmp_path):
    # exponential data with T pinned far too long: the cost falls as p drops
    # until the model's clamp at p = 0.05, past which it is flat in p
    ts = np.linspace(0.1e-3, 8e-3, 20)
    ys = 0.8 * np.exp(-ts / 2.44e-3)
    res = fit_decay((ts, ys), fixed_params={"decay_time": 50e-3})
    assert res.params["stretch"] == 0.05
    assert not res.converged
    # the reported parameters are the curve the model evaluated
    model = _stretched(ts, res.params["amplitude"], 50e-3, 0.05)
    assert res.residual_norm == pytest.approx(float(np.linalg.norm(model - ys)), rel=1e-12)

    csv = tmp_path / "curve.csv"
    csv.write_text("total_time_s,signal\n"
                   + "".join(f"{float(t)!r},{float(y)!r}\n" for t, y in zip(ts, ys)))
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"experiment": "fit", "input_csv": str(csv),
                               "fixed_params": {"decay_time": 0.05}}))
    code, _ = cli.run(str(cfg), out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_NUMERICAL
    written = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert written["params"]["stretch"] == 0.05 and written["converged"] is False
