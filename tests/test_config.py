import copy
import dataclasses
import json
import math
import pathlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindd import cli, config as cfgmod, evolve, field
from spindd.config import ConfigError

_OU = {"type": "ornstein_uhlenbeck", "sigma_b": "59.22345 nT", "tau_c": "25 us"}
_TIMES = {"start": "50 us", "stop": "500 us", "count": 4, "spacing": "linear"}

# one valid config per experiment, with most optional keys present so that
# their paths get replaced too
BASES = [
    {
        "experiment": "decay",
        "seed": 1,
        "shots": 100,
        "t1_envelope": True,
        "out": "out",
        "nv": {"t1": "5.93 ms", "gamma_e_rad_per_s_per_T": 1.76e11},
        "field": [
            _OU,
            {"type": "static_offset", "b": "1 nT"},
            {"type": "quasi_static_gaussian", "sigma_b": "1 nT"},
            {"type": "polynomial", "coefficients": [1e-9, 1e-6]},
            {"type": "sinusoid_ac", "amplitude": "1 nT", "frequency": "1 kHz", "phase": "0 rad"},
        ],
        "sequence": {"kind": "cpmg", "n_pulses": 4},
        "times": _TIMES,
    },
    {
        "experiment": "decay",
        "preset": "bulk_cvd",
        "sequence": {"kind": "custom", "pulse_time_fractions": [0.25, 0.75]},
        "times": _TIMES,
    },
    {"experiment": "spinlock", "preset": "nanodiamond", "rabi_frequency": "40 kHz",
     "shots": 200, "times": _TIMES},
    {"experiment": "pulse_error", "field": [_OU], "n_pulses": 4, "flip_angle_error": 0.1,
     "phase_convention": "cp", "times": _TIMES},
    {"experiment": "suppression_table", "n_max": 4, "k_max": 3},
    {
        "experiment": "sense",
        "preset": "bulk_cvd",
        "readout": {"photons_per_shot": 0.1, "contrast": 0.3, "overhead": "2 us"},
        "sequence": {"kind": "cpmg", "n_pulses": 10},
        "sequence_tau": "27 us",
        "envelope": "auto",
        "ac_amplitude_jitter": 0.0,
        "seed": 3,
        "times": {"start": "0.5 s", "stop": "500 s", "count": 6, "spacing": "geometric"},
    },
    {"experiment": "fit", "input_csv": "curve.csv", "model": "stretched_exp",
     "fixed_params": {"amplitude": 1.0, "offset": 0.0, "stretch": 2.0}},
    {"experiment": "fit", "input_csv": "curve.csv", "model": "exponential",
     "fixed_params": {"decay_time": 1e-3}},
]

# Integers are bounded to |n| <= 10**6: a valid but huge grid or pulse count
# is a resource request, not malformed input, and would only time allocation.
# Integers from 2**64 up are past every reader's bound, and refused before
# anything is built.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.integers(2**64, 10**400)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1 us", "-5 us", "0 s", "5 nT", "1e999 s", "40 kHz", "auto",
                      "hahn", "cpmg", "fid", "custom", "geometric", "static_offset"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["kind", "type", "n_pulses"]),
                      inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(cfg, path, value):
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("base", BASES, ids=lambda b: b["experiment"])
def test_property_bases_are_valid(base):
    assert dataclasses.is_dataclass(cfgmod.validate(base)["spec"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_returns_a_spec_or_raises_config_error(data):
    base = data.draw(st.sampled_from(BASES))
    path = data.draw(st.sampled_from(list(_paths(base))))
    cfg = _replace(base, path, data.draw(_JSON))
    try:
        report = cfgmod.validate(cfg)
    except ConfigError:
        return
    assert dataclasses.is_dataclass(report["spec"])


def test_readme_config_table_lists_every_declared_key():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config fields", 1)[1].split("\n#", 1)[0]
    documented = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            key, experiments = [c.strip(" `") for c in row.strip("|").split("|")[:2]]
            names = cfgmod._EXPERIMENTS if experiments == "all" else experiments.split(", ")
            documented |= {(name, key) for name in names}
    declared = {
        (name, f.name)
        for name, cls in cfgmod._EXPERIMENTS.items()
        for f in dataclasses.fields(cls)
    }
    assert documented == declared


def test_readme_example_configs_are_valid():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```json\n")[1:]]
    examples = [json.loads(b) for b in blocks if '"experiment"' in b]
    assert examples
    for cfg in examples:
        assert dataclasses.is_dataclass(cfgmod.validate(cfg)["spec"])


@pytest.mark.parametrize("key, value", [("zero_field_splitting", "2.88 GHz"),
                                        ("static_field", "15 G")])
def test_removed_nv_keys_are_unknown(key, value):
    cfg = {"experiment": "decay", "preset": "bulk_cvd", "times": _TIMES,
           "nv": {"t1": "5.93 ms", key: value}}
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in nv"):
        cfgmod.validate(cfg)


_SHORT = {"start": "50 us", "stop": "500 us", "count": 4}
_DECAY = {"experiment": "decay", "preset": "bulk_cvd", "times": _SHORT,
          "sequence": {"kind": "cpmg", "n_pulses": 90}}
_SPINLOCK = {"experiment": "spinlock", "preset": "nanodiamond", "rabi_frequency": "40 kHz",
             "shots": 200, "times": _SHORT}
_PULSE_ERROR = {"experiment": "pulse_error", "preset": "bulk_cvd", "n_pulses": 4,
                "times": _SHORT}

_SENSE = {"experiment": "sense", "preset": "bulk_cvd", "sequence": {"kind": "hahn"},
          "times": {"start": "0.5 s", "stop": "500 s", "count": 8}}

_CPMG_2E7 = dict(_DECAY, sequence={"kind": "cpmg", "n_pulses": 2 * 10**7},
                 times=dict(_SHORT, count=1000))

# each of these asks a run to hold more than the work budget: a traceback or
# an out-of-memory kill when run, so they are only validated here
_OVER_BUDGET = {
    # the map of 2n + 3 normals and n + 1 segments on each of 1000 times
    "decay_n_pulses": (dict(_DECAY, sequence={"kind": "cpmg", "n_pulses": 10**6},
                            times=dict(_SHORT, count=1000)),
                       "sequence.n_pulses"),
    # within the reader's bound, so refused by the estimate, before it is built
    "decay_n_pulses_unbuilt": (_CPMG_2E7, "sequence.n_pulses"),
    # past what one pattern can hold: refused before it is built
    "decay_n_pulses_pattern": (dict(_DECAY, sequence={"kind": "cpmg", "n_pulses": 10**9}),
                               "sequence.n_pulses"),
    "decay_custom_pattern": (
        dict(_DECAY, sequence={"kind": "custom",
                               "pulse_time_fractions": [i / 200_001 for i in range(1, 200_001)]},
             times=dict(_SHORT, count=1000)),
        "sequence"),
    "decay_shots": (dict(_DECAY, shots=10**12), "shots"),
    "decay_times_count": (dict(_DECAY, times=dict(_SHORT, count=10**7)), "times.count"),
    "decay_times_count_grid": (dict(_DECAY, times=dict(_SHORT, count=10**12)), "times.count"),
    # steps of tau_c/20 = 1 ns to 5 ms
    "spinlock_steps": (dict(_SPINLOCK, times=dict(_SHORT, stop="5 ms")), "times"),
    "spinlock_steps_overflow": (dict(_SPINLOCK, times=dict(_SHORT, stop="1e300 s")), "times"),
    # a component of no normals a step beside it: 0 times inf steps
    "spinlock_steps_overflow_static": (
        dict(_SPINLOCK, times=dict(_SHORT, stop="1e300 s"), field=[
            *cfgmod.PRESETS["nanodiamond"]["field"], {"type": "static_offset", "b": "1 nT"}]),
        "times"),
    "spinlock_steps_overflow_quasi_static": (
        dict(_SPINLOCK, times=dict(_SHORT, stop="1e300 s"), field=[
            *cfgmod.PRESETS["nanodiamond"]["field"],
            {"type": "quasi_static_gaussian", "sigma_b": "5 nT"}]),
        "times"),
    "spinlock_shots": (dict(_SPINLOCK, preset="bulk_cvd", shots=10**10), "shots"),
    "pulse_error_n_pulses": (dict(_PULSE_ERROR, n_pulses=10**6), "n_pulses"),
    "pulse_error_shots": (dict(_PULSE_ERROR, shots=10**12), "shots"),
    # two partial sums for each of 245 chunks and 10^7 times
    "pulse_error_times_count": (dict(_PULSE_ERROR, times=dict(_SHORT, count=10**7), shots=10**6),
                                "times.count"),
    "sense_n_pulses": (dict(_SENSE, sequence={"kind": "cpmg", "n_pulses": 10**8}),
                       "sequence.n_pulses"),
    # the most pulses a reader takes: refused by the scan's estimate, unbuilt
    "sense_n_pulses_unbuilt": (dict(_SENSE, sequence={"kind": "cpmg", "n_pulses": 2**30}),
                               "sequence.n_pulses"),
    # a grid past the budget is refused by the scan's estimate, before it is built
    "sense_times_count_grid": (dict(_SENSE, times=dict(_SENSE["times"], count=6 * 10**8)),
                               "times.count"),
    "sense_times_count_most": (dict(_SENSE, times=dict(_SENSE["times"], count=2**30)),
                               "times.count"),
    # 10^8 rows of the table
    "suppression_n_max": ({"experiment": "suppression_table", "n_max": 10**8, "k_max": 0},
                          "n_max"),
    # 10^8 rows of 10^5 integers of up to 1.1 million bits
    "suppression_k_max": ({"experiment": "suppression_table", "n_max": 1000, "k_max": 10**5},
                          "k_max"),
    # 10^18 rows: refused by the reader
    "suppression_rows": ({"experiment": "suppression_table", "n_max": 10**12, "k_max": 10**6},
                         "n_max"),
    "suppression_k_max_alone": ({"experiment": "suppression_table", "n_max": 1, "k_max": 10**12},
                                "k_max"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, key", list(_OVER_BUDGET.values()), ids=list(_OVER_BUDGET))
def test_work_over_the_budget_is_refused_naming_the_field(cfg, key):
    with pytest.raises(ConfigError) as exc:
        cfgmod.validate(cfg)
    assert str(exc.value).startswith(f"{key}:") or str(exc.value).startswith(f"{key} must")


def _refusal_cost(cfg, key):
    """Seconds and traced peak bytes of ``validate(cfg)`` refusing it, naming
    ``key``, for the work budget."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ConfigError, match=f"^{key}: this run would hold"):
            cfgmod.validate(cfg)
        return time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["decay_times_count", "pulse_error_times_count"])
def test_a_run_is_refused_before_its_grid_is_built(case):
    # the 10^7 times were built as they were read: 0.17 s and 170 MB traced
    seconds, peak = _refusal_cost(*_OVER_BUDGET[case])
    assert seconds < 0.1 and peak < 1e6, (seconds, peak)


@pytest.mark.parametrize("spacing", ["linear", "geometric"])
def test_a_grid_of_repeated_times_exits_2_naming_times(tmp_path, capsys, spacing):
    # start and stop one ulp apart: 3 points repeat one of them
    times = {"start": "5e-05 s", "stop": f"{math.nextafter(5e-05, 1)!r} s", "count": 3,
             "spacing": spacing}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_DECAY, times=times)))
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: times: ")


def test_a_decay_is_refused_before_its_pattern_is_built():
    # the 2 10^7 pulses built first took 5 to 7 s and 1.26 GB of RSS
    seconds, peak = _refusal_cost(_CPMG_2E7, "sequence.n_pulses")
    assert seconds < 0.1 and peak < 1e6, (seconds, peak)


@pytest.mark.parametrize("case", ["sense_n_pulses", "sense_n_pulses_unbuilt",
                                  "sense_times_count_grid", "sense_times_count_most"])
def test_a_sense_scan_is_refused_before_it_is_built(case):
    # the pattern was built as it was read, bounded only by 2^30/50 pulses
    # (2 10^6 pulses: 0.9 s and 232 MB), and the grid below 2^29 points
    seconds, peak = _refusal_cost(*_OVER_BUDGET[case])
    assert seconds < 0.1 and peak < 1e6, (seconds, peak)


@pytest.mark.parametrize("spec", [{"kind": "fid"}, {"kind": "hahn"}, {"kind": "cpmg", "n_pulses": 7},
                                  {"kind": "custom", "pulse_time_fractions": [0.1, 0.5, 0.7]}])
def test_a_pattern_counts_the_pulses_it_builds(spec):
    # the estimate reads the count before the pattern is built
    pattern = cfgmod.parse_sequence_spec(spec)
    assert pattern.n_pulses == pattern.build(1.0).n_pulses
    assert pattern.kind == pattern.build(1.0).kind


# 3 10^5 pulses: each fraction's path was formatted as it was read, 0.5 to
# 0.9 s of validate
_LONG = [i / 300_001 for i in range(1, 300_001)]


def _custom(fractions):
    return dict(_DECAY, sequence={"kind": "custom", "pulse_time_fractions": fractions},
                times=dict(_SHORT, count=10))


@pytest.mark.parametrize("value, message", [
    (True, "must be a finite number in (-inf, inf), got True"),
    ("0.5", "must be a finite number in (-inf, inf), got '0.5'"),
    (10**400, "must be a finite number in (-inf, inf), got 1000"),
    (float("nan"), "must be a finite number in (-inf, inf), got nan"),
    (1.5, "must be strictly increasing in (0, 1)"),
    (0.1, "must be strictly increasing in (0, 1)"),
], ids=["bool", "string", "10^400", "nan", "outside", "not_increasing"])
def test_a_list_refuses_its_first_bad_element_by_index(value, message):
    # read through JSON text, as a config file is: NaN is JSON's NaN
    fractions = [*_LONG[-10_000:-2], value, _LONG[-1]]
    with pytest.raises(ConfigError) as exc:
        cfgmod.validate(json.loads(json.dumps(_custom(fractions))))
    element = "[9998]" if "number" in message else ""
    assert str(exc.value).startswith(f"sequence.pulse_time_fractions{element} {message}")


def test_a_long_list_is_read_in_one_pass():
    cfg = _custom(_LONG)
    cfgmod.validate(cfg)  # numpy's and the interpreter's first calls
    start = time.perf_counter()
    spec = cfgmod.validate(cfg)["spec"]
    assert time.perf_counter() - start < 0.5
    assert spec.sequence.n_pulses == len(_LONG)


@pytest.mark.parametrize("fractions", [[], [0.0, 0.5], [0.5, 1.0], [0.3, 0.3], [0.5, 0.2],
                                       [*_LONG[:-1], _LONG[-2]]],
                         ids=["empty", "zero", "one", "repeated", "decreasing", "long_repeated"])
def test_a_custom_pattern_refuses_each_fraction_out_of_range_or_order(fractions):
    with pytest.raises(ConfigError, match=r"^sequence\.pulse_time_fractions must be strictly "
                                          r"increasing in \(0, 1\)$"):
        cfgmod.validate(_custom(fractions))


_MULTI_SLOT = [_OU, {"type": "quasi_static_gaussian", "sigma_b": "5 nT"},
               {"type": "ornstein_uhlenbeck", "sigma_b": "20 nT", "tau_c": "2 us"},
               {"type": "static_offset", "b": "1 nT"}]


def _estimate(monkeypatch, cfg):
    """The spec of ``cfg`` and its work-budget estimate in bytes: the spec's
    last check, its one estimate, or a spin lock's steps once its grid is
    built."""
    terms = []
    monkeypatch.setattr(cfgmod, "_within_budget", terms.append)
    spec = cfgmod.validate(cfg)["spec"]
    return spec, 8 * sum(terms[-1].values())


def _traced_peak(run):
    """The tracemalloc peak of ``run()``, after one untraced call for numpy's
    and the interpreter's first-call allocations."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the bloch benchmark's pulse-error step
_BLOCH_PULSE_ERROR = dict(_PULSE_ERROR, n_pulses=50, phase_convention="cp",
                          times={"start": "0.1 ms", "stop": "1 ms", "count": 8}, shots=200)
_BULK_SPINLOCK = dict(_SPINLOCK, preset="bulk_cvd", rabi_frequency="60 kHz",
                      times={"start": "0.02 ms", "stop": "0.16 ms", "count": 8})


# (config, the most the estimate may read as a multiple of the peak, or None)
@pytest.mark.parametrize("cfg, upper", [
    (dict(_DECAY, sequence={"kind": "hahn"}, times=dict(_SHORT, count=10), shots=2000), None),
    (dict(_DECAY, sequence={"kind": "hahn"}, times=dict(_SHORT, count=1000), shots=100), None),
    (dict(_DECAY, times=dict(_SHORT, count=12), shots=1500), None),
    (dict(_DECAY, field=_MULTI_SLOT, sequence={"kind": "cpmg", "n_pulses": 8},
          times=dict(_SHORT, count=12), shots=1000), None),
    # a long pattern is charged for what the curve holds of it
    (dict(_DECAY, sequence={"kind": "cpmg", "n_pulses": 10**5}, times=dict(_SHORT, count=2),
          shots=100), 2),
    # a short train of 2000 rows: two times to a block of the turn loop
    (dict(_PULSE_ERROR, n_pulses=1, shots=2000), 3),
    (_PULSE_ERROR, 3),
    (_BLOCH_PULSE_ERROR, 3),
    (dict(_PULSE_ERROR, field=_MULTI_SLOT, n_pulses=8, times=dict(_SHORT, count=7)), 3),
    (dict(_PULSE_ERROR, n_pulses=200, times=dict(_SHORT, count=5), shots=100), 3),
    (dict(_PULSE_ERROR, n_pulses=10**4, times=dict(_SHORT, count=2), shots=100), 2),
    (_BULK_SPINLOCK, None),
    (dict(_SPINLOCK, preset="bulk_cvd", field=_MULTI_SLOT,
          times={"start": "0.02 ms", "stop": "0.16 ms", "count": 8}), None),
], ids=["hahn_10_times", "hahn_1000_times", "cpmg_90", "multi_slot", "cpmg_100000",
        "pulse_error_1", "pulse_error_4", "pulse_error_cp_50", "pulse_error_multi_slot",
        "pulse_error_200", "pulse_error_10000", "spinlock", "spinlock_multi_slot"])
def test_decay_estimate_bounds_the_traced_peak(monkeypatch, cfg, upper):
    """Each Monte Carlo curve's estimate, the decay's, the pulse-error
    train's and the spin lock's, bounds the peak the curve traces."""
    spec, estimate = _estimate(monkeypatch, cfg)
    peak = _traced_peak(spec.curve)
    assert estimate >= peak, (estimate, peak)
    if upper is not None:
        assert estimate <= upper * peak, (estimate, peak)


@pytest.mark.parametrize("turn_words", [2**10, 2**12, 2**14])
@pytest.mark.parametrize("stream_words", [2**11, 2**13, 2**15])
@pytest.mark.parametrize("cfg", [_BULK_SPINLOCK, _PULSE_ERROR, _BLOCH_PULSE_ERROR],
                         ids=["spinlock", "pulse_error_4", "pulse_error_cp_50"])
def test_estimates_follow_the_block_constants(monkeypatch, cfg, stream_words, turn_words):
    # the curves' blocks grow with these, and their estimates with them
    monkeypatch.setattr(field, "STREAM_WORDS", stream_words)
    monkeypatch.setattr(evolve, "TURN_WORDS", turn_words)
    spec, estimate = _estimate(monkeypatch, cfg)
    peak = _traced_peak(spec.curve)
    assert estimate >= peak, (estimate, peak)


def test_pulse_error_block_holds_its_phases_once():
    # a block's phases are 4 times x 200 rows x 51 segments, 0.33 MB; a
    # zero-filled sum of the components, held beside the OU integrals, made
    # the peak 1.69 MB
    spec = cfgmod.validate(_BLOCH_PULSE_ERROR)["spec"]
    peak = _traced_peak(spec.curve)
    assert peak <= 1.69e6 - 4 * 200 * 51 * 8 / 2, peak


def test_pulse_error_phases_are_turned_as_they_are_made():
    # each segment's phases are made, turned and dropped in turn: the 8 times
    # x 200 rows x 51 segments of the bloch step's phases, 0.65 MB, are never
    # held at once (measured 0.33 MB; 1.37 MB with block maps and a phase
    # array per block of 4 times)
    spec = cfgmod.validate(_BLOCH_PULSE_ERROR)["spec"]
    peak = _traced_peak(spec.curve)
    assert peak <= 0.5e6, peak


# a sense scan of 10^5 times or pulses, run from the spec validate returns
_AUTO = dict(_SENSE, envelope="auto")
_SENSE_RUNS = {
    "hahn_times": dict(_AUTO, times=dict(_SENSE["times"], count=10**5)),
    "cpmg_times": dict(_AUTO, sequence={"kind": "cpmg", "n_pulses": 10}, sequence_tau="27 us",
                       times=dict(_SENSE["times"], count=10**5, spacing="geometric")),
    "cpmg_pulses": dict(_AUTO, sequence={"kind": "cpmg", "n_pulses": 10**5},
                        sequence_tau="10 ns"),
    "cpmg_pulses_multi_slot": dict(_AUTO, field=_MULTI_SLOT, sequence_tau="10 ns",
                                   sequence={"kind": "cpmg", "n_pulses": 10**5}),
}


@pytest.mark.parametrize("cfg", list(_SENSE_RUNS.values()), ids=list(_SENSE_RUNS))
def test_sense_estimate_bounds_the_traced_peak(monkeypatch, tmp_path, cfg):
    """A sense scan's estimate bounds the peak of validate and the run
    together, which hold its grid, scan, pattern and envelope, and reads at
    most 3 times that peak."""
    _, estimate = _estimate(monkeypatch, cfg)
    monkeypatch.undo()
    peak = _traced_peak(lambda: cli._run_sense(cfgmod.validate(cfg)["spec"], str(tmp_path), 1))
    assert peak <= estimate <= 3 * peak, (estimate, peak)


@pytest.mark.parametrize("n_max, k_max", [(256, 12), (2000, 0), (50, 40), (8, 5), (1, 0)])
def test_suppression_estimate_bounds_the_writers_peak(monkeypatch, tmp_path, n_max, k_max):
    """The table's estimate bounds what writing suppression.csv holds: the
    whole table and one n's rows of text, never the whole file's text."""
    spec, estimate = _estimate(monkeypatch, {"experiment": "suppression_table",
                                             "n_max": n_max, "k_max": k_max})
    peak = _traced_peak(lambda: cli._run_suppression(spec, str(tmp_path), 1))
    assert estimate >= peak, (estimate, peak)


def test_work_within_the_budget_is_valid():
    # the same configs one step smaller
    for cfg in (dict(_DECAY, sequence={"kind": "cpmg", "n_pulses": 10**4}),
                dict(_DECAY, shots=10**8),
                dict(_SPINLOCK, times=dict(_SHORT, stop="600 us")),
                dict(_PULSE_ERROR, n_pulses=10**4),
                {"experiment": "suppression_table", "n_max": 10**6, "k_max": 12}):
        assert dataclasses.is_dataclass(cfgmod.validate(cfg)["spec"])
