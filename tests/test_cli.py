import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decodyn import cli, states
from decodyn.bath import discretize_ohmic
from decodyn.cli import ConfigError, list_presets, main, parse_config, preset_config, run_scenario
from decodyn.model import (
    LinearCoupling,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from decodyn.rates import RatePair
from decodyn.states import GridSpec
from decodyn.strongdec import DecoherenceSeries

REQUIRED_PRESETS = {
    "linear",
    "quadratic",
    "cubic-cat",
    "sine-cat",
    "saturation-scan",
    "hbar-scan",
    "mc-validate",
    "fock-validate",
}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


OHMIC = {"eta": 0.25, "omega_c": 1.0, "n_modes": 8, "omega_max": 5.0}
TABLE = {"variant": "tabulated", "q": [-5, -1, 1, 5], "values": [-5, -1, 1, 5]}
SMALL_STATE = {"packets": [{"center_q": 0.0, "sigma": 0.1}]}


# a mode whose weights are all finite, but whose phase omega t overflows
# past t = 1.8e8
FAST_MODE = {"modes": [{"m": 1.0, "omega": 1e300, "c": 1.0}]}
# a mode whose weights are all finite (b1's is 1e308), but whose b1 term
# overflows once w t - sin(w t) passes 1.8, near t = 2.45
HEAVY_MODE = {"m": 1.0, "omega": 1.0, "c": 1e154}
GRID_OVER_CAP = {"q_min": -5.0, "q_max": 5.0, "n_points": cli._MAX_GRID_POINTS + 1}


def _cat_of_width(sigma):
    return {
        "packets": [
            {"center_q": -4.0, "sigma": sigma},
            {"center_q": 4.0, "sigma": sigma},
        ]
    }


def small_config(**overrides):
    cfg = {
        "name": "mini",
        "model": {"hbar": 1.0, "beta": None},
        "bath": {"modes": [{"m": 1.0, "omega": 1.0, "c": 1.0}]},
        "coupling": {"variant": "linear", "a": 1.0},
        "state": {"packets": [{"center_q": 0.0, "sigma": 0.5}]},
        "time": {"t_max": 1.0, "n_steps": 20},
    }
    cfg.update(overrides)
    return cfg


def test_list_presets_contains_required_names():
    names = {name for name, _ in list_presets()}
    assert REQUIRED_PRESETS <= names
    for _, desc in list_presets():
        assert desc


def test_every_preset_config_parses():
    for name in REQUIRED_PRESETS:
        parse_config(preset_config(name))


@pytest.mark.parametrize("name", sorted(REQUIRED_PRESETS))
def test_every_preset_runs_within_budget(tmp_path, name):
    start = time.perf_counter()
    paths = run_scenario(name, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert paths["series"].exists()
    assert paths["manifest"].exists()


def test_run_minimal_config(tmp_path):
    paths = run_scenario(small_config(), out_dir=tmp_path)
    assert set(paths) == {"series", "manifest"}
    header, rows = read_csv(paths["series"])
    assert header == ["t", "B1", "B2", "gamma_c", "gamma_q", "S_c", "S_q",
                      "phase_c", "phase_q", "logmod_c", "logmod_q"]
    assert rows.shape == (20, 11)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["grid"]["n_points"] >= 16
    assert manifest["bath"]["n_modes"] == 1
    assert "spacing" in manifest["grid"]
    assert manifest["versions"]["decodyn"]


def test_linear_preset_series_has_matching_sides(tmp_path):
    paths = run_scenario("linear", out_dir=tmp_path)
    header, rows = read_csv(paths["series"])
    col = {name: i for i, name in enumerate(header)}
    assert np.max(np.abs(rows[:, col["gamma_c"]] - rows[:, col["gamma_q"]])) < 1e-12
    assert np.max(np.abs(rows[:, col["S_c"]] - rows[:, col["S_q"]])) < 1e-10


def test_cubic_preset_quantum_decay_without_classical(tmp_path):
    paths = run_scenario("cubic-cat", out_dir=tmp_path)
    header, rows = read_csv(paths["series"])
    col = {name: i for i, name in enumerate(header)}
    assert np.all(rows[:, col["gamma_c"]] == 0.0)
    late = rows[1:, col["gamma_q"]]
    assert np.all(late < 0.0)


def test_sine_preset_classical_decay_without_quantum(tmp_path):
    paths = run_scenario("sine-cat", out_dir=tmp_path)
    header, rows = read_csv(paths["series"])
    col = {name: i for i, name in enumerate(header)}
    gq = np.abs(rows[:, col["gamma_q"]])
    gc = rows[1:, col["gamma_c"]]
    assert np.all(gc < 0.0)
    assert gq.max() < 1e-12 * np.abs(gc).max()


def test_saturation_preset_scan(tmp_path):
    paths = run_scenario("saturation-scan", out_dir=tmp_path)
    header, rows = read_csv(paths["scan"])
    assert header == ["separation", "rate_classical", "rate_quantum", "ratio"]
    classical = rows[:, 1]
    quantum = rows[:, 2]
    assert np.all(np.diff(classical) > 0)
    assert classical[-1] > 10 * classical[0]
    top = quantum[-3:]
    assert (top.max() - top.min()) < 0.05 * top.min()


def test_hbar_preset_scan(tmp_path):
    paths = run_scenario("hbar-scan", out_dir=tmp_path)
    header, rows = read_csv(paths["scan"])
    assert header[0] == "hbar_factor"
    ratios = rows[:, 3]
    assert abs(ratios[0] - ratios[1]) <= 1e-12 * ratios[0]


def test_oracle_outputs_schema(tmp_path):
    paths = run_scenario("mc-validate", out_dir=tmp_path)
    data = json.loads(paths["oracle"].read_text())
    assert set(data) == {"mc"}
    for record in data["mc"]:
        assert {"t", "mean_re", "mean_im", "std_error", "n_samples",
                "analytic_re", "analytic_im", "sigma_distance"} <= set(record)
        assert record["sigma_distance"] < 4.0
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["oracle"]["mc"]["n_samples"] == 20000

    paths = run_scenario("fock-validate", out_dir=tmp_path)
    data = json.loads(paths["oracle"].read_text())
    for record in data["fock"]:
        assert record["modulus_error"] < 1e-8


def strict_json(path: Path):
    """The JSON document at path, refusing the Infinity and NaN that json
    writes and that no JSON parser has to read."""

    def refuse(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_zero_spread_mc_estimate_has_a_finite_sigma_distance(tmp_path):
    # with this mode every sampled phase is near 1e-178: the jackknife's
    # squared deviations once underflowed to 0, so the error bar read 0 and
    # the oracle file held "sigma_distance": Infinity
    cfg = preset_config("mc-validate") | {"bath": {"modes": [{"m": 1e150, "omega": 1.0, "c": 1e-100}]}}
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    records = strict_json(tmp_path / "out" / "mc-validate_oracle.json")["mc"]
    assert len(records) == 3
    for record in records:
        assert record["mean_im"] != record["analytic_im"]
        assert 0.0 < record["std_error"] < 1e-170
        assert math.isfinite(record["sigma_distance"])


def test_deterministic_outputs(tmp_path):
    a = run_scenario("mc-validate", out_dir=tmp_path / "a")
    b = run_scenario("mc-validate", out_dir=tmp_path / "b")
    assert a["series"].read_bytes() == b["series"].read_bytes()
    assert a["oracle"].read_bytes() == b["oracle"].read_bytes()
    assert a["manifest"].read_bytes() == b["manifest"].read_bytes()
    c = run_scenario("mc-validate", out_dir=tmp_path / "c", seed=99)
    assert c["oracle"].read_bytes() != a["oracle"].read_bytes()


# values whose %.17g text has edge cases: nan, the infinities, both zeros,
# the largest and smallest magnitudes, a subnormal and ordinary fractions
CSV_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.1, -2.5, 1.0 / 3.0]


def per_value_csv(header, rows):
    """The CSV writer's text before it formatted a row at a time."""
    return "\n".join([header, *(",".join(f"{v:.17g}" for v in row) for row in rows)]) + "\n"


def test_csv_rows_have_the_per_value_text(tmp_path):
    rng = np.random.default_rng(11)
    fields = {field: rng.choice(CSV_VALUES, 200) for field in DecoherenceSeries.__dataclass_fields__ if field != "probe"}
    series = DecoherenceSeries(**fields, probe=(0.0, 1.0))
    cli._write_series(tmp_path / "series.csv", series)
    # the fields are declared in column order
    rows = zip(*fields.values())
    assert (tmp_path / "series.csv").read_text() == per_value_csv(",".join(DecoherenceSeries.COLUMNS), rows)
    # scan keys may arrive as Python or numpy numbers
    keys = [*rng.choice(CSV_VALUES, 40).tolist(), *rng.choice(CSV_VALUES, 40), 2, 7]
    pairs = [RatePair(*rng.choice(CSV_VALUES, 3).tolist()) for _ in keys]
    cli._write_scan(tmp_path / "scan.csv", "separation", keys, pairs)
    rows = [(k, p.classical_rate, p.quantum_rate, p.ratio) for k, p in zip(keys, pairs)]
    assert (tmp_path / "scan.csv").read_text() == per_value_csv("separation,rate_classical,rate_quantum,ratio", rows)


def test_seed_override_recorded(tmp_path):
    paths = run_scenario(small_config(), out_dir=tmp_path, seed=42)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["seed"] == 42


def test_config_errors_name_fields():
    with pytest.raises(ConfigError, match="config.name"):
        parse_config(small_config() | {"name": None} | {})
    with pytest.raises(ConfigError, match="bath"):
        parse_config({k: v for k, v in small_config().items() if k != "bath"})
    with pytest.raises(ConfigError, match="time.t_max"):
        parse_config(small_config(time={"t_max": -1.0, "n_steps": 10}))
    with pytest.raises(ConfigError, match="state.packets"):
        parse_config(small_config(state={"packets": []}))
    with pytest.raises(ConfigError, match="coupling"):
        parse_config(small_config(coupling={"variant": "nope"}))
    with pytest.raises(ConfigError, match="scan"):
        parse_config(small_config(scan={"separations": [1.0, 2.0]}))
    with pytest.raises(ConfigError, match="oracle.mc.n_samples"):
        parse_config(small_config(oracle={"mc": {"times": [1.0], "n_samples": 64}}))
    with pytest.raises(ConfigError, match="oracle.fock.n_levels"):
        parse_config(small_config(oracle={"fock": {"times": [1.0], "n_levels": 4}}))


# a state whose grid, [0.8, 3.2], lies inside the tabulated case's table
INSIDE_TABLE = {"packets": [{"center_q": 2.0, "sigma": 0.1}]}

CONFIG_CASES = [
    ({"variant": "linear", "a": 2.0}, LinearCoupling(2.0)),
    ({"variant": "quadratic", "a": 1.0, "b": 0.3}, QuadraticCoupling(1.0, 0.3)),
    ({"variant": "polynomial", "coefficients": [0, 1, 0, -2]}, PolynomialCoupling((0.0, 1.0, 0.0, -2.0))),
    (
        {"variant": "sinusoidal", "amplitude": 1.5, "wavelength": 4.0, "phase": 0.25},
        SinusoidalCoupling(1.5, 4.0, 0.25),
    ),
    (
        {"variant": "tabulated", "q": [0, 1, 2, 3, 4], "values": [0, 1, 0, -1, 0]},
        TabulatedCoupling((0, 1, 2, 3, 4), (0, 1, 0, -1, 0)),
    ),
]


@pytest.mark.parametrize("cfg,f", CONFIG_CASES, ids=[f"f{i}" for i in range(len(CONFIG_CASES))])
def test_config_roundtrip(cfg, f):
    parsed = parse_config(small_config(coupling=cfg, state=INSIDE_TABLE)).coupling
    q = np.linspace(0.5, 3.5, 11)
    np.testing.assert_allclose(parsed.eval(q), f.eval(q), rtol=0, atol=1e-14)


def test_config_errors():
    with pytest.raises(ConfigError, match="variant"):
        parse_config(small_config(coupling={"variant": "fourier"}))
    with pytest.raises(ConfigError):
        parse_config(small_config(coupling={"a": 1.0}))
    with pytest.raises(ConfigError, match="missing"):
        parse_config(small_config(coupling={"variant": "sinusoidal"}))


# bounded so that no product in the coupling classes overflows
FINITE = st.floats(-1e100, 1e100)


@given(a=FINITE, b=FINITE)
def test_linear_and_quadratic_config_aliases(a, b):
    # the config variants linear and quadratic build the polynomial subclasses
    f = parse_config(small_config(coupling={"variant": "linear", "a": a})).coupling
    g = parse_config(small_config(coupling={"variant": "quadratic", "a": a, "b": b})).coupling
    assert f == LinearCoupling(a)
    assert g == QuadraticCoupling(a, b)
    assert isinstance(f, PolynomialCoupling) and isinstance(g, PolynomialCoupling)


def _leaves(node, path=()):
    """Key paths to every scalar of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["inf", 0, -1, -2.5, 10**400, math.inf, -math.inf, math.nan, 1e308]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "m", "q"]), st.integers(-2, 2), max_size=1),
)


@pytest.mark.parametrize("name", sorted(REQUIRED_PRESETS))
@given(data=st.data())
def test_parse_fuzz_raises_only_config_errors(name, data):
    # one or two leaves of a preset replaced by arbitrary JSON values: the
    # parser returns a scenario or names the bad field, nothing else
    cfg = json.loads(json.dumps(preset_config(name)))
    paths = data.draw(st.lists(st.sampled_from(_leaves(cfg)), min_size=1, max_size=2, unique=True))
    for path in paths:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(JSON_VALUES)
    try:
        assert isinstance(parse_config(cfg), cli.Scenario)
    except ConfigError:
        pass


@pytest.mark.parametrize(
    "change",
    [
        lambda cfg: cfg["oracle"]["fock"].update(n_levels=8),
        lambda cfg: cfg["coupling"].update(a=20.0),
    ],
    ids=["8-levels", "strong-coupling"],
)
def test_unconverged_fock_truncation_exits_2_and_writes_nothing(tmp_path, capsys, change):
    # doubling the truncation moves the overlap by more than 1e-8, which the
    # config can only mend through oracle.fock.n_levels
    cfg = preset_config("fock-validate")
    change(cfg)
    path = tmp_path / "fock.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: oracle.fock.n_levels: Fock overlap not converged")
    assert not out.exists()


def test_main_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "ok.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    assert main(["validate", str(cfg_path)]) == 0
    assert main(["validate", "linear"]) == 0

    latin1 = tmp_path / "latin1.json"
    # a config saved as Latin-1 is not valid UTF-8
    latin1.write_bytes(json.dumps(small_config(name="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    for argv in (["validate", str(latin1)], ["run", str(latin1), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: config: ")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_config(time={"n_steps": 10})))
    assert main(["validate", str(bad)]) == 2
    assert "time.t_max" in capsys.readouterr().err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["validate", str(notjson)]) == 2

    assert main(["run", "no-such-preset", "--out", str(tmp_path)]) == 2

    # explicit grid too small for the packets -> coverage exit code, from
    # validate as from run and with the same message; sigma 1 needs [-8, 8]
    grid = {"q_min": -2.0, "q_max": 2.0, "n_points": 64}
    cfg = small_config(state={"packets": [{"center_q": 0.0, "sigma": 1.0}], "grid": grid})
    covered = tmp_path / "cover.json"
    covered.write_text(json.dumps(cfg))
    capsys.readouterr()
    messages = []
    for argv in (["validate", str(covered)], ["run", str(covered), "--out", str(tmp_path / "out2")]):
        assert main(argv) == 3
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0].startswith("grid coverage error: grid [-2.0, 2.0] does not cover required [-8.0, 8.0]")
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"state": {"packets": [{"center_q": 0.0, "sigma": float("inf")}]}}, "state.packets[0].sigma"),
        ({"state": {"packets": [{"center_q": float("nan"), "sigma": 0.5}]}}, "state.packets[0].center_q"),
        ({"time": {"t_max": 10**400, "n_steps": 20}}, "time.t_max"),
        ({"coupling": {"variant": "linear", "a": float("inf")}}, "coupling.a"),
        ({"coupling": {"variant": "sinusoidal", "wavelength": float("nan")}}, "coupling.wavelength"),
        ({"coupling": {"variant": "linear", "a": None}}, "coupling.a"),
        ({"coupling": {"variant": "polynomial", "coefficients": 5}}, "coupling.coefficients"),
        ({"oracle": {"mc": {"times": ["soon"]}}}, "oracle.mc.times[0]"),
        ({"oracle": {"fock": {"times": [float("nan")]}}}, "oracle.fock.times[0]"),
        ({"scan": {"separations": [2, float("inf")], "sigma": 0.5}}, "scan.separations[1]"),
        ({"scan": {"hbar_factors": [float("nan")]}}, "scan.hbar_factors[0]"),
        ({"bath": {"ohmic": dict(OHMIC, omega_c=[1])}}, "bath.ohmic.omega_c"),
        ({"bath": {"ohmic": dict(OHMIC, omega_c="fast")}}, "bath.ohmic.omega_c"),
        ({"bath": {"ohmic": dict(OHMIC, omega_c=True)}}, "bath.ohmic.omega_c"),
        ({"model": {"beta": float("inf")}}, "model.beta"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, overrides, field):
    # json writes and reads Infinity and NaN; a huge integer overflows float;
    # null, a string or a non-list where numbers belong is rejected alike
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(small_config(**overrides)))
    assert main(["validate", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    with pytest.raises(ConfigError, match="finite"):
        parse_config(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"bath": {"ohmic": dict(OHMIC, omega_c=0)}}, "bath.ohmic.omega_c"),
        ({"bath": {"ohmic": dict(OHMIC, eta=-0.25)}}, "bath.ohmic.eta"),
        ({"bath": {"ohmic": dict(OHMIC, n_modes=0)}}, "bath.ohmic.n_modes"),
        ({"bath": {"ohmic": dict(OHMIC, omega_max=0.0)}}, "bath.ohmic.omega_max"),
        ({"state": {"packets": [{"center_q": 0.0, "sigma": float("nan")}]}}, "state.packets[0].sigma"),
        (
            {"state": {"packets": [{"center_q": 0.0, "sigma": 0.5}], "grid": {"q_min": None}}},
            "state.grid.q_min",
        ),
        ({"bath": {"modes": [{"m": 0, "omega": 1.0, "c": 1.0}]}}, "bath.modes[0]"),
        ({"bath": {"modes": [{"m": 1.0, "omega": -1, "c": 1.0}]}}, "bath.modes[0]"),
        ({"coupling": {"variant": "linear", "a": float("inf")}}, "coupling.a"),
        ({"coupling": {"variant": "sinusoidal", "amplitude": 1.0}}, "coupling.wavelength"),
        ({"coupling": {"variant": "fourier"}}, "coupling.variant"),
        # the linear preset's state reaches +-8.8, past the table's ends
        ({"coupling": TABLE, "state": preset_config("linear")["state"]}, "coupling.q"),
        # the state lies inside the table, the probe or the widest scan cat does not
        ({"coupling": TABLE, "state": SMALL_STATE, "probe": {"q1": -1.0, "q2": 6.0}}, "coupling.q"),
        ({"coupling": TABLE, "state": SMALL_STATE, "scan": {"separations": [1.0, 8.0], "sigma": 0.1}}, "coupling.q"),
        ({"scan": {"separations": [4.0, 2.0], "sigma": 0.5}}, "scan.separations"),
        ({"scan": {"separations": [2.0, 4.0], "sigma": 1.0}}, "scan.sigma"),
        ({"scan": {"hbar_factors": [1.0, 0.0]}}, "scan.hbar_factors[1]"),
        ({"bath": {"ohmic": OHMIC}, "oracle": {"fock": {"times": [1.0]}}}, "oracle.fock"),
        # the name opens every output file name
        ({"name": "sub/dir"}, "config.name"),
        ({"name": "../x"}, "config.name"),
        # finite inputs whose Ohmic couplings overflow
        ({"bath": {"ohmic": dict(OHMIC, omega_max=1e308)}}, "bath.ohmic"),
        ({"bath": {"ohmic": dict(OHMIC, eta=1e308)}}, "bath.ohmic"),
        # the automatic grid of these states is refused when parsed
        ({"state": {"packets": [{"center_q": 0.0, "sigma": 5e-324}]}}, "state"),
        ({"state": {"packets": [{"center_q": 1e308, "sigma": 0.5}]}}, "state"),
        # grids over the size cap: explicit, automatic and the widest scan cat
        (
            {"state": {"packets": [{"center_q": 0.0, "sigma": 0.5}], "grid": GRID_OVER_CAP}},
            "state.grid.n_points",
        ),
        ({"state": _cat_of_width(1e-7)}, "state"),
        ({"scan": {"separations": [1.0, 8.0], "sigma": 1e-7}}, "scan"),
        # the MC oracle draws one substream block of 2 normals per mode
        ({"bath": {"ohmic": dict(OHMIC, n_modes=cli._MAX_MC_MODES + 1)}, "oracle": {"mc": {"times": [1.0]}}}, "oracle.mc"),
        # finite inputs whose thermal weights or 1/hbar overflow
        ({"model": {"beta": 1e-310}}, "model.beta"),
        ({"bath": {"modes": [{"m": 1.0, "omega": 1.0, "c": 1e200}]}}, "bath.modes[0]"),
        ({"bath": {"modes": [{"m": 1e-320, "omega": 1.0, "c": 1.0}]}}, "bath.modes[0]"),
        ({"bath": {"modes": [{"m": 1.0, "omega": 1e-110, "c": 1.0}]}}, "bath.modes[0]"),
        ({"scan": {"hbar_factors": [1.0, 1e-320]}}, "scan.hbar_factors[1]"),
        ({"model": {"hbar": 1e-320}}, "model.hbar"),
        # finite times at which omega t of the fastest mode overflows
        ({"bath": FAST_MODE, "time": {"t_max": 1e10, "n_steps": 20}}, "time.t_max"),
        ({"bath": FAST_MODE, "oracle": {"mc": {"times": [1.0, 1e10]}}}, "oracle.mc.times[1]"),
        ({"bath": FAST_MODE, "oracle": {"fock": {"times": [-1e10]}}}, "oracle.fock.times[0]"),
        # empty lists: no mode, no oracle time
        ({"bath": {"modes": []}}, "bath.modes"),
        ({"oracle": {"mc": {"times": []}}}, "oracle.mc.times"),
        ({"oracle": {"fock": {"times": []}}}, "oracle.fock.times"),
        # seeds outside [0, 2^64)
        ({"seed": -1}, "config.seed"),
        ({"seed": 2**64}, "config.seed"),
        ({"seed": 2**128}, "config.seed"),
        # finite weights whose kernel terms, or their sum over the modes,
        # overflow by the last time: b1's weight times w t - sin(w t)
        ({"bath": {"modes": [HEAVY_MODE]}, "time": {"t_max": 10.0, "n_steps": 20}}, "bath.modes[0]"),
        ({"bath": {"modes": [dict(HEAVY_MODE, c=3.5e153)] * 2}, "time": {"t_max": 10.0, "n_steps": 20}}, "bath.modes"),
        ({"bath": {"ohmic": dict(OHMIC, eta=1e300)}, "time": {"t_max": 1e10, "n_steps": 20}}, "bath.ohmic"),
        ({"bath": {"modes": [HEAVY_MODE]}, "oracle": {"mc": {"times": [1.0, 10.0]}}}, "bath.modes[0]"),
        # hbar x factor underflows to 0, which the scaled bath refuses
        ({"model": {"hbar": 1e-300}, "scan": {"hbar_factors": [1.0, 1e-300]}}, "scan.hbar_factors[1]"),
        # an empty list of scan factors
        ({"scan": {"hbar_factors": []}}, "scan.hbar_factors"),
    ],
)
def test_config_errors_name_the_field_once(tmp_path, capsys, overrides, field):
    # the message opens with the field's full path and says it only once,
    # and validate exits 2 with it
    with pytest.raises(ConfigError) as err:
        parse_config(small_config(**overrides))
    message = str(err.value)
    assert message.startswith(f"{field}: ")
    assert message.count(field) == 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(small_config(**overrides)))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_kernel_overflow_is_blamed_on_the_bath_mode(tmp_path, capsys):
    # the linear preset (t_max 10) with one mode of c 1e154: every weight is
    # finite, but b1's term overflows once w t - sin(w t) passes 1.8; the run
    # once failed on it, naming the coupling, while validate passed it
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(preset_config("linear") | {"bath": {"modes": [HEAVY_MODE]}}))
    expected = "config error: bath.modes[0]: the b1 kernel term of bath mode 0 overflows the float range"
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(expected)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "out").exists()


def test_library_kernel_refusal_exits_2(tmp_path, capsys, monkeypatch):
    # the heavy mode with the CLI's own phase check off: the library refuses
    # the first time at which b1 overflows, and the run maps it to t_max
    monkeypatch.setattr(cli, "_check_phase", lambda *args: None)
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(preset_config("linear") | {"bath": {"modes": [HEAVY_MODE]}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    head = "config error: time.t_max: the b1 kernel is not finite at t = "
    assert err.startswith(head)
    assert 2.4 < float(err[len(head) :]) < 2.6
    assert not (tmp_path / "out").exists()


def test_seed_option_outside_its_range_exits_2(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed: must be in [0, 2^64), got -1\n"
    assert main(["run", str(path), "--out", str(out), "--seed", str(2**64)]) == 2
    assert not out.exists()
    assert main(["run", str(path), "--out", str(out), "--seed", str(2**64 - 1)]) == 0


def test_overflowing_coupling_exits_2_and_writes_nothing(tmp_path):
    # finite coefficients whose decay exponents overflow: the run exits 2
    # naming the coupling, under -W error too, before any file is written
    cfg = preset_config("linear") | {"coupling": {"variant": "polynomial", "coefficients": [0, 0, 0, 1e300]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "decodyn", "run", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("config error: coupling: the run's exponents or phases overflow the float range")
    assert not out.exists()


def test_overflowing_phase_refused_before_the_run(tmp_path, capsys):
    # the run would write nan in every column after t = 0
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(small_config(bath=FAST_MODE, time={"t_max": 1e10, "n_steps": 20})))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: time.t_max: omega t of the fastest bath mode")
    assert not (tmp_path / "out").exists()
    # a time whose phase stays finite passes
    path.write_text(json.dumps(small_config(bath=FAST_MODE, time={"t_max": 1e8, "n_steps": 20})))
    assert main(["validate", str(path)]) == 0


@given(
    factors=st.lists(st.sampled_from([1e-320, 1e-300, 1e-160, 1e-3, 1.0, 1e3, 1e160, 1e300]), min_size=1, max_size=4),
    beta=st.sampled_from([None, 1e-3, 1.0, 1e3]),
    omega=st.sampled_from([1e-50, 1.0, 1e100]),
)
def test_hbar_factors_refused_iff_a_scaled_bath_overflows(factors, beta, omega):
    # the parser builds the bath of the smallest and largest factor only;
    # every factor's bath, built on its own, must give the same verdict
    cfg = small_config(model={"hbar": 1.0, "beta": beta}, bath={"modes": [{"m": 1.0, "omega": omega, "c": 1.0}]})
    bath = parse_config(cfg).bath

    def refused(f):
        try:
            dataclasses.replace(bath, hbar=f)
        except ValueError:
            return True
        return False

    overflows = any(refused(f) for f in factors)
    cfg["scan"] = {"hbar_factors": factors}
    if overflows:
        with pytest.raises(ConfigError, match=r"^scan\.hbar_factors\[\d\]: "):
            parse_config(cfg)
    else:
        assert parse_config(cfg).scan["factors"] == factors


def test_grid_cap_edges(tmp_path, capsys):
    # the automatic grid is a power of two: 2^20 points at the cap, 2^21 just past it
    at_cap = parse_config(small_config(state=_cat_of_width(8.0 / 131_000)))
    assert GridSpec.cover(at_cap.state).n_points == cli._MAX_GRID_POINTS
    # a packet narrow enough that its pairs fit the pair budget at 2^20 points
    explicit = small_config(state={"packets": [{"center_q": 0.0, "sigma": 1e-3}], "grid": dict(GRID_OVER_CAP)})
    explicit["state"]["grid"]["n_points"] = cli._MAX_GRID_POINTS
    assert parse_config(explicit).grid.n_points == cli._MAX_GRID_POINTS
    for state, field in (
        (_cat_of_width(8.0 / 131_100), "state: "),
        ({"packets": [{"center_q": 0.0, "sigma": 0.5}], "grid": GRID_OVER_CAP}, "state.grid.n_points: "),
    ):
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(small_config(state=state)))
        assert main(["validate", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err


def test_mc_mode_cap_edge():
    bath = {"ohmic": dict(OHMIC, n_modes=cli._MAX_MC_MODES)}
    assert parse_config(small_config(bath=bath, oracle={"mc": {"times": [1.0]}})).bath.n_modes == cli._MAX_MC_MODES
    # the cap is on the sampled width only; without the MC oracle the bath may be wider
    bath = {"ohmic": dict(OHMIC, n_modes=cli._MAX_MC_MODES + 1)}
    assert parse_config(small_config(bath=bath)).bath.n_modes == cli._MAX_MC_MODES + 1


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the size check")


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"time": {"t_max": 1.0, "n_steps": cli._MAX_TIME_STEPS + 1}}, "time.n_steps"),
        ({"bath": {"ohmic": dict(OHMIC, n_modes=cli._MAX_BATH_MODES + 1)}}, "bath.ohmic.n_modes"),
        (
            {
                "bath": {"ohmic": dict(OHMIC, n_modes=1000)},
                "time": {"t_max": 1.0, "n_steps": cli._MAX_KERNEL_CELLS // 1000 + 1},
            },
            "time.n_steps",
        ),
        # cap + 1 is not a multiple of 100, which is refused on its own
        ({"oracle": {"mc": {"times": [1.0], "n_samples": cli._MAX_MC_SAMPLES + 100}}}, "oracle.mc.n_samples"),
        ({"oracle": {"fock": {"times": [1.0], "n_levels": cli._MAX_FOCK_LEVELS + 1}}}, "oracle.fock.n_levels"),
    ],
)
def test_sizes_capped_before_allocation(tmp_path, capsys, monkeypatch, overrides, field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(small_config(**overrides)))
    # neither the time grid, an over-cap bath nor an oracle's arrays are
    # built before the refusal; the oracles are parsed after the time grid
    monkeypatch.setattr(cli, "mc_classical_factor", _refuse)
    monkeypatch.setattr(cli, "fock_quantum_factor", _refuse)
    if "oracle" not in overrides:
        monkeypatch.setattr(np, "linspace", _refuse)
    if "time" not in overrides:
        monkeypatch.setattr(cli, "discretize_ohmic", _refuse)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert field in capsys.readouterr().err
    with pytest.raises(ConfigError, match=field):
        parse_config(json.loads(path.read_text()))


def _fine_grid(n_points):
    return {"packets": [{"center_q": 0.0, "sigma": 0.5}], "grid": {"q_min": -5.0, "q_max": 5.0, "n_points": n_points}}


@pytest.mark.parametrize("n_points", [16384, cli._MAX_GRID_POINTS])
def test_fine_grid_refused_by_its_pair_count(tmp_path, capsys, monkeypatch, n_points):
    # about 9.3e7 and 3.8e11 pairs: both grids pass the grid-size cap, and
    # neither is paired before the refusal
    monkeypatch.setattr(states, "_pure_pairs", _refuse)
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(small_config(state=_fine_grid(n_points))))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: state: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cap,field,count",
    [
        ("_MAX_PAIRS", "state", lambda scn: scn.rho0.pair_count()),
        ("_MAX_PAIR_TIMES", "state", lambda scn: scn.rho0.pair_count() * scn.times.size),
    ],
)
def test_pair_budget_parse_only(monkeypatch, cap, field, count):
    # parsed at the cap, refused at cap + 1, and nothing is paired
    monkeypatch.setattr(states, "_pure_pairs", _refuse)
    cfg = small_config(state={"packets": [{"center_q": 0.0, "sigma": 0.1}]})
    at_cap = count(parse_config(cfg))
    monkeypatch.setattr(cli, cap, at_cap)
    parse_config(cfg)
    monkeypatch.setattr(cli, cap, at_cap - 1)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert str(err.value).startswith(f"{field}: ")
    assert str(err.value).count(field) == 1


# Pairs of a separation-scan cat, which takes the automatic grid: spacing in
# (sigma/16, sigma/8], and the pairing's cut keeps a cell only within about
# 11 sigma of a packet centre, so at most about 704 cells and 2.5e5 pairs
# whatever k = sep/sigma; the worst of the k below is 147,493.
SCAN_PAIR_BOUND = 250_000


def test_scan_cats_stay_under_the_pair_bound(monkeypatch):
    # k from the smallest the config takes to the largest under the grid
    # cap; the counts do not depend on hbar (real amplitudes, no momenta)
    # or on sigma itself
    monkeypatch.setattr(states, "_pure_pairs", _refuse)
    ks = np.geomspace(2.0, 1.3e5, 24)
    parse_config(small_config(scan={"separations": list(ks[1:]), "sigma": 1.0}))
    pairs = [states.build_density_matrix(states.SuperpositionState.symmetric_cat(k, 1.0)).pair_count() for k in ks]
    assert max(pairs) <= SCAN_PAIR_BOUND <= cli._MAX_PAIRS


@pytest.mark.parametrize("spelling", [None, "inf"])
def test_infinity_spellings(spelling):
    # null and "inf" mean infinity, for model.beta and bath.ohmic.omega_c alike
    cfg = small_config(model={"beta": spelling}, bath={"ohmic": dict(OHMIC, omega_c=spelling)})
    scn = parse_config(cfg)
    assert scn.model.beta == math.inf
    expected = discretize_ohmic(0.25, math.inf, 8, 5.0)
    for name in ("masses", "omegas", "couplings"):
        assert getattr(scn.bath, name).tobytes() == getattr(expected, name).tobytes()
    assert (scn.bath.beta, scn.bath.hbar) == (expected.beta, expected.hbar)


def test_preset_name_shadowed_by_directory(tmp_path, monkeypatch):
    # a directory named like a preset, such as the output of an earlier
    # `run linear --out linear`, is not a config file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "linear").mkdir()
    assert main(["run", "linear", "--out", "linear"]) == 0
    assert (tmp_path / "linear" / "linear_series.csv").is_file()


def test_presets_command_writes_configs(tmp_path, capsys):
    assert main(["presets", "--write", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in REQUIRED_PRESETS:
        assert name in out
        assert main(["validate", str(tmp_path / f"{name}.json")]) == 0


def test_probe_defaults_to_packet_centers(tmp_path):
    cfg = small_config(
        state={"packets": [
            {"center_q": -3.0, "sigma": 0.4},
            {"center_q": 3.0, "sigma": 0.4},
        ]}
    )
    paths = run_scenario(cfg, out_dir=tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["probe"] == {"q1": -3.0, "q2": 3.0}


@pytest.mark.parametrize(
    "field,make",
    [
        ("oracle.mc.times", lambda n: {"oracle": {"mc": {"times": [1.0] * n}}}),
        ("oracle.fock.times", lambda n: {"oracle": {"fock": {"times": [1.0] * n}}}),
        ("scan.separations", lambda n: {"scan": {"separations": [1.0 + i for i in range(n)], "sigma": 0.1}}),
        ("scan.hbar_factors", lambda n: {"scan": {"hbar_factors": [1.0] * n}}),
    ],
)
def test_list_caps_parse_only(tmp_path, capsys, field, make):
    # parsed at the cap; refused at cap + 1 by validate and parse_config,
    # and nothing is run
    cap = cli._MAX_LIST_ENTRIES
    parse_config(small_config(**make(cap)))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(small_config(**make(cap + 1))))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    with pytest.raises(ConfigError) as err:
        parse_config(json.loads(path.read_text()))
    assert str(err.value) == f"{field}: must hold at most {cap} entries, got {cap + 1}"


# the run fuzz's sizes: at most 3 explicit modes or 12 Ohmic ones, 2
# packets of width at least 0.25 within 5 of the origin, 12 times, 2 oracle
# or scan entries, 1000 MC samples and 16 Fock levels; the coefficients reach
# 1e300 either way, and the seeds step past both ends of [0, 2^64).
# Hypothesis seeds its draws with the numeric literals of the loaded
# modules, so any change to one redraws the configs; the width floor keeps
# every automatic grid at most 2048 points (a span of at most 48 at a
# spacing of at least 0.25/8), so no redraw builds a state of millions of
# pairs.
# The pair budget's edges are covered by test_pair_budget_parse_only and
# test_fine_grid_refused_by_its_pair_count.
FUZZ_COEFFICIENTS = st.floats(-1e300, 1e300)
FUZZ_TIMES = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2)


@st.composite
def run_configs(draw):
    if draw(st.booleans()):
        eta, n_modes = draw(st.floats(0.01, 2.0)), draw(st.integers(1, 12))
        bath = {"ohmic": {"eta": eta, "omega_c": 1.0, "n_modes": n_modes, "omega_max": 5.0}}
    else:
        mode = st.fixed_dictionaries({"m": st.floats(0.5, 2.0), "omega": st.floats(0.1, 5.0), "c": FUZZ_COEFFICIENTS})
        bath = {"modes": draw(st.lists(mode, min_size=1, max_size=3))}
    coupling = draw(
        st.one_of(
            st.fixed_dictionaries(
                {"variant": st.just("polynomial"), "coefficients": st.lists(FUZZ_COEFFICIENTS, min_size=1, max_size=4)}
            ),
            st.fixed_dictionaries(
                {"variant": st.just("sinusoidal"), "amplitude": FUZZ_COEFFICIENTS, "wavelength": st.floats(0.1, 10.0)}
            ),
        )
    )
    packet = st.fixed_dictionaries({"center_q": st.floats(-5.0, 5.0), "sigma": st.floats(0.25, 2.0)})
    cfg = {
        "name": "fuzz",
        "model": {"hbar": draw(st.floats(0.1, 10.0)), "beta": draw(st.one_of(st.none(), st.floats(0.1, 10.0)))},
        "bath": bath,
        "coupling": coupling,
        "state": {"packets": draw(st.lists(packet, min_size=1, max_size=2))},
        "time": {"t_max": draw(st.floats(0.01, 10.0)), "n_steps": draw(st.integers(2, 12))},
        "seed": draw(st.integers(-1, 2**64)),
    }
    oracle = {}
    if draw(st.booleans()):
        oracle["mc"] = {"times": draw(FUZZ_TIMES), "n_samples": 1000}
    if draw(st.booleans()):
        oracle["fock"] = {"times": draw(FUZZ_TIMES), "n_levels": draw(st.integers(8, 16))}
    if oracle:
        cfg["oracle"] = oracle
    scan = draw(st.sampled_from([None, "hbar", "separation"]))
    if scan == "hbar":
        cfg["scan"] = {"hbar_factors": draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2))}
    elif scan == "separation":
        cfg["scan"] = {"separations": [2.0, 4.0], "sigma": draw(st.floats(0.1, 0.5))}
    return cfg


@settings(max_examples=60)
@example(small_config(coupling={"variant": "polynomial", "coefficients": [0, 0, 0, 1e300]}))
@example(preset_config("linear") | {"coupling": {"variant": "polynomial", "coefficients": [0, 0, 0, 1e300]}})
# a subnormal b2 at the first times once overflowed the entropy's live cut
@example(small_config(time={"t_max": 1e-154, "n_steps": 5}))
@given(cfg=run_configs())
def test_run_fuzz_runs_or_exits_2_or_3(cfg):
    # what parses must run: every generated config runs, writing a series
    # without inf or NaN, or exits 2 or 3, and nothing warns (warnings are
    # errors in this suite)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out", f"{tmp}/out"])
        assert code in (0, 2, 3)
        if code == 0:
            series = (Path(tmp) / "out" / f"{cfg['name']}_series.csv").read_text()
            assert "nan" not in series and "inf" not in series
            for written in (Path(tmp) / "out").glob("*.json"):
                strict_json(written)
