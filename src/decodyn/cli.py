"""Scenario runner: JSON config in, CSV/JSON series, scans and oracle
comparisons out.

One config file describes one run.  Outputs land in the chosen directory as
``<name>_series.csv``, ``<name>_scan.csv`` (if a scan is requested),
``<name>_oracle.json`` (if oracle comparisons are requested) and
``<name>_manifest.json``.  Outputs are deterministic: the same config and
seed produce byte-identical files, and the manifest records every grid,
mode-count and sample-count choice so each number is reproducible from it.

Exit codes: 0 success, 2 invalid config, 3 grid coverage failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathMode, BathSpec, discretize_ohmic, thermal_strength
from .model import CouplingFunction, ModelConfig, _finite, coupling_from_config
from .oracle import FockConfig, fock_quantum_factor, mc_classical_factor
from .rates import hbar_scan, separation_scan
from .states import (
    GaussianPacket,
    GridCoverageError,
    GridSpec,
    SuperpositionState,
    build_density_matrix,
)
from .strongdec import DecoherenceSeries, classical_factor, compute_series, quantum_factor

__all__ = ["ConfigError", "Scenario", "parse_config", "run_scenario", "list_presets", "main"]


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    model: ModelConfig
    bath: BathSpec
    coupling: CouplingFunction
    state: SuperpositionState
    grid: GridSpec | None
    times: np.ndarray
    probe: tuple[float, float] | None
    scan: dict | None
    oracle: dict | None
    seed: int


# Sizes read from a config are capped before anything is allocated: the
# kernels b1, b2 and b2_dot each build an n_steps x n_modes array.
_MAX_TIME_STEPS = 100_000
_MAX_BATH_MODES = 100_000
_MAX_KERNEL_CELLS = 10_000_000


def _config_float(val, name: str) -> float:
    """model._finite, its ValueError raised as a ConfigError."""
    try:
        return _finite(val, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _get(cfg: dict, key: str, path: str, kind, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    val = cfg[key]
    if kind is float:
        return _config_float(val, f"{path}.{key}")
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
        return val
    if kind is str and not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
    if kind is dict and not isinstance(val, dict):
        raise ConfigError(f"{path}.{key}: expected an object, got {val!r}")
    if kind is list and not isinstance(val, list):
        raise ConfigError(f"{path}.{key}: expected a list, got {val!r}")
    return val


def _get_numbers(cfg: dict, key: str, path: str) -> list[float]:
    """The required list cfg[key] of finite numbers; errors name path.key[i]."""
    vals = _get(cfg, key, path, list, required=True)
    return [_config_float(v, f"{path}.{key}[{i}]") for i, v in enumerate(vals)]


def _get_or_inf(cfg: dict, key: str, path: str) -> float:
    """cfg[key] as a finite number; missing, null or "inf" spell infinity."""
    if cfg.get(key) in (None, "inf"):
        return math.inf
    return _get(cfg, key, path, float)


def _parse_model(cfg: dict) -> ModelConfig:
    raw = _get(cfg, "model", "config", dict, default={})
    hbar = _get(raw, "hbar", "model", float, default=1.0)
    beta = _get_or_inf(raw, "beta", "model")
    try:
        return ModelConfig(hbar=hbar, beta=beta)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_bath(cfg: dict, model: ModelConfig) -> BathSpec:
    raw = _get(cfg, "bath", "config", dict, required=True)
    try:
        if "ohmic" in raw:
            o = _get(raw, "ohmic", "bath", dict, required=True)
            eta = _get(o, "eta", "bath.ohmic", float, required=True)
            omega_c = _get_or_inf(o, "omega_c", "bath.ohmic")
            omega_max = _get(o, "omega_max", "bath.ohmic", float, required=True)
            for key, val in (("eta", eta), ("omega_c", omega_c), ("omega_max", omega_max)):
                if not val > 0:
                    raise ConfigError(f"bath.ohmic.{key}: must be positive, got {val}")
            n_modes = _get(o, "n_modes", "bath.ohmic", int, required=True)
            if not 1 <= n_modes <= _MAX_BATH_MODES:
                raise ConfigError(f"bath.ohmic.n_modes: must be in [1, {_MAX_BATH_MODES}], got {n_modes}")
            return discretize_ohmic(eta, omega_c, n_modes, omega_max, beta=model.beta, hbar=model.hbar)
        if "modes" in raw:
            entries = _get(raw, "modes", "bath", list, required=True)
            modes = []
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise ConfigError(f"bath.modes[{i}]: expected an object")
                modes.append(
                    BathMode(
                        mass=_get(entry, "m", f"bath.modes[{i}]", float, default=1.0),
                        omega=_get(entry, "omega", f"bath.modes[{i}]", float, required=True),
                        coupling=_get(entry, "c", f"bath.modes[{i}]", float, required=True),
                    )
                )
            return BathSpec(modes=tuple(modes), beta=model.beta, hbar=model.hbar)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bath: {exc}") from exc
    raise ConfigError("bath: must contain either 'ohmic' or 'modes'")


def _parse_state(cfg: dict) -> tuple[SuperpositionState, GridSpec | None]:
    raw = _get(cfg, "state", "config", dict, required=True)
    entries = _get(raw, "packets", "state", list, required=True)
    if not entries:
        raise ConfigError("state.packets: needs at least one packet")
    packets = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"state.packets[{i}]: expected an object")
        path = f"state.packets[{i}]"
        try:
            packets.append(
                GaussianPacket(
                    center_q=_get(entry, "center_q", path, float, required=True),
                    center_p=_get(entry, "center_p", path, float, default=0.0),
                    sigma=_get(entry, "sigma", path, float, required=True),
                    amplitude=complex(
                        _get(entry, "re", path, float, default=1.0),
                        _get(entry, "im", path, float, default=0.0),
                    ),
                )
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    grid = None
    if "grid" in raw:
        g = _get(raw, "grid", "state", dict, required=True)
        try:
            grid = GridSpec(
                q_min=_get(g, "q_min", "state.grid", float, required=True),
                q_max=_get(g, "q_max", "state.grid", float, required=True),
                n_points=_get(g, "n_points", "state.grid", int, required=True),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"state.grid: {exc}") from exc
    return SuperpositionState(packets=tuple(packets)), grid


def _parse_times(cfg: dict, n_modes: int) -> np.ndarray:
    raw = _get(cfg, "time", "config", dict, required=True)
    t_max = _get(raw, "t_max", "time", float, required=True)
    n_steps = _get(raw, "n_steps", "time", int, required=True)
    if t_max <= 0:
        raise ConfigError(f"time.t_max: must be positive, got {t_max}")
    if not 2 <= n_steps <= _MAX_TIME_STEPS:
        raise ConfigError(f"time.n_steps: must be in [2, {_MAX_TIME_STEPS}], got {n_steps}")
    if n_steps * n_modes > _MAX_KERNEL_CELLS:
        raise ConfigError(f"time.n_steps: {n_steps} x {n_modes} bath modes exceeds {_MAX_KERNEL_CELLS} cells")
    return np.linspace(0.0, t_max, n_steps)


def _parse_scan(cfg: dict) -> dict | None:
    if "scan" not in cfg:
        return None
    raw = _get(cfg, "scan", "config", dict, required=True)
    if "separations" in raw:
        seps = _get_numbers(raw, "separations", "scan")
        sigma = _get(raw, "sigma", "scan", float, required=True)
        return {"kind": "separation", "separations": seps, "sigma": sigma}
    if "hbar_factors" in raw:
        return {"kind": "hbar", "factors": _get_numbers(raw, "hbar_factors", "scan")}
    raise ConfigError("scan: must contain 'separations' (+'sigma') or 'hbar_factors'")


def _parse_oracle(cfg: dict) -> dict | None:
    if "oracle" not in cfg:
        return None
    raw = _get(cfg, "oracle", "config", dict, required=True)
    out = {}
    if "mc" in raw:
        mc = _get(raw, "mc", "oracle", dict, required=True)
        times = _get_numbers(mc, "times", "oracle.mc")
        n_samples = _get(mc, "n_samples", "oracle.mc", int, default=100_000)
        if n_samples < 1000 or n_samples % 100:
            raise ConfigError(
                f"oracle.mc.n_samples: must be >= 1000 and a multiple of 100, got {n_samples}"
            )
        out["mc"] = {"times": times, "n_samples": n_samples}
    if "fock" in raw:
        fk = _get(raw, "fock", "oracle", dict, required=True)
        times = _get_numbers(fk, "times", "oracle.fock")
        n_levels = _get(fk, "n_levels", "oracle.fock", int, default=64)
        if n_levels < 8:
            raise ConfigError(f"oracle.fock.n_levels: must be >= 8, got {n_levels}")
        out["fock"] = {"times": times, "n_levels": n_levels}
    if not out:
        raise ConfigError("oracle: must contain 'mc' and/or 'fock'")
    return out


def parse_config(cfg: dict) -> Scenario:
    """Validate a configuration document and build the run inputs."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    name = _get(cfg, "name", "config", str, required=True)
    model = _parse_model(cfg)
    bath = _parse_bath(cfg, model)
    if "coupling" not in cfg:
        raise ConfigError("config.coupling: required field is missing")
    try:
        coupling = coupling_from_config(cfg["coupling"])
    except ValueError as exc:
        raise ConfigError(f"coupling: {exc}") from exc
    state, grid = _parse_state(cfg)
    times = _parse_times(cfg, bath.n_modes)
    probe = None
    if "probe" in cfg:
        p = _get(cfg, "probe", "config", dict, required=True)
        probe = (
            _get(p, "q1", "probe", float, required=True),
            _get(p, "q2", "probe", float, required=True),
        )
    return Scenario(
        name=name,
        model=model,
        bath=bath,
        coupling=coupling,
        state=state,
        grid=grid,
        times=times,
        probe=probe,
        scan=_parse_scan(cfg),
        oracle=_parse_oracle(cfg),
        seed=_get(cfg, "seed", "config", int, default=0),
    )


def _default_probe(state: SuperpositionState) -> tuple[float, float]:
    centers = [pk.center_q for pk in state.packets]
    if len(centers) >= 2:
        return (min(centers), max(centers))
    pk = state.packets[0]
    return (pk.center_q - 2.0 * pk.sigma, pk.center_q + 2.0 * pk.sigma)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_series(path: Path, series: DecoherenceSeries):
    lines = [",".join(DecoherenceSeries.COLUMNS)]
    for row in series.rows():
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_scan(path: Path, first_column: str, keys, pairs):
    lines = [f"{first_column},rate_classical,rate_quantum,ratio"]
    for key, pair in zip(keys, pairs):
        lines.append(
            ",".join(_fmt(v) for v in (key, pair.classical_rate, pair.quantum_rate, pair.ratio))
        )
    path.write_text("\n".join(lines) + "\n")


def _oracle_records(scn: Scenario, probe: tuple[float, float], seed: int) -> dict:
    q1, q2 = probe
    result = {}
    if scn.oracle and "mc" in scn.oracle:
        records = []
        for t in scn.oracle["mc"]["times"]:
            est = mc_classical_factor(
                q1, q2, t, scn.coupling, scn.bath, scn.oracle["mc"]["n_samples"], seed
            )
            analytic = classical_factor(q1, q2, t, scn.coupling, scn.bath).value
            records.append(
                {
                    "t": t,
                    "mean_re": est.mean.real,
                    "mean_im": est.mean.imag,
                    "std_error": est.std_error,
                    "n_samples": est.n_samples,
                    "analytic_re": analytic.real,
                    "analytic_im": analytic.imag,
                    "sigma_distance": est.sigma_distance(analytic),
                }
            )
        result["mc"] = records
    if scn.oracle and "fock" in scn.oracle:
        cfg = FockConfig(n_levels=scn.oracle["fock"]["n_levels"])
        times = np.asarray(scn.oracle["fock"]["times"])
        overlaps = fock_quantum_factor(q1, q2, times, scn.coupling, scn.bath, cfg)
        records = []
        for t, overlap in zip(times, overlaps):
            analytic = quantum_factor(q1, q2, float(t), scn.coupling, scn.bath).value
            records.append(
                {
                    "t": float(t),
                    "mean_re": overlap.real,
                    "mean_im": overlap.imag,
                    "std_error": 0.0,
                    "n_samples": cfg.n_levels,
                    "analytic_re": analytic.real,
                    "analytic_im": analytic.imag,
                    "sigma_distance": None,
                    "modulus_error": abs(abs(overlap) - abs(analytic)),
                }
            )
        result["fock"] = records
    return result


def run_scenario(source, out_dir=".", seed: int | None = None) -> dict:
    """Run one scenario from a config path, preset name or config dict.

    Returns a mapping of output kind to written file path.
    """
    if isinstance(source, dict):
        cfg = source
    else:
        text = Path(source).read_text() if Path(source).is_file() else None
        if text is None:
            if str(source) in PRESETS:
                cfg = preset_config(str(source))
            else:
                raise ConfigError(f"config: no such file or preset: {source}")
        else:
            try:
                cfg = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: not valid JSON ({exc})") from exc
    scn = parse_config(cfg)
    run_seed = scn.seed if seed is None else int(seed)

    rho0 = build_density_matrix(scn.state, grid=scn.grid, hbar=scn.model.hbar)
    probe = scn.probe if scn.probe is not None else _default_probe(scn.state)
    series = compute_series(rho0, scn.coupling, scn.bath, scn.times, probe)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    series_path = out / f"{scn.name}_series.csv"
    _write_series(series_path, series)
    paths["series"] = series_path

    scan_meta = None
    if scn.scan is not None:
        scan_path = out / f"{scn.name}_scan.csv"
        if scn.scan["kind"] == "separation":
            pairs = separation_scan(
                scn.coupling, scn.scan["separations"], scn.scan["sigma"], scn.bath
            )
            _write_scan(scan_path, "separation", scn.scan["separations"], pairs)
            scan_meta = {"kind": "separation", "points": len(pairs), "sigma": scn.scan["sigma"]}
        else:
            pairs = hbar_scan(rho0, scn.coupling, scn.bath, scn.scan["factors"])
            _write_scan(scan_path, "hbar_factor", scn.scan["factors"], pairs)
            scan_meta = {"kind": "hbar", "points": len(pairs)}
        paths["scan"] = scan_path

    oracle_meta = None
    if scn.oracle is not None:
        oracle_path = out / f"{scn.name}_oracle.json"
        records = _oracle_records(scn, probe, run_seed)
        oracle_path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        oracle_meta = {
            kind: {k: v for k, v in scn.oracle[kind].items() if k != "times"}
            for kind in records
        }
        paths["oracle"] = oracle_path

    manifest = {
        "name": scn.name,
        "config": cfg,
        "seed": run_seed,
        "grid": {
            "q_min": rho0.grid.q_min,
            "q_max": rho0.grid.q_max,
            "n_points": rho0.grid.n_points,
            "spacing": rho0.grid.spacing,
        },
        "bath": {
            "n_modes": scn.bath.n_modes,
            "beta": None if math.isinf(scn.bath.beta) else scn.bath.beta,
            "hbar": scn.bath.hbar,
            "thermal_strength": thermal_strength(scn.bath),
        },
        "probe": {"q1": probe[0], "q2": probe[1]},
        "time": {"t_max": float(scn.times[-1]), "n_steps": int(scn.times.size)},
        "scan": scan_meta,
        "oracle": oracle_meta,
        "outputs": sorted(p.name for p in paths.values()),
        "versions": {
            "decodyn": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    manifest_path = out / f"{scn.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    paths["manifest"] = manifest_path
    return paths


# ---------------------------------------------------------------------------
# presets

_PI = math.pi
_OHMIC_BATH = {"ohmic": {"eta": 0.25, "omega_c": 1.0, "n_modes": 50, "omega_max": 5.0}}
_SINGLE_MODE = {"modes": [{"m": 1.0, "omega": 1.0, "c": 1.0}]}


def _cat_state(separation: float, sigma: float) -> dict:
    return {
        "packets": [
            {"center_q": -0.5 * separation, "center_p": 0.0, "sigma": sigma, "re": 1.0, "im": 0.0},
            {"center_q": 0.5 * separation, "center_p": 0.0, "sigma": sigma, "re": 1.0, "im": 0.0},
        ]
    }


def _preset_linear() -> dict:
    return {
        "name": "linear",
        "model": {"hbar": 1.0, "beta": 2.0},
        "bath": _OHMIC_BATH,
        "coupling": {"variant": "linear", "a": 1.0},
        "state": _cat_state(8.0, 0.4),
        "time": {"t_max": 10.0, "n_steps": 200},
        "probe": {"q1": -4.0, "q2": 4.0},
    }


def _preset_quadratic() -> dict:
    cfg = _preset_linear()
    cfg["name"] = "quadratic"
    cfg["coupling"] = {"variant": "quadratic", "a": 1.0, "b": 0.3}
    return cfg


def _preset_cubic_cat() -> dict:
    return {
        "name": "cubic-cat",
        "model": {"hbar": 1.0, "beta": None},
        "bath": _SINGLE_MODE,
        "coupling": {"variant": "polynomial", "coefficients": [0.0, 0.0, 0.0, 1.0]},
        "state": _cat_state(8.0, 0.2),
        "time": {"t_max": 0.95 * _PI, "n_steps": 200},
        "probe": {"q1": -4.0, "q2": 4.0},
    }


def _preset_sine_cat() -> dict:
    return {
        "name": "sine-cat",
        "model": {"hbar": 1.0, "beta": None},
        "bath": _SINGLE_MODE,
        "coupling": {"variant": "sinusoidal", "amplitude": 1.0, "wavelength": 8.0, "phase": 0.25 * _PI},
        "state": _cat_state(8.0, 0.1),
        "time": {"t_max": 0.95 * _PI, "n_steps": 200},
        "probe": {"q1": -4.0, "q2": 4.0},
    }


def _preset_saturation_scan() -> dict:
    return {
        "name": "saturation-scan",
        "model": {"hbar": 1.0, "beta": None},
        "bath": _SINGLE_MODE,
        "coupling": {"variant": "sinusoidal", "amplitude": 1.0, "wavelength": 1.0, "phase": 0.25 * _PI},
        "state": _cat_state(8.0, 0.5),
        "time": {"t_max": 3.0, "n_steps": 50},
        "scan": {"separations": [2.0, 4.0, 8.0, 16.0, 32.0], "sigma": 0.5},
    }


def _preset_hbar_scan() -> dict:
    return {
        "name": "hbar-scan",
        "model": {"hbar": 1.0, "beta": None},
        "bath": _SINGLE_MODE,
        "coupling": {"variant": "polynomial", "coefficients": [0.0, 0.0, 0.0, 1.0]},
        "state": _cat_state(8.0, 0.2),
        "time": {"t_max": 3.0, "n_steps": 50},
        "probe": {"q1": -4.0, "q2": 4.0},
        "scan": {"hbar_factors": [1.0, 100.0]},
    }


def _preset_mc_validate() -> dict:
    return {
        "name": "mc-validate",
        "model": {"hbar": 1.0, "beta": None},
        "bath": _SINGLE_MODE,
        "coupling": {"variant": "linear", "a": 1.0},
        "state": {"packets": [{"center_q": 0.0, "center_p": 0.0, "sigma": 0.7071067811865476}]},
        "time": {"t_max": 2.0 * _PI, "n_steps": 100},
        "probe": {"q1": 2.0, "q2": 0.0},
        "oracle": {"mc": {"times": [0.25 * _PI, 0.5 * _PI, _PI], "n_samples": 20000}},
        "seed": 7,
    }


def _preset_fock_validate() -> dict:
    return {
        "name": "fock-validate",
        "model": {"hbar": 1.0, "beta": None},
        "bath": _SINGLE_MODE,
        "coupling": {"variant": "linear", "a": 1.0},
        "state": {"packets": [{"center_q": 0.0, "center_p": 0.0, "sigma": 0.7071067811865476}]},
        "time": {"t_max": 2.0 * _PI, "n_steps": 100},
        "probe": {"q1": 1.0, "q2": -1.0},
        "oracle": {"fock": {"times": [2.0 * _PI * k / 9.0 for k in range(10)], "n_levels": 64}},
    }


PRESETS = {
    "linear": ("identity coupling f=Q on a cat state; classical and quantum series coincide", _preset_linear),
    "quadratic": ("f = Q + 0.3 Q^2; still exact classical-quantum agreement", _preset_quadratic),
    "cubic-cat": ("f = Q^3 cat at the origin; quantum decay with zero classical decay", _preset_cubic_cat),
    "sine-cat": ("period-matched sinusoidal coupling; classical decay with zero quantum decay", _preset_sine_cat),
    "saturation-scan": ("bounded coupling, growing separation; quantum rate saturates, classical grows", _preset_saturation_scan),
    "hbar-scan": ("same initial matrix at hbar and 100*hbar; rate ratio unchanged", _preset_hbar_scan),
    "mc-validate": ("trajectory-ensemble check of the classical factor", _preset_mc_validate),
    "fock-validate": ("truncated-Fock check of the quantum factor modulus", _preset_fock_validate),
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"config: unknown preset '{name}'")
    return PRESETS[name][1]()


def list_presets() -> list[tuple[str, str]]:
    """Preset names with one-line descriptions."""
    return [(name, desc) for name, (desc, _) in PRESETS.items()]


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decodyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file or preset name")
    p_run.add_argument("config", help="path to a JSON config, or a preset name")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_presets = sub.add_parser("presets", help="list built-in presets")
    p_presets.add_argument("--write", metavar="DIR", default=None, help="also write preset configs as JSON")

    p_val = sub.add_parser("validate", help="validate a config file without running it")
    p_val.add_argument("config", help="path to a JSON config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, desc in list_presets():
                print(f"{name}: {desc}")
            if args.write:
                target = Path(args.write)
                target.mkdir(parents=True, exist_ok=True)
                for name in PRESETS:
                    path = target / f"{name}.json"
                    path.write_text(json.dumps(preset_config(name), indent=2, sort_keys=True) + "\n")
                    print(f"wrote {path}")
            return 0
        if args.command == "validate":
            try:
                cfg = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            parse_config(cfg)
            print(f"{args.config}: OK")
            return 0
        paths = run_scenario(args.config, out_dir=args.out, seed=args.seed)
        for kind, path in sorted(paths.items()):
            print(f"{kind}: {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridCoverageError as exc:
        print(f"grid coverage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
