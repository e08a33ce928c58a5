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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathMode, BathSpec, discretize_ohmic, thermal_strength
from .model import (
    CouplingFunction,
    LinearCoupling,
    ModelConfig,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from .oracle import FockConfig, fock_quantum_factor, mc_classical_factor
from .rates import hbar_scan, separation_scan
from .states import (
    DensityMatrixGrid,
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
    grid: GridSpec
    times: np.ndarray
    probe: tuple[float, float]
    scan: dict | None
    oracle: dict | None
    seed: int

    @cached_property
    def rho0(self) -> DensityMatrixGrid:
        """The initial state on the run's grid, built on first read."""
        return build_density_matrix(self.state, grid=self.grid, hbar=self.model.hbar)


# Sizes read from a config are capped before anything is allocated: the
# kernels b1, b2 and b2_dot each build an n_steps x n_modes array, the MC
# oracle the n_samples phases of a group of times (64 MB, or one time) and
# one 4096 x 2 n_modes buffer per sampling thread, the Fock oracle dense
# (2 n_levels)^2 matrices, and every state grid its 1-D arrays of n_points.  Each entry of an oracle times list costs one oracle
# evaluation and each scan point one rate pair, so those lists hold at most
# _MAX_LIST_ENTRIES.  The entropy and rate quadratures run over a state's
# support pairs (DensityMatrixGrid.support()), which grow as m^2 in its m
# support cells: the state's pairs are counted from psi before any is built,
# at most _MAX_PAIRS (memory), and times n_steps at most _MAX_PAIR_TIMES (the
# entropy loop); a separation-scan cat stays far below _MAX_PAIRS (see
# _check_pairs).
_MAX_TIME_STEPS = 100_000
_MAX_BATH_MODES = 100_000
_MAX_KERNEL_CELLS = 10_000_000
_MAX_MC_SAMPLES = 10_000_000
_MAX_MC_MODES = 1024
_MAX_FOCK_LEVELS = 512
_MAX_GRID_POINTS = 2**20
_MAX_LIST_ENTRIES = 1000
_MAX_PAIRS = 1 << 24
_MAX_PAIR_TIMES = 1 << 31


@contextmanager
def _field(path: str):
    """Raise a ValueError or ArithmeticError from the enclosed block as a
    ConfigError that opens with path; a ConfigError names its field already."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _finite(value, path: str) -> float:
    """A config value as a finite float; NaN fails the comparison, and an
    integer beyond the float range is refused before conversion."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _get(cfg: dict, key: str, path: str, kind, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    val = cfg[key]
    if kind is float:
        return _finite(val, f"{path}.{key}")
    if kind in _KINDS and (isinstance(val, bool) or not isinstance(val, kind)):
        raise ConfigError(f"{path}.{key}: expected {_KINDS[kind]}, got {val!r}")
    return val


def _get_numbers(cfg: dict, key: str, path: str, most: int | None = None) -> list[float]:
    """The required list cfg[key] of finite numbers, refused past most
    entries if most is given; errors name path.key[i]."""
    vals = _get(cfg, key, path, None, required=True)
    if not isinstance(vals, list):
        raise ConfigError(f"{path}.{key}: expected a list of finite numbers, got {vals!r}")
    if most is not None and len(vals) > most:
        raise ConfigError(f"{path}.{key}: must hold at most {most} entries, got {len(vals)}")
    return [_finite(v, f"{path}.{key}[{i}]") for i, v in enumerate(vals)]


def _get_or_inf(cfg: dict, key: str, path: str) -> float:
    """cfg[key] as a finite number; missing, null or "inf" spell infinity."""
    if cfg.get(key) in (None, "inf"):
        return math.inf
    return _get(cfg, key, path, float)


def _parse_model(cfg: dict) -> ModelConfig:
    raw = _get(cfg, "model", "config", dict, default={})
    hbar = _get(raw, "hbar", "model", float, default=1.0)
    beta = _get_or_inf(raw, "beta", "model")
    with _field("model"):
        return ModelConfig(hbar=hbar, beta=beta)


def _overflowing(bath: BathSpec) -> tuple[str, int | None] | None:
    """The first quantity of bath that overflows the float range, with its
    mode index if it has one: 1/hbar, coth(beta hbar w / 2), the other
    per-mode weights, then the rate prefactor thermal_strength / hbar; None
    if none does.  numpy would carry the inf or NaN into every series and
    scan (its 0j / 1e-320 is nan+nanj), and into the manifest as invalid
    JSON."""
    with np.errstate(all="ignore"):
        if not math.isfinite(1.0 / bath.hbar):
            return "1/hbar", None
        for name, values in {"coth": bath.coth_factors, **bath.mode_weights}.items():
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                return name, int(bad[0])
        if not math.isfinite(thermal_strength(bath) / bath.hbar):
            return "thermal_strength / hbar", None
    return None


def _check_bath(bath: BathSpec, path: str) -> BathSpec:
    """Refuse a bath with an overflowing quantity, naming model.hbar for
    1/hbar, model.beta for coth and the mode (or path) for the rest."""
    over = _overflowing(bath)
    if over is None:
        return bath
    name, mode = over
    field = {"1/hbar": "model.hbar", "coth": "model.beta"}.get(name, path)
    if field == "bath.modes" and mode is not None:
        field = f"bath.modes[{mode}]"
    where = "" if mode is None else f" of bath mode {mode}"
    raise ConfigError(f"{field}: {name}{where} overflows the float range")


def _parse_bath(cfg: dict, model: ModelConfig) -> BathSpec:
    raw = _get(cfg, "bath", "config", dict, required=True)
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
        with _field("bath.ohmic"):
            bath = discretize_ohmic(eta, omega_c, n_modes, omega_max, beta=model.beta, hbar=model.hbar)
        return _check_bath(bath, "bath.ohmic")
    if "modes" in raw:
        modes = []
        for i, entry in enumerate(_get(raw, "modes", "bath", list, required=True)):
            path = f"bath.modes[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{path}: expected an object")
            with _field(path):
                modes.append(
                    BathMode(
                        mass=_get(entry, "m", path, float, default=1.0),
                        omega=_get(entry, "omega", path, float, required=True),
                        coupling=_get(entry, "c", path, float, required=True),
                    )
                )
        with _field("bath.modes"):
            bath = BathSpec(modes=tuple(modes), beta=model.beta, hbar=model.hbar)
        return _check_bath(bath, "bath.modes")
    raise ConfigError("bath: must contain either 'ohmic' or 'modes'")


def _parse_coupling(cfg: dict) -> CouplingFunction:
    """``linear {a}`` and ``quadratic {a, b}`` are spellings of ``polynomial``."""
    raw = _get(cfg, "coupling", "config", dict, required=True)
    kind = _get(raw, "variant", "coupling", str, required=True)

    def num(key, default=None):
        return _get(raw, key, "coupling", float, default, required=default is None)

    with _field("coupling"):
        if kind == "linear":
            return LinearCoupling(num("a", 1.0))
        if kind == "quadratic":
            return QuadraticCoupling(num("a", 1.0), num("b", 0.0))
        if kind == "polynomial":
            return PolynomialCoupling(_get_numbers(raw, "coefficients", "coupling"))
        if kind == "sinusoidal":
            return SinusoidalCoupling(num("amplitude", 1.0), num("wavelength"), num("phase", 0.0))
        if kind == "tabulated":
            return TabulatedCoupling(_get_numbers(raw, "q", "coupling"), _get_numbers(raw, "values", "coupling"))
    raise ConfigError(f"coupling.variant: unknown variant {kind!r}")


def _parse_state(cfg: dict) -> tuple[SuperpositionState, GridSpec]:
    raw = _get(cfg, "state", "config", dict, required=True)
    entries = _get(raw, "packets", "state", list, required=True)
    if not entries:
        raise ConfigError("state.packets: needs at least one packet")
    packets = []
    for i, entry in enumerate(entries):
        path = f"state.packets[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object")
        with _field(path):
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
    state = SuperpositionState(packets=tuple(packets))
    if "grid" not in raw:
        # the automatic grid, refused here rather than when the run starts
        return state, _cover(state, "state")
    g = _get(raw, "grid", "state", dict, required=True)
    q_min = _get(g, "q_min", "state.grid", float, required=True)
    q_max = _get(g, "q_max", "state.grid", float, required=True)
    n_points = _get(g, "n_points", "state.grid", int, required=True)
    if n_points > _MAX_GRID_POINTS:
        raise ConfigError(f"state.grid.n_points: must be at most {_MAX_GRID_POINTS}, got {n_points}")
    with _field("state.grid"):
        return state, GridSpec(q_min=q_min, q_max=q_max, n_points=n_points)


def _check_phase(bath: BathSpec, t: float, path: str) -> None:
    """Refuse a time at which the phase omega t of the fastest bath mode
    overflows the float range: the kernels' sin and cos would turn it into
    NaN in every column after t = 0."""
    if not math.isfinite(float(np.max(bath.omegas)) * t):
        raise ConfigError(f"{path}: omega t of the fastest bath mode overflows the float range at t = {t!r}")


def _parse_times(cfg: dict, bath: BathSpec) -> np.ndarray:
    raw = _get(cfg, "time", "config", dict, required=True)
    t_max = _get(raw, "t_max", "time", float, required=True)
    n_steps = _get(raw, "n_steps", "time", int, required=True)
    if t_max <= 0:
        raise ConfigError(f"time.t_max: must be positive, got {t_max}")
    if not 2 <= n_steps <= _MAX_TIME_STEPS:
        raise ConfigError(f"time.n_steps: must be in [2, {_MAX_TIME_STEPS}], got {n_steps}")
    if n_steps * bath.n_modes > _MAX_KERNEL_CELLS:
        raise ConfigError(f"time.n_steps: {n_steps} x {bath.n_modes} bath modes exceeds {_MAX_KERNEL_CELLS} cells")
    _check_phase(bath, t_max, "time.t_max")
    return np.linspace(0.0, t_max, n_steps)


def _parse_scan(cfg: dict, bath: BathSpec) -> dict | None:
    if "scan" not in cfg:
        return None
    raw = _get(cfg, "scan", "config", dict, required=True)
    if "separations" in raw:
        seps = _get_numbers(raw, "separations", "scan", _MAX_LIST_ENTRIES)
        sigma = _get(raw, "sigma", "scan", float, required=True)
        if not seps or seps[0] <= 0 or any(b <= a for a, b in zip(seps, seps[1:])):
            raise ConfigError(f"scan.separations: must be positive and strictly increasing, got {seps}")
        if not 0 < sigma < 0.5 * seps[0]:
            raise ConfigError(f"scan.sigma: must be positive and below half the smallest separation, got {sigma}")
        return {"kind": "separation", "separations": seps, "sigma": sigma}
    if "hbar_factors" in raw:
        factors = _get_numbers(raw, "hbar_factors", "scan", _MAX_LIST_ENTRIES)
        for i, factor in enumerate(factors):
            if not factor > 0:
                raise ConfigError(f"scan.hbar_factors[{i}]: must be positive, got {factor}")
        # what _overflowing checks falls with hbar (1/hbar, coth, b2, b2_dot,
        # thermal_strength and its ratio to hbar), rises (the widths) or does
        # not depend on it (b1), so the smallest and largest factor bound all
        for factor in (min(factors, default=1.0), max(factors, default=1.0)):
            scaled = replace(bath, hbar=bath.hbar * factor)
            over = _overflowing(scaled)
            if over is not None:
                i = factors.index(factor)
                raise ConfigError(f"scan.hbar_factors[{i}]: {over[0]} overflows the float range at hbar = {scaled.hbar!r}")
        return {"kind": "hbar", "factors": factors}
    raise ConfigError("scan: must contain 'separations' (+'sigma') or 'hbar_factors'")


def _parse_oracle(cfg: dict, bath: BathSpec) -> dict | None:
    if "oracle" not in cfg:
        return None
    raw = _get(cfg, "oracle", "config", dict, required=True)
    out = {}
    if "mc" in raw:
        mc = _get(raw, "mc", "oracle", dict, required=True)
        times = _get_numbers(mc, "times", "oracle.mc", _MAX_LIST_ENTRIES)
        n_samples = _get(mc, "n_samples", "oracle.mc", int, default=100_000)
        if not 1000 <= n_samples <= _MAX_MC_SAMPLES or n_samples % 100:
            raise ConfigError(
                f"oracle.mc.n_samples: must be a multiple of 100 in [1000, {_MAX_MC_SAMPLES}], got {n_samples}"
            )
        if bath.n_modes > _MAX_MC_MODES:
            raise ConfigError(
                f"oracle.mc: the trajectory ensemble samples at most {_MAX_MC_MODES} bath modes, got {bath.n_modes}"
            )
        out["mc"] = {"times": times, "n_samples": n_samples}
    if "fock" in raw:
        fk = _get(raw, "fock", "oracle", dict, required=True)
        times = _get_numbers(fk, "times", "oracle.fock", _MAX_LIST_ENTRIES)
        n_levels = _get(fk, "n_levels", "oracle.fock", int, default=64)
        if not 8 <= n_levels <= _MAX_FOCK_LEVELS:
            raise ConfigError(f"oracle.fock.n_levels: must be in [8, {_MAX_FOCK_LEVELS}], got {n_levels}")
        if bath.n_modes != 1:
            raise ConfigError(f"oracle.fock: needs a single-mode bath, got {bath.n_modes} modes")
        out["fock"] = {"times": times, "n_levels": n_levels}
    if not out:
        raise ConfigError("oracle: must contain 'mc' and/or 'fock'")
    for kind, spec in out.items():
        for i, t in enumerate(spec["times"]):
            _check_phase(bath, t, f"oracle.{kind}.times[{i}]")
    return out


def _cover(state: SuperpositionState, path: str) -> GridSpec:
    """The automatic grid of state, refused past the grid-size cap.  It is
    sized from the packets alone; no array is built here."""
    with _field(path):
        grid = GridSpec.cover(state)
    if grid.n_points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"{path}: the automatic grid needs {grid.n_points} points, more than {_MAX_GRID_POINTS}; "
            "widen the narrowest packet or give an explicit grid"
        )
    return grid


def _check_table_covers(scn: Scenario, grids: list[GridSpec]) -> None:
    """Refuse a table that ends inside the run's domain: the state's grid, the
    grid of the widest cat of a separation scan and the probe."""
    points = [*scn.probe, *(q for g in grids for q in (g.q_min, g.q_max))]
    lo, hi = scn.coupling.q_grid[0], scn.coupling.q_grid[-1]
    if not lo <= min(points) <= max(points) <= hi:
        raise ConfigError(f"coupling.q: the table spans [{lo}, {hi}] but the run reads f on [{min(points)}, {max(points)}]")


def parse_config(cfg: dict) -> Scenario:
    """Validate a configuration document and build the run inputs."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    name = _get(cfg, "name", "config", str, required=True)
    # the name opens every output file name, so it must be one plain component
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"config.name: must be a plain file name, got {name!r}")
    model = _parse_model(cfg)
    bath = _parse_bath(cfg, model)
    coupling = _parse_coupling(cfg)
    state, grid = _parse_state(cfg)
    times = _parse_times(cfg, bath)
    probe = _default_probe(state)
    if "probe" in cfg:
        p = _get(cfg, "probe", "config", dict, required=True)
        probe = (
            _get(p, "q1", "probe", float, required=True),
            _get(p, "q2", "probe", float, required=True),
        )
    scn = Scenario(
        name=name,
        model=model,
        bath=bath,
        coupling=coupling,
        state=state,
        grid=grid,
        times=times,
        probe=probe,
        scan=_parse_scan(cfg, bath),
        oracle=_parse_oracle(cfg, bath),
        seed=_get(cfg, "seed", "config", int, default=0),
    )
    grids = [grid]
    if scn.scan is not None and scn.scan["kind"] == "separation":
        with _field("scan"):
            widest = SuperpositionState.symmetric_cat(scn.scan["separations"][-1], scn.scan["sigma"])
        grids.append(_cover(widest, "scan"))
    if isinstance(coupling, TabulatedCoupling):
        _check_table_covers(scn, grids)
    # the same GridCoverageError, and exit 3, as when the run builds the
    # state; an automatic grid always passes
    grid.check_covers(state)
    _check_pairs(scn)
    return scn


def _check_pairs(scn: Scenario) -> None:
    """Refuse a run past the pair budget; the pairs are counted from psi,
    and none is built.  A separation-scan cat takes the automatic grid, whose
    spacing lies in (sigma/16, sigma/8]; the pairing keeps a cell only within
    about 11 sigma of a packet centre, so such a cat has at most about 704
    cells and 2.5e5 pairs, far below _MAX_PAIRS, and is not counted."""
    with _field("state"):
        pairs = scn.rho0.pair_count()
    if pairs > _MAX_PAIRS:
        raise ConfigError(f"state: {pairs} support pairs, more than {_MAX_PAIRS}; use a coarser grid")
    if pairs * scn.times.size > _MAX_PAIR_TIMES:
        raise ConfigError(
            f"state: {pairs} support pairs x {scn.times.size} times is more than {_MAX_PAIR_TIMES} pair-times"
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


def _oracle_records(scn: Scenario, seed: int) -> dict:
    q1, q2 = scn.probe
    oracle = scn.oracle or {}
    result = {}

    def record(t, mean, analytic, std_error, n_samples, sigma_distance, **extra):
        return {
            "t": t,
            "mean_re": mean.real,
            "mean_im": mean.imag,
            "std_error": std_error,
            "n_samples": n_samples,
            "analytic_re": analytic.real,
            "analytic_im": analytic.imag,
            "sigma_distance": sigma_distance,
            **extra,
        }

    if "mc" in oracle:
        result["mc"] = []
        times = oracle["mc"]["times"]
        estimates = mc_classical_factor(q1, q2, times, scn.coupling, scn.bath, oracle["mc"]["n_samples"], seed)
        for t, est in zip(times, estimates):
            analytic = classical_factor(q1, q2, t, scn.coupling, scn.bath).value
            result["mc"].append(
                record(t, est.mean, analytic, est.std_error, est.n_samples, est.sigma_distance(analytic))
            )
    if "fock" in oracle:
        cfg = FockConfig(n_levels=oracle["fock"]["n_levels"])
        times = np.asarray(oracle["fock"]["times"])
        overlaps = fock_quantum_factor(q1, q2, times, scn.coupling, scn.bath, cfg)
        result["fock"] = []
        for t, overlap in zip(times, overlaps):
            analytic = quantum_factor(q1, q2, float(t), scn.coupling, scn.bath).value
            modulus_error = abs(abs(overlap) - abs(analytic))
            result["fock"].append(
                record(float(t), overlap, analytic, 0.0, cfg.n_levels, None, modulus_error=modulus_error)
            )
    return result


def _load(source) -> dict:
    """The config document from a dict, a JSON file or a preset name."""
    if isinstance(source, dict):
        return source
    if Path(source).is_file():
        with _field("config"):
            try:
                return json.loads(Path(source).read_bytes())
            except (OSError, RecursionError) as exc:
                raise ConfigError(f"config: cannot read {source}: {exc}") from exc
    if str(source) in PRESETS:
        return preset_config(str(source))
    raise ConfigError(f"config: no such file or preset: {source}")


def run_scenario(source, out_dir=".", seed: int | None = None) -> dict:
    """Run one scenario from a config path, preset name or config dict.

    Returns a mapping of output kind to written file path.
    """
    cfg = _load(source)
    scn = parse_config(cfg)
    run_seed = scn.seed if seed is None else int(seed)

    rho0 = scn.rho0
    series = compute_series(rho0, scn.coupling, scn.bath, scn.times, scn.probe)

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
        records = _oracle_records(scn, run_seed)
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
        "probe": {"q1": scn.probe[0], "q2": scn.probe[1]},
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

    p_val = sub.add_parser("validate", help="validate a config file or preset without running it")
    p_val.add_argument("config", help="path to a JSON config, or a preset name")
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
            parse_config(_load(args.config))
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
