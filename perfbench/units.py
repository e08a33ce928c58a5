"""Run and check the units of a workload.

Every call into ``decodyn`` goes through a module attribute
(``cli.run_scenario``, ``oracle.mc_classical_factor``, ...) looked up at call
time, so the tracer's wrappers see it.  ``run`` does the program work of one
unit and nothing else; the benchmark times it.  ``check`` holds the full
correctness checks, made once per run on the warm-up pass; ``digest``
fingerprints a unit's outputs so every later pass, traced or not, can be
compared byte for byte against the checked one.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from pathlib import Path

import numpy as np
from decodyn import bath, cli, oracle, rates, states, strongdec

from spans import poly_degree

# acceptance-suite tolerances (tests/test_acceptance.py, tests/test_strongdec.py)
ENTROPY_FLOOR = 1e-12  # S >= -1e-12 and |S(0)| <= 1e-12
SIDE_AGREEMENT = 1e-12  # classical == quantum columns for degree <= 2
FIT_LINEAR = 1e-10  # criterion 07
FIT_RATE = 1e-4  # criterion 07
MC_SIGMAS = 4.0  # criterion 08 uses 3 at one fixed seed; here the seed varies
FOCK_MODULUS = 1e-4  # criterion 09
ROUNDTRIP = 1e-10  # criterion 10
PURITY_GAP = 1e-6  # criterion 10
HBAR_RATIO = 1e-10  # criterion 06 uses 1e-12 for a fixed state
SATURATION = 0.05  # criterion 05


class Unit:
    """One generated unit with its parsed scenario."""

    def __init__(self, index: int, spec: dict):
        self.index = index
        self.kind = spec["kind"]
        self.config = spec["config"]
        self.name = f"{index:02d}-{self.config['name']}"
        self.scenario = cli.parse_config(self.config)


def prepare(specs) -> list[Unit]:
    """Parse every generated config; the set-up the benchmark times."""
    return [Unit(i, spec) for i, spec in enumerate(specs)]


def run(unit: Unit, out_dir: Path):
    """The program work of one unit; returns what check and digest read."""
    scn = unit.scenario
    if unit.kind == "scenario":
        return cli.run_scenario(unit.config, out_dir=out_dir / unit.name)
    if unit.kind == "mc":
        q1, q2 = scn.probe
        mc = scn.oracle["mc"]
        return oracle.mc_classical_factor(
            q1, q2, mc["times"][0], scn.coupling, scn.bath, mc["n_samples"], scn.seed
        )
    if unit.kind == "fock":
        q1, q2 = scn.probe
        fk = scn.oracle["fock"]
        cfg = oracle.FockConfig(n_levels=fk["n_levels"])
        return oracle.fock_quantum_factor(q1, q2, np.asarray(fk["times"]), scn.coupling, scn.bath, cfg)
    if unit.kind == "state":
        hbar = scn.model.hbar
        rho = states.build_density_matrix(scn.state, grid=scn.grid, hbar=hbar)
        pair = rates.rate_pair(rho, scn.coupling, bath.thermal_strength(scn.bath), hbar)
        scan = rates.hbar_scan(rho, scn.coupling, scn.bath, scn.scan["factors"])
        w = states.wigner_transform(rho)
        back = states.inverse_wigner(w)
        return {"rho": rho, "pair": pair, "scan": scan, "wigner": w, "back": back}
    if unit.kind == "separation-scan":
        return rates.separation_scan(scn.coupling, scn.scan["separations"], scn.scan["sigma"], scn.bath)
    raise ValueError(f"unknown unit kind {unit.kind!r}")


def _pair_bytes(pair) -> bytes:
    return np.array([pair.classical_rate, pair.quantum_rate, pair.ratio]).tobytes()


def digest(unit: Unit, result) -> str:
    h = hashlib.sha256()
    if unit.kind == "scenario":
        for kind in sorted(result):
            h.update(kind.encode())
            h.update(Path(result[kind]).read_bytes())
    elif unit.kind == "mc":
        h.update(np.array([result.mean.real, result.mean.imag, result.std_error]).tobytes())
    elif unit.kind == "fock":
        h.update(np.asarray(result).tobytes())
    elif unit.kind == "state":
        h.update(result["rho"].values.tobytes())
        h.update(_pair_bytes(result["pair"]))
        for pair in result["scan"]:
            h.update(_pair_bytes(pair))
        h.update(result["wigner"].values.tobytes())
        h.update(result["back"].values.tobytes())
    else:
        for pair in result:
            h.update(_pair_bytes(pair))
    return h.hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf)


def _check_scenario(unit: Unit, paths) -> list[str]:
    scn = unit.scenario
    cols = dict(zip(strongdec.DecoherenceSeries.COLUMNS, np.loadtxt(paths["series"], delimiter=",", skiprows=1).T))
    errors = []
    for side in ("S_c", "S_q"):
        s = cols[side]
        if abs(s[0]) > ENTROPY_FLOOR:
            errors.append(f"{side}(0) = {s[0]:.3e}, not 0")
        if not (np.all(s >= -ENTROPY_FLOOR) and np.all(s < 1.0)):
            errors.append(f"{side} leaves [0, 1): min {s.min():.3e}, max {s.max():.17g}")
    if poly_degree(scn.coupling) <= 2:
        for c, q in (("gamma_c", "gamma_q"), ("S_c", "S_q"), ("phase_c", "phase_q"), ("logmod_c", "logmod_q")):
            gap = float(np.max(np.abs(cols[c] - cols[q])))
            if gap > SIDE_AGREEMENT:
                errors.append(f"degree <= 2 but max|{c} - {q}| = {gap:.3e}")
    # the t^2 coefficient of S(t) is the short-time rate (criterion 07)
    rho0 = states.build_density_matrix(scn.state, grid=scn.grid, hbar=scn.model.hbar)
    pair = rates.rate_pair(rho0, scn.coupling, bath.thermal_strength(scn.bath), scn.model.hbar)
    # criterion 07 puts the window at 1e-6 of the bath time 1/omega_max; it
    # must also sit 1e-6 below the decoherence time 1/sqrt(rate), which is
    # the shorter one for the steep cubic couplings
    scale = min(1.0 / float(np.max(scn.bath.omegas)), 1.0 / math.sqrt(max(pair.classical_rate, pair.quantum_rate)))
    window = 1e-6 * scale
    ts = np.linspace(0.0, window, 17)
    for side, rate in (("classical", pair.classical_rate), ("quantum", pair.quantum_rate)):
        c1, c2 = oracle.short_time_fit(ts, strongdec.entropy_series(rho0, ts, scn.coupling, scn.bath, side), window)
        if abs(c1) > FIT_LINEAR * abs(c2) * window or _rel(c2, rate) > FIT_RATE:
            errors.append(f"{side} short-time fit c1={c1:.3e} c2={c2:.6e} against rate {rate:.6e}")
    return errors


def _check_mc(unit: Unit, est) -> list[str]:
    scn = unit.scenario
    q1, q2 = scn.probe
    t = scn.oracle["mc"]["times"][0]
    analytic = strongdec.classical_factor(q1, q2, t, scn.coupling, scn.bath).value
    dist = est.sigma_distance(analytic)
    return [] if dist < MC_SIGMAS else [f"MC estimate {dist:.2f} sigma from the classical factor at t={t}"]


def _check_fock(unit: Unit, overlaps) -> list[str]:
    scn = unit.scenario
    q1, q2 = scn.probe
    worst = max(
        abs(abs(o) - abs(strongdec.quantum_factor(q1, q2, float(t), scn.coupling, scn.bath).value))
        for t, o in zip(scn.oracle["fock"]["times"], overlaps)
    )
    return [] if worst < FOCK_MODULUS else [f"Fock modulus error {worst:.3e}"]


def _check_state(unit: Unit, res) -> list[str]:
    errors = []
    rho, w, back = res["rho"], res["wigner"], res["back"]
    roundtrip = float(np.max(np.abs(back.values - rho.values)))
    if not roundtrip < ROUNDTRIP:
        errors.append(f"Wigner roundtrip error {roundtrip:.3e}")
    gap = abs(states.purity(rho) - states.wigner_purity(w))
    if not gap < PURITY_GAP:
        errors.append(f"purity gap {gap:.3e}")
    base = res["scan"][0].ratio
    if res["pair"] != res["scan"][0]:
        errors.append("rate_pair differs from the hbar-scan entry at factor 1")
    for factor, pair in zip(unit.scenario.scan["factors"], res["scan"]):
        if not _rel(pair.ratio, base) <= HBAR_RATIO:
            errors.append(f"rate ratio at hbar x{factor} is {pair.ratio!r}, at x1 {base!r}")
    return errors


def _check_separation_scan(unit: Unit, pairs) -> list[str]:
    quantum = np.array([p.quantum_rate for p in pairs])
    classical = np.array([p.classical_rate for p in pairs])
    top = quantum[-3:]
    errors = []
    if not (top.max() - top.min()) < SATURATION * top.min():
        errors.append(f"quantum rate does not saturate: {quantum.tolist()}")
    if not (np.all(np.diff(classical) > 0) and classical[-1] > 10 * classical[0]):
        errors.append(f"classical rate does not grow: {classical.tolist()}")
    return errors


_CHECKS = {
    "scenario": _check_scenario,
    "mc": _check_mc,
    "fock": _check_fock,
    "state": _check_state,
    "separation-scan": _check_separation_scan,
}


def check(unit: Unit, result) -> list[str]:
    """Full correctness checks of one unit's outputs; empty when it passes."""
    return _CHECKS[unit.kind](unit, result)


class Bench:
    """Runs passes over the units and keeps the verdict of every unit run."""

    def __init__(self, work_units, out_dir: Path):
        self.units = work_units
        self.out_dir = out_dir
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def run_pass(self, label: str, tracer=None, full_check: bool = False) -> list[float]:
        """One pass over all units; returns each unit's time in program calls."""
        times = []
        for unit in self.units:
            self.attempted += 1
            if tracer is not None:
                tracer.unit = unit.index
            start = time.perf_counter()
            try:
                result = run(unit, self.out_dir)
            except Exception:  # a unit that raises is a failed unit
                times.append(time.perf_counter() - start)
                self.failures.append({"pass": label, "unit": unit.name, "errors": [traceback.format_exc(limit=3)]})
                continue
            times.append(time.perf_counter() - start)
            fingerprint = digest(unit, result)
            errors = []
            if full_check:
                errors = check(unit, result)
                self.reference[unit.name] = fingerprint
            elif self.reference.get(unit.name) != fingerprint:
                errors = ["outputs differ from the checked pass"]
            if errors:
                self.failures.append({"pass": label, "unit": unit.name, "errors": errors})
        return times
