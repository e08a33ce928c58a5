"""Seeded inputs for the benchmark workloads.

``generate(workload, seed)`` is a pure function of its arguments: it returns
a list of units, each a plain dict holding a ``decodyn`` config document
(the ``decodyn run`` JSON schema) plus the benchmark's own fields.  It
imports nothing from ``decodyn`` or numpy, so the set-up probe can time the
package import separately.

Each workload is a fixed list of slots.  The seed draws the continuous
parameters of every slot (separations, widths, coefficients, times), but
never the things the cost depends on: grid size n, time-grid length, mode
count, sample count and Fock truncation are fixed per slot, so runs with
different seeds do the same amount of work.

``small=True`` shrinks every slot (n = 256 grids, 10k samples, 32 Fock
levels) for the benchmark's own smoke tests.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("dephasing", "oracle", "state-sweep")

_OHMIC = {"ohmic": {"eta": 0.25, "omega_c": 1.0, "n_modes": 50, "omega_max": 5.0}}
_SINGLE = {"modes": [{"m": 1.0, "omega": 1.0, "c": 1.0}]}

# GridSpec.cover pads +-12 sigma at sigma/8 spacing and rounds up to a power
# of two, so n = 2**ceil(log2(8 * separation / sigma + 193)).  These ranges
# of separation/sigma keep n fixed whatever the seed draws.
_RATIO_FOR_N = {256: (4.0, 7.0), 512: (14.0, 30.0), 1024: (48.0, 96.0)}


def _cat(sep: float, sigma: float, center: float = 0.0, kick: float = 0.0, phase: float = 0.0) -> dict:
    left = {"center_q": center - 0.5 * sep, "center_p": kick, "sigma": sigma, "re": 1.0, "im": 0.0}
    right = {
        "center_q": center + 0.5 * sep,
        "center_p": -kick,
        "sigma": sigma,
        "re": math.cos(phase),
        "im": math.sin(phase),
    }
    return {"packets": [left, right]}


def _coupling(family: str, rnd: random.Random, sep: float) -> dict:
    if family == "linear":
        return {"variant": "linear", "a": rnd.uniform(0.5, 1.5)}
    if family == "quadratic":
        return {"variant": "quadratic", "a": rnd.uniform(0.5, 1.5), "b": rnd.uniform(0.1, 0.5)}
    if family == "cubic":
        return {"variant": "polynomial", "coefficients": [0.0, rnd.uniform(-0.5, 0.5), 0.0, rnd.uniform(0.5, 1.5)]}
    if family == "sine":
        # period matched to the separation, as in the sine-cat preset
        return {
            "variant": "sinusoidal",
            "amplitude": rnd.uniform(0.5, 1.5),
            "wavelength": sep,
            "phase": math.pi * rnd.uniform(0.15, 0.35),
        }
    raise ValueError(f"unknown coupling family {family!r}")


def _model(beta) -> dict:
    return {"hbar": 1.0, "beta": beta}


# (coupling family, grid size, bath, beta, t_max), after the linear,
# quadratic, cubic-cat and sine-cat presets
_DEPHASING_SLOTS = (
    ("linear", 512, _OHMIC, 2.0, 10.0),
    ("quadratic", 512, _OHMIC, 2.0, 10.0),
    ("cubic", 1024, _SINGLE, None, 0.95 * math.pi),
    ("sine", 1024, _SINGLE, None, 0.95 * math.pi),
)


def _dephasing(rnd: random.Random, small: bool) -> list[dict]:
    units = []
    for i, (family, n, bath, beta, t_max) in enumerate(_DEPHASING_SLOTS):
        n = 256 if small else n
        sep = rnd.uniform(6.0, 10.0)
        sigma = sep / rnd.uniform(*_RATIO_FOR_N[n])
        config = {
            "name": f"dephasing-{i}-{family}",
            "model": _model(beta),
            "bath": bath,
            "coupling": _coupling(family, rnd, sep),
            "state": _cat(sep, sigma),
            "time": {"t_max": t_max, "n_steps": 50 if small else 200},
            "probe": {"q1": -0.5 * sep, "q2": 0.5 * sep},
        }
        units.append({"kind": "scenario", "n": n, "config": config})
    return units


# (bath, beta, coupling family, time range, number of times), after
# criterion 08 of the acceptance suite
_MC_SLOTS = (
    (_SINGLE, None, "linear", (math.pi / 4, math.pi), 5),
    (_SINGLE, None, "cubic", (0.05, 0.6), 5),
    (_OHMIC, 2.0, "linear", (0.3, 4.0), 5),
    (_OHMIC, 2.0, "cubic", (0.05, 0.5), 4),
)


def _oracle_config(name, bath, beta, coupling, probe, oracle, seed) -> dict:
    return {
        "name": name,
        "model": _model(beta),
        "bath": bath,
        "coupling": coupling,
        "state": _cat(2.0, 0.2),
        "time": {"t_max": 1.0, "n_steps": 2},
        "probe": {"q1": probe[0], "q2": probe[1]},
        "oracle": oracle,
        "seed": seed,
    }


def _oracle(rnd: random.Random, small: bool) -> list[dict]:
    mc_seed = rnd.randrange(2**31)
    n_samples = 10_000 if small else 100_000
    units = []
    for i, (bath, beta, family, (t_lo, t_hi), count) in enumerate(_MC_SLOTS):
        coupling = (
            {"variant": "linear", "a": rnd.uniform(0.8, 1.2)}
            if family == "linear"
            else {"variant": "polynomial", "coefficients": [0.0, 0.0, 0.0, rnd.uniform(0.8, 1.2)]}
        )
        probe = (2.0 + rnd.uniform(-0.25, 0.25), rnd.uniform(-0.25, 0.25))
        times = sorted(rnd.uniform(t_lo, t_hi) for _ in range(count))
        for t in times:
            oracle = {"mc": {"times": [t], "n_samples": n_samples}}
            config = _oracle_config(f"mc-{i}-{family}", bath, beta, coupling, probe, oracle, mc_seed)
            units.append({"kind": "mc", "config": config})
    # Fock overlap at zero temperature and at finite beta (the thermal-trace
    # branch is a separate code path)
    for i, beta in enumerate((None, rnd.uniform(1.5, 3.0))):
        coupling = {"variant": "linear", "a": rnd.uniform(0.8, 1.2)}
        probe = (1.0 + rnd.uniform(-0.25, 0.25), -1.0 + rnd.uniform(-0.25, 0.25))
        times = [2.0 * math.pi * k / 9.0 for k in range(10)]
        oracle = {"fock": {"times": times, "n_levels": 32 if small else 64}}
        config = _oracle_config(f"fock-{i}", _SINGLE, beta, coupling, probe, oracle, 0)
        units.append({"kind": "fock", "config": config})
    return units


# grid size of each seeded state, cycling the coupling families below
_STATE_SLOTS = (1024, 512, 512, 1024, 512, 512, 1024, 512, 512)
_STATE_FAMILIES = ("cubic", "sine", "quadratic")


def _state_sweep(rnd: random.Random, small: bool) -> list[dict]:
    units = []
    for i, n in enumerate(_STATE_SLOTS):
        n = 256 if small else n
        family = _STATE_FAMILIES[i % len(_STATE_FAMILIES)]
        sep = rnd.uniform(4.0, 12.0)
        sigma = sep / rnd.uniform(*_RATIO_FOR_N[n])
        state = _cat(
            sep,
            sigma,
            center=rnd.uniform(-1.0, 1.0),
            kick=rnd.uniform(-0.5, 0.5),
            phase=rnd.uniform(0.0, 2.0 * math.pi),
        )
        config = {
            "name": f"state-{i}-{family}",
            "model": _model(None),
            "bath": _SINGLE,
            "coupling": _coupling(family, rnd, sep),
            "state": state,
            "time": {"t_max": 1.0, "n_steps": 2},
            "scan": {"hbar_factors": [1.0, rnd.uniform(2.0, 10.0), rnd.uniform(50.0, 200.0)]},
        }
        units.append({"kind": "state", "n": n, "config": config})
    # separation scan as in the saturation-scan preset; sigma stays 0.5 so
    # the per-separation grid sizes do not depend on the seed
    config = {
        "name": "separation-scan",
        "model": _model(None),
        "bath": _SINGLE,
        "coupling": {
            "variant": "sinusoidal",
            "amplitude": rnd.uniform(0.5, 1.5),
            "wavelength": rnd.uniform(0.8, 1.2),
            "phase": math.pi * rnd.uniform(0.15, 0.35),
        },
        "state": _cat(8.0, 0.5),
        "time": {"t_max": 1.0, "n_steps": 2},
        "scan": {"separations": [2.0, 4.0, 8.0] if small else [2.0, 4.0, 8.0, 16.0, 32.0], "sigma": 0.5},
    }
    units.append({"kind": "separation-scan", "config": config})
    return units


_GENERATORS = {"dephasing": _dephasing, "oracle": _oracle, "state-sweep": _state_sweep}


def generate(workload: str, seed: int, small: bool = False) -> list[dict]:
    """The units of one workload, a pure function of (workload, seed, small)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rnd = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rnd, small)
