"""Tests of the benchmark itself.

    python -m pytest perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from decodyn.states import GridSpec  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import units  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)
    assert gen.generate(workload, 7, small=True) == gen.generate(workload, 7, small=True)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_does_not_change_the_amount_of_work(workload):
    def shape(seed):
        out = []
        for spec in gen.generate(workload, seed):
            scn = units.Unit(0, spec).scenario
            grid = GridSpec.cover(scn.state).n_points
            assert grid == spec.get("n", grid)
            oracle = {k: {f: v for f, v in cfg.items() if f != "times"} for k, cfg in (scn.oracle or {}).items()}
            out.append((spec["kind"], grid, scn.times.size, scn.bath.n_modes, json.dumps(oracle, sort_keys=True)))
        return out

    assert all(shape(seed) == shape(0) for seed in range(1, 20))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_has_no_failures(workload, tmp_path):
    bench = units.Bench(units.prepare(gen.generate(workload, 3, small=True)), tmp_path)
    bench.run_pass("check", full_check=True)
    untraced = sum(bench.run_pass("timed"))
    with spans.Tracer() as tracer:
        traced = sum(bench.run_pass("traced", tracer=tracer))
    metrics = spans.layer_metrics(tracer, traced, untraced)
    assert bench.failures == []
    assert bench.attempted == 3 * len(bench.units)
    assert set(metrics) | {"cli.parse_config.s", "bath.discretize_ohmic.s"} == set(spans.PER_LAYER)
    entropy = metrics["strongdec.entropy_series.share"]
    sampling = metrics["bath.thermal_sample_block.share"]
    if workload == "dephasing":
        assert entropy > 0.5 and sampling == 0.0
    elif workload == "oracle":
        assert sampling > 0.0 and entropy == 0.0
    else:
        assert metrics["states_rates.share"] > 0.5 and sampling == 0.0 and entropy == 0.0


def _attributes():
    return {
        (ns, attr): value
        for ns in spans.NAMESPACES
        for attr, value in vars(importlib.import_module(ns)).items()
    }


def test_tracer_wraps_every_namespace_and_restores_it():
    before = _attributes()
    originals = spans.public_functions()
    with spans.Tracer():
        for ns, attr, label in (
            ("decodyn.cli", "compute_series", "strongdec.compute_series"),
            ("decodyn.rates", "build_density_matrix", "states.build_density_matrix"),
            ("decodyn.oracle", "thermal_sample_block", "bath.thermal_sample_block"),
            ("decodyn.strongdec", "b2", "bath.b2"),
            ("decodyn", "rate_pair", "rates.rate_pair"),
        ):
            wrapped = getattr(importlib.import_module(ns), attr)
            assert wrapped is not originals[label]
            assert wrapped.__wrapped__ is originals[label]
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_children():
    recorded = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["d", 11.0, 12.0, -1, 1],
    ]
    assert spans.self_times(recorded) == {"a": 6.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert spans.inclusive_time(recorded, ("b", "c")) == 4.0
    assert spans.inclusive_time(recorded, ("",)) == 11.0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
