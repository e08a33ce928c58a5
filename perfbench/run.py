"""decodyn benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload {dephasing,oracle,state-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree that holds ``src/decodyn``; the package
is imported from there and nowhere else.  The workload's units are generated
from the seed (``gen.py``), parsed, and run once as a checked warm-up pass:
every unit's outputs go through the full correctness checks (``units.py``).
Further passes run until ``--seconds`` is used up (at least three), closed
loop with one caller, and each is compared byte for byte with the checked
pass.  A unit fails if it raises, misses a check or changes its outputs.

``--trace 0`` reports the end-to-end metrics with tracing off: ``wall_s``
(one pass over all units, as the sum of each unit's median time over the
timed passes), ``peak_rss_mb`` (``ru_maxrss`` of this process), ``setup_s``
(median over fresh interpreters of importing decodyn and generating and
parsing the inputs, after one discarded priming process) and ``pass_ratio``
(units that passed over units attempted).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (``spans.py``): self times, computed work counts and
shares, the tracing overhead and the share of traced time no span covers.

The last line of standard output is the result as one JSON object; the line
before it, starting ``report:``, holds the same run in detail with its
metadata.  The program exits 2 without a result when ``src/decodyn`` is
missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9
MIN_TIMED_PASSES = 3
MIN_TRACED_PAIRS = 1

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time and metadata


def measure_setup(workload: str, seed: int) -> dict:
    """Median set-up time over fresh interpreters, after one discarded
    priming process that warms the page cache and the bytecode cache."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]

    def probe() -> tuple[float, float]:
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(out.stdout.splitlines()[-1])["setup_s"], time.perf_counter() - start

    priming_s, priming_wall_s = probe()
    samples = [probe()[0] for _ in range(SETUP_PROBES)]
    return {
        "median_s": statistics.median(samples),
        "samples_s": samples,
        "priming_setup_s": priming_s,
        "priming_process_s": priming_wall_s,
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "decodyn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu() -> dict:
    info: dict = {"model": platform.processor() or None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            fields = {k: (Path(index) / k).read_text().strip() for k in ("level", "type", "size")}
            info["caches"][f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        pass
    return info


def _blas() -> dict:
    out = {"library": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["library"], out["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def metadata(seed: int, setup: dict | None) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "priming_process_s": None if setup is None else setup["priming_process_s"],
    }


# ---------------------------------------------------------------------------
# passes


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` (which returns its duration) at least ``minimum`` times,
    and again while another call fits in ``seconds``."""
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < minimum or time.perf_counter() - start + statistics.median(durations) <= seconds:
        durations.append(step())


def run_workload(args, out_dir: Path) -> tuple[dict, dict]:
    """Returns (metrics, report) for one run."""
    # imported here: they import decodyn, which main has just located
    import spans
    import units

    specs = gen.generate(args.workload, args.seed)
    report: dict = {"units": len(specs)}
    if args.trace:
        # parse under the tracer so parse_config and discretize_ohmic get spans
        with spans.Tracer() as tracer:
            work_units = units.prepare(specs)
        setup_spans = tracer.spans
    else:
        work_units = units.prepare(specs)
    bench = units.Bench(work_units, out_dir)
    report["check_pass_s"] = sum(bench.run_pass("check", full_check=True))

    if not args.trace:
        passes: list[list[float]] = []

        def timed() -> float:
            passes.append(bench.run_pass("timed"))
            return sum(passes[-1])

        repeat(timed, args.seconds, MIN_TIMED_PASSES)
        # one pass is the sum over units of each unit's median time, so a
        # burst of outside load that hits one unit in one pass is dropped
        unit_medians = [statistics.median(times) for times in zip(*passes)]
        report["passes_s"] = [sum(p) for p in passes]
        report["unit_medians_s"] = unit_medians
        metrics = {
            "wall_s": sum(unit_medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        pairs: list[dict[str, float]] = []
        tracer = spans.Tracer()

        def pair() -> float:
            untraced = sum(bench.run_pass("untraced"))
            tracer.reset()
            with tracer:
                traced = sum(bench.run_pass("traced", tracer=tracer))
            pairs.append(spans.layer_metrics(tracer, traced, untraced))
            return untraced + traced

        repeat(pair, args.seconds, MIN_TRACED_PAIRS)
        metrics = {name: statistics.median(p[name] for p in pairs) for name in pairs[0]}
        metrics["cli.parse_config.s"] = spans.inclusive_time(setup_spans, ("cli.parse_config",))
        metrics["bath.discretize_ohmic.s"] = spans.inclusive_time(setup_spans, ("bath.discretize_ohmic",))
        report["traced_pairs"] = len(pairs)
        report["bases"] = spans.BASES
        report["computed"] = list(spans.COMPUTED)
    report["attempted"] = bench.attempted
    report["failed"] = len(bench.failures)
    report["fail_ratio"] = len(bench.failures) / bench.attempted
    report["failures"] = bench.failures[:20]
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "decodyn" / "__init__.py").is_file():
        print(f"error: no decodyn sources under {SRC}; run from the root of a decodyn source tree", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import decodyn

    if Path(decodyn.__file__).resolve().parent != SRC / "decodyn":
        print(f"error: imported decodyn from {decodyn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans

    out_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        metrics, report = run_workload(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed, attempted = report["failed"], report["attempted"]
    if setup is not None:
        metrics["setup_s"] = setup["median_s"]
        metrics["pass_ratio"] = (attempted - failed) / attempted
        report["setup"] = setup
    names = spans.PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(names):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(names))}")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}
    report.update(workload=args.workload, trace=args.trace, metadata=metadata(args.seed, setup), metrics=result)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
