"""Time one set-up in a fresh interpreter: import decodyn, generate the
workload's inputs and parse them (cli.parse_config, which builds Ohmic baths
through bath.discretize_ohmic).  Prints the elapsed seconds as JSON.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    # the imports are part of the set-up being timed
    from decodyn import cli

    import gen

    scenarios = [cli.parse_config(spec["config"]) for spec in gen.generate(workload, seed)]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "scenarios": len(scenarios)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
