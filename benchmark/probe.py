"""Set-up probe: run in a fresh interpreter by benchmark/run.py.

    python3 benchmark/probe.py <config.yaml> simulation|hitting

Imports edgesim through its command-line module, loads and validates the
workload's config, and simulates the first tick.  Prints one JSON line
with the clock reading at that tick (time.perf_counter is the system-wide
monotonic clock on Linux, so the parent can subtract its own reading taken
just before it started this process) and the import and config-load times.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    config_path, kind = sys.argv[1], sys.argv[2]
    import edgesim.cli  # noqa: F401  (the user-facing entry point)
    from dataclasses import replace

    from edgesim.harness import run_simulation
    from edgesim.prices import ABOVE, estimate_hitting_time
    from edgesim.runio import load_config
    t_import = time.perf_counter()
    config = load_config(config_path)
    t_load = time.perf_counter()
    if kind == "simulation":
        run_simulation(replace(config, run=replace(
            config.run, total_ticks=1, target_phases=None)))
    elif kind == "hitting":
        estimate_hitting_time(config.price, config.price.start_price, 1, ABOVE,
                              samples=1, cap=1)
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    t_tick = time.perf_counter()
    print(json.dumps({"first_tick": t_tick, "import_s": t_import - T_START,
                      "load_config_s": t_load - t_import}))


if __name__ == "__main__":
    main()
