"""Set-up time in a fresh process: import nemosim and its CLI, load the
workload's scenario file and build one Simulation per protocol.  Prints the
seconds taken, interpreter start-up not included, and then the seconds of
the reference load (calibrate.py) timed in the same process afterwards.

    python3 bench/setup_probe.py [scenario.json]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# Reference loads after set-up; the first one warms the allocator.
REFERENCE_LOADS = 3


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import nemosim.cli  # noqa: F401
    from nemosim.scenario import PROTOCOLS, ScenarioConfig, load_config
    from nemosim.simulation import Simulation
    for protocol in PROTOCOLS:
        config = load_config(argv[0]) if argv else ScenarioConfig()
        config.protocol = protocol
        Simulation(config)
    setup = time.perf_counter() - START
    sys.path.insert(0, str(BENCH_DIR))
    from calibrate import time_reference
    refs = [time_reference() for _ in range(REFERENCE_LOADS)][1:]
    print(f"{setup:.9f} {sum(refs) / len(refs):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
