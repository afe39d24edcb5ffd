"""Reference figures: the instances that powbench/README.md cites, each run
``REPEATS`` times in one traced process, with the median wall time and the
median self time of the layers that dominate it.

    python3 powbench/figures.py

Same set-up as a worker (one BLAS thread, the warm-up), same tracer.  The
workloads measure; these figures place single instances beside them.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

from spans import Tracer  # noqa: E402
from worker import execute, warm_up  # noqa: E402

from powspec import cli, spectra  # noqa: E402  (worker puts src on the path)

INSTANCES = (
    "spectrum --group zn --n 5040",
    "spectrum --group qn --n 512",
    "charpoly --group zn --n 360 --quotient --params=1,-1,2,3",
    "charpoly --group zn --n 720 --quotient --params=1,-1,2,3",
    "charpoly --group zn --n 60 --normalized --at=1/2",
)
REPEATS = 3


def main() -> int:
    tracer = Tracer()
    tracer.install()
    warm_up(cli, spectra)
    for line in INSTANCES:
        argv = line.split()
        walls, layers = [], {}
        for _ in range(REPEATS):
            tracer.clear()
            start = time.perf_counter()
            code, _, err, _ = execute(cli, spectra, argv, "--quotient" in argv)
            walls.append(time.perf_counter() - start)
            if code != 0:
                print(f"{line}: exit {code}: {err.strip()}", file=sys.stderr)
                return 1
            tracer.self_times()
            own: dict[str, float] = {}
            for s in tracer.spans:
                own[s["name"]] = own.get(s["name"], 0.0) + s["self"]
            for name, secs in own.items():
                layers.setdefault(name, []).append(secs)
        print(f"{line}: median {statistics.median(walls):.3f} s of {', '.join(f'{w:.3f}' for w in walls)}")
        medians = {name: statistics.median(v) for name, v in layers.items()}
        for name, secs in sorted(medians.items(), key=lambda kv: -kv[1]):
            if secs >= 0.01:
                print(f"    {name:45s} {secs:8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
