"""The powspec benchmark.

    python3 powbench/run.py --workload large-order --seed 1 --seconds 25 --trace 0
    python3 powbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  For one workload: build the request list
from the seed, compute the reference values of every distinct request
(untimed, in this process), time ``SETUP_PROBES`` set-up probes, then
start the workload's worker process, which sets up once more and runs
whole rounds of requests until ``--seconds`` have passed.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See
powbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread: on a 2-core machine shared with other work, two threads
# make dense eigensolver times wander by several percent, one does not.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4
# A run ends within this many seconds of its start, or fails.
DEADLINE_S = 170


def reference_for(req: workloads.Request) -> dict:
    adj = reference.graph(req.family, req.n, req.proper, req.complement)
    if req.kind == "normalized":
        return {"mu": reference.normalized_laplacian_eigenvalues(adj).tolist(), "at": float(req.at)}
    u = reference.universal(adj, req.params)
    ref = {"eigenvalues": np.linalg.eigvalsh(u).tolist(), "norm": reference.inf_norm(u)}
    if req.kind == "quotient":
        parts = reference.classes(req.family, req.n, req.proper)
        rows = reference.exact_quotient(adj, parts, req.params)
        sym = reference.symmetric_quotient(rows, [len(p) for p in parts])
        ref["quotient_eigenvalues"] = np.linalg.eigvalsh(sym).tolist()
        ref["charpoly_mod"] = reference.charpoly_mod(rows)
        ref["lcm"] = reference.denominator_lcm(rows)
    return ref


def _wait(proc: subprocess.Popen, deadline: float) -> str:
    """The rest of ``proc``'s stdout once it has exited; kills it at the
    deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def _worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with the seconds from start to "ready"."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env={**os.environ, **WORKER_ENV})
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _wait(proc, deadline)
        raise RuntimeError(f"worker did not set up: {' '.join(args)}")
    return proc, ready


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}{'-trace' if trace else ''}"
    reqs = workloads.requests(workload, seed)
    refs = {req.key(): reference_for(req) for req in dict.fromkeys(reqs)}
    refs_path = OUT / f"refs-{tag}.json"
    refs_path.write_text(json.dumps(refs))

    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = _worker([*base, "--probe"], deadline)
        _wait(proc, deadline)
        setups.append(ready)
    proc, ready = _worker(
        [*base, "--refs", str(refs_path), "--trace-out", str(OUT / f"spans-{tag}.jsonl")], deadline
    )
    setups.append(ready)
    result = json.loads(_wait(proc, deadline).strip().splitlines()[-1])
    e2e = {**result["e2e"], "setup_s": statistics.median(setups)}
    (OUT / f"times-{tag}.json").write_text(
        json.dumps(
            {
                "setup_s": setups,
                "requests": result["times"],
                "requests_ref_s": result["ref_times"],
                "kernel_s": result["kernel_s"],
            }
        )
    )
    print(
        f"powbench: {workload} seed {seed}: {result['rounds']} rounds of {len(reqs)}; "
        + ", ".join(f"{k} {v:.6g}" for k, v in {**e2e, **result["wall"]}.items()),
        file=sys.stderr,
    )
    values = result["layers"] if trace else e2e
    names = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="powspec benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "powspec" / "__init__.py").is_file():
        print(f"powbench: no powspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace, spec)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        res = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        print(f"{workload}: {json.dumps(res)}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
