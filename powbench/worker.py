"""One workload in its own process: imports, warm-up, then whole rounds of
requests in a closed loop, one client, until ``--seconds`` have passed.

Started by ``run.py``.  It writes "ready" on stdout once set-up is done,
and its result as one JSON line at the end.  Every request is an
in-process call of ``powspec.cli.main(argv)`` with stdout and stderr
captured; a quotient request also finds the roots of the printed
coefficients with ``spectra.charpoly_roots``, since the CLI has no roots
command.  Garbage is collected before each request and each output is
checked against the reference right after it, both outside the timed span;
an output equal to one already checked for the same request is not
checked again.  The calibration kernel runs between requests, also
outside the timed span.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# One small call of every traced layer, and the first LAPACK calls.
WARM_UP = (
    "spectrum --group zn --n 15 --oracle-check --vectors",
    "spectrum --group qn --n 6 --complement --params=1,1/2,0,1 --oracle-check --vectors",
    "spectrum --group dn --n 150 --preset laplacian",
    "charpoly --group zn --n 12 --quotient --params=1,-1,2,3",
    "charpoly --group zn --n 12 --normalized --at=1/2",
)


def execute(cli, spectra, argv: list[str], roots: bool):
    """(exit code, stdout, stderr, roots or None) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    found = None
    if code == 0 and roots:
        coeffs = [Fraction(c) for c in json.loads(text)["coefficients"]]
        found = spectra.charpoly_roots(coeffs)
    return code, text, err.getvalue(), found


def warm_up(cli, spectra, tracer=None) -> None:
    for k, line in enumerate(WARM_UP):
        if tracer:
            tracer.request = f"warm-up-{k}"
        argv = line.split()
        code, _, err, _ = execute(cli, spectra, argv, "--quotient" in argv)
        if code != 0:
            raise RuntimeError(f"warm-up request failed: {line}: {err.strip()}")
    rng = np.random.default_rng(0)
    m = rng.standard_normal((400, 400))
    np.linalg.eigh(m + m.T)


def check(req, text: str, found, ref: dict) -> list[str]:
    if req.kind == "spectrum":
        u = None
        if req.vectors:
            adj = reference.graph(req.family, req.n, req.proper, req.complement)
            u = reference.universal(adj, req.params)
        return checks.spectrum(json.loads(text), ref, u)
    report = json.loads(text)
    if req.kind == "quotient":
        coeffs = [Fraction(c) for c in report["coefficients"]]
        return checks.quotient(coeffs, found, ref)
    return checks.normalized(report["value"], ref)


# The calibration kernel: a fixed pure-Python loop, timed between requests.
# The shared host's speed drifts by up to 1.9x from one run to the next,
# and every part of a request drifts with it; a request's time over the
# kernel's time around it varies far less.  One ref-s is the time of REF_KERNELS runs of
# the kernel: about one second on the hardware of powbench/README.md.
KERNEL_STEPS = 100_000
REF_KERNELS = 100


def kernel() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(KERNEL_STEPS):
        acc += i * i % 7
    return time.perf_counter() - start


def summary(times: list[list[float]]) -> tuple[float, float, float]:
    """Requests per unit of time, and the median and 90th percentile of a
    request's time, from each request's times, one per round.  A request's
    time is its median over the rounds of the run; the percentiles are
    taken over the requests of the round."""
    per_request = sorted(statistics.median(t) for t in times if t)
    return (
        sum(map(len, times)) / sum(map(sum, times)),
        statistics.median(per_request),
        # nearest rank, so the value is one request's time
        per_request[math.ceil(0.9 * len(per_request)) - 1],
    )


def run(args, cli, spectra, tracer) -> dict:
    reqs = workloads.requests(args.workload, args.seed)
    refs = json.loads(Path(args.refs).read_text())
    times: list[list[float]] = [[] for _ in reqs]  # s
    ref_times: list[list[float]] = [[] for _ in reqs]  # ref-s
    kernels = [kernel()]
    checked = [set() for _ in reqs]  # digests of outputs found correct
    attempted = failed = wrong = rounds = stdout_bytes = 0
    problems = []
    start_run = time.perf_counter()
    while time.perf_counter() - start_run < args.seconds:
        rounds += 1
        for i, req in enumerate(reqs):
            if tracer:
                tracer.request = attempted
            attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                code, text, err, found = execute(cli, spectra, req.argv(), req.kind == "quotient")
            except Exception as exc:  # a crash of the program is one failed request
                code, text, err, found = None, "", f"{type(exc).__name__}: {exc}", None
            elapsed = time.perf_counter() - start
            kernels.append(kernel())
            if code != 0:
                failed += 1
                problems.append(f"{req.key()}: exit {code}: {err.strip()[-300:]}")
                continue
            times[i].append(elapsed)
            ref_times[i].append(elapsed / ((kernels[-2] + kernels[-1]) / 2 * REF_KERNELS))
            stdout_bytes += len(text)
            digest = hashlib.sha256(f"{text}{found}".encode()).digest()
            if digest in checked[i]:
                continue
            bad = check(req, text, found, refs[req.key()])
            if not bad:
                checked[i].add(digest)
            wrong += bool(bad)
            problems += [f"{req.key()}: {p}" for p in bad]
    for line in problems[:20]:
        print(f"powbench: {line}", file=sys.stderr)
    rate, p50, p90 = summary(ref_times)
    wall_rate, wall_p50, wall_p90 = summary(times)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "e2e": {
            "requests_per_ref_s": rate,
            "request_ref_s_p50": p50,
            "request_ref_s_p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "wall": {"requests_per_s": wall_rate, "request_s_p50": wall_p50, "request_s_p90": wall_p90},
        "times": {req.key(): t for req, t in zip(reqs, times)},
        "ref_times": {req.key(): t for req, t in zip(reqs, ref_times)},
        "kernel_s": kernels,
    }
    if tracer:
        tracer.self_times()
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        result["layers"] = layer_metrics(names, tracer.spans, attempted - failed, stdout_bytes)
        tracer.write(args.trace_out)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs")
    ap.add_argument("--trace-out")
    ap.add_argument("--probe", action="store_true", help="set up, report ready, exit")
    args = ap.parse_args()

    import powspec
    from powspec import cli, spectra

    if Path(powspec.__file__).resolve().parent != ROOT / "src" / "powspec":
        print(f"powbench: imported powspec from {powspec.__file__}", file=sys.stderr)
        return 3
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    warm_up(cli, spectra, tracer)
    print("ready", file=sys.__stdout__, flush=True)
    if args.probe:
        return 0
    result = run(args, cli, spectra, tracer)
    print(json.dumps(result), file=sys.__stdout__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
