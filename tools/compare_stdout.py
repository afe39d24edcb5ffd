"""Compare the stdout and exit code of a fixed list of powspec commands
under two source trees.

    python3 tools/compare_stdout.py ROOT_A ROOT_B

Each ROOT is the root of a powspec checkout.  The commands run in process,
through ``powspec.cli.main``, in one child process per root that imports
powspec from ROOT/src.  Every command whose stdout or exit code differs
between the roots is printed; the exit code is 1 if any differs, else 0.

The list:

* every request of the three benchmark workloads at seeds 1, 2, 3 and 905
  (``powbench/workloads.py`` of this checkout);
* ``spectrum`` on small Z_n, D_n and Q_n, both variants, plain and
  complement, at every preset, at float parameters and at rational
  parameters in CSV, each also with ``--vectors --oracle-check`` where
  n <= 30;
* Z_720720, and D_360360 and Q_180180, where the index tables of the
  D_n and Q_n law are largest, at the Laplacian preset and at
  (1, -1, 2, 3);
* ``verify --seed 3`` on Z_12, D_6 and Q_4;
* ``charpoly --quotient`` at rational parameters and ``charpoly
  --normalized --at=5/4`` on the same groups, both variants, plain and
  complement (exit 1 where the normalized Laplacian is undefined);
* ``graph`` on Z_12, D_6 and Q_4, both variants, plain and complement;
* one invalid ``--group``, ``--variant`` and ``--preset`` each, which pin
  the exit code of a refused choice;
* ``-h`` at the top level and for each subcommand, which pin the help text
  and its exit code 0.

A command that ends in ``SystemExit``, as ``-h`` does under a ``main`` that
lets argparse exit, counts with the exit's code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# one BLAS thread, as the benchmark runs, and a small footprint
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SWEEP = {
    "zn": (1, 2, 6, 12, 30, 60, 64, 97, 120, 210, 360, 972),
    "dn": (1, 3, 6, 15, 30, 64, 105),
    "qn": (2, 3, 4, 6, 12, 15, 30),
}
PARAMS = (
    ["--preset", "adjacency"],
    ["--preset", "laplacian"],
    ["--preset", "signless"],
    ["--preset", "seidel"],
    ["--params=0.3,-1.7,2.25,0.1"],
    ["--params=7/2,-5/3,8/5,-9/7", "--format", "csv"],
)


def commands() -> list[list[str]]:
    sys.path.insert(0, str(HERE.parent / "powbench"))
    import workloads

    out = [
        req.argv()
        for name in workloads.WORKLOADS
        for seed in (1, 2, 3, 905)
        for req in workloads.requests(name, seed)
    ]
    for family, ns in SWEEP.items():
        for n in ns:
            for variant in ("power", "proper"):
                for complement in ([], ["--complement"]):
                    for params in PARAMS:
                        cmd = ["spectrum", "--group", family, "--n", str(n), "--variant", variant]
                        out.append(cmd + complement + params)
                        if n <= 30:
                            out.append(cmd + complement + params + ["--vectors", "--oracle-check"])
    for family, n in (("zn", 720720), ("dn", 360360), ("qn", 180180)):
        for params in (["--preset", "laplacian"], ["--params=1,-1,2,3"]):
            out.append(["spectrum", "--group", family, "--n", str(n), *params])
    for family, ns in SWEEP.items():
        for n in ns:
            for variant in ("power", "proper"):
                for complement in ([], ["--complement"]):
                    cmd = ["charpoly", "--group", family, "--n", str(n), "--variant", variant]
                    out.append(cmd + complement + ["--quotient", "--params=7/2,-5/3,8/5,-9/7"])
                    out.append(cmd + complement + ["--normalized", "--at=5/4"])
    for family, n in (("zn", 12), ("dn", 6), ("qn", 4)):
        out.append(["verify", "--group", family, "--n", str(n), "--seed", "3"])
        for variant in ("power", "proper"):
            for complement in ([], ["--complement"]):
                out.append(["graph", "--group", family, "--n", str(n), "--variant", variant, *complement])
    out += [
        ["spectrum", "--group", "sn", "--n", "6"],
        ["spectrum", "--group", "zn", "--n", "6", "--variant", "improper"],
        ["spectrum", "--group", "zn", "--n", "6", "--preset", "distance"],
    ]
    out += [[*command, "-h"] for command in ([], ["spectrum"], ["verify"], ["charpoly"], ["graph"])]
    return out


def run_all(root: str, cmds: list[list[str]]) -> list[list]:
    """[exit code, sha256 of stdout] of every command, run under ``root``."""
    sys.path.insert(0, str(Path(root, "src")))
    from powspec import cli

    results = []
    for argv in cmds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", metavar="ROOT")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:  # one root; commands on stdin, results on stdout
        json.dump(run_all(args.roots[0], json.load(sys.stdin)), sys.stdout)
        return 0
    if len(args.roots) != 2:
        ap.error("give two roots")

    cmds = commands()
    results = []
    for root in args.roots:
        if not Path(root, "src", "powspec", "__init__.py").is_file():
            print(f"compare_stdout: no powspec sources under {root}/src", file=sys.stderr)
            return 2
        child = subprocess.run(
            [sys.executable, __file__, "--child", root],
            input=json.dumps(cmds), capture_output=True, text=True,
            env={**os.environ, **CHILD_ENV}, check=False,
        )
        if child.returncode != 0:
            print(f"compare_stdout: the run under {root} failed:\n{child.stderr}", file=sys.stderr)
            return 2
        results.append(json.loads(child.stdout))
    differ = [cmd for cmd, a, b in zip(cmds, *results) if a != b]
    for cmd in differ:
        print("differs:", " ".join(cmd))
    print(f"{len(differ)} of {len(cmds)} commands differ in stdout or exit code")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
