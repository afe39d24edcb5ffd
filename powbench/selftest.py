"""Shows that the benchmark's checks accept correct outputs and reject
wrong ones.

    python3 powbench/selftest.py

It first compares the reference graphs with the program's definitional
oracle on small groups, then corrupts real outputs of the program: a
perturbed eigenvalue, a dropped multiplicity, a wrong or a repeated basis
vector, a wrong charpoly coefficient and a wrong normalized value.  Exit
status 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from run import reference_for  # noqa: E402
from worker import execute  # noqa: E402
from workloads import Request  # noqa: E402

from powspec import cli, spectra  # noqa: E402  (worker puts src on the path)
from powspec.groups import GroupFamily, GroupSpec, delete_identity, power_graph_oracle  # noqa: E402

FAILURES = []


def expect(name: str, problems: list[str], reject: bool) -> None:
    ok = bool(problems) == reject
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(name)


def reference_graphs() -> None:
    for family, top in (("zn", 40), ("dn", 25), ("qn", 16)):
        for n in range(2, top):
            oracle = power_graph_oracle(GroupSpec(GroupFamily(family), n))
            same = np.array_equal(reference.graph(family, n), oracle.adj) and np.array_equal(
                reference.graph(family, n, proper=True), delete_identity(oracle).adj
            )
            if not same:
                FAILURES.append(f"reference graph {family} n={n}")
                print(f"FAIL reference graph {family} n={n} differs from the oracle")
    print("ok   reference graphs equal the oracle on small groups")


def run(req: Request):
    code, text, err, roots = execute(cli, spectra, req.argv(), req.kind == "quotient")
    if code != 0:
        raise RuntimeError(f"{req.key()}: exit {code}: {err}")
    return text, roots


def spectrum_cases() -> None:
    params = tuple(Fraction(x) for x in ("3/2", "-1/3", "2", "1/5"))
    for req in (
        Request("spectrum", "dn", 15, params=params, vectors=True),
        Request("spectrum", "qn", 6, proper=True, complement=True, params=params, vectors=True),
    ):
        text, _ = run(req)
        report, ref = json.loads(text), reference_for(req)
        u = reference.universal(reference.graph(req.family, req.n, req.proper, req.complement), req.params)
        tag = f"{req.family} n={req.n}"
        expect(f"{tag} correct output", checks.spectrum(report, ref, u), reject=False)
        spaces = report["eigenspaces"]
        multiple = next(i for i, e in enumerate(spaces) if e["multiplicity"] >= 2)

        bad = copy.deepcopy(report)
        bad["eigenspaces"][0]["value"] += 1e-6 * max(1.0, ref["norm"])
        expect(f"{tag} perturbed eigenvalue", checks.spectrum(bad, ref), reject=True)

        bad = copy.deepcopy(report)
        bad["eigenspaces"][multiple]["multiplicity"] -= 1
        bad["eigenspaces"][multiple]["basis"].pop()
        expect(f"{tag} dropped multiplicity", checks.spectrum(bad, ref, u), reject=True)

        bad = copy.deepcopy(report)
        vec = np.zeros(u.shape[0])
        vec[0] = 1.0
        bad["eigenspaces"][0]["basis"][0] = vec.tolist()
        expect(f"{tag} wrong basis vector", checks.spectrum(bad, ref, u), reject=True)

        bad = copy.deepcopy(report)
        basis = bad["eigenspaces"][multiple]["basis"]
        basis[1] = list(basis[0])
        expect(f"{tag} repeated basis vector", checks.spectrum(bad, ref, u), reject=True)


def quotient_cases() -> None:
    params = tuple(Fraction(x) for x in ("1", "-1/2", "2/3", "3"))
    req = Request("quotient", "zn", 120, complement=True, params=params)
    text, roots = run(req)
    ref = reference_for(req)
    coeffs = [Fraction(c) for c in json.loads(text)["coefficients"]]
    expect("charpoly correct output", checks.quotient(coeffs, roots, ref), reject=False)
    for k in (1, len(coeffs) // 2, len(coeffs) - 1):
        bad = list(coeffs)
        bad[k] += 1
        # the roots of the right polynomial, so only the coefficient is wrong
        expect(f"charpoly coefficient {k} off by one", checks.quotient(bad, roots, ref), reject=True)
    shifted = [r + 1e-6 * max(1.0, ref["norm"]) if i == 0 else r for i, r in enumerate(roots)]
    expect("charpoly perturbed root", checks.quotient(coeffs, shifted, ref), reject=True)


def normalized_cases() -> None:
    req = Request("normalized", "qn", 10, at=Fraction(1, 3))
    text, _ = run(req)
    ref = reference_for(req)
    value = json.loads(text)["value"]
    expect("normalized correct output", checks.normalized(value, ref), reject=False)
    expect("normalized value off by 1e-6", checks.normalized(value * (1 + 1e-6), ref), reject=True)


def main() -> int:
    reference_graphs()
    spectrum_cases()
    quotient_cases()
    normalized_cases()
    print("self-test " + ("FAILED: " + ", ".join(FAILURES) if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
