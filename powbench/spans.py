"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function of ``powspec`` with a
wrapper at every module attribute that holds it, which is where callers look
it up: ``cli`` imports ``dense_eigen`` by name, ``build_join`` calls
``validate_structure`` through the ``joinstruct`` globals.  A wrapper
records a span (request, name, start, end, parent span) plus a few
computed counts.  Spans stay in memory until the run ends.

Per-element primitives (``groups.mul``, ``groups.cyclic_subgroup``) are not
wrapped: they run thousands of times per oracle, and their time is what
``groups.power_graph_oracle.self_s`` measures.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

# Module -> traced functions; None: every public function of the module.
TRACED = {
    "numtheory": None,
    "groups": ("power_graph_oracle", "complement_graph"),
    "joinstruct": ("build_join", "validate_structure"),
    "spectra": (
        "universal_matrix",
        "hjoin_spectrum",
        "quotient_matrix",
        "dense_eigen",
        "verify_eigenpairs",
        "charpoly_exact",
        "charpoly_roots",
        "normalized_laplacian_charpoly_at",
    ),
    "closedforms": None,
    "cli": ("main",),
}


def _coeff_bits(coeffs) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)


# Counts computed from a call's arguments and result: (args, result) -> dict.
_COUNTS = {
    "groups.power_graph_oracle": lambda a, r: {"bytes": 2 * a[0].order**2},
    "spectra.universal_matrix": lambda a, r: {"bytes": 8 * a[0].n**2},
    "spectra.dense_eigen": lambda a, r: {"order": len(a[0])},
    "joinstruct.build_join": lambda a, r: {"t": len(r.blocks)},
    "spectra.charpoly_exact": lambda a, r: {"bits": _coeff_bits(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._stack: list[dict] = []

    def _wrap(self, name: str, fn):
        counts = _COUNTS.get(name)

        def wrapper(*args, **kwargs):
            span = {
                "request": self.request,
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans),
                "ok": False,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["ok"] = True
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts:
                span.update(counts(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"powspec.{m}") for m in TRACED]
        modules.append(importlib.import_module("powspec"))
        for short, names in TRACED.items():
            mod = importlib.import_module(f"powspec.{short}")
            if names is None:
                names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is orig:
                            setattr(target, attr, wrapped)

    def clear(self) -> None:
        self.spans.clear()

    def self_times(self) -> None:
        """Adds "self": duration minus the time of the direct children."""
        for span in self.spans:
            span["self"] = span["end"] - span["start"]
        for span in self.spans:
            if span["parent"] is not None:
                parent = self.spans[span["parent"]]
                parent["self"] -= span["end"] - span["start"]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(names, spans: list[dict], requests: int, stdout_bytes: int) -> dict:
    """The per-layer metrics ``names`` from the spans of a run.  Times,
    bytes and counts are per request (run total / requests); the ``_max``
    metrics are maxima over the run.  Self times of ``numtheory`` and
    ``closedforms`` are summed over their functions."""
    total = dict.fromkeys(names, 0.0)
    quotient_dim = bits = 0
    for s in spans:
        name = s["name"]
        module = name.split(".")[0]
        key = module if module in ("numtheory", "closedforms") else name
        total[f"{key}.self_s"] += s["self"]
        if name == "groups.power_graph_oracle":
            total["groups.oracle_bytes"] += s["bytes"]
        elif name == "spectra.universal_matrix":
            total["spectra.universal_bytes"] += s["bytes"]
        elif name == "joinstruct.build_join":
            total["joinstruct.structural_attempts"] += 1
            total["joinstruct.structural_accepted"] += s["ok"]
            quotient_dim = max(quotient_dim, s.get("t", 0))
        elif name == "spectra.dense_eigen":
            total["spectra.dense_eigen.calls"] += 1
            total["spectra.dense_eigen.order3_sum"] += s["order"] ** 3
        elif name == "spectra.charpoly_exact" and s["ok"]:
            bits = max(bits, s["bits"])
    total["cli.stdout_bytes"] = stdout_bytes
    out = {name: total[name] / requests for name in names}
    out["joinstruct.quotient_dim_max"] = quotient_dim
    out["spectra.charpoly_exact.coeff_bits_max"] = bits
    return out
