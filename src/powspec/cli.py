"""Command-line frontend.

Subcommands:

* ``spectrum`` -- eigenvalues (optionally eigenvectors) of U over a chosen
  power graph, computed through the validated join structure; under
  ``--vectors`` it prints the residual row of the check battery
  (``_check_rows``), and under ``--oracle-check`` also the dense-route and
  closed-form rows, as its ``verification`` block;
* ``verify``   -- the same battery over seeded random parameters, on U and
  its complement: route agreement, residual, trace, Frobenius norm and
  complement identity, one ok/FAIL line per row;
* ``charpoly`` -- exact rational characteristic polynomial of the quotient
  matrix, or a pointwise normalized-Laplacian characteristic value;
* ``graph``    -- the edge list of the constructed graph, one "u v" per line.

Output on stdout is deterministic for fixed flags and seed: every float is
serialized with 17 significant digits (an eigenvector basis formats each
distinct value once) and JSON field order is fixed.
Diagnostics and timing go to stderr.  Exit codes: 0 success, 1 usage or
construction error, 2 a failed check row (``_exit_code``) or a join
structure that fails validation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .closedforms import (
    cyclic_prime_power_spectrum,
    cyclic_two_prime_complement_eta0,
    cyclic_two_prime_quotient,
    dicyclic_repeated_eigenvalue,
    dihedral_prime_power_proper,
    quaternion8_complement_spectrum,
)
from .groups import (
    GroupFamily,
    GroupSpec,
    complement_graph,
    edge_lines,
    power_graph_oracle,
)
from .joinstruct import StructureValidationError, Variant, build_join, variant_graph
from .numtheory import factorize, prime_power
from .spectra import (
    PRESETS,
    Basis,
    UndefinedUniversalMatrixError,
    UniversalParams,
    charpoly_exact,
    complement_params,
    dense_eigen,
    hjoin_spectrum,
    multiset_gap,
    normalized_laplacian_charpoly_at,
    quotient_matrix,
    sample_params,
    universal_matrix,
    verify_eigenpairs,
)

__all__ = ["main", "entry"]

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse ended the parse, as after printing help: args[0] is its status."""


class _Parser(argparse.ArgumentParser):
    # argparse would end the process; ``main`` returns every exit code
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # only ``error`` passes a message
        raise _Exit(status)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _array_text(inv: list, table: list, indent: int) -> str:
    """A row of string-table indices, laid out like the list path."""
    items = list(map(table.__getitem__, inv))
    if not items:
        return "[]"
    inner = "  " * (indent + 1)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{'  ' * indent}]"


def _write_basis(basis: Basis, indent: int, out: list) -> None:
    """Appends a basis to ``out`` as the array of its dense vectors would
    print, walking its segments in order.  A set difference is the row of
    all "0" with its "1" and "-1" entries spliced in at their offsets.  A
    lift prints from its t formatted coefficients, one per block, read
    through its block map."""
    if not len(basis):
        out.append("[]")
        return
    inner = "  " * (indent + 2)
    head, sep = f"[\n{inner}", f",\n{inner}"
    zeros = head + sep.join("0" * basis.dimension) + f"\n{'  ' * (indent + 1)}]"
    first, width = len(head), len(sep) + 1  # the offset of entry k is first + k * width
    row_start = f"\n{'  ' * (indent + 1)}"
    lead = row_start
    out.append("[")
    for kind, (a, b) in basis.segments:
        if kind == Basis.LIFT:
            block_of = b.tolist()
            for coeffs in a.tolist():
                out.extend((lead, _array_text(block_of, list(map(_fmt_float, coeffs)), indent + 1)))
                lead = "," + row_start
        elif a.shape[1] == 1:  # e_i - e_j, the common case
            for i, j in zip(a.ravel().tolist(), b.ravel().tolist()):
                x, y = first + i * width, first + j * width
                if x < y:
                    out.extend((lead, zeros[:x], "1", zeros[x + 1 : y], "-1", zeros[y + 1 :]))
                else:
                    out.extend((lead, zeros[:y], "-1", zeros[y + 1 : x], "1", zeros[x + 1 :]))
                lead = "," + row_start
        else:
            for plus, minus in zip(a.tolist(), b.tolist()):
                out.append(lead)
                at = 0
                for k, token in sorted([(k, "1") for k in plus] + [(k, "-1") for k in minus]):
                    offset = first + k * width
                    out.extend((zeros[at:offset], token))
                    at = offset + 1
                out.append(zeros[at:])
                lead = "," + row_start
    out.append(f"\n{'  ' * indent}]")


# the text of a leaf by its type; ``encode_basestring_ascii`` is what
# ``json.dumps`` calls for a string
_LEAVES = {
    float: _fmt_float,
    int: str,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(obj, indent: int, out: list) -> None:
    """Appends the text of ``obj`` to ``out``.  Containers write their items
    in place, so the text of a large basis is copied once more, by the final
    join, however deep it sits; an item that is a leaf of a JSON type is
    written without a further call."""
    if isinstance(obj, Basis):
        _write_basis(obj, indent, out)
        return
    if not isinstance(obj, (dict, list, tuple)):  # a leaf, by its type or nearest base
        leaf = next((_LEAVES[base] for base in type(obj).__mro__ if base in _LEAVES), None)
        if leaf is None:
            raise TypeError(f"cannot serialize {type(obj)!r}")
        out.append(leaf(obj))
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = "\n" + "  " * (indent + 1)
    lead = ("{" if is_dict else "[") + inner
    for key, item in obj.items() if is_dict else enumerate(obj):
        out.append(f'{lead}"{key}": ' if is_dict else lead)  # keys: ASCII identifiers
        leaf = _LEAVES.get(type(item))
        if leaf is None:
            _write_json(item, indent + 1, out)
        else:
            out.append(leaf(item))
        lead = "," + inner
    out.append(f"\n{'  ' * indent}{'}' if is_dict else ']'}")


def _check_finite(values, bases=()) -> None:
    """Raises ``OverflowError`` when one of the floats ``values`` or an
    entry of the ``bases`` is NaN or infinite: a report that printed it
    would not be JSON, and a check against an infinite tolerance would
    pass on nothing."""
    arrays = [np.asarray(values, dtype=float)]
    arrays += [c.ravel() for b in bases for kind, (c, _) in b.segments if kind == Basis.LIFT]
    if not np.isfinite(np.concatenate(arrays)).all():
        raise OverflowError("a report holds a NaN or infinite value")


def _emit_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: keys in insertion order, two-space indent,
    every float formatted by ``_fmt_float``.  A ``Basis`` prints as the
    array of its dense vectors would (see ``_write_basis``).
    """
    out: list = []
    _write_json(obj, indent, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# shared construction helpers
# ---------------------------------------------------------------------------


def _parse_params(args) -> tuple[UniversalParams, str | None]:
    if args.params and args.preset:
        raise _UsageError("give either --preset or --params, not both")
    if args.params:
        pieces = args.params.split(",")
        if len(pieces) != 4:
            raise _UsageError("--params needs four comma-separated values a,b,g,e")
        try:
            vals = [Fraction(piece.strip()) for piece in pieces]
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad --params value: {exc}")
        params = UniversalParams(*vals)
        if params.as_floats()[0] == 0.0:  # a value beyond the float range raises OverflowError
            raise _UsageError(
                f"--params alpha {pieces[0].strip()} rounds to 0 as a float, where U is undefined"
            )
        return params, None
    name = args.preset or "adjacency"
    return UniversalParams.preset(name), name


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise _UsageError(f"--tol must be finite and positive, got {tol}")


def _build_spec(args) -> GroupSpec:
    return GroupSpec(GroupFamily(args.group), args.n)


# ---------------------------------------------------------------------------
# spectrum and verify: one check battery
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    """One check: ``value`` against ``bound``."""

    name: str
    value: float
    bound: float
    passed: bool


def _gap_row(name: str, gap, bound) -> _Row:
    return _Row(name, gap, bound, gap <= bound)  # a NaN gap fails


def _closed_form_checks(js, complement, params, computed):
    """Closed-form comparisons applicable to this instance: (name, gap)."""
    checks = []
    spec, variant, n = js.spec, js.variant, js.spec.n
    if spec.family is GroupFamily.CYCLIC and variant is Variant.POWER:
        if not complement and prime_power(n):
            p, r = prime_power(n)
            cf = cyclic_prime_power_spectrum(p, r, params)
            checks.append(("prime-power", multiset_gap(cf, computed)))
        facs = factorize(n)
        pq = [p for p, _ in facs] if [e for _, e in facs] == [1, 1] else None  # n = pq
        if pq and not complement:
            cf = cyclic_two_prime_quotient(*pq, params)
            qvals = dense_eigen(quotient_matrix(js, params))
            checks.append(("two-prime-quotient", multiset_gap(cf, qvals)))
        if pq and complement and params.eta == 0:
            cf = cyclic_two_prime_complement_eta0(*pq, params)
            checks.append(("two-prime-complement", multiset_gap(cf, computed)))
    if spec.family is GroupFamily.DIHEDRAL and variant is Variant.PROPER and prime_power(n):
        cf = dihedral_prime_power_proper(*prime_power(n), params, complemented=complement)
        checks.append(("dihedral-proper", multiset_gap(cf, computed)))
    if spec.family is GroupFamily.DICYCLIC:
        value, mult = dicyclic_repeated_eigenvalue(
            n, params, proper=variant is Variant.PROPER, complemented=complement
        )
        # distance within which the computed spectrum holds the value mult times
        nearest = np.sort(np.abs(computed - float(value)))
        checks.append(("dicyclic-repeated-eigenvalue", float(nearest[mult - 1])))
        if n == 2 and variant is Variant.POWER and complement:
            cf = quaternion8_complement_spectrum(params)
            checks.append(("quaternion8-complement", multiset_gap(cf, computed)))
    return checks


def _check_rows(args, g, js, complement, params, structural, identity=None):
    """The check battery of ``spectrum`` and ``verify``: rows of
    U = universal_matrix(g or its complement, params) against ``structural``,
    the spectrum claimed for U.  ``residual`` (``verify_eigenpairs``) comes
    first.  ``spectrum --oracle-check`` adds ``dense-route``, the gap to
    ``dense_eigen(U)``, and the closed forms that apply.  ``verify`` adds
    ``dense-route``, the ``trace`` and ``frobenius`` of the dense values
    and, given integer parameters ``identity`` on the complement,
    ``complement-identity``: the number of entries in which U at them
    differs from U of g at their complement parameters.  Bounds scale with
    max(1, ||U||_inf), the scale of ``verify_eigenpairs``."""
    target = complement_graph(g) if complement else g
    u = universal_matrix(target, params)
    residual = verify_eigenpairs(u, structural, tol=args.tol)
    scale = residual.scale
    bound = args.tol * scale
    rows = [_Row("residual", residual.max_residual, bound, residual.passed)]
    if args.command == "spectrum" and not args.oracle_check:
        return rows
    dense = dense_eigen(u)
    rows.append(_gap_row("dense-route", multiset_gap(structural, dense), bound))
    if args.command == "spectrum":
        checks = _closed_form_checks(js, complement, params, structural.expanded())
        return rows + [_gap_row(name, gap, bound) for name, gap in checks]
    alpha, beta, gamma, eta = params.as_floats()
    tr_expect = 2.0 * beta * target.edge_count() + (gamma + eta) * g.n
    rows.append(_gap_row("trace", abs(float(dense.sum()) - tr_expect), 1e-9 * scale))
    fro_gap = abs(float((dense**2).sum()) - float((u**2).sum()))
    rows.append(_gap_row("frobenius", fro_gap, 1e-8 * max(1.0, scale**2)))
    if identity is not None:
        u_sub = universal_matrix(g, complement_params(identity, g.n))
        differ = int(np.count_nonzero(universal_matrix(target, identity) != u_sub))
        rows.append(_gap_row("complement-identity", differ, 0))
    return rows


def _exit_code(rows) -> int:
    """The exit code of ``spectrum`` and ``verify`` from their check rows:
    2 when any row failed, the residual row included, 0 otherwise."""
    return 0 if all(row.passed for row in rows) else 2


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    spec = _build_spec(args)
    params, preset_name = _parse_params(args)
    _check_tol(args.tol)
    variant = Variant(args.variant)
    js = build_join(spec, variant)
    order = js.order
    p_eff = complement_params(params, order) if args.complement else params
    want_vectors = args.vectors or args.oracle_check
    spectrum = hjoin_spectrum(js, p_eff, want_vectors=want_vectors)

    verification, rows = None, []
    if want_vectors:  # only the checks read U, and U needs the definitional graph
        g = variant_graph(power_graph_oracle(spec), variant)
        rows = _check_rows(args, g, js, args.complement, params, spectrum)
        verification = {
            "checked": [row.name for row in rows],
            "max_residual": max(row.value for row in rows),
            "tolerance": rows[0].bound,
            "passed": all(row.passed for row in rows),
        }

    report = {
        "schema": SCHEMA_VERSION,
        "group": {"family": spec.family.value, "n": spec.n},
        "variant": variant.value,
        "complement": bool(args.complement),
        "params": {
            "alpha": float(params.alpha),
            "beta": float(params.beta),
            "gamma": float(params.gamma),
            "eta": float(params.eta),
            "preset": preset_name,
        },
        "order": order,
        "route": "structural",
        "eigenspaces": [
            {
                "value": e.value,
                "multiplicity": e.multiplicity,
                "provenance": e.provenance,
                **({"basis": e.basis} if args.vectors and e.basis is not None else {}),
            }
            for e in spectrum.eigenspaces
        ],
        "verification": verification,
    }

    # the floats the report prints; the params, floats of Fractions, are finite
    shown, bases = [e.value for e in spectrum.eigenspaces], []
    if args.format == "json":
        shown += [verification["max_residual"], verification["tolerance"]] if verification else []
        bases = [e.basis for e in spectrum.eigenspaces] if args.vectors else []
    _check_finite(shown, bases)
    if args.format == "json":
        print(_emit_json(report))
    else:
        print("value,multiplicity,provenance")
        for e in spectrum.eigenspaces:
            print(f"{_fmt_float(e.value)},{e.multiplicity},{e.provenance}")
    print(f"# spectrum computed in {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    for row in rows[1:]:  # the residual row has no mismatch line
        what = "structural vs dense" if row.name == "dense-route" else row.name
        line = f"cross-check mismatch: {what} gap {row.value:.3e} > {row.bound:.3e}"
        if not row.passed:
            print(line, file=sys.stderr)
    return _exit_code(rows)


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    spec = _build_spec(args)
    _check_tol(args.tol)
    if args.count < 1:
        raise _UsageError(f"--count must be at least 1, got {args.count}")
    variant = Variant(args.variant)
    g = variant_graph(power_graph_oracle(spec), variant)
    js = build_join(spec, variant)
    rng = np.random.default_rng(args.seed)

    print(
        f"verify group={spec.family.value} n={spec.n} variant={variant.value} "
        f"order={g.n} route=structural seed={args.seed}"
    )
    rows = []
    for k in range(args.count):
        params = sample_params(rng)
        int_params = sample_params(rng, integer=True)
        a, b, gm, e = params.as_floats()
        print(f"quadruple {k}: alpha={a:.6g} beta={b:.6g} gamma={gm:.6g} eta={e:.6g}")
        for complement in (False, True):
            p_eff = complement_params(params, g.n) if complement else params
            structural = hjoin_spectrum(js, p_eff, want_vectors=True)
            identity = int_params if complement else None
            battery = _check_rows(args, g, js, complement, params, structural, identity)
            tag = "complement" if complement else "plain"
            for row in (battery[1], battery[0], *battery[2:]):  # the route agreement first
                name = "route-agreement" if row.name == "dense-route" else row.name
                what = "max residual" if row.name == "residual" else "gap"
                text = f"{name}[{tag}]: {what} {row.value:.3e}"
                if row.name == "complement-identity":
                    text = f"complement-identity: exact={row.passed}"
                print(f"  {'ok  ' if row.passed else 'FAIL'} {text}")
            rows += battery

    code = _exit_code(rows)
    print(f"result: {'PASS' if code == 0 else 'FAIL'}")
    print(f"# verify ran in {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------


def _exact_text(values) -> list:
    """Every exact value as ``str`` gives it, in full.  Python's limit on
    the digits of an int-to-str conversion is lifted while formatting and
    put back after, as ``main`` may run inside a longer-lived program.
    Interpreters before 3.10.7 have no such limit, nor the functions that
    set it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return [str(v) for v in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_charpoly(args) -> int:
    if args.normalized and args.normalized_at is None:
        raise _UsageError("--normalized needs --at VALUE")
    spec = _build_spec(args)
    variant = Variant(args.variant)
    if args.quotient == args.normalized:
        raise _UsageError("choose exactly one of --quotient or --normalized --at X")
    if args.quotient:
        if args.normalized_at is not None:
            raise _UsageError("--at goes with --normalized, not --quotient")
        params, preset_name = _parse_params(args)
    else:
        if args.params is not None or args.preset is not None:
            raise _UsageError("--normalized takes no --params or --preset")
        try:
            at = Fraction(args.normalized_at)
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad --at value: {exc}")

    js = build_join(spec, variant)
    report = {
        "schema": SCHEMA_VERSION,
        "group": {"family": spec.family.value, "n": spec.n},
        "variant": variant.value,
        "complement": bool(args.complement),
    }
    if args.quotient:
        p_eff = complement_params(params, js.order) if args.complement else params
        coeffs = charpoly_exact(js, p_eff)
        report["preset"] = preset_name
        report["kind"] = "quotient-charpoly"
        report["degree"] = len(coeffs) - 1
        report["coefficients"] = _exact_text(coeffs)
    else:
        value = normalized_laplacian_charpoly_at(js, at, complement=args.complement)
        report["kind"] = "normalized-laplacian-charpoly"
        report["at"] = float(at)
        report["value"] = float(value)
    print(_emit_json(report))
    return 0


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def cmd_graph(args) -> int:
    spec = _build_spec(args)
    variant = Variant(args.variant)
    g = variant_graph(power_graph_oracle(spec), variant)
    if args.complement:
        g = complement_graph(g)
    for line in edge_lines(g):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_group(sub):
    """Flags of every subcommand; each adds only the further flags it reads."""
    sub.add_argument("--group", required=True, choices=[f.value for f in GroupFamily])
    sub.add_argument("--n", required=True, type=int)
    sub.add_argument("--variant", default=Variant.POWER.value, choices=[v.value for v in Variant])


def _add_params(sub):
    sub.add_argument("--preset", choices=list(PRESETS))
    sub.add_argument("--params", help="alpha,beta,gamma,eta (rationals accepted)")


def build_parser() -> _Parser:
    parser = _Parser(prog="powspec", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalues of U over a power graph")
    _add_group(sp)
    sp.add_argument("--complement", action="store_true")
    _add_params(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--vectors", action="store_true")
    sp.add_argument("--oracle-check", dest="oracle_check", action="store_true")
    sp.add_argument("--format", default="json", choices=["json", "csv"])
    sp.set_defaults(func=cmd_spectrum)

    vf = subs.add_parser("verify", help="invariant battery over random parameters")
    _add_group(vf)
    vf.add_argument("--tol", type=float, default=1e-8)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--count", type=int, default=5)
    vf.set_defaults(func=cmd_verify)

    cp = subs.add_parser("charpoly", help="exact quotient charpoly / normalized value")
    _add_group(cp)
    cp.add_argument("--complement", action="store_true")
    _add_params(cp)
    cp.add_argument("--quotient", action="store_true")
    cp.add_argument("--normalized", action="store_true")
    cp.add_argument("--at", dest="normalized_at", default=None)
    cp.set_defaults(func=cmd_charpoly)

    gr = subs.add_parser("graph", help="edge list of the constructed graph")
    _add_group(gr)
    gr.add_argument("--complement", action="store_true")
    gr.set_defaults(func=cmd_graph)

    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite "--params V" and "--at V" as "--params=V" and "--at=V", so
    that a value starting with "-" (a negative number) is not taken for an
    option by argparse."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("--params", "--at"):
            value = next(tokens, None)
            out.append(tok if value is None else f"{tok}={value}")
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
        # numpy's warnings stay off stderr: a NaN or infinite value that
        # reaches a report exits 1 by ``_check_finite`` or ``OverflowError``
        with np.errstate(all="ignore"):
            return args.func(args)
    except _Exit as exc:
        return exc.args[0]
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StructureValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        UndefinedUniversalMatrixError,
        ValueError,
        KeyError,
        TypeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:  # also a NaN or infinite value in a report
        print("error: a value does not fit a float (beyond about 1.8e308)", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader of stdout has gone, as under "| head"
        _drop_stdout()
        return 1
    except MemoryError:
        spec = _build_spec(args)
        # only these requests build the N x N graph; the others hold the
        # join structure and its certificate, a few arrays of N entries
        dense = args.command in ("verify", "graph") or any(
            getattr(args, flag, False) for flag in ("vectors", "oracle_check")
        )
        what = "the dense arrays" if dense else "the join structure and certificate"
        print(
            f"error: out of memory for {spec.family.value} n={spec.n}: {what} "
            f"of a group of order {spec.order} do not fit",
            file=sys.stderr,
        )
        return 1


def _drop_stdout() -> None:
    """Points stdout at the null device, so that flushing what is still
    buffered for a reader that has gone fails no more."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
