"""Request lists of the three workloads, made from the seed alone.

A workload's round is a fixed list of requests; a run repeats whole rounds.
Every request of a round fills a slot whose cost does not depend on the
seed: the slot fixes the group, the variant, the complement flag and,
where exact arithmetic follows them, the denominators and the size of the
numerators of the parameters.  The seed picks what the cost hardly
depends on: the parameters within those limits, the point X, and the
order of the round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("large-order", "crosscheck-small", "exact-quotient")


@dataclass(frozen=True)
class Request:
    kind: str  # "spectrum" | "quotient" | "normalized"
    family: str  # "zn" | "dn" | "qn"
    n: int
    proper: bool = False
    complement: bool = False
    params: tuple = ()  # four Fractions; empty for "normalized"
    vectors: bool = False  # spectrum: --oracle-check --vectors
    at: Fraction = Fraction(0)  # normalized: the point X

    @property
    def order(self) -> int:
        return self.n * {"zn": 1, "dn": 2, "qn": 4}[self.family]

    def argv(self) -> list[str]:
        cmd = "spectrum" if self.kind == "spectrum" else "charpoly"
        out = [cmd, "--group", self.family, "--n", str(self.n)]
        if self.proper:
            out += ["--variant", "proper"]
        if self.complement:
            out.append("--complement")
        if self.params:
            # "--params=" keeps a leading minus sign from reading as an option
            out.append("--params=" + ",".join(str(p) for p in self.params))
        if self.kind == "spectrum" and self.vectors:
            out += ["--oracle-check", "--vectors"]
        elif self.kind == "quotient":
            out.append("--quotient")
        elif self.kind == "normalized":
            out += ["--normalized", f"--at={self.at}"]
        return out

    def key(self) -> str:
        return " ".join(self.argv())


# Denominators of (alpha, beta, gamma, eta) where a slot fixes them: the
# cost of exact rational work follows their least common multiple.
DENOMINATORS = (2, 3, 5, 7)
# (alpha, beta, gamma, eta) of every exact-quotient charpoly: denominators
# DENOMINATORS, numerators of either sign.
QUOTIENT_PARAMS = (Fraction(7, 2), Fraction(-5, 3), Fraction(8, 5), Fraction(-9, 7))
# The four (proper, complement) combinations.
FLAGS = ((False, False), (True, False), (False, True), (True, True))


def _params(rng: random.Random, dens=None) -> tuple:
    """Four nonzero rationals, each of either sign.  With ``dens`` each
    value has exactly that denominator and a numerator of 5 to 9, so the
    sizes of exact intermediate values do not depend on the seed;
    otherwise numerators are 1 to 9 over a denominator in [1, 6]."""
    out = []
    for k in range(4):
        den = dens[k] if dens else rng.randint(1, 6)
        nums = range(5, 10) if dens else range(1, 10)
        num = rng.choice([x for x in nums if gcd(x, den) == 1])
        out.append(Fraction(num * rng.choice((-1, 1)), den))
    return tuple(out)


def large_order(rng: random.Random) -> list[Request]:
    """Orders 1200 to 5040.  Q_300 is refused by the structural route today
    and answered by the dense one; Q_512 (a power of two) is not."""
    slots = [
        ("zn", 5040, False, False),
        ("zn", 2310, True, True),
        ("dn", 1155, True, False),
        ("qn", 512, False, True),
        ("qn", 300, False, False),
    ]
    out = [
        Request("spectrum", f, n, proper=p, complement=c, params=_params(rng, DENOMINATORS))
        for f, n, p, c in slots
    ]
    rng.shuffle(out)
    return out


def crosscheck_small(rng: random.Random) -> list[Request]:
    """40 requests per family, one at the middle of each of 40 equal slices
    of its range of n, each family with each (proper, complement) pair ten
    times.  Which group gets which flags sets the cost of a request, so that
    is fixed; the seed picks the parameters and the order of the round."""
    out = []
    for family, lo, hi in (("zn", 2, 300), ("dn", 1, 150), ("qn", 2, 75)):
        slices = 40
        for k in range(slices):
            a = lo + (hi - lo + 1) * k // slices
            b = lo + (hi - lo + 1) * (k + 1) // slices - 1
            proper, complement = FLAGS[k % 4]
            out.append(
                Request(
                    "spectrum", family, (a + max(a, b)) // 2, proper=proper,
                    complement=complement, params=_params(rng), vectors=True,
                )
            )
    rng.shuffle(out)
    return out


def exact_quotient(rng: random.Random) -> list[Request]:
    """Exact quotient charpolys at t = 16 to 24 plus exact normalized values
    on groups of order 60.  The quotient's dimension is t for Z_n, t + 1
    for D_n and t - 1 for the proper variant; t = d(n) is 16 for n = 120
    and 168, 20 for n = 240 and 24 for n = 360.  Complements and proper
    D_n have isolated vertices, where the normalized Laplacian is
    undefined, so the normalized slots use neither.

    The parameters of the quotient slots are fixed: how long the roots of
    a charpoly take depends on its coefficients, by up to 15% between
    parameter draws of the same size, so the seed picks only the points X
    and the order of the round."""
    slots = [
        ("zn", 120, False, False),
        ("zn", 168, True, True),
        ("dn", 120, False, True),
        ("zn", 240, True, False),
        ("zn", 360, False, False),
    ]
    out = [
        Request("quotient", f, n, proper=p, complement=c, params=QUOTIENT_PARAMS)
        for f, n, p, c in slots
    ]
    for family, n, proper in (("zn", 60, True), ("dn", 30, False), ("qn", 15, False)):
        at = Fraction(rng.choice([k for k in range(-7, 16) if k % 4]), 4)
        out.append(Request("normalized", family, n, proper=proper, at=at))
    rng.shuffle(out)
    return out


def requests(workload: str, seed: int) -> list[Request]:
    """The round of ``workload`` for ``seed``."""
    make = {
        "large-order": large_order,
        "crosscheck-small": crosscheck_small,
        "exact-quotient": exact_quotient,
    }[workload]
    return make(random.Random(f"{workload}:{seed}"))
