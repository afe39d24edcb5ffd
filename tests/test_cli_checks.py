"""The rendered check battery of ``spectrum --oracle-check`` and ``verify``,
pinned verbatim: every row, bound and exit code, on instances that reach
each closed form and on the failing paths.

The texts were captured before the two commands shared one battery, and
their gaps again once ``dense_eigen`` returned LAPACK's values unaveraged;
the printed gaps and residuals are rounding-level numbers of NumPy 2.4 with
its bundled OpenBLAS, so another LAPACK build may move their last digits.
"""

import pytest

from powspec.cli import main

VERIFY = {
    "--group zn --n 12 --seed 3 --count 1": (0, """\
verify group=zn n=12 variant=power order=12 route=structural seed=3
quadruple 0: alpha=0.485535 beta=1.80765 gamma=0.492972 eta=-2.43523
  ok   route-agreement[plain]: gap 2.842e-14
  ok   residual[plain]: max residual 1.066e-14
  ok   trace[plain]: gap 5.684e-14
  ok   frobenius[plain]: gap 2.274e-12
  ok   route-agreement[complement]: gap 7.994e-15
  ok   residual[complement]: max residual 1.066e-14
  ok   trace[complement]: gap 0.000e+00
  ok   frobenius[complement]: gap 0.000e+00
  ok   complement-identity: exact=True
result: PASS
"""),
    "--group dn --n 6 --seed 3 --count 1": (0, """\
verify group=dn n=6 variant=power order=12 route=structural seed=3
quadruple 0: alpha=0.485535 beta=1.80765 gamma=0.492972 eta=-2.43523
  ok   route-agreement[plain]: gap 1.421e-14
  ok   residual[plain]: max residual 1.088e-14
  ok   trace[plain]: gap 1.421e-14
  ok   frobenius[plain]: gap 2.274e-13
  ok   route-agreement[complement]: gap 1.776e-14
  ok   residual[complement]: max residual 1.998e-14
  ok   trace[complement]: gap 5.684e-14
  ok   frobenius[complement]: gap 2.728e-12
  ok   complement-identity: exact=True
result: PASS
"""),
    "--group qn --n 3 --seed 3 --count 1": (0, """\
verify group=qn n=3 variant=power order=12 route=structural seed=3
quadruple 0: alpha=0.485535 beta=1.80765 gamma=0.492972 eta=-2.43523
  ok   route-agreement[plain]: gap 2.132e-14
  ok   residual[plain]: max residual 1.066e-14
  ok   trace[plain]: gap 1.421e-14
  ok   frobenius[plain]: gap 2.274e-13
  ok   route-agreement[complement]: gap 1.421e-14
  ok   residual[complement]: max residual 1.421e-14
  ok   trace[complement]: gap 0.000e+00
  ok   frobenius[complement]: gap 6.821e-13
  ok   complement-identity: exact=True
result: PASS
"""),
    "--group zn --n 12 --tol 1e-30 --count 1 --seed 1": (2, """\
verify group=zn n=12 variant=power order=12 route=structural seed=1
quadruple 0: alpha=-1.65751 beta=-2.13504 gamma=2.6919 eta=-1.12901
  FAIL route-agreement[plain]: gap 1.776e-14
  FAIL residual[plain]: max residual 7.105e-15
  ok   trace[plain]: gap 5.684e-14
  ok   frobenius[plain]: gap 9.095e-13
  FAIL route-agreement[complement]: gap 1.066e-14
  FAIL residual[complement]: max residual 5.329e-15
  ok   trace[complement]: gap 1.066e-14
  ok   frobenius[complement]: gap 0.000e+00
  ok   complement-identity: exact=True
result: FAIL
"""),
}

P = "--params=3/2,-1/3,2,-5/7"
O = "--oracle-check --vectors"

# argv, exit code, the verification block (checked, max_residual,
# tolerance, passed as printed) and the stderr lines other than timing
SPECTRUM = [
    (
        f"--group zn --n 8 {O} {P}",
        0, ["residual", "dense-route", "prime-power"],
        "1.3322676295501878e-15", "6.5476190476190473e-08", "true",
        [],
    ),
    (
        f"--group zn --n 15 {O} {P}",
        0, ["residual", "dense-route", "two-prime-quotient"],
        "5.3290705182007514e-15", "1.4380952380952385e-07", "true",
        [],
    ),
    (
        f"--group zn --n 15 --complement {O} --params=3/2,-1/3,2,0",
        0, ["residual", "dense-route", "two-prime-complement"],
        "1.3322676295501878e-15", "6.6666666666666668e-08", "true",
        [],
    ),
    (
        f"--group qn --n 2 --complement {O} {P}",
        0, ["residual", "dense-route", "dicyclic-repeated-eigenvalue", "quaternion8-complement"],
        "3.5527136788005009e-15", "6.2857142857142872e-08", "true",
        [],
    ),
    (
        f"--group qn --n 6 --variant proper {O} {P}",
        0, ["residual", "dense-route", "dicyclic-repeated-eigenvalue"],
        "1.5987211554602254e-14", "2.2523809523809516e-07", "true",
        [],
    ),
    (
        f"--group dn --n 9 {O} {P}",
        0, ["residual", "dense-route"],
        "7.9936057773011271e-15", "1.7738095238095233e-07", "true",
        [],
    ),
    (
        f"--group dn --n 27 --variant proper --complement {O} {P}",
        0, ["residual", "dense-route", "dihedral-proper"],
        "1.7763568394002505e-14", "5.6904761904761905e-07", "true",
        [],
    ),
    (
        f"--group zn --n 8 {O} {P} --tol 1e-300",
        2, ["residual", "dense-route", "prime-power"],
        "1.3322676295501878e-15", "6.5476190476190473e-300", "false",
        [
            "cross-check mismatch: structural vs dense gap 1.332e-15 > 6.548e-300",
            "cross-check mismatch: prime-power gap 2.220e-16 > 6.548e-300",
        ],
    ),
    (
        f"--group qn --n 2 --complement --oracle-check {P} --tol 1e-300",
        2, ["residual", "dense-route", "dicyclic-repeated-eigenvalue", "quaternion8-complement"],
        "3.5527136788005009e-15", "6.2857142857142871e-300", "false",
        [
            "cross-check mismatch: structural vs dense gap 2.220e-15 > 6.286e-300",
            "cross-check mismatch: dicyclic-repeated-eigenvalue gap 4.441e-16 > 6.286e-300",
            "cross-check mismatch: quaternion8-complement gap 8.882e-16 > 6.286e-300",
        ],
    ),
    (
        "--group zn --n 12 --preset laplacian --oracle-check --tol 1e-300",
        2, ["residual", "dense-route"],
        "8.8817841970012523e-15", "2.2e-299", "false",
        ["cross-check mismatch: structural vs dense gap 8.882e-15 > 2.200e-299"],
    ),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(VERIFY))
def test_verify_rows_verbatim(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv.split())
    assert (code, out) == VERIFY[argv]


@pytest.mark.parametrize(
    "argv, code, checked, max_residual, tolerance, passed, mismatch",
    SPECTRUM,
    ids=[case[0] for case in SPECTRUM],
)
def test_spectrum_verification_block_verbatim(
    capsys, argv, code, checked, max_residual, tolerance, passed, mismatch
):
    got, out, err = run(capsys, "spectrum", *argv.split())
    names = ",\n".join(f'      "{name}"' for name in checked)
    block = (
        '"verification": {\n    "checked": [\n' + names + "\n    ],\n"
        f'    "max_residual": {max_residual},\n'
        f'    "tolerance": {tolerance},\n'
        f'    "passed": {passed}\n  }}\n}}\n'
    )
    assert got == code
    assert out[out.index('"verification": '):] == block
    assert [line for line in err.splitlines() if not line.startswith("#")] == mismatch


def test_spectrum_failed_residual_exits_2(capsys):
    # the residual row decides the exit code like every other row
    code, out, _ = run(
        capsys, "spectrum", "--group", "zn", "--n", "12", "--vectors", "--tol", "1e-30",
        "--params=7/2,-5/3,8/5,-9/7",
    )
    assert '"passed": false' in out
    assert code == 2
