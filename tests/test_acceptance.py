"""Acceptance suite.

Each test covers one numbered criterion and prints a single PASS or FAIL line
so the whole gate can be read off the pytest -s output at a glance.
"""

from fractions import Fraction


from krylovexact.fp import BINARY32, BINARY64
from krylovexact.harness import (
    exactness_check,
    exactness_sweep,
    experiment_fig2,
    experiment_fig3,
    sqrt_square_violations,
    sweep_failures,
)
from krylovexact.krylov_general import gmres_structured
from krylovexact.lanczos import lanczos
from krylovexact.problems import (
    prescribe_cg_curves,
    random_convergence_curves,
    random_structure,
    random_structured_problem,
)
from krylovexact.rational import (
    rational_cg,
    rational_lanczos_directions,
    to_rational_matrix,
)


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {tag}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_lanczos_bitwise_exactness():
    """Structured Lanczos is bitwise exact across sizes, seeds, variants,
    and both precisions."""
    failures = []
    count = 0
    for precision in (BINARY64, BINARY32):
        for n in (2, 10, 100, 1000):
            for seed in range(7):
                for variant in ("mgs", "cgs"):
                    rep = exactness_check("lanczos", n, seed, precision=precision, variant=variant)
                    count += 1
                    if not rep.ok:
                        failures.append((precision.name, n, seed, variant, rep.mismatch))
    report(1, not failures, f"{count} instances, {len(failures)} mismatches")


def test_criterion_2_sqrt_square_identity():
    """fl(sqrt(fl(alpha^2))) == |alpha| over 10^6 guarded samples per precision."""
    v64 = sqrt_square_violations(1_000_000, BINARY64, seed=0)
    v32 = sqrt_square_violations(1_000_000, BINARY32, seed=1)
    report(2, v64 == 0 and v32 == 0, f"binary64 {v64} violations, binary32 {v32} violations")


def test_criterion_3_other_algorithms_bitwise_exactness():
    """Arnoldi, bi-Lanczos, Golub-Kahan, and block Lanczos are bitwise exact
    on their structured instances, at least 50 seeds each."""
    failures = []
    counts = {}
    reports = exactness_sweep("arnoldi", sizes=[2, 5, 17, 60, 300], seeds=range(10))
    reports += exactness_sweep("arnoldi", sizes=[3, 8, 24], seeds=range(10), precisions=(BINARY32,))
    counts["arnoldi"] = len(reports)
    failures += sweep_failures(reports)

    reports = exactness_sweep("bilanczos", sizes=[2, 5, 12, 40, 90], seeds=range(10))
    reports += exactness_sweep("bilanczos", sizes=[3, 8, 24], seeds=range(10), precisions=(BINARY32,))
    counts["bilanczos"] = len(reports)
    failures += sweep_failures(reports)

    reports = exactness_sweep("gk", sizes=[2, 5, 12, 40, 90], seeds=range(10))
    reports += exactness_sweep("gk", sizes=[3, 8, 24], seeds=range(10), precisions=(BINARY32,))
    counts["gk"] = len(reports)
    failures += sweep_failures(reports)

    block = []
    for p in (1, 2, 4):
        for qr in ("mgs", "cgs"):
            block += exactness_sweep("blocklanczos", sizes=[4 * p, 8 * p, 12 * p], seeds=range(3), p=p, qr_variant=qr)
    counts["blocklanczos"] = len(block)
    failures += sweep_failures(block)

    detail = ", ".join(f"{k} {v}" for k, v in counts.items())
    report(3, not failures, f"{detail}; {len(failures)} mismatches")


def test_criterion_4_hscg_orthogonality_loss():
    """On the 24-point graded spectrum, HS-CG residual orthogonality loss
    crosses 1e-8 before step 24 while structured Lanczos stays at +0."""
    series = experiment_fig2()
    hs = series.values("hscg_orth_loss")
    crossing = [k for k, v in hs if v > 1e-8]
    lan = [v for _, v in series.values("lanczos_orth_loss")]
    ok = bool(crossing) and min(crossing) < 24 and all(v == 0.0 for v in lan)
    detail = f"crossing at k={min(crossing) if crossing else 'never'}, lanczos max {max(lan)}"
    report(4, ok, detail)


def test_criterion_5_cglanczos_accuracy_bound():
    """cgLanczos on the same instance stays within rel. error 5.6e-13 of the
    exact oracle and A-orthogonality loss 1e-13."""
    series = experiment_fig3()
    rel = series.max_value("rel_error")
    aorth = series.max_value("a_orth_loss")
    report(5, rel <= 5.6e-13 and aorth <= 1e-13, f"max rel_error {rel:.3e}, max a_orth {aorth:.3e}")


def test_criterion_6_cg_lanczos_collinearity():
    """Exact CG residuals are collinear with exact Lanczos directions, with
    sign (-1)^k, across at least 20 SPD instances."""
    bad = 0
    total = 0
    for seed in range(20):
        n = 4 + seed % 9
        T = random_structure("jacobi", n, seed, spd=True)
        A = to_rational_matrix(T.to_dense())
        b = [Fraction(1 if i == 0 else 0) for i in range(n)]
        tr = rational_cg(A, b)
        V = rational_lanczos_directions(A, b)
        total += 1
        m = min(len(tr.r), len(V))
        for j in range(m):
            r = tr.r[j]
            v = V[j]
            if all(x == 0 for x in r):
                continue
            # cross products vanish exactly and the leading signs alternate
            cross_ok = all(r[a] * v[c] == r[c] * v[a] for a in range(n) for c in range(a + 1, n))
            lead = next(x for x in r if x != 0)
            vlead = v[[i for i, x in enumerate(r) if x != 0][0]]
            sign_ok = (lead * vlead > 0) == (j % 2 == 0)
            if not (cross_ok and sign_ok):
                bad += 1
                break
    report(6, bad == 0, f"{total} instances, {bad} failures")


def test_criterion_7_prescribed_curves_roundtrip():
    """Prescribed convergence curves are reproduced exactly by the rational
    oracle on the constructed system, for at least 20 instances up to n=24."""
    bad = 0
    total = 0
    for seed in range(20):
        n = 3 + (7 * seed) % 22
        curves = random_convergence_curves(n, seed)
        sys = prescribe_cg_curves(curves)
        tr = rational_cg(sys.exact_matrix(), sys.exact_rhs())
        total += 1
        if len(tr.rnorm2) < n:
            bad += 1
            continue
        for k in range(n):
            if tr.rnorm2[k] != Fraction(float(curves.residual_norms[k])) ** 2:
                bad += 1
                break
            if tr.energy2[k] != Fraction(float(curves.energy_errors[k])) ** 2:
                bad += 1
                break
    report(7, bad == 0, f"{total} curve pairs, {bad} failures")


def test_criterion_8_gmres_witness_identity():
    """||x_k - xbar_k|| equals ||y_k - ybar_k|| exactly on structured
    Hessenberg inputs, at every k for n = 4, 8, 12 and 48."""
    bad = 0
    total = 0
    for n, seed in ((4, 0), (8, 1), (12, 2), (48, 3)):
        prob = random_structured_problem("hessenberg", n, seed)
        v = prob.v / prob.beta1
        for k in range(1, n + 1):
            res = gmres_structured(prob.A, v, k)
            total += 1
            if res.x_error_norm != res.y_error_norm:
                bad += 1
    report(8, bad == 0, f"{total} (n, k) pairs, {bad} failures")


def test_criterion_9_deficient_breakdown():
    """On deficient extensions, Lanczos breaks down at the grade with a
    bitwise +0 terminal coefficient, across at least 20 instances."""
    failures = []
    total = 0
    for seed in range(20):
        n = 4 + seed % 10
        rep = exactness_check("deficient", n, seed)
        total += 1
        if not rep.ok:
            failures.append((n, seed, rep.mismatch))
    report(9, not failures, f"{total} instances, {len(failures)} failures")
