"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete; with plain `-v` the test names carry the verdicts.
Tolerances are fixed here, not tuned at runtime.
"""

import filecmp
import math

import numpy as np
import pytest

from replica_lab import (
    asymmetry_gap,
    critical_lambda,
    derive_seed,
    fp_upper_check,
    free_entropy_mc,
    guerra_slope_check,
    kl_log_likelihood_ratio,
    log_partition_exact,
    metropolis_sampler,
    nishimori_check,
    phi_rs,
    psi_hat,
    saddle,
    sample_instance,
    state_evolution,
)
from replica_lab.channel import make_evaluator
from replica_lab.cli import main as cli_main
from replica_lab.priors import rademacher_prior, sparse_rademacher_prior

from conftest import mc_log_cosh

LAMBDA_GRID = [0.25 * k for k in range(25)]  # 0, 0.25, ..., 6
R_GRID = [0.25 * k for k in range(41)]  # 0, 0.25, ..., 10


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_saddle_equivalence(ev, priors):
    worst = 0.0
    where = None
    for name, p in priors.items():
        for lam in LAMBDA_GRID:
            gap = abs(saddle(p, lam, ev).value - phi_rs(p, lam, ev).value)
            if gap > worst:
                worst, where = gap, (name, lam)
    report(1, "saddle equivalence", worst <= 1e-4, f"max |saddle - phi_RS| = {worst:.2e} at {where}")


def test_criterion_02_asymmetry_gap(ev, priors):
    worst = 0.0
    where = None
    for name, p in priors.items():
        for r in R_GRID:
            gap = asymmetry_gap(ev, p, r)
            if gap < worst:
                worst, where = gap, (name, r)
    report(2, "positive-tilt dominance", worst >= -1e-10, f"min gap = {worst:.2e} at {where}")


def test_criterion_03_finite_size_convergence(ev, priors, rademacher_fn_estimates):
    phi = phi_rs(priors["rademacher"], 2.0, ev).value
    guerra_ok = True
    for n, est in rademacher_fn_estimates.items():
        if est.mean < phi - 2.0 / n - 3.0 * est.stderr:
            guerra_ok = False
    e16 = rademacher_fn_estimates[16]
    close_ok = abs(e16.mean - phi) <= 0.05
    report(
        3,
        "finite-size convergence",
        guerra_ok and close_ok,
        f"F_16 - phi_RS = {e16.mean - phi:+.4f} (se {e16.stderr:.4f}), lower bound held at n=8,12,16",
    )


def test_criterion_04_kl_identity(priors):
    p = priors["rademacher"]
    worst = 0.0
    llr_sums = {}
    for lam in (0.5, 2.0):
        llrs = []
        for k in range(100):
            inst = sample_instance(p, 10, lam, derive_seed(401, k))
            llr, log_z = kl_log_likelihood_ratio(inst, p)
            worst = max(worst, abs(llr - log_z))
            llrs.append(llr)
        llr_sums[lam] = np.array(llrs)
    est = free_entropy_mc(p, 10, 2.0, 100, 402)
    llrs = llr_sums[2.0]
    se = math.hypot(llrs.std(ddof=1) / 10.0, 10.0 * est.stderr)
    mean_ok = abs(llrs.mean() - 10.0 * est.mean) <= 3.0 * se
    report(
        4,
        "KL identity",
        worst <= 1e-10 and mean_ok,
        f"max per-instance |llr - logZ| = {worst:.2e}; KL vs N F_N gap = "
        f"{abs(llrs.mean() - 10.0 * est.mean):.3f} <= {3.0 * se:.3f}",
    )


def test_criterion_05_nishimori(priors):
    detail = []
    ok = True
    # rademacher's sides are exact zeros (skipped); asym:0.7's are not
    for name in ("rademacher", "asym:0.7"):
        for lam in (0.5, 1.0, 2.0):
            rep = nishimori_check(priors[name], 10, lam, 400, derive_seed(500, int(4 * lam)))
            if name == "rademacher":
                ok = ok and rep.params["mean_r12"] == rep.params["mean_r1s"] == 0.0
            ok = ok and rep.passed
            detail.append(f"{name} lam={lam}: slack={rep.slack:.2e}")
    report(5, "Nishimori identity", ok, "; ".join(detail))


def test_criterion_06_fp_upper_bound(priors):
    detail = []
    ok = True
    for m in (-0.5, 0.0, 0.5):
        rep = fp_upper_check(
            priors["rademacher"], 12, 2.0, m, 0.25, n_disorder=400, seed=derive_seed(600, int(2 * m))
        )
        ok = ok and rep.passed
        detail.append(f"m={m}: slack={rep.slack:.3f}")
    report(6, "Franz-Parisi upper bound", ok, "; ".join(detail))


def test_criterion_07_guerra_slope(ev, priors):
    p = priors["rademacher"]
    q_star = phi_rs(p, 2.0, ev).optimizer_q
    detail = []
    ok = True
    for i, q in enumerate((0.25, 0.5, q_star)):
        rep = guerra_slope_check(p, 10, 2.0, float(q), n_disorder=400, seed=derive_seed(700, i))
        ok = ok and rep.passed
        detail.append(f"q={q:.3f}: slack={rep.slack:.3f}")
    report(7, "interpolation slope bound", ok, "; ".join(detail))


def test_criterion_08_critical_snr(ev):
    lam_c = critical_lambda(rademacher_prior(), 1e-3, 0.01)
    rad_ok = abs(lam_c - 1.0) <= 0.02

    se_ok = True
    se_detail = []
    p = rademacher_prior()
    for lam in (2.0, 4.0):
        tr = state_evolution(p, lam, 0.9, 1e-10, 1000, ev)
        q_star = phi_rs(p, lam, ev).optimizer_q
        se_ok = se_ok and tr.converged and abs(tr.fixed_point - q_star) <= 1e-5
        se_detail.append(f"lam={lam}: |SE - q*| = {abs(tr.fixed_point - q_star):.1e}")

    ps = sparse_rademacher_prior(0.05)
    lam_c_sparse = critical_lambda(ps, 1e-3, 0.01)
    sparse_res = phi_rs(ps, lam_c_sparse, ev)
    sparse_ok = len(sparse_res.local_optima) >= 2

    report(
        8,
        "critical SNR",
        rad_ok and se_ok and sparse_ok,
        f"lambda_c(rademacher) = {lam_c:.3f}; {'; '.join(se_detail)}; "
        f"sparse:0.05 at lambda_c = {lam_c_sparse:.3f} has "
        f"{len(sparse_res.local_optima)} local maxima",
    )


def test_criterion_09_numerical_core():
    p = rademacher_prior()
    ref = make_evaluator(121)
    points = ((1.0, 1.0), (2.0, -1.0), (5.0, 5.0))
    worst_closed = 0.0
    mc_ok = True
    mc_detail = []
    for i, (r, s) in enumerate(points):
        closed = -r / 2.0 + float(ref.weights @ np.log(np.cosh(np.sqrt(r) * ref.nodes + s)))
        worst_closed = max(worst_closed, abs(psi_hat(ref, p, r, s) - closed))
        mc_mean, mc_se = mc_log_cosh(r, s, n_samples=10**7, seed=900 + i)
        dev = abs(psi_hat(None, p, r, s) - mc_mean)
        mc_ok = mc_ok and dev <= 3.0 * mc_se
        mc_detail.append(f"(r={r},s={s}): |dev|/3se = {dev / (3 * mc_se):.2f}")
    report(
        9,
        "quadrature core",
        worst_closed <= 1e-8 and mc_ok,
        f"max closed-form gap = {worst_closed:.1e}; MC {'; '.join(mc_detail)}",
    )


def test_criterion_10_sampler_validation(priors):
    p = priors["rademacher"]
    inst = sample_instance(p, 12, 1.0, 2024)
    law = dict(log_partition_exact(inst, p).overlap_law)
    samples = metropolis_sampler(inst, p, 100000, 1000, 77)
    vals, counts = np.unique(np.round(samples, 9), return_counts=True)
    emp = dict(zip(vals.tolist(), (counts / counts.sum()).tolist()))
    tv = 0.5 * sum(abs(law.get(k, 0.0) - emp.get(k, 0.0)) for k in set(law) | set(emp))
    report(10, "sampler validation", tv <= 0.05, f"TV(empirical, exact) = {tv:.4f}")


CLI_CASES = [
    ("rs-curve", ["rs-curve", "--lambda", "0:2:0.5", "--plot"]),
    ("saddle", ["saddle", "--lambda", "0.5,2"]),
    ("se", ["se", "--lambda", "0.5,4"]),
    ("finite-n", ["finite-n", "--n", "8,10", "--lambda", "2", "--disorder", "10"]),
    ("fp", ["fp", "--n", "10", "--lambda", "2", "--eps", "0.25", "--disorder", "10"]),
    ("verify", ["verify", "--n", "8", "--disorder", "25", "--seed", "7"]),
]


def test_criterion_11_cli_determinism(tmp_path):
    all_ok = True
    detail = []
    for name, args in CLI_CASES:
        paths = []
        for run in ("a", "b"):
            ext = ".json" if name == "verify" else ".csv"
            out = tmp_path / f"{name}-{run}{ext}"
            code = cli_main(args + ["--seed", "7", "--out", str(out)])
            assert code in (0, 1)
            paths.append(out)
        same = filecmp.cmp(paths[0], paths[1], shallow=False)
        if "--plot" in args:
            same = same and filecmp.cmp(
                paths[0].with_suffix(".svg"), paths[1].with_suffix(".svg"), shallow=False
            )
        all_ok = all_ok and same
        detail.append(f"{name}:{'=' if same else '!'}")
    report(11, "CLI determinism", all_ok, " ".join(detail))
