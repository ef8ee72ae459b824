"""The workloads: their item sequences, inputs and per-item gates.

An item is the unit a user waits on.  `build` turns (workload, seed) into a
fixed, ordered list of items; each item is a closure that calls replica_lab's
public functions through the package namespace at call time, so a traced run
goes through the rebound wrappers.  The library receives only the inputs
generated here.

Seeding: the lambda grids (and the RHO grid of phase_diagram) shift by a
small offset drawn from the seed.  finite_verify runs the verify checks with
the CLI's fixed default master seed; README.md says why.

`gate` checks one item's output against the paper's identities at the
acceptance-suite tolerances (independent of the seed) and, where the item's
inputs match an item recorded in reference.json, against the recorded values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

WORKLOADS = ("rs_curve", "phase_diagram", "finite_verify")
DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_SALT = 0x7265706C  # separates the benchmark's streams from any library seed
CLI_MASTER_SEED = 123456789  # replica_lab.cli.DEFAULT_MASTER_SEED

RS_LAMBDAS = [0.75 * k for k in range(9)]           # 0:6:0.75, a third as dense as rs-curve's 0:6:0.25
PD_LAMBDAS = [0.25 + 0.5 * k for k in range(12)]    # 0.25 .. 5.75
PD_RHOS = (0.05, 0.1, 0.2, 0.35, 0.6, 0.9)          # 0.05: first-order region
LAMBDA_SHIFT = 0.05
RHO_SHIFT = 0.005
SE_SMALL_Q0 = 1e-3

VERIFY_SUITES = (("rademacher", 12), ("sparse:0.25", 10), ("asym:0.7", 12))
VERIFY_DISORDER = 50


# Gate tolerances (the acceptance suite's).
GAP_TOL = 1e-4        # |saddle - phi_RS|
SE_TOL = 1e-5         # informative SE fixed point vs q*
STATIONARY_TOL = 1e-6  # |2 psi'(lambda q) - q| at a converged SE fixed point
# Reference tolerances.
RS_TOL = 1e-6
OPT_GAP = 1e-6        # compare optimizers only where the top two optima differ by more
MC_REL = 1e-12
MC_SCALE_FLOOR = 1e-3  # relative MC tolerance never drops below 1e-15 absolute
LAMBDA_C_TOL = 0.01   # critical_lambda's own bisection tolerance


class Item(NamedTuple):
    key: str          # derived from the inputs; reference lookup key
    kind: str
    call: Callable
    meta: dict


def grid_offsets(seed: int) -> tuple:
    """(lambda shift, RHO shift) for this seed, each in [0, its bound)."""
    rng = np.random.default_rng([_SALT, 1, int(seed)])
    return float(rng.uniform(0.0, LAMBDA_SHIFT)), float(rng.uniform(0.0, RHO_SHIFT))


# ----------------------------------------------------------------------
# Item sequences
# ----------------------------------------------------------------------

def build(workload: str, seed: int, rl) -> list:
    return {
        "rs_curve": _rs_curve,
        "phase_diagram": _phase_diagram,
        "finite_verify": _finite_verify,
    }[workload](seed, rl)


def _rs_curve(seed, rl):
    # Lambda-major, so that each prior's items spread over the whole sequence
    # and no statistic rests on one short stretch of the run.
    du, _ = grid_offsets(seed)
    catalog = rl.standard_priors()
    return [Item(f"curve|{name}|{lam!r}", "curve",
                 lambda p=p, lam=lam: rl.compute_curve(p, [lam])[0], {"prior": p, "lam": lam})
            for lam in (x + du for x in RS_LAMBDAS) for name, p in catalog.items()]


def _phase_point(rl, p, lam):
    res = rl.phi_rs(p, lam)
    informative = rl.state_evolution(p, lam, rl.second_moment(p))
    uninformative = rl.state_evolution(p, lam, SE_SMALL_Q0)
    return res, informative, uninformative


def _phase_diagram(seed, rl):
    # Lambda-major, with one critical_lambda item after every second lambda
    # row, so that every kind of item spreads over the whole sequence.
    du, dr = grid_offsets(seed)
    rhos = [x + dr for x in PD_RHOS]
    priors = [rl.priors.sparse_rademacher_prior(rho) for rho in rhos]
    items = []
    for i, lam in enumerate(x + du for x in PD_LAMBDAS):
        for rho, p in zip(rhos, priors):
            items.append(Item(f"point|{p.name}|{rho!r}|{lam!r}", "point",
                              lambda p=p, lam=lam: _phase_point(rl, p, lam),
                              {"prior": p, "lam": lam}))
        if i % 2:
            rho, p = rhos[i // 2], priors[i // 2]
            items.append(Item(f"lambda_c|{p.name}|{rho!r}", "lambda_c",
                              lambda p=p: rl.critical_lambda(p), {"prior": p}))
    return items


def _verify_suite(rl, p, n):
    """verify.run_suite's checks for one prior as separate items, in its order and with its seeds."""
    v, d, base = rl.verify, VERIFY_DISORDER, CLI_MASTER_SEED
    m2 = rl.second_moment(p)
    items = []

    def add(label, call):
        items.append(Item(f"check|{p.name}|{n}|{d}|{base}|{label}", "check", call, {"prior": p, "n": n}))

    add("tilt_asymmetry", lambda: v.tilt_asymmetry_check(p))
    add("saddle_equivalence", lambda: v.saddle_equivalence_check(p))
    for lam in (2.0, 4.0):
        add(f"se_fixed_point|{lam!r}", lambda lam=lam: v.se_fixed_point_check(p, lam))
    add("kl_identity", lambda: v.kl_identity_check(p, n, 2.0, min(100, max(2, d)), v.derive_seed(base, 101)))
    for lam in (0.5, 1.0, 2.0):
        add(f"nishimori|{lam!r}", lambda lam=lam: v.nishimori_check(p, n, lam, d, v.derive_seed(base, 102)))
    for i, q in enumerate((0.25 * m2, 0.5 * m2, None)):
        def guerra(i=i, q=q):
            if q is None:  # run_suite's q*(lambda=2), computed where it computes it
                q = v.phi_rs(p, 2.0).optimizer_q
            return v.guerra_slope_check(p, n, 2.0, float(q), n_disorder=d, seed=v.derive_seed(base, 103 + i))
        add(f"guerra_slope|{i}", guerra)
    for i, m in enumerate((-0.5 * m2, 0.0, 0.5 * m2)):
        add(f"fp_upper|{i}", lambda i=i, m=m: v.fp_upper_check(
            p, n, 2.0, float(m), 0.25, n_disorder=d, seed=v.derive_seed(base, 106 + i)))
    return items


def _finite_verify(seed, rl):
    # The suites are interleaved check by check, so that each prior's checks
    # spread over the whole sequence; within a suite the order is run_suite's.
    catalog = rl.standard_priors()
    suites = [_verify_suite(rl, catalog[name], n) for name, n in VERIFY_SUITES]
    return [suite[i] for i in range(len(suites[0])) for suite in suites]


# ----------------------------------------------------------------------
# Outputs: canonical form, digest, recorded values
# ----------------------------------------------------------------------

def canon(obj):
    """A JSON-ready form that keeps every bit of every float."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canon(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


def digest(out) -> str:
    return hashlib.sha256(json.dumps(canon(out), sort_keys=True).encode()).hexdigest()


def _opt_gap(local_optima) -> float:
    """Value gap between the two best local optima (inf when there is one)."""
    vals = sorted((v for _, v in local_optima), reverse=True)
    return vals[0] - vals[1] if len(vals) > 1 else math.inf


_REPORT_VALUES = {  # report param -> tolerance class
    "tilt_asymmetry": {"min_gap": "rs"},
    "saddle_equivalence": {"max_gap": "rs"},
    "se_fixed_point": {"fixed_point": "rs", "q_star": "rs"},
    "kl_identity": {},
    "nishimori": {"mean_r12": "mc", "mean_r1s": "mc"},
    "guerra_slope": {"min_slope": "mc"},
    "fp_upper": {"lhs_mean": "mc", "rhs_min": "rs"},
}


def values(kind: str, out) -> dict:
    """Named numbers of an output, each with its tolerance class."""
    if kind == "curve":
        return {"phi_rs": (out["phi_rs"], "rs"), "saddle": (out["saddle"], "rs"),
                "mi": (out["mi"], "rs"), "q_star": (out["q_star"], "opt"),
                "mmse": (out["mmse"], "opt")}
    if kind == "point":
        res = out[0]
        return {"phi_rs": (res.value, "rs"), "q_star": (res.optimizer_q, "opt")}
    if kind == "lambda_c":
        return {"lambda_c": (out, "lambda_c")}
    if kind == "check":
        fields = _REPORT_VALUES[out.check]
        return {k: (out.params[k], c) for k, c in fields.items() if k in out.params}
    raise ValueError(f"unknown item kind {kind!r}")


def opt_gap(item: Item, out, rl) -> float:
    """The optimizer-comparison gap recorded with an item's reference values."""
    if item.kind == "point":
        return _opt_gap(out[0].local_optima)
    if item.kind == "curve":
        return _opt_gap(rl.phi_rs(item.meta["prior"], item.meta["lam"]).local_optima)
    return math.inf


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["items"]


def compare(vals: dict, ref: dict) -> list:
    """Misses of an item's values against its recorded reference entry."""
    misses = []
    gap = ref.get("opt_gap")
    gap = math.inf if gap is None else gap
    for name, (x, cls) in vals.items():
        if name not in ref["values"]:
            misses.append(f"{name}: not in reference")
            continue
        r = ref["values"][name]
        if cls == "opt" and gap <= OPT_GAP:
            continue
        tol = {"rs": RS_TOL, "opt": RS_TOL, "lambda_c": LAMBDA_C_TOL,
               "mc": MC_REL * max(abs(r), MC_SCALE_FLOOR)}[cls]
        if not abs(x - r) <= tol:
            misses.append(f"{name} = {x!r}, reference {r!r} (tol {tol:.1e})")
    missing = set(ref["values"]) - set(vals)
    misses.extend(f"{name}: missing from output" for name in sorted(missing))
    return misses


# ----------------------------------------------------------------------
# Gate
# ----------------------------------------------------------------------

def identities(item: Item, out, rl) -> list:
    """Seed-independent checks of one output; returns the misses."""
    kind, meta = item.kind, item.meta
    misses = []
    if kind == "curve":
        gap = abs(out["saddle"] - out["phi_rs"])
        if not gap <= GAP_TOL:
            misses.append(f"|saddle - phi_rs| = {gap:.3e} > {GAP_TOL}")
    elif kind == "point":
        res, inf, unf = out
        p, lam = meta["prior"], meta["lam"]
        m2 = rl.second_moment(p)
        mi = lam / 4.0 * m2 * m2 - res.value
        mmse = m2 * m2 - res.optimizer_q ** 2
        if not (mi >= -1e-9 and -1e-12 <= mmse <= m2 * m2 + 1e-12):
            misses.append(f"MI {mi!r} or MMSE {mmse!r} out of range")
        top_q = max(q for q, _ in res.local_optima)
        if res.optimizer_q == top_q and not abs(inf.fixed_point - res.optimizer_q) <= SE_TOL:
            misses.append(f"informative SE fixed point {inf.fixed_point!r} vs q* {res.optimizer_q!r}")
        for label, tr in (("informative", inf), ("uninformative", unf)):
            if not 0.0 <= tr.fixed_point <= m2:
                misses.append(f"{label} SE left [0, E X^2]: {tr.fixed_point!r}")
            elif tr.converged:
                q = tr.fixed_point
                resid = abs(2.0 * rl.psi_prime(None, p, lam * q) - q)
                if not resid <= STATIONARY_TOL:
                    misses.append(f"{label} SE fixed point not stationary: residual {resid:.2e}")
    elif kind == "lambda_c":
        p = meta["prior"]
        if not 0.0 < out <= 64.0:
            misses.append(f"lambda_c = {out!r} out of (0, 64]")
        else:
            delta = 1e-3
            above = rl.phi_rs(p, out + LAMBDA_C_TOL).optimizer_q
            below = rl.phi_rs(p, max(out - LAMBDA_C_TOL, 0.0)).optimizer_q
            if not (above > delta >= below):
                misses.append(f"q* does not cross {delta} at lambda_c = {out!r}: {below!r}, {above!r}")
    elif kind == "check":
        if not out.passed:
            misses.append(f"{out.check} report failed: slack {out.slack!r}")
    return misses


def gate(item: Item, out, rl, reference: dict) -> list:
    """All misses of one item: its identities, then its recorded reference values."""
    misses = identities(item, out, rl)
    ref = reference.get(item.key)
    if ref is not None:
        misses.extend(compare(values(item.kind, out), ref))
    return misses
