"""Command-line harness: curves, finite-N experiments, verification suite.

Every command takes --prior, --seed, --out and --format, and these others:
    rs-curve   --lambda --nodes --plot
    saddle     --lambda --nodes --plot
    se         --lambda --q --tol --max-iter --nodes --plot
    finite-n   --lambda* --n --budget --disorder --plot
    fp         --lambda* --n* --eps --m --budget --disorder --plot
    verify     --n* --budget --disorder     (exit 1 on any failed check,
               or when the enumeration budget refuses the run and an
               enumeration_budget report is written; --disorder >= 2)
A starred flag takes one value and refuses a list or range.  Otherwise
--lambda takes a value, a comma list or start:stop:step (endpoint included
when it lies within half a step; at most 10**6 steps), finite-n --n a
comma list of distinct sizes.  --nodes sets the quadrature rule, from the
default 61 nodes up to 2000 (verify prices on the default rule), --budget
and --disorder the enumeration, --plot writes an SVG chart next to --out.
An undeclared flag is refused under its own usage line (-1e-1 is a value,
not a flag), and a count below its least value with "NAME must be >= LEAST,
got X" (fp checks --n >= 2 before it draws its spike).

The artifact header/envelope records the version and each flag the command
declares except --out, with the lambda grid, n, q0 and seed resolved.  The
master seed defaults to a fixed constant (overridable by REPLICA_LAB_SEED or
--seed), so identical invocations yield byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__
from .errors import (
    DomainError,
    EnumerationBudgetError,
    InvalidArgumentError,
    InvalidPriorError,
    NumericalError,
    _check_count,
)
from .channel import DEFAULT_NODE_COUNT, MAX_NODE_COUNT, make_evaluator
from .finite import (
    DEFAULT_BUDGET,
    MC_CSV_FIELDS,
    derive_seed,
    fp_potential,
    fp_profile,
    free_entropy_mc,
    mc_csv_record,
    sample_spike,
)
from .priors import parse_prior_spec, prior_to_json, second_moment
from .rs import CURVE_FIELDS, compute_curve, phi_rs, saddle, state_evolution
from .svg import line_chart_svg
from .verify import run_suite

DEFAULT_MASTER_SEED = 123456789
VERSION_STRING = f"replica-lab-v{__version__}"
_MAX_STEPS = 10**6  # the most steps a start:stop:step range takes, so that a range ends


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """12 significant digits; enough to diff runs without print-rounding noise."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0
        return f"{x:.12g}"
    return str(x)


def _json_clean(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return obj


def parse_lambda_spec(spec: str) -> list:
    """"a:b:s" range (a + k s up to the endpoint within half a step), comma list, or one value.

    A spec whose values repeat is refused: a list that names one twice, or a
    range whose step lies below the resolution of its later values.
    """
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("range must be start:stop:step")
            a, b, s = (float(t) for t in parts)
            if not all(map(math.isfinite, (a, b, s))):
                raise ValueError("start, stop and step must be finite")
            if s <= 0 or b < a:
                raise ValueError("need step > 0 and stop >= start")
            if not a + s > a:
                raise ValueError(f"step {s!r} does not advance start {a!r}")
            if (b - a) / s > _MAX_STEPS:
                raise ValueError(f"a range takes at most {_MAX_STEPS} steps")
            vals, k = [], 0
            while a + k * s <= b + s / 2.0:
                vals.append(a + k * s)
                k += 1
        else:
            vals = [float(t) for t in spec.split(",")]
        if len(set(vals)) < len(vals):
            raise ValueError(f"it repeats a lambda ({len(vals)} values, {len(set(vals))} distinct)")
        return vals
    except ValueError as e:
        raise UsageError(f"bad lambda spec {spec!r}: {e}") from e


def _one_lambda(spec: str) -> float:
    """The lambda of a command that takes one: a list or range is refused, not cut to its first entry."""
    if ":" in spec or "," in spec:
        raise UsageError(f"--lambda takes one value here, got {spec!r}")
    return parse_lambda_spec(spec)[0]


def parse_int_list(spec: str) -> list:
    try:
        return [int(t) for t in spec.split(",")]
    except ValueError as e:
        raise UsageError(f"bad integer list {spec!r}") from e


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("REPLICA_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as e:
            raise UsageError(f"REPLICA_LAB_SEED must be an integer, got {env!r}") from e
    return DEFAULT_MASTER_SEED


def _csv_text(config: dict, fields, rows) -> str:
    lines = [
        f"# {VERSION_STRING}",
        "# config " + json.dumps(_json_clean(config), sort_keys=True, separators=(",", ":")),
        ",".join(fields),
    ]
    for row in rows:
        lines.append(",".join(_fmt(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def _json_text(config: dict, results) -> str:
    envelope = {
        "config": _json_clean(config),
        "version": VERSION_STRING,
        "results": _json_clean(results),
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path!r}: {e}") from e


def _maybe_plot(args, xs, series, labels, title, xlabel, ylabel):
    if not args.plot:
        return
    if args.out is None:
        raise UsageError("--plot needs --out to derive the SVG path")
    path = os.path.splitext(args.out)[0] + ".svg"
    _write(path, line_chart_svg(xs, series, labels, title, xlabel, ylabel))


def _emit(args, config, fields, rows, results_json=None):
    if args.format == "csv":
        _write(args.out, _csv_text(config, fields, rows))
    else:
        _write(args.out, _json_text(config, results_json if results_json is not None else rows))


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it refuses undeclared flags under its own usage line, and reads -1e-1 as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _add_flags(sp, nodes=False, enumeration=False, plot=False):
    """The four flags of every command, plus those of the groups the command reads."""
    sp.add_argument("--prior", default="rademacher", help="prior spec, e.g. rademacher, sparse:0.25, asym:0.7, uniform:21")
    sp.add_argument("--seed", type=int, default=None, help="master seed (default: REPLICA_LAB_SEED env or a fixed constant)")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    if nodes:
        sp.add_argument("--nodes", type=int, default=DEFAULT_NODE_COUNT, help="quadrature node count")
    if enumeration:
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="enumeration budget in configurations")
        sp.add_argument("--disorder", type=int, default=400, help="number of disorder replicas")
    if plot:
        sp.add_argument("--plot", action="store_true", help="also write an SVG line chart next to --out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="replica-lab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    sp = sub.add_parser("rs-curve", help="RS formula curve over a lambda grid")
    _add_flags(sp, nodes=True, plot=True)
    sp.add_argument("--lambda", dest="lam", default="0:6:0.25", help="lambda value, list, or start:stop:step")

    sp = sub.add_parser("saddle", help="saddle formula and its gap to phi_RS")
    _add_flags(sp, nodes=True, plot=True)
    sp.add_argument("--lambda", dest="lam", default="0:6:0.25")

    sp = sub.add_parser("se", help="state evolution traces")
    _add_flags(sp, nodes=True, plot=True)
    sp.add_argument("--lambda", dest="lam", default="0.5,1,2,4")
    sp.add_argument("--q", dest="q0", type=float, default=None, help="initial overlap (default: E[X^2])")
    sp.add_argument("--tol", type=float, default=1e-8, help="stop once |delta q| <= tol * max(1, E[X^2])")
    sp.add_argument("--max-iter", type=int, default=1000)

    sp = sub.add_parser("finite-n", help="free entropy estimates across sizes")
    _add_flags(sp, enumeration=True, plot=True)
    sp.add_argument("--lambda", dest="lam", default="2", help="one lambda value")
    sp.add_argument("--n", default="8,10,12", help="comma list of system sizes")

    sp = sub.add_parser("fp", help="Franz-Parisi potential profile over overlap windows")
    _add_flags(sp, enumeration=True, plot=True)
    sp.add_argument("--lambda", dest="lam", default="2", help="one lambda value")
    sp.add_argument("--n", type=int, default=10, help="one system size")
    sp.add_argument("--eps", type=float, default=0.25, help="overlap window width")
    sp.add_argument("--m", type=float, default=None,
                    help="single window [m, m+eps) instead of the full profile")

    sp = sub.add_parser("verify", help="run the inequality/identity suite")
    _add_flags(sp, enumeration=True)
    sp.add_argument("--n", type=int, default=10, help="one system size")
    sp.set_defaults(format="json")
    return ap


def _run(args) -> int:
    prior = parse_prior_spec(args.prior)
    seed = _resolve_seed(args)
    if "nodes" in args and not DEFAULT_NODE_COUNT <= args.nodes <= MAX_NODE_COUNT:
        raise UsageError(f"--nodes takes {DEFAULT_NODE_COUNT} to {MAX_NODE_COUNT}, got {args.nodes}")
    ev = make_evaluator(args.nodes) if "nodes" in args else None
    # The artifact header; each command adds the lambda, n and q0 it resolves.
    header = {k: v for k, v in vars(args).items() if k not in ("out", "lam")}
    header.update(prior=prior_to_json(prior), seed=seed)

    if args.command == "rs-curve":
        header["lambda"] = lams = parse_lambda_spec(args.lam)
        rows = compute_curve(prior, lams, ev)
        _emit(args, header, CURVE_FIELDS, rows)
        _maybe_plot(args, lams,
                    [[r["q_star"] for r in rows], [r["phi_rs"] for r in rows],
                     [r["mi"] for r in rows], [r["mmse"] for r in rows]],
                    ["q*", "phi_RS", "MI", "MMSE"],
                    f"RS curve ({prior.name})", "lambda", "value")
        return 0

    if args.command == "saddle":
        header["lambda"] = lams = parse_lambda_spec(args.lam)
        rows = []
        for lam in lams:
            sad = saddle(prior, lam, ev)
            rs = phi_rs(prior, lam, ev)
            rows.append({"lambda": lam, "saddle": sad.value, "m_star": sad.optimizer_m,
                         "q_bar": sad.optimizer_q, "gap": abs(sad.value - rs.value)})
        _emit(args, header, ("lambda", "saddle", "m_star", "q_bar", "gap"), rows)
        _maybe_plot(args, lams,
                    [[r["saddle"] for r in rows], [r["m_star"] for r in rows]],
                    ["saddle", "m*"], f"Saddle formula ({prior.name})", "lambda", "value")
        return 0

    if args.command == "se":
        header["lambda"] = lams = parse_lambda_spec(args.lam)
        header["q0"] = q0 = second_moment(prior) if args.q0 is None else args.q0
        rows, traces = [], []
        for lam in lams:
            trace = state_evolution(prior, lam, q0, args.tol, args.max_iter, ev)
            traces.append(trace)
            for it, qv in enumerate(trace.iterates):
                rows.append({"lambda": lam, "iteration": it, "q": qv})
        _emit(args, header, ("lambda", "iteration", "q"), rows,
              results_json=[{"lambda": lam, "converged": t.converged,
                             "fixed_point": t.fixed_point, "iterates": t.iterates}
                            for lam, t in zip(lams, traces)])
        max_len = max(len(t.iterates) for t in traces)
        padded = [t.iterates + [t.iterates[-1]] * (max_len - len(t.iterates)) for t in traces]
        _maybe_plot(args, list(range(max_len)), padded,
                    [f"lambda={_fmt(lam)}" for lam in lams],
                    f"State evolution ({prior.name})", "iteration", "q")
        return 0

    if args.command == "finite-n":
        header["lambda"] = lam = _one_lambda(args.lam)
        header["n"] = sizes = parse_int_list(args.n)
        if len(set(sizes)) < len(sizes):
            raise UsageError(f"--n repeats a size: {args.n!r}")
        rows = []
        for n in sizes:
            est = free_entropy_mc(prior, n, lam, args.disorder, derive_seed(seed, n), args.budget)
            rows.append(mc_csv_record(n, lam, "free_entropy", est))
        _emit(args, header, MC_CSV_FIELDS, rows)
        _maybe_plot(args, sizes, [[r["mean"] for r in rows]], ["F_N"],
                    f"Finite-size free entropy ({prior.name})", "n", "F_N")
        return 0

    if args.command == "fp":
        header["lambda"] = lam = _one_lambda(args.lam)
        _check_count("n", args.n, 2)  # the exact estimators' rule, before the spike is drawn
        spike = sample_spike(prior, args.n, derive_seed(seed, 0, 2))
        if args.m is not None:  # the window's start as given: m / eps can overflow
            profile = [(args.m, fp_potential(prior, args.n, lam, args.m, args.eps, spike, args.disorder,
                                             derive_seed(seed, 1), args.budget))]
        else:
            profile = [(l * args.eps, est) for l, est in fp_profile(
                prior, args.n, lam, args.eps, spike, args.disorder, derive_seed(seed, 1), args.budget)]
        rows = [mc_csv_record(args.n, lam, f"fp[m={_fmt(m)};eps={_fmt(args.eps)}]", est) for m, est in profile]
        _emit(args, header, MC_CSV_FIELDS, rows)
        _maybe_plot(args, [m for m, _ in profile],
                    [[est.mean for _, est in profile]], ["Phi_eps"],
                    f"Franz-Parisi profile ({prior.name})", "m", "Phi_eps")
        return 0

    if args.command == "verify":
        reports = run_suite(prior, args.n, args.disorder, seed, args.budget)
        _emit(args, header, ("check", "slack", "stderr", "allowance", "pass"),
              [r.to_dict() for r in reports])
        return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _run(args)
    except (UsageError, InvalidPriorError, InvalidArgumentError, DomainError,
            EnumerationBudgetError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
