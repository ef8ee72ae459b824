"""Span tracing by wrapping replica_lab's public functions from the outside.

Each wrapped function records one span (function, start, end, parent span,
info) per call while tracing is active.  The wrapper is rebound under every
name that refers to the original function in every loaded replica_lab module,
so calls that `rs`, `interpolation` and `verify` make through names they
imported are seen too.  Wrappers are pure pass-through: they return the
wrapped function's own result object.

Spans stay in memory; `layer_metrics` reduces them to the per-layer metrics
and `dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# (module, function) pairs that get a span, grouped by layer (= module name).
TRACED = {
    "channel": ("psi_hat_array",),
    "rs": ("phi_rs", "saddle", "state_evolution", "critical_lambda", "f_bar_inner_min"),
    "finite": (
        "derive_seed", "sample_instance", "enumeration_table", "log_partition_exact",
        "kl_log_likelihood_ratio", "nishimori_check", "fp_potential",
    ),
    "interpolation": ("phi_of_t", "guerra_slope_check", "fp_upper_check"),
    "verify": (
        "tilt_asymmetry_check", "saddle_equivalence_check",
        "se_fixed_point_check", "kl_identity_check",
    ),
}

# Finite-layer entry points whose configurations x draws are counted.
ENUM_ENTRY = ("log_partition_exact", "kl_log_likelihood_ratio", "nishimori_check", "fp_potential")

# The seven report kinds of the verify suite.
CHECK_KINDS = ("tilt_asymmetry", "saddle_equivalence", "se_fixed_point", "kl_identity",
               "nishimori", "guerra_slope", "fp_upper")

ITEM = "item"


def _configs(p, n: int) -> int:
    return len(p.atoms) ** int(n)


def _info_hooks(rl):
    """Per-function info computed from the call's arguments and result.

    Counts derived here (evaluations, configurations x draws, table sizes)
    come from argument shapes, not from measuring inside the library.
    """
    default_nodes = rl.channel.DEFAULT_NODE_COUNT

    def psi_hat_array(a, k, out):
        ev = a[0] if a else k.get("ev")
        nodes = ev.node_count if ev is not None else default_nodes
        p = a[1] if len(a) > 1 else k["p"]
        return int(getattr(out, "size", 1)) * nodes * len(p.atoms)

    def bound(fn):
        sig = inspect.signature(fn)

        def args_of(a, k):
            b = sig.bind(*a, **k)
            b.apply_defaults()
            return b.arguments

        return args_of

    f, i = rl.finite, rl.interpolation
    by_nish = bound(f.nishimori_check)
    by_fpp = bound(f.fp_potential)
    by_guerra = bound(i.guerra_slope_check)
    by_phit = bound(i.phi_of_t)
    by_table = bound(f.enumeration_table)

    def mc(binder):
        def hook(a, k, out):
            g = binder(a, k)
            return _configs(g["p"], g["n"]) * int(g["n_disorder"])
        return hook

    def one_instance(a, k, out):
        inst = a[0] if a else k["inst"]
        p = a[1] if len(a) > 1 else k["p"]
        return _configs(p, inst.n)

    def table(a, k, out):
        g = by_table(a, k)
        return (g["p"].atoms, int(g["n"]), out.X.shape)

    def guerra(a, k, out):
        g = by_guerra(a, k)
        return _configs(g["p"], g["n"]) * int(g["n_disorder"]) * len(g["t_grid"])

    def phi_t(a, k, out):
        g = by_phit(a, k)
        return _configs(g["p"], g["n"]) * int(g["n_disorder"])

    def saddle(a, k, out):
        p = a[0] if a else k["p"]
        return p.atoms

    def se(a, k, out):
        return len(out.iterates) - 1

    return {
        "psi_hat_array": psi_hat_array,
        "saddle": saddle,
        "state_evolution": se,
        "nishimori_check": mc(by_nish),
        "fp_potential": mc(by_fpp),
        "log_partition_exact": one_instance,
        "kl_log_likelihood_ratio": one_instance,
        "enumeration_table": table,
        "guerra_slope_check": guerra,
        "phi_of_t": phi_t,
    }


class Tracer:
    """Records spans for the wrapped functions while `active` is true."""

    def __init__(self):
        self.funcs: list = []   # (layer, name) per function id
        self.spans: list = []   # [fid, start, end, parent, info]
        self.active = False
        self._item_fids: dict = {}
        self._stack: list = []
        self._rebound: list = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _fid(self, layer: str, name: str) -> int:
        self.funcs.append((layer, name))
        return len(self.funcs) - 1

    def span(self, fid: int, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not self.active:
                return fn(*a, **k)
            idx = len(spans)
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*a, **k)
            finally:
                rec[2] = clock()
                rec[1] = t0
                stack.pop()
            if hook is not None:
                rec[4] = hook(a, k, out)
            return out

        return wrapper

    def item(self, key: str, kind: str, call):
        """Run one benchmark item as a top-level span.

        Returns (output, seconds, error); an item that raises yields output
        None and the exception's repr, and the sequence goes on.
        """
        fid = self._item_fids.get(kind)
        if fid is None:
            fid = self._item_fids[kind] = self._fid(ITEM, kind)
        rec = [fid, 0.0, 0.0, -1, key]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        out, err = None, None
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # an item failure is counted, not fatal
            err = repr(e)
        rec[2] = time.perf_counter()
        rec[1] = t0
        self._stack.pop()
        return out, rec[2] - t0, err

    def install(self, rl) -> None:
        """Wrap every TRACED function and rebind it wherever it is referenced."""
        hooks = _info_hooks(rl)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "replica_lab" or name.startswith("replica_lab."))]
        for layer, names in TRACED.items():
            mod = getattr(rl, layer)
            for name in names:
                orig = getattr(mod, name)
                wrapped = self.span(self._fid(layer, name), orig, hooks.get(name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._rebound.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        self._rebound.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"funcs": self.funcs, "spans": [s[:4] for s in self.spans]}, fh)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, item_reports: dict) -> dict:
        """Per-layer metrics from the recorded spans.

        item_reports maps an item key to (check kind, passed) for items whose
        output is a verification report.
        """
        funcs, spans = self.funcs, self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        name = [funcs[s[0]][1] for s in spans]
        layer = [funcs[s[0]][0] for s in spans]

        def has_ancestor(i, pred):
            j = spans[i][3]
            while j >= 0:
                if pred(j):
                    return True
                j = spans[j][3]
            return False

        def of(fname):
            return [i for i, nm in enumerate(name) if nm == fname and layer[i] != ITEM]

        def busy(fname):
            return sum(dur[i] for i in of(fname))

        def self_s(fname):
            return sum(dur[i] - child[i] for i in of(fname))

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        m = {}
        ch = of("psi_hat_array")
        m["channel.calls"] = (len(ch), "count")
        m["channel.evals"] = (sum(spans[i][4] for i in ch), "count")
        m["channel.busy_s"] = (sum(dur[i] for i in ch), "s")
        m["channel.evals_per_s"] = (rate(m["channel.evals"][0], m["channel.busy_s"][0]), "1/s")

        m["rs.phi_rs.calls"] = (len(of("phi_rs")), "count")
        m["rs.phi_rs.self_s"] = (self_s("phi_rs"), "s")
        sad = of("saddle")
        seen, cold, warm = set(), 0.0, []
        for i in sad:
            if spans[i][4] in seen:
                warm.append(dur[i])
            else:
                seen.add(spans[i][4])
                cold += dur[i]
        m["rs.saddle.calls"] = (len(sad), "count")
        m["rs.saddle.self_s"] = (self_s("saddle"), "s")
        m["rs.saddle.cold_s"] = (cold, "s")
        m["rs.saddle.warm_s.p50"] = (statistics.median(warm) if warm else 0.0, "s")
        m["rs.state_evolution.iters"] = (sum(spans[i][4] for i in of("state_evolution")), "count")
        m["rs.state_evolution.busy_s"] = (busy("state_evolution"), "s")
        m["rs.critical_lambda.busy_s"] = (busy("critical_lambda"), "s")
        m["rs.critical_lambda.phi_rs_calls"] = (
            sum(1 for i in of("phi_rs")
                if has_ancestor(i, lambda j: name[j] == "critical_lambda")), "count")
        m["rs.f_bar_inner_min.calls"] = (len(of("f_bar_inner_min")), "count")

        fin = [i for i in range(len(spans)) if layer[i] == "finite"]
        outer = [i for i in fin if not has_ancestor(i, lambda j: layer[j] == "finite")]
        counted = [i for i in fin if name[i] in ENUM_ENTRY
                   and not has_ancestor(i, lambda j: name[j] in ENUM_ENTRY)]
        m["finite.cfg_draws"] = (sum(spans[i][4] for i in counted), "count")
        m["finite.busy_s"] = (sum(dur[i] for i in outer), "s")
        m["finite.cfg_draws_per_s"] = (
            rate(m["finite.cfg_draws"][0], sum(dur[i] for i in counted)), "1/s")
        for fname in ("kl_log_likelihood_ratio", "nishimori_check"):
            m[f"finite.{fname}.busy_s"] = (busy(fname), "s")
        m["finite.log_partition_exact.calls"] = (len(of("log_partition_exact")), "count")
        tables, cold_tab = {}, 0.0
        for i in of("enumeration_table"):
            atoms, n, shape = spans[i][4]
            if (atoms, n) not in tables:
                tables[(atoms, n)] = shape
                cold_tab += dur[i]
        m["finite.enumeration_table.cold_s"] = (cold_tab, "s")
        # X (M x n) plus logw, pairsq and sumsq (M each), all float64.
        m["finite.table_mb"] = (
            sum(shape[0] * (shape[1] + 3) * 8 for shape in tables.values()) / 1e6, "MB")
        m["finite.sample_instance.busy_s"] = (busy("sample_instance"), "s")
        m["finite.derive_seed.busy_s"] = (busy("derive_seed"), "s")

        path = of("guerra_slope_check") + of("phi_of_t")
        m["interpolation.cfg_draw_t"] = (sum(spans[i][4] for i in path), "count")
        m["interpolation.cfg_draw_t_per_s"] = (
            rate(m["interpolation.cfg_draw_t"][0], sum(dur[i] for i in path)), "1/s")
        m["interpolation.guerra_slope_check.busy_s"] = (busy("guerra_slope_check"), "s")
        m["interpolation.fp_upper_check.busy_s"] = (busy("fp_upper_check"), "s")

        items = [i for i in range(len(spans)) if layer[i] == ITEM]
        per_kind = {kind: 0.0 for kind in CHECK_KINDS}
        checks = failed = 0
        for i in items:
            rep = item_reports.get(spans[i][4])
            if rep is None:
                continue
            kind, passed = rep
            per_kind[kind] = per_kind.get(kind, 0.0) + dur[i]
            checks += 1
            failed += not passed
        for kind in CHECK_KINDS:
            m[f"verify.{kind}.busy_s"] = (per_kind[kind], "s")
        m["verify.checks"] = (checks, "count")
        m["verify.checks_failed"] = (failed, "count")
        return m
