"""Self-tests of the benchmark: gate, tracer fidelity, item sequences, parsing.

    python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout.  These tests are not part of tier-1 (pytest
collects tests/ only by default); they cost about 5 s.
"""

import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import replica_lab as rl  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _items(workload, pick, seed=workloads.DEFAULT_SEED):
    return [it for it in workloads.build(workload, seed, rl) if pick(it.key)]


def _cheap_items():
    """A few fast items covering the RS, finite and verify kinds."""
    point = _items("phase_diagram", lambda k: k.startswith("point|"))[:2]
    nish = _items("finite_verify", lambda k: k.startswith("check|rademacher|") and "|nishimori|" in k)
    return point + nish[:1]


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------

def test_gate_passes_at_recorded_reference(reference):
    for it in _cheap_items():
        assert it.key in reference, it.key
        assert workloads.gate(it, it.call(), rl, reference) == [], it.key


def test_gate_fails_when_a_reference_is_perturbed(reference):
    for it in _cheap_items():
        out = it.call()
        vals = workloads.values(it.kind, out)
        for name, (x, cls) in vals.items():
            entry = reference[it.key]
            if cls == "opt" and (entry["opt_gap"] or math.inf) <= workloads.OPT_GAP:
                continue
            tol = {"rs": workloads.RS_TOL, "opt": workloads.RS_TOL, "lambda_c": workloads.LAMBDA_C_TOL,
                   "mc": workloads.MC_REL * max(abs(x), workloads.MC_SCALE_FLOOR)}[cls]
            bent = {**entry, "values": {**entry["values"], name: entry["values"][name] + 10 * tol}}
            misses = workloads.gate(it, out, rl, {it.key: bent})
            assert len(misses) == 1 and misses[0].startswith(name), (it.key, name, misses)


def test_optimizers_of_near_ties_are_not_compared():
    ref = {"opt_gap": 5e-7, "values": {"phi_rs": 1.0, "q_star": 0.5}}
    vals = {"phi_rs": (1.0, "rs"), "q_star": (0.1, "opt")}
    assert workloads.compare(vals, ref) == []
    assert workloads.compare(vals, {**ref, "opt_gap": 1e-3}) != []
    assert workloads.compare(vals, {**ref, "opt_gap": None}) != []


def test_gate_checks_identities_without_a_reference():
    it = _items("finite_verify", lambda k: k.startswith("check|rademacher|") and k.endswith("|kl_identity"))[0]
    rep = it.call()
    assert workloads.gate(it, rep, rl, {}) == []
    failed = type(rep)(**{**rep.__dict__, "passed": False})
    assert workloads.gate(it, failed, rl, {}) != []


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

def test_tracer_rebinds_every_import_and_is_pass_through():
    items = _cheap_items()
    plain = [workloads.digest(it.call()) for it in items]
    original = rl.channel.psi_hat_array
    tracer = Tracer()
    tracer.install(rl)
    try:
        assert rl.rs.psi_hat_array is rl.channel.psi_hat_array is not original
        assert rl.verify.nishimori_check is rl.finite.nishimori_check is rl.nishimori_check
        tracer.active = True
        traced = [workloads.digest(tracer.item(it.key, it.kind, it.call)[0]) for it in items]
        tracer.active = False
    finally:
        tracer.uninstall()
    assert rl.rs.psi_hat_array is original
    assert traced == plain
    m = tracer.layer_metrics({})
    assert m["channel.calls"][0] > 0 and m["rs.phi_rs.calls"][0] == 2
    assert m["rs.state_evolution.iters"][0] > 0
    assert m["finite.cfg_draws"][0] == 2**12 * workloads.VERIFY_DISORDER
    # Kernel calls made by phi_rs through rs's own import are attributed to it.
    names = [tracer.funcs[s[0]][1] for s in tracer.spans]
    parents = {names[s[3]] for s, nm in zip(tracer.spans, names) if nm == "psi_hat_array" and s[3] >= 0}
    assert "phi_rs" in parents


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.funcs = [("rs", "phi_rs"), ("channel", "psi_hat_array")]
    tracer.spans = [[0, 0.0, 1.0, -1, None], [1, 0.1, 0.4, 0, 10], [1, 0.5, 0.7, 0, 5]]
    m = tracer.layer_metrics({})
    assert m["rs.phi_rs.self_s"][0] == pytest.approx(0.5)
    assert m["channel.evals"][0] == 15
    assert m["channel.busy_s"][0] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# item sequences
# ----------------------------------------------------------------------

def test_finite_verify_items_reproduce_run_suite(monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_SUITES", (("rademacher", 6),))
    monkeypatch.setattr(workloads, "VERIFY_DISORDER", 4)
    items = workloads.build("finite_verify", 1, rl)
    ours = [it.call().to_dict() for it in items]
    suite = [r.to_dict() for r in rl.run_suite(rl.standard_priors()["rademacher"], n=6, n_disorder=4,
                                               seed=workloads.CLI_MASTER_SEED)]
    assert ours == suite


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(workload):
    keys = lambda seed: [it.key for it in workloads.build(workload, seed, rl)]  # noqa: E731
    assert keys(5) == keys(5)
    if workload == "finite_verify":
        assert keys(5) == keys(6)
    else:
        assert keys(5) != keys(6)


def test_grid_offsets_stay_small():
    for seed in range(50):
        du, dr = workloads.grid_offsets(seed)
        assert 0.0 <= du < workloads.LAMBDA_SHIFT and 0.0 <= dr < workloads.RHO_SHIFT


# ----------------------------------------------------------------------
# scaled times
# ----------------------------------------------------------------------

def test_item_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    readings = iter([1.0, 3.0, 5.0, 7.0])
    monkeypatch.setattr(worker, "calibrate", lambda: next(readings) * worker.CAL_REF_S)
    monkeypatch.setattr(worker, "CAL_EVERY_S", 0.0)
    items = _cheap_items()
    monkeypatch.setattr(workloads, "build", lambda workload, seed, rl: items)
    res = worker.run(rl, "phase_diagram", 0, trace=False)
    scales = [row["scaled_s"] / row["seconds"] for row in res["items"]]
    assert scales == pytest.approx([1 / 2, 1 / 4, 1 / 6])
    assert res["scaled_wall_s"] == pytest.approx(sum(row["scaled_s"] for row in res["items"]))
    assert all(row["misses"] == [] for row in res["items"])


def test_calibration_is_positive_and_repeatable():
    readings = [worker.calibrate() for _ in range(5)]
    assert min(readings) > 0
    assert max(readings) < 10 * min(readings)


# ----------------------------------------------------------------------
# run.py helpers and failure mode
# ----------------------------------------------------------------------

def test_tail_percentile_leaves_ten_items_beyond():
    for n in (42, 52, 78, 100, 234):
        p = run.tail_percentile(n)
        assert n * (100 - p) >= 1000 > n * (100 - p - 1)


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        10 |         10 |     replica_lab.errors",
        "import time:        30 |        460 |   replica_lab",
    ])
    tree = run._importtime_tree(text)
    names = {name: anc for name, _, _, anc in tree}
    assert names["numpy.core"] == ["numpy", "replica_lab"]
    assert names["replica_lab"] == []


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rs_curve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
