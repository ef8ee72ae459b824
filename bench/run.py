"""replica-lab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; replica_lab is imported from its src/.
Workloads run one after another, never concurrently, each repetition in a
fresh worker process (cold caches, as for a CLI user).  BLAS threading is
left at its default.

--trace 0 measures the end-to-end metrics: set-up (launch -> replica_lab
imported and make_evaluator(61) built, median over every worker started),
sequence wall time, item time median and tail, peak resident set, and the
share of items that passed the correctness gate.  A run repeats the sequence
round(S / 10) times (at least once), so both sides of a comparison do the
same work.  Times are scaled to a calibration kernel timed around the items
(see worker.py), because the host's speed drifts; the unscaled times are
printed and kept in the record.

--trace 1 runs the sequence once untraced and once traced (public functions
wrapped from outside), checks that both produce bit-identical outputs, and
reports the per-layer metrics, the set-up import split from
`python -X importtime`, and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the environment, goes
to bench/results/.  Exits non-zero, without that line, when the run itself
cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import numpy as np

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

# Repetitions of a workload's sequence in a 30-second run; a run with
# --seconds S makes round(S / 30 * REPS_30S) of them (at least one).  One
# sequence takes about 14.5 s (rs_curve), 5.0 s (phase_diagram) and 13 s
# (finite_verify) on a 2-core x86-64 machine (Python 3.11, numpy 2.4, scipy
# 1.17) at the commit that defined the benchmark.  Three repetitions give
# rs_curve twelve cold items, so that its tail sits on the cold builds.
REPS_30S = 3
PROBES = 2            # set-up-only workers per untraced run
IMPORTTIME_RUNS = 3
DEADLINE_S = 170.0    # the whole run, launch to result


class RunError(Exception):
    pass


class Clock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def left(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 0:
            raise RunError("run deadline passed")
        return left


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def launch(clock: Clock, args: list) -> tuple:
    """Start a worker; returns (set-up seconds, parsed result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], clock.left())
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line != b"READY\n":
            raise RunError(f"worker {args} did not become ready (exit {proc.poll()})")
        out, _ = proc.communicate(timeout=clock.left())
    except subprocess.TimeoutExpired as e:
        raise RunError(f"worker {args} timed out") from e
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited with {proc.returncode}")
    lines = out.decode().splitlines()
    if not lines:
        raise RunError(f"worker {args} printed no result")
    return setup, json.loads(lines[-1])


def tail_percentile(items: int) -> int:
    """Highest whole percentile with at least ten of the run's items beyond it."""
    return max(0, 100 * (items - 10) // items)


# ----------------------------------------------------------------------
# set-up split from -X importtime
# ----------------------------------------------------------------------

def _importtime_tree(stderr: str) -> list:
    """Parse `-X importtime` output into (name, self_us, cum_us, ancestors) rows."""
    rows, stack = [], []  # stack of (level, index) waiting for a parent
    parent = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # header line
        raw = parts[2].rstrip()
        level = (len(raw) - len(raw.lstrip())) // 2
        idx = len(rows)
        rows.append((raw.strip(), self_us, cum_us))
        while stack and stack[-1][0] > level:
            parent[stack.pop()[1]] = idx
        stack.append((level, idx))

    def ancestors(i):
        out = []
        while i in parent:
            i = parent[i]
            out.append(rows[i][0])
        return out

    return [(name, s, c, ancestors(i)) for i, (name, s, c) in enumerate(rows)]


def _in_package(name: str, pkg: str) -> bool:
    return name == pkg or name.startswith(pkg + ".")


def importtime_split(clock: Clock) -> dict:
    code = f"import sys; sys.path.insert(0, {SRC!r}); import replica_lab"
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=clock.left())
        if proc.returncode != 0:
            raise RunError("importing replica_lab failed")
        tree = _importtime_tree(proc.stderr)
        split = {}
        for pkg in ("numpy", "scipy"):
            # Cumulative time of the outermost imports of the package.
            split[pkg] = sum(c for name, _, c, anc in tree if _in_package(name, pkg)
                             and not any(_in_package(a, pkg) for a in anc)) / 1e6
        split["replica_lab_self"] = sum(s for name, s, _, _ in tree
                                        if _in_package(name, "replica_lab")) / 1e6
        runs.append(split)
    return {f"setup.{k}_s": (statistics.median(r[k] for r in runs), "s") for k in runs[0]}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's own thread count, read from the library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    env_threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": env_threads,
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def _misses(res: dict) -> list:
    return [(row["key"], row["misses"]) for row in res["items"] if row["misses"]]


def untraced(clock: Clock, workload: str, seed: int, seconds: int) -> tuple:
    reps = max(1, round(seconds / 30 * REPS_30S))
    base = ["--workload", workload, "--seed", str(seed)]
    setups, results = [], []
    for _ in range(PROBES):
        setup, probe = launch(clock, base + ["--probe"])
        setups.append((setup, probe["cal_s"]))
    for _ in range(reps):
        setup, res = launch(clock, base)
        setups.append((setup, res["cal_s"][0]))
        results.append(res)
    # Times are scaled to the calibration (see worker.py); raw ones go to the record.
    times = [row["scaled_s"] for res in results for row in res["items"]]
    raw_times = [row["seconds"] for res in results for row in res["items"]]
    scaled_setups = [s * worker.CAL_REF_S / c for s, c in setups]
    attempted = len(times)
    p_tail = tail_percentile(attempted)
    failed = sum(len(_misses(res)) for res in results)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "wall_s": (statistics.median(res["scaled_wall_s"] for res in results), "s"),
        "item_s.p50": (statistics.median(times), "s"),
        "item_s.tail": (float(np.percentile(times, p_tail)), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in results), "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
    }
    detail = {
        "repetitions": reps,
        "raw": {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(res["wall_s"] for res in results),
            "item_s.p50": statistics.median(raw_times),
            "item_s.tail": float(np.percentile(raw_times, p_tail)),
        },
        "setups_s": [s for s, _ in setups],
        "setup_cal_s": [c for _, c in setups],
        "walls_s": [res["wall_s"] for res in results],
        "scaled_walls_s": [res["scaled_wall_s"] for res in results],
        "cal_s.p50": statistics.median(c for res in results for c in res["cal_s"]),
        "item_s.tail": {"percentile": p_tail, "items": attempted,
                        "beyond": sum(1 for t in times if t > metrics["item_s.tail"][0])},
        "misses": [m for res in results for m in _misses(res)],
        "digests": [res["digest"] for res in results],
    }
    return metrics, attempted, failed, detail


def traced(clock: Clock, workload: str, seed: int, spans_path: str) -> tuple:
    base = ["--workload", workload, "--seed", str(seed)]
    _, plain = launch(clock, base)
    _, tr = launch(clock, base + ["--trace", "--spans", spans_path])
    metrics = {k: tuple(v) for k, v in tr["layers"].items()}
    metrics.update(importtime_split(clock))
    overhead = tr["scaled_wall_s"] - plain["scaled_wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain["scaled_wall_s"], "ratio")
    identical = plain["digest"] == tr["digest"]
    attempted = len(plain["items"]) + len(tr["items"])
    failed = len(_misses(plain)) + len(_misses(tr))
    detail = {
        "outputs_identical": identical,
        "walls_s": {"untraced": plain["wall_s"], "traced": tr["wall_s"]},
        "scaled_walls_s": {"untraced": plain["scaled_wall_s"], "traced": tr["scaled_wall_s"]},
        "misses": _misses(plain) + _misses(tr),
        "digests": [plain["digest"], tr["digest"]],
        "spans": os.path.relpath(spans_path, ROOT),
    }
    return metrics, attempted, failed, detail, identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "replica_lab", "__init__.py")):
        print(f"no replica_lab sources under {SRC}", file=sys.stderr)
        return 2

    clock = Clock()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            metrics, attempted, failed, detail, identical = traced(
                clock, args.workload, args.seed, stem + "-spans.json")
        else:
            metrics, attempted, failed, detail = untraced(
                clock, args.workload, args.seed, args.seconds)
            identical = True
        env = environment()
    except RunError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    correct = failed == 0 and identical
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted,
              "failed": failed, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": detail}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"{env['blas']} threads={env['blas_threads']}  nproc {env['nproc']}  "
          f"commit {env['git_commit']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if "raw" in detail:
        print("  unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in detail["raw"].items())
              + f"  (calibration p50 {detail['cal_s.p50'] * 1e3:.3f} ms,"
              f" reference {worker.CAL_REF_S * 1e3:g} ms)")
    if "item_s.tail" in detail:
        t = detail["item_s.tail"]
        print(f"  item_s.tail is p{t['percentile']} of {t['items']} items ({t['beyond']} beyond)")
    for key, misses in detail["misses"]:
        print(f"  MISS {key}: {'; '.join(misses)}")
    if not identical:
        print("  MISS traced outputs differ from untraced outputs")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
