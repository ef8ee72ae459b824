"""One fresh-process run of a workload's item sequence.

    python3 bench/worker.py --workload W --seed N [--probe] [--trace] [--spans PATH] [--record]

The process first imports replica_lab from the checkout's src/ and calls
make_evaluator(61), then prints READY; the parent times launch -> READY as
set-up.  With --probe it then times the calibration kernel once, prints it
and stops.  Otherwise it runs the items in order, timing each from outside
the library and timing the calibration kernel before the first item and
after every item, then gates every output (with tracing paused) and prints
one JSON line: per-item times (raw and scaled), misses and output digests,
the sequence wall time and the process's peak resident set.  With --trace
the library's public functions are wrapped first and the per-layer metrics
are added; --spans writes the raw spans.  --record adds each item's
reference values (see record_reference.py) and skips the comparison with
them.

Scaling: the host's speed drifts by up to 1.5x within seconds, independently
on each CPU.  `calibrate` times a fixed mix of interpreter and numpy work
that does not touch replica_lab; an item's scaled time is its raw time times
CAL_REF_S over the mean of the calibrations just before and just after it.
So a scaled time is the time the item would take on a CPU that runs the
kernel in CAL_REF_S, and changes to replica_lab move it as they move the raw
time.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def setup():
    """Import replica_lab from the checkout's src/ and build the default rule.

    Runs before anything else the worker imports, so that launch -> READY
    covers the interpreter, numpy, scipy and replica_lab, and nothing more.
    """
    sys.path.insert(0, SRC)
    import replica_lab

    replica_lab.make_evaluator(61)
    if not os.path.abspath(replica_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"replica_lab was imported from {replica_lab.__file__}, not from {SRC}")
    return replica_lab


CAL_REF_S = 3.5e-3    # calibration time that scaled times refer to
CAL_EVERY_S = 0.2     # least time between two calibrations inside a sequence
_CAL = None


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and array-streaming work.

    The two parts load the CPU the way the workloads' items do: scalar
    Python with small numpy calls, and numpy over arrays larger than the
    caches.  Each part is timed twice and its best time counts, so that an
    interrupt inside one timing does not.  Both run on the calling thread
    only: a multi-threaded part would also time the other CPUs, whose speed
    drifts on its own.  Depends on nothing in replica_lab.
    """
    import math
    import time

    import numpy as np

    global _CAL
    if _CAL is None:
        big = np.linspace(0.0, 1.0, 600_000)
        _CAL = (np.linspace(-3.0, 3.0, 2001), big, np.empty_like(big))
    small, big, buf = _CAL

    def interpreter():
        s = 0.0
        for i in range(5000):
            s += math.exp(-1e-3 * i) * (i & 7)
        for _ in range(50):
            s += float((np.exp(-0.5 * small * small) * np.tanh(small)).sum())

    def stream():  # into a preallocated buffer, so no page faults are timed
        np.negative(big, out=buf)
        np.exp(buf, out=buf)
        np.multiply(buf, big, out=buf)
        float(buf.sum())

    total = 0.0
    for part in (interpreter, stream):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def run(rl, workload: str, seed: int, trace: bool, spans_path: str | None = None,
        record: bool = False) -> dict:
    import hashlib
    import resource
    import time

    import workloads
    from tracer import Tracer

    items = workloads.build(workload, seed, rl)
    tracer = Tracer()
    if trace:
        tracer.install(rl)
        tracer.active = True
    # before[i]: index of the last calibration before item i; the next one
    # follows the item, at least CAL_EVERY_S after the one before it.
    results, before = [], []
    cal = [calibrate()]
    last = time.perf_counter()
    for i, it in enumerate(items):
        before.append(len(cal) - 1)
        results.append(tracer.item(it.key, it.kind, it.call))
        if time.perf_counter() - last >= CAL_EVERY_S or i == len(items) - 1:
            cal.append(calibrate())
            last = time.perf_counter()
    scale = [2.0 * CAL_REF_S / (cal[b] + cal[b + 1]) for b in before]
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {} if record else workloads.load_reference()
    rows, reports, whole = [], {}, hashlib.sha256()
    for it, (out, seconds, err), k in zip(items, results, scale):
        if err is not None:
            misses, dig = [f"raised {err}"], None
        else:
            try:
                misses = workloads.gate(it, out, rl, reference)
            except Exception as e:  # a gate that cannot run is a miss
                misses = [f"gate raised {e!r}"]
            dig = workloads.digest(out)
            if it.kind == "check":
                reports[it.key] = (out.check, bool(out.passed))
        whole.update(f"{it.key}={dig}\n".encode())
        rows.append({"key": it.key, "kind": it.kind, "seconds": seconds,
                     "scaled_s": seconds * k, "misses": misses, "digest": dig})
        if record and err is None:
            gap = workloads.opt_gap(it, out, rl)
            rows[-1]["reference"] = {
                "opt_gap": gap if gap != float("inf") else None,
                "values": {k: x for k, (x, _) in workloads.values(it.kind, out).items()},
            }
    res = {"workload": workload, "seed": seed, "trace": trace,
           "wall_s": sum(r["seconds"] for r in rows),
           "scaled_wall_s": sum(r["scaled_s"] for r in rows),
           "cal_s": cal, "peak_rss_mb": peak_rss_mb, "digest": whole.hexdigest(), "items": rows}
    if trace:
        res["layers"] = {k: list(v) for k, v in tracer.layer_metrics(reports).items()}
        if spans_path:
            tracer.dump(spans_path)
    return res


def main(rl, argv=None) -> int:
    import argparse
    import json

    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--record", action="store_true", help="also output reference values")
    args = ap.parse_args(argv)
    if args.probe:
        sys.stdout.write(json.dumps({"cal_s": calibrate()}) + "\n")
        return 0
    res = run(rl, args.workload, args.seed, args.trace, args.spans, args.record)
    sys.stdout.write(json.dumps(res) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    _rl = setup()
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    sys.exit(main(_rl))
