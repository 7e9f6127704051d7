"""Benchmark of tuhyper's decide, delta and extract layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-hard --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics for `--seconds` seconds (whole
rounds of the workload's input list).  `--trace 1` runs a fixed number of
rounds three times, untraced, with spans, and with a call-counting profile
hook, and reports the per-layer metrics and the tracing overhead.  Every
time is in calibrated seconds (see calib.py and README.md).  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("decide-hard", "decide-corpus", "delta-graphs", "extract-witness")
SETUP_REPEATS = 5
WARMUP_OPS = 3
BATCH_SECONDS = 0.05  # short operations are timed one by one but calibrated per batch


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class PassResult:
    # Compact arrays, so that the process's peak memory does not grow with
    # the number of rounds a run completes.
    latencies: array = field(default_factory=lambda: array("d"))  # calibrated s per completed op
    slots: array = field(default_factory=lambda: array("I"))  # list slot of each latency
    raw: float = 0.0  # raw seconds of the completed ops
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    errors: list[str] = field(default_factory=list)


def run_pass(w, cases, seed, cal, *, seconds=None, rounds=None, spans=None, counter=None):
    """Whole rounds of the input list, each under a fresh seeded relabelling:
    for `seconds` (at least one round) or for exactly `rounds`."""
    from workloads import relabel

    res = PassResult()
    start = time.perf_counter()
    while (res.rounds < rounds) if rounds is not None else (
            res.rounds == 0 or time.perf_counter() - start < seconds):
        r = res.rounds
        docs = [relabel(c.doc, random.Random(f"{seed}/{r}/{i}")) for i, c in enumerate(cases)]
        texts = [json.dumps(d) for d in docs]
        i = 0
        while i < len(texts):
            done = []
            batch_raw = 0.0
            before = cal.probe()
            while i < len(texts) and batch_raw < BATCH_SECONDS:
                out = None
                t0 = time.perf_counter()
                try:
                    if counter is None:
                        out = w.op(texts[i])
                    else:
                        with counter:
                            out = w.op(texts[i])
                except Exception:  # a failed operation is counted, not fatal
                    res.failed += 1
                    if res.failed <= 3:
                        print(f"operation failed on {cases[i].family} slot {i} round {r}:\n"
                              + traceback.format_exc(), file=sys.stderr)
                dt = time.perf_counter() - t0
                res.attempted += 1
                done.append((i, dt, out))
                batch_raw += dt
                i += 1
            factor = cal.factor(before, cal.probe())
            if spans is not None:
                spans.commit(factor)
            for j, dt, out in done:
                if out is None:
                    continue
                res.latencies.append(dt * factor)
                res.slots.append(j)
                res.raw += dt
                try:
                    err = w.check(cases[j], docs[j], out)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    err = f"malformed output {out[:200]!r}: {exc!r}"
                if err is not None:
                    res.errors.append(f"{cases[j].family} slot {j} round {r}: {err}")
        res.rounds += 1
    return res


def setup_once(w, cal, import_cal):
    """One set-up: import tuhyper in a fresh interpreter, then build the
    input list (gen.generate), serialise it and warm up.  Returns the cases
    and the calibrated seconds of import, the rest, and gen.generate alone.
    The import is calibrated by `import_cal`, a fresh interpreter importing
    numpy; the rest by `cal`."""
    from tuhyper import gen

    before = import_cal.probe()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import tuhyper", SRC], check=True)
    elapsed = time.perf_counter() - t0
    import_s = elapsed * import_cal.factor(before, import_cal.probe())

    gen_raw = 0.0

    def generate(cfg):
        nonlocal gen_raw
        t = time.perf_counter()
        try:
            return gen.generate(cfg)
        finally:
            gen_raw += time.perf_counter() - t

    before = cal.probe()
    t0 = time.perf_counter()
    cases = w.build(generate)
    texts = [json.dumps(c.doc) for c in cases]
    for text in sorted(texts, key=len)[:WARMUP_OPS]:
        w.op(text)
    elapsed = time.perf_counter() - t0
    factor = cal.factor(before, cal.probe())
    return cases, import_s, elapsed * factor, gen_raw * factor


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics (weights by the midpoint rule).

    The latencies cluster by instance, and a plain order statistic jumps
    between clusters from run to run; this weighted mean moves smoothly.
    """
    import numpy as np  # loaded only after main() has limited BLAS threads

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    t = (np.arange(n) + 0.5) / n
    logw = (p * (n + 1) - 1) * np.log(t) + ((1 - p) * (n + 1) - 1) * np.log1p(-t)
    w = np.exp(logw - logw.max())
    return float(w @ x / w.sum())


def summary(res: PassResult) -> dict[str, float]:
    lat = res.latencies
    return {"ops_per_s": len(lat) / sum(lat), "latency_p50_ms": 1e3 * quantile(lat, 0.5),
            "latency_p90_ms": 1e3 * quantile(lat, 0.9)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tuhyper", "__init__.py")):
        print(f"perfbench: no tuhyper sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: one BLAS thread
    sys.path.insert(0, SRC)
    import tuhyper

    if os.path.dirname(os.path.abspath(tuhyper.__file__)) != os.path.join(SRC, "tuhyper"):
        print(f"perfbench: imported tuhyper from {tuhyper.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import calib
    import tracing
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    setup_cal = calib.Calibrator("bitmask")
    import_cal = calib.Calibrator("interpreter")
    cal = calib.Calibrator(w.kernel)
    setups = [setup_once(w, setup_cal, import_cal) for _ in range(SETUP_REPEATS)]
    cases = setups[-1][0]
    setup_s = statistics.median(s[1] + s[2] for s in setups)
    import_s = statistics.median(s[1] for s in setups)
    generate_s = statistics.median(s[3] for s in setups)
    w.prepare(cases)
    gc.collect()
    gc.freeze()

    print(f"workload {w.name}  seed {args.seed}  list of {len(cases)} instances  "
          f"kernel {cal.name} (nominal {cal.nominal * 1e3:.1f} ms)")
    print(f"setup (median of {SETUP_REPEATS}): {setup_s:.4f} s, of which fresh-interpreter "
          f"import {import_s:.4f} s and gen.generate {generate_s:.4f} s")

    if args.trace == 0:
        res = run_pass(w, cases, args.seed, cal, seconds=args.seconds)
        passes = [res]
        metrics = {name: (value, unit) for (name, value), unit in zip(
            summary(res).items(), ("1/s", "ms", "ms"))}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        metrics["setup_s"] = (setup_s, "s")
        by_family: dict[str, list[float]] = {}
        for slot, lat in zip(res.slots, res.latencies):
            by_family.setdefault(cases[slot].family, []).append(lat)
        details = {
            "rounds": res.rounds, "samples": len(res.latencies),
            "raw_ops_per_s": len(res.latencies) / res.raw,
            "kernel_probe_median_s": statistics.median(cal.probes),
            "family_median_ms": {f: 1e3 * statistics.median(v)
                                 for f, v in sorted(by_family.items())},
        }
        print(f"{res.rounds} rounds, {len(res.latencies)} latency samples; "
              f"raw (uncalibrated) {details['raw_ops_per_s']:.4f} ops/s; "
              f"median kernel probe {details['kernel_probe_median_s'] * 1e3:.4f} ms")
    else:
        plain = run_pass(w, cases, args.seed, cal, rounds=w.trace_rounds)
        spans = tracing.Spans()
        spans.install()
        try:
            traced = run_pass(w, cases, args.seed, cal, rounds=w.trace_rounds, spans=spans)
        finally:
            spans.uninstall()
        counter = tracing.CallCounter()
        counted = run_pass(w, cases, args.seed, cal, rounds=w.trace_rounds, counter=counter)
        passes = [plain, traced, counted]
        n = len(traced.latencies)
        metrics = {name + ".s": (spans.seconds[name] / n, "s") for name in tracing.REPORTED_SECONDS}
        counts = [name + ".calls" for name in tracing.REPORTED_CALLS] + [
            "linalg._eulerian_selections.yielded", "extract.steps"] + [
            f"linalg.dets.order{k}" for k in range(1, tracing.MAX_ORDER + 1)]
        metrics.update((name, (spans.counts[name], "count")) for name in counts)
        metrics.update((mod + ".py_calls", (counter.counts[mod], "count"))
                       for mod in tracing.COUNTED_MODULES)
        metrics["gen.generate.s"] = (generate_s, "s")
        metrics["cli.import_s"] = (import_s, "s")
        before, after = summary(plain), summary(traced)
        overhead = {k: after[k] / before[k] - 1 for k in before}
        details = {
            "rounds": w.trace_rounds, "operations_per_pass": n, "overhead": overhead,
            "spans": {name: {"calls": spans.counts[name + ".calls"],
                             "self_s_per_op": spans.seconds[name] / n}
                      for name in sorted(spans.seconds)},
        }
        print(f"traced passes: {w.trace_rounds} rounds each, {n} operations")
        print("tracing overhead (spans pass against untraced pass): "
              + ", ".join(f"{k} {v:+.2%}" for k, v in overhead.items()))

    errors = [e for p in passes for e in p.errors]
    for e in errors[:10]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details, "errors": errors}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
