#!/usr/bin/env python3
"""Repo benchmark: training and decoding throughput of convasr.

    python3 perfbench/run.py --workload decode_bigram --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45

Run from the repository root; convasr is imported from ``src/``.  With
``--trace 0`` the run sets the workload up several times (setup_s is
the median), then cycles through its items for ``--seconds`` seconds,
timing each call into convasr and checking its output.  With
``--trace 1`` it sets up once under the span wrappers, runs each of the
workload's first items once without them and once with them, and
reports per-span self times and call counts.  Earlier stdout lines
carry the environment and the figures that are not metrics (per-item
percentiles, failed_frac, quality); the last line is the result object.
Any failed check makes the exit code 1; ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
WORKLOADS = ("train_asg", "decode_bigram")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Run BLAS on one thread; call before numpy loads.  On a shared
    2-core machine a second thread made train_asg about 5% faster and
    half again as noisy from run to run.  Returns the usable core count."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_convasr():
    """Import convasr from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import convasr
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import convasr from {src}: {exc}")
    if not os.path.abspath(convasr.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: convasr resolved to {convasr.__file__}, not under {src}")


def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": cores,
        "argv": sys.argv,
    }


def percentile_report(samples_ms: list) -> dict:
    """Median always; p90 only when at least 10 samples lie above it."""
    import numpy as np

    out = {"samples": len(samples_ms)}
    if samples_ms:
        out["utt_ms_p50"] = float(np.median(samples_ms))
        if len(samples_ms) >= 100:
            out["utt_ms_p90"] = float(np.percentile(samples_ms, 90))
    return out


class Tally:
    """Attempted and failed operations, with each failure's reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"perfbench: check failed: {e}", file=sys.stderr)


def run_item(w, state, item, counter: Tally, around=contextlib.nullcontext):
    """Time one call, inside ``around()``, and check it outside; returns
    the call's seconds or None when it raised."""
    try:
        with around():
            t0 = time.perf_counter()
            out = w.call(state, item)
            elapsed = time.perf_counter() - t0
        errors = w.check(state, item, out)
    except Exception:
        counter.record([traceback.format_exc()])
        return None
    counter.record(errors)
    return elapsed


def untraced(w, seed: int, seconds: float, counter: Tally):
    import numpy as np

    setup_s = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous inputs before building new ones
        t0 = time.perf_counter()
        state = w.setup(seed)
        setup_s.append(time.perf_counter() - t0)
        counter.record(state["errors"])
    items = w.items(state)
    item_ms, audio = [], 0.0
    begin = time.perf_counter()
    i = 0
    while time.perf_counter() - begin < seconds:
        item = items[i % len(items)]
        i += 1
        elapsed = run_item(w, state, item, counter)
        if elapsed is not None:
            item_ms.append(1000.0 * elapsed)
            audio += w.audio_s(state, item)
    timed_s = sum(item_ms) / 1000.0
    metrics = {
        "audio_s_per_s": audio / timed_s if timed_s else 0.0,
        "setup_s": float(np.median(setup_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"setup_s_each": setup_s, "audio_s": audio, "timed_s": timed_s}
    info.update(percentile_report(item_ms))
    info.update(w.quality(state))
    return metrics, info


def traced(w, seed: int, counter: Tally):
    import numpy as np

    import layers
    import spans
    import workloads

    tracer = spans.Tracer()
    absent = []

    @contextlib.contextmanager
    def wrapped():
        restore, missing = spans.install(tracer, layers.TARGETS)
        absent[:] = missing
        try:
            yield
        finally:
            restore()

    with wrapped():
        t0 = time.perf_counter()
        state = w.setup(seed)
        wall = time.perf_counter() - t0
    counter.record(state["errors"])
    pool = w.items(state)
    items = [pool[i % len(pool)] for i in range(w.trace_items)]

    # each item runs once plain and once traced, the plain run first on
    # every other item, so warm caches favour neither side of the overhead
    plain_s = traced_s = 0.0
    frames = 0
    for u, item in enumerate(items):
        for traced_run in ((False, True) if u % 2 == 0 else (True, False)):
            if traced_run:
                tracer.utt_id = u
                traced_s += run_item(w, state, item, counter, wrapped) or 0.0
                tracer.utt_id = -1
            else:
                plain_s += run_item(w, state, item, counter) or 0.0
        frames += int(round(w.audio_s(state, item) / workloads.FRAME_S))
    wall += traced_s

    os.makedirs(SCRATCH, exist_ok=True)
    tracer.save(os.path.join(SCRATCH, f"trace-{w.name}-seed{seed}.npz"))
    totals = spans.summarize(tracer)
    per_layer = layers.per_layer_metrics(totals)
    a = tracer.arrays()
    in_pass = a["utt"] >= 0
    names = np.array(tracer.names + [""])
    span_name = names[a["name_id"]]
    decode = in_pass & (span_name == "decoder.decode")
    scored = in_pass & (span_name == "lm.score_word")
    per_frame = max(frames, 1)
    per_layer["decoder.decode.ms_per_frame"] = (
        1000.0 * float(np.sum(a["end"][decode] - a["start"][decode])) / per_frame
    )
    per_layer["lm.score_word.calls_per_frame"] = float(np.sum(scored)) / per_frame
    span_self_s = sum(s for s, _ in totals.values())
    per_layer["trace.wall_ms"] = 1000.0 * wall
    per_layer["bench.self_ms"] = 1000.0 * (wall - span_self_s)
    per_layer["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    info = {"absent": absent, "spans": len(tracer.start), "untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    return per_layer, info


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    status = 0
    print(f"{'workload':<16}{'metric':<18}{'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<16}failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
        rows += [(k, v, "ratio") for k, v in info.items() if k in ("holdout_ler", "wer", "search_error_frac")]
        rows += [(k, v, "ms") for k, v in info.items() if k.startswith("utt_ms")]
        for k, v, unit in rows:
            print(f"{name:<16}{k:<18}{v:>14.6g}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cores = pin_blas_threads()
    import_convasr()
    import workloads

    w = workloads.make(args.workload, SCRATCH)
    counter = Tally()
    units = declared_units(args.trace)
    if args.trace:
        values, info = traced(w, args.seed, counter)
    else:
        values, info = untraced(w, args.seed, args.seconds, counter)
    if set(values) != set(units):
        sys.exit(f"perfbench: measured metrics {sorted(set(values) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    info["failed_frac"] = counter.failed / max(1, counter.attempted)
    print(json.dumps({"env": environment(cores)}))
    print(json.dumps({"info": info}))
    correct = counter.failed == 0 and counter.attempted > 0
    print(json.dumps({"correct": correct, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
