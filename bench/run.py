#!/usr/bin/env python3
"""blockfec benchmark: one seeded workload per process.

    python3 bench/run.py --workload rs255 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see README.md): rs255, burst_gf8, montecarlo, cli_decode.

A run takes the first ops of the workload's seeded stream as its pool.
--trace 0 times the codes' set-up in fresh processes, runs the pool once
through the oracle, then repeats it in timed passes until --seconds are
up (at least MIN_PASSES) and reports the end-to-end metrics.  --trace 1
runs the pool once untraced and once under `tracer.Tracer` and reports
the per-layer metrics.

Each run writes bench/results/<workload>_seed<n>_trace<t>.json (host,
named metrics, verdict histograms, problems); a traced run also writes
its spans.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics, whose names and units are those
of BENCHMARK.json.  Exit status 0 means the run completed and printed
that line, whatever its verdict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# numpy's BLAS would start a thread per CPU; the benchmark is one caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPS = 9          # set-ups timed, each the first in its process
IMPORT_REPS = 5
MIN_PASSES = 3          # timed passes over the pool, past --seconds if need be
SETUP_CHILD = ("import sys, time, workloads\n"
               "w = workloads.WORKLOADS[sys.argv[1]]\n"
               "t = time.process_time(); w.build(); print(time.process_time() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("rs255", "burst_gf8", "montecarlo", "cli_decode", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the self-test")
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    return env


def setup_in_child(w):
    """CPU seconds to build the workload's codes in a fresh process."""
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, w.name],
                         capture_output=True, text=True, env=child_env(),
                         cwd=ROOT, timeout=120, check=True)
    return float(out.stdout.strip())


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_record(seed):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():     # an exported source tree has none
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "commit": commit}


def pool_of(w, args):
    return list(itertools.islice(w.ops(args.seed), w.tiny_pool_len if args.tiny else w.pool_len))


def measure(w, args, workloads):
    """End-to-end run: set-up, the pool once through the oracle, then
    timed passes over the pool until --seconds are up.  The set-up is
    timed again in a fresh process after each of the first passes, so
    that its samples spread over the run like the passes do; that time
    does not count against --seconds."""
    setup_reps = 1 if args.tiny else SETUP_REPS
    t0 = time.process_time()
    codes = w.build()
    setup = [time.process_time() - t0]
    pool = pool_of(w, args)
    tally = workloads.Tally()
    end = time.perf_counter() + args.seconds
    first = []
    for op in pool:                 # checked once; also the warm-up
        result = w.step(codes, op)
        w.judge(codes, op, result, tally)
        first.append(w.outcome(result))
    checks = w.finish(codes, args.seed, tally)

    samples = [[] for _ in pool]    # per op, one sample per pass
    changed = set()
    passes = cpu_ns = wall_ns = 0
    pass_s = []                     # CPU seconds of each timed pass
    while passes < MIN_PASSES or time.perf_counter() < end:
        pass_ns = 0
        for i, op in enumerate(pool):
            t0 = time.perf_counter_ns()
            result = w.step(codes, op)
            wall_ns += time.perf_counter_ns() - t0
            if w.outcome(result) != first[i]:
                if i not in changed:
                    changed.add(i)
                    tally.fail_run(1, f"pool op {i} ({w.kind(op)}): pass {passes + 1} "
                                      f"returned another result")
            elif "error" not in result:
                samples[i].append(w.sample(op, result))
                pass_ns += result["ns"]
        cpu_ns += pass_ns
        pass_s.append(pass_ns * 1e-9)
        passes += 1
        if len(setup) < setup_reps:
            t0 = time.perf_counter()
            setup.append(setup_in_child(w))
            end += time.perf_counter() - t0
    while len(setup) < setup_reps:
        setup.append(setup_in_child(w))
    named, values, counts = w.summary(pool, samples)
    values["setup_s"] = workloads.op_time(setup)
    values["peak_rss_mb"] = peak_rss_mb(children=w.name == "cli_decode")
    named = {
        "setup_s": (values["setup_s"], "s"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB"),
        **named,
    }
    # timed calls are CPU time; the wall time of the same steps shows how
    # much of the run the host took away
    extra = {"setup_samples_s": setup, "pool_ops": len(pool), "passes": passes, "pass_s": pass_s,
             "samples": counts, "timed_cpu_s": cpu_ns * 1e-9, "steps_wall_s": wall_ns * 1e-9,
             **checks}
    return tally, values, named, extra, tally.unexpected == 0


def traced(w, args, workloads):
    """Per-layer run: the pool untraced, then traced."""
    from blockfec.linear import ReceivedWord
    from blockfec.reed_solomon import euclid_key_equation
    from tracer import Tracer, layer_metrics, write_spans

    size = w.tiny_pool_len if args.tiny else w.pool_len
    ops = list(itertools.islice(w.traced_ops(args.seed), size))
    codes = w.build()
    tally = workloads.Tally()
    plain_ns = 0
    for op in ops:
        result = w.step(codes, op)
        w.judge(codes, op, result, tally)
        plain_ns += result.get("ns", 0)

    tracer = Tracer()
    tracer.install()
    try:
        traced_codes = w.build()
        before = {name: cell[0] for name, cell in tracer.counts.items()}
        results = []
        for i, op in enumerate(ops):
            tracer.op = i
            results.append(w.step(traced_codes, op))
            tracer.op = -1
        counts = {name.rsplit(".", 1)[1]: cell[0] - before[name]
                  for name, cell in tracer.counts.items()}
    finally:
        tracer.uninstall()

    traced_tally = workloads.Tally()
    for op, result in zip(ops, results):
        w.judge(codes, op, result, traced_tally)
    traced_ns = sum(r.get("ns", 0) for r in results)

    # replay RS decode inputs through the public API, untraced
    syndromes_ns = key_equation_ns = 0
    for code, word, erasures, out, solver in tracer.rs_calls:
        rw = word if isinstance(word, ReceivedWord) else ReceivedWord.make(word, erasures)
        t0 = workloads.clock()
        code.syndromes(rw)
        syndromes_ns += workloads.clock() - t0
        if solver == "euclid" and out.key_state is not None:
            nk, t = code.n - code.k, len(rw.erasures)
            t0 = workloads.clock()
            euclid_key_equation(code.field, nk, out.key_state.s_hat, (nk - t) // 2 + t - 1)
            key_equation_ns += workloads.clock() - t0

    kinds = [w.kind(op) for op in ops]
    product = traced_codes.get("product")
    ctx = {
        "units": sum(w.units(op) for op in ops),
        "op_kinds": kinds,
        "array_trials": sum(op.trials for op, k in zip(ops, kinds) if k == "mc_array"),
        "inner_id": id(product.code.inner) if product else 0,
        "builds_per_op": w.name == "cli_decode",
        "syndromes_ns": syndromes_ns,
        "key_equation_ns": key_equation_ns,
        "import_ms": (workloads.import_ms(1 if args.tiny else IMPORT_REPS)
                      if w.name == "cli_decode" else 0.0),
        "overhead_ratio": plain_ns / traced_ns,
    }
    spans = tracer.spans()
    values = layer_metrics(spans, counts, ctx)
    RESULTS.mkdir(parents=True, exist_ok=True)
    write_spans(RESULTS / f"{w.name}_seed{args.seed}_trace1.spans.jsonl.gz", spans,
                {"workload": w.name, "seed": args.seed, "op_kinds": kinds})
    same = traced_tally.verdicts == tally.verdicts
    if not same:
        tally.problem(f"traced verdicts {dict(traced_tally.verdicts)} differ from "
                      f"untraced {dict(tally.verdicts)}")
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.known_defects += traced_tally.known_defects
    tally.problems += traced_tally.problems
    extra = {"field_op_counts": counts, "spans": len(spans),
             "traced_verdicts": dict(traced_tally.verdicts),
             "traced_known_defects": traced_tally.known_defects}
    return tally, values, {}, extra, same and tally.unexpected == 0


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    status = 0
    for name in ("rs255", "burst_gf8", "montecarlo", "cli_decode"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "blockfec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/blockfec or BENCHMARK.json: "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import blockfec
    import workloads

    if Path(blockfec.__file__).resolve().parent != SRC / "blockfec":
        print(f"error: imported blockfec from {blockfec.__file__}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    w.tiny = args.tiny
    started = time.time()
    run = traced if args.trace else measure
    tally, values, named, extra, correct = run(w, args, workloads)

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {"correct": bool(correct), "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}

    for name, (value, unit) in named.items():
        print(f"{w.name:11s} {name:28s} {value:14.6g} {unit}")
    for name, m in metrics.items():
        print(f"{w.name:11s} {name:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{w.name:11s} verdicts {dict(tally.verdicts)}; known defects {tally.known_defects}")
    for problem in tally.problems:
        print(f"{w.name:11s} problem: {problem}")

    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "started": started,
              "wall_s": time.time() - started, "host": host_record(args.seed),
              "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "verdicts": dict(tally.verdicts), "known_defects": tally.known_defects,
              "problems": tally.problems, "notes": list(w.notes), **extra,
              "result": line}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
