#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest sizes (a minute or two).

    python3 bench/selftest.py

Checks that

1. every workload, untraced and traced, ends with a result line that
   names every BENCHMARK.json metric with its unit, and is correct;
2. two runs with one seed agree exactly on their verdict histograms,
   and two traced runs on their per-layer counts and ratios;
3. a planted bad decoder, one that returns the received word as
   "corrected", is reported as failed ops and correct = false, not as a
   speed-up;
4. in a directory that holds only BENCHMARK.json and bench/, run.py
   exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("rs255", "burst_gf8", "montecarlo", "cli_decode")
# per-layer metrics that depend only on the inputs, never on timing
EXACT = (
    "galois.mul_per_word", "galois.add_per_word", "galois.pow_per_word",
    "galois.inv_div_per_word", "poly.alloc_per_word", "poly.eval_per_word",
    "poly.divmod_per_word", "reed_solomon.calls_per_word",
    "reed_solomon.uncorrectable_ratio", "burst.inner_erased_ratio",
)
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(workload, trace, seed=7):
    proc = run(workload, trace, seed)
    if proc.returncode != 0:
        return None, None, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "results" / f"{workload}_seed{seed}_trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return line, record, ""


def check_line(workload, trace, line, spec):
    declared = spec["per_layer" if trace else "end_to_end"]
    what = f"{workload} trace={trace}"
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(line["correct"] is True and line["attempted"] >= 1, f"{what}: correct, attempted >= 1")
    bad = []
    for m in declared:
        got = line["metrics"].get(m["name"], {})
        value = got.get("value")
        if (got.get("unit") != m["unit"] or not isinstance(value, (int, float))
                or value < 0 or (not trace and value == 0)):
            bad.append(f"{m['name']}={value} {got.get('unit')}")
    extra = set(line["metrics"]) - {m["name"] for m in declared}
    check(not bad and not extra,
          f"{what}: all {len(declared)} metrics with their units {bad or ''}{extra or ''}")


def planted_bad_decoder():
    """Patch RS decoding in this process and run tiny untraced workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run as bench_run
    import workloads
    from blockfec.linear import DecodeOutcome, as_received
    from blockfec.reed_solomon import RSCode

    def returns_received(self, word, erasures=()):
        w = as_received(word, erasures)
        return DecodeOutcome("corrected", codeword=w.symbols,
                             info=w.symbols[: self.k_out])

    saved = RSCode.euclid_decode, RSCode.pgz_decode
    RSCode.euclid_decode = RSCode.pgz_decode = returns_received
    try:
        for name in WORKLOADS:
            w = workloads.WORKLOADS[name]
            w.tiny = True
            args = argparse.Namespace(seed=7, seconds=0.5, trace=0, tiny=True)
            tally, _, _, _, correct = bench_run.measure(w, args, workloads)
            check(tally.failed > 0 and not correct,
                  f"{name}: planted bad decoder gives {tally.failed} failed of "
                  f"{tally.attempted}, correct={correct}")
    finally:
        RSCode.euclid_decode, RSCode.pgz_decode = saved


def bare_directory():
    bare = BENCH / "results" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("rs255", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result line")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, rec1, err = result_of(workload, trace)
            check(first is not None, f"{workload} trace={trace}: exit 0 {err}")
            if first is None:
                continue
            check_line(workload, trace, first, spec)
            check(bool(rec1["host"].get("python")) and rec1["host"].get("nproc"),
                  f"{workload} trace={trace}: host record")
            second, rec2, err = result_of(workload, trace)
            if second is None:
                check(False, f"{workload} trace={trace}: second run exit 0 {err}")
                continue
            check(rec1["verdicts"] == rec2["verdicts"]
                  and (first["attempted"], first["failed"])
                  == (second["attempted"], second["failed"]),
                  f"{workload} trace={trace}: same seed, same verdicts {rec1['verdicts']}")
            if trace:
                same = {k: first["metrics"][k]["value"] == second["metrics"][k]["value"]
                        for k in EXACT}
                check(all(same.values()), f"{workload}: same seed, same per-layer counts "
                      f"{[k for k, v in same.items() if not v]}")
    planted_bad_decoder()
    bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
