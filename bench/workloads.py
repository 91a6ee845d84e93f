"""The four benchmark workloads: codes, seeded inputs, timed steps, oracles.

Each workload is a closed loop with one caller: an op starts after the
previous one has returned and been checked.  Inputs come from
`random.Random` keyed by the workload name and the seed; the library
only ever sees the generated words.

A workload provides

- `build()`: its codes, from spec strings through `codespec.build`
  (plus a `StandardArray` for Monte Carlo); this is what `setup_s` times;
- `ops(seed)`: the endless, deterministic stream of op descriptions, of
  which a run takes the first `pool_len` as its pool;
- `step(codes, op)`: the library calls of one op, timed, and nothing
  else, so that a traced step holds only library work;
- `judge(codes, op, result, tally)`: the oracle, run once per pool op;
- `outcome(result)`: what a repeated step must reproduce exactly;
- `finish(codes, seed, tally)`: checks over the whole pool;
- `sample(op, result)` and `summary(pool, samples)`: the timings a pass
  keeps, and from them the workload's own named metrics and the generic
  ones of BENCHMARK.json;
- `traced_ops(seed)`, `units(op)`, `kind(op)`: the ops a traced run
  replays, how many words or trials each is, and its kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from blockfec import channel, cli, codespec
from blockfec.linear import StandardArray

SRC = Path(__file__).resolve().parent.parent / "src"

GF8 = "GF(2^3)[1,1,0,1]"
GF16 = "GF(2^4)[1,1,0,0,1]"
RS255 = "rs:field=GF(2^8)[1,0,1,1,1,0,0,0,1],n=255,k=223"
INTERLEAVED = f"interleaved:depth=4,base={{rs:field={GF8},n=7,k=5}}"
PRODUCT = f"product:outer={{rs:field={GF8},n=7,k=3}},inner={{rs:field={GF8},n=7,k=5}}"
GOLAY24 = "golay24"
BCH15 = f"bch:field={GF16},sub=2,d=7"
RS10_PGZ = f"rs:field={GF16},n=15,k=9,shorten=5,decoder=pgz"
HAMMING15 = "hamming:r=4"
CLI_CODE = f"rs:field={GF16},n=15,k=9,shorten=5"  # the README's decode example
CLI_ERASURES = (4, 7)

MC_P = 0.05
MC_T = 3          # Golay24, BCH(15,5) and RS(10,4) all decode up to 3 errors
MC_Z_GATE = 5.0   # see README.md: a 3-sigma gate would fail runs by chance
MC_Z_WARN = 3.0
PROBLEMS_KEPT = 20


# Timed calls are measured in CPU time of this process.  The library is
# single-threaded and does no I/O, so on an idle machine this is its wall
# time; on a shared VM it leaves out the intervals the vCPU was taken away,
# which otherwise make up the p99.  A child process is timed by its own CPU
# time.  If the library ever works on other threads or processes, time in
# wall clock instead.
clock = time.process_time_ns


@dataclass
class Tally:
    """Verdicts of the pool's ops, judged once each: the same for every
    run with one seed."""

    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    verdicts: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    state: dict = field(default_factory=dict)   # a workload's whole-pool data

    def add(self, counts: dict, problem=None, known=False):
        """Verdicts of one op, as {verdict: words or trials}."""
        for verdict, units in counts.items():
            self.attempted += units
            self.verdicts[verdict] += units
        failed = counts.get("failed", 0)
        self.failed += failed
        if known:
            self.known_defects += failed
        elif failed:
            self.problem(problem)

    def one(self, verdict, problem=None, known=False):
        self.add({verdict: 1}, problem, known)

    def fail_run(self, units, problem):
        """Ops already counted that a whole-run check found wrong."""
        self.failed += units
        self.problem(problem)

    def problem(self, text):
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append(text)

    @property
    def unexpected(self) -> int:
        return self.failed - self.known_defects


def op_time(xs):
    """One op's time over the timed passes: their 90th percentile.  The
    host runs at two speeds: a common one, and stretches of seconds to
    minutes up to 40% faster that some runs get and others do not.  A
    high percentile follows the common speed unless nearly all of a run
    is fast; the median and lower quantiles follow the share of fast
    stretches a run happened to get.  With ten passes it is about the
    second-slowest time, so one disturbed pass does not set it."""
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def rate(pairs):
    """Units per second of (units, ns) pairs."""
    return sum(u for u, _ in pairs) / (sum(ns for _, ns in pairs) * 1e-9)


def latency(ms):
    """(p50, tail, tail percentile) of op times.  The tail is the highest
    percentile with at least ten samples beyond it, capped at p99."""
    xs = sorted(ms)
    n = len(xs)
    q = min(99.0, 100.0 * (n - 10) / n) if n > 10 else 100.0
    return statistics.median(xs), xs[max(1, math.ceil(q / 100.0 * n)) - 1], q


class Workload:
    name = ""
    pool_len = tiny_pool_len = 0
    tiny = False
    notes: tuple = ()      # known defects the workload keeps visible

    def traced_ops(self, seed):
        return self.ops(seed)

    def finish(self, codes, seed, tally):
        return {}

    def units(self, op):
        return 1

    def kind(self, op):
        return op.code


# -- decode workloads: rs255, burst_gf8 ----------------------------------------

@dataclass(frozen=True)
class WordOp:
    code: str
    msg: tuple
    error: tuple       # added symbol by symbol (XOR: every field is GF(2^m))
    erasures: tuple
    within: bool       # inside the decoder's guaranteed capability


def _word_error(rng, n, q, errors, erasures):
    positions = rng.sample(range(n), errors + erasures)
    err = [0] * n
    for p in positions[:errors]:
        err[p] = rng.randrange(1, q)
    for p in positions[errors:]:
        err[p] = rng.randrange(q)   # an erased symbol may hold anything
    return tuple(err), tuple(sorted(positions[errors:]))


class DecodeWorkload(Workload):
    """Encode a seeded message, add a seeded error pattern, decode."""

    specs: dict = {}
    payload_bits: dict = {}

    def build(self):
        codes = {key: codespec.build(spec) for key, spec in self.specs.items()}
        for built in codes.values():
            if built.field.p != 2:
                raise ValueError("the channel adds errors by XOR: GF(2^m) only")
        return codes

    def step(self, codes, op):
        built = codes[op.code]
        try:
            t0 = clock()
            sent = built.encode(op.msg)
            t1 = clock()
            received = tuple(c ^ e for c, e in zip(sent, op.error))
            t2 = clock()
            out = built.decode(received, op.erasures)
            t3 = clock()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            return {"error": repr(exc)}
        return {"sent": sent, "out": out, "encode_ns": t1 - t0, "decode_ns": t3 - t2,
                "ns": t1 - t0 + t3 - t2}

    def judge(self, codes, op, result, tally):
        label = f"{op.code} op (within={op.within})"
        if "error" in result:
            tally.one("failed", problem=f"{label} raised {result['error']}")
            return
        sent, out = result["sent"], result["out"]
        if not out.corrected:
            if op.within:
                tally.one("failed", problem=f"{label}: uncorrectable within capability")
            else:
                tally.one("uncorrectable")
            return
        codeword = tuple(out.codeword)
        if codeword == sent:
            if tuple(out.info) != op.msg:
                tally.one("failed", problem=f"{label}: right codeword, wrong info")
            else:
                tally.one("corrected")
            return
        if op.within:
            tally.one("failed", problem=f"{label}: wrong codeword within capability")
            return
        if tuple(codes[op.code].encode(out.info)) != codeword:
            # ProductCode.decode can emit a non-codeword beyond capability
            # (stage 2 corrects columns without re-checking rows)
            tally.one("failed", problem=f"{label}: emitted a non-codeword",
                      known=op.code == "product")
            return
        tally.one("miscorrected")

    def outcome(self, result):
        if "error" in result:
            return result["error"]
        out = result["out"]
        return (out.verdict, out.codeword and tuple(out.codeword),
                out.info and tuple(out.info))

    def summary(self, pool, samples):
        # per pool word: (code, encode ns, decode ns), each over the passes
        words = [(op.code, op_time([enc for enc, _ in xs]), op_time([dec for _, dec in xs]))
                 for op, xs in zip(pool, samples) if xs]
        bits = self.payload_bits
        decode = rate([(1, dec) for _, _, dec in words])
        p50, tail, q = latency([dec * 1e-6 for _, _, dec in words])
        named = {
            "decode_words_per_s": (decode, "1/s"),
            "decode_payload_bytes_per_s":
                (rate([(bits[code] / 8, dec) for code, _, dec in words]), "B/s"),
            "decode_us_p50": (p50 * 1e3, "us"),
            "decode_us_p99": (tail * 1e3, "us"),
            "encode_words_per_s": (rate([(1, enc) for _, enc, _ in words]), "1/s"),
        }
        generic = {
            "ops_per_s": decode,
            "payload_bytes_per_s": named["decode_payload_bytes_per_s"][0],
            "op_ms_p50": p50,
            "op_ms_tail": tail,
            "aux_ops_per_s": named["encode_words_per_s"][0],
        }
        return named, generic, {"decode_samples": sum(map(len, samples)),
                                "tail_percentile": q}

    def sample(self, op, result):
        return result["encode_ns"], result["decode_ns"]


class RS255(DecodeWorkload):
    name = "rs255"
    pool_len, tiny_pool_len = 256, 6
    specs = {"rs255": RS255}
    payload_bits = {"rs255": 223 * 8}

    def ops(self, seed):
        """In every ten words: one clean, six with errors only, two with
        errors and erasures, one beyond the radius.  Error and erasure
        counts cycle, so every pool has the same mix; messages, positions
        and values come from the seed."""
        rng = random.Random(f"rs255:{seed}")
        n, k, nk, q = 255, 223, 32, 256
        for i in itertools.count():
            msg = tuple(rng.randrange(q) for _ in range(k))
            slot, j = i % 10, i // 10
            if slot == 0:                        # clean
                e, s = 0, 0
            elif slot < 7:                       # errors only, 1..16
                e, s = (6 * j + slot - 1) % (nk // 2) + 1, 0
            elif slot < 9:                       # errors and erasures, 2e + s <= n - k
                s = (2 * j + slot - 7) % nk + 1
                e = rng.randint(0, (nk - s) // 2)
            else:                                # beyond the decoding radius, 17..24
                e, s = nk // 2 + 1 + j % 8, 0
            err, erasures = _word_error(rng, n, q, e, s)
            yield WordOp("rs255", msg, err, erasures, 2 * e + s <= nk)


class BurstGF8(DecodeWorkload):
    name = "burst_gf8"
    pool_len, tiny_pool_len = 3000, 60
    specs = {"interleaved": INTERLEAVED, "product": PRODUCT}
    # k symbols of 3 bits: 4 x 5 interleaved, 3 x 5 product
    payload_bits = {"interleaved": 20 * 3, "product": 15 * 3}
    # (length, k, longest burst within guaranteed capability, longest burst)
    shapes = {"interleaved": (28, 20, 4, 12), "product": (49, 15, 8, 21)}
    notes = ("ProductCode.decode can emit a non-codeword beyond capability (stage 2 "
             "corrects columns without re-checking rows); such ops count as failed "
             "and as known_defects.  The beyond-capability product words are the "
             "same in every run, so that count is the same on every seed",)

    def ops(self, seed):
        """Of each code's words, in every ten: one clean, eight bursts within
        guaranteed capability, one beyond it.  The beyond-capability product
        words, the only ones the known defect can fail, come from one stream
        for every seed."""
        rng = random.Random(f"burst_gf8:{seed}")
        fixed = random.Random("burst_gf8:beyond-capability-product")
        made = Counter()
        i = 0
        while True:
            # two interleaved words per product word keeps the median
            # latency inside one mode of the two-mode distribution
            key = "product" if i % 3 == 2 else "interleaved"
            n, k, within, longest = self.shapes[key]
            slot = made[key] % 10
            made[key] += 1
            src = fixed if key == "product" and slot == 9 else rng
            msg = tuple(src.randrange(8) for _ in range(k))
            if slot == 0:
                length = 0
            elif slot < 9:
                length = src.randint(1, within)
            else:
                length = src.randint(within + 1, longest)
            err = [0] * n
            if length:
                start = src.randrange(n)
                values = [src.randrange(1, 8)]
                if length > 1:
                    values += [src.randrange(8) for _ in range(length - 2)]
                    values.append(src.randrange(1, 8))
                for j, v in enumerate(values):
                    err[(start + j) % n] = v        # cyclic burst
            yield WordOp(key, msg, tuple(err), (), length <= within)
            i += 1


# -- montecarlo -----------------------------------------------------------------

@dataclass(frozen=True)
class McOp:
    round: int
    code: str
    trials: int
    key: int


class MonteCarlo(Workload):
    """`channel.monte_carlo` at p = 0.05, round-robin over three codes on
    the per-trial loop path and one on the standard-array path."""

    name = "montecarlo"
    pool_len, tiny_pool_len = 4 * 32, 4 * 2   # ops = monte_carlo calls, 4 a round
    loop_codes = ("golay24", "bch15", "rs10")
    chunk, tiny_chunk = 100, 50
    array_chunk, tiny_array_chunk = 1 << 14, 1 << 12
    notes = ("monte_carlo(build('bch:...'), ...) raises SubfieldViolation: BuiltCode "
             "has no `subfield`, so `blockfec simulate` on a bch spec exits 1; the "
             "workload passes the BCHCode itself",)
    # information bits per trial
    payload_bits = {"golay24": 12, "bch15": 5, "rs10": 16}

    def build(self):
        ham = codespec.build(HAMMING15)
        return {
            "golay24": codespec.build(GOLAY24),
            # the BCHCode itself: the BuiltCode wrapper hides `subfield`, so
            # monte_carlo(build("bch:..."), ...) raises SubfieldViolation
            "bch15": codespec.build(BCH15).code,
            "rs10": codespec.build(RS10_PGZ),
            "hamming15": ham.code.code,
            "array": StandardArray(ham.code.code),
        }

    def ops(self, seed):
        chunk = self.tiny_chunk if self.tiny else self.chunk
        array_chunk = self.tiny_array_chunk if self.tiny else self.array_chunk
        r = 0
        while True:
            for name in self.loop_codes + ("hamming15",):
                trials = array_chunk if name == "hamming15" else chunk
                digest = hashlib.blake2b(f"montecarlo:{seed}:{r}:{name}".encode(),
                                         digest_size=8).digest()
                yield McOp(r, name, trials, int.from_bytes(digest, "little"))
            r += 1

    def call(self, codes, op):
        code = codes[op.code]
        decoder = codes["array"] if op.code == "hamming15" else code.decode
        return channel.monte_carlo(code, decoder, MC_P, op.trials, op.key)

    def step(self, codes, op):
        try:
            t0 = clock()
            est = self.call(codes, op)
            t1 = clock()
        except Exception as exc:  # noqa: BLE001
            return {"error": repr(exc)}
        return {"est": est, "ns": t1 - t0}

    def judge(self, codes, op, result, tally):
        if "error" in result:
            tally.add({"failed": op.trials},
                      problem=f"{op.code} monte_carlo raised {result['error']}")
            return
        est = result["est"]
        n_err = round(est["P_err_hat"] * op.trials)
        n_det = round(est["P_det_hat"] * op.trials)
        agg = tally.state.setdefault("agg", {}).setdefault(op.code, Counter())
        agg["trials"] += op.trials
        agg["err"] += n_err
        agg["det"] += n_det
        # per trial: decoded to the sent word, to another word, or detected
        tally.add({"corrected": op.trials - n_err - n_det, "miscorrected": n_err,
                   "uncorrectable": n_det})

    def outcome(self, result):
        return result.get("error") or result["est"]

    def finish(self, codes, seed, tally):
        """z-score checks of each code's pooled estimate."""
        report = {}
        exact_array = channel.event_polynomials(codes["hamming15"], codes["array"])
        for name, agg in sorted(tally.state.get("agg", {}).items()):
            trials = agg["trials"]
            est = (agg["err"] + agg["det"]) / trials
            if name == "hamming15":
                expected = float(exact_array["P_err"](MC_P) + exact_array["P_det"](MC_P))
            else:
                expected = channel.perr_bound(codes[name].n, MC_T, MC_P)
            sigma = math.sqrt(expected * (1 - expected) / trials)
            z = (est - expected) / sigma
            report[name] = {"trials": trials, "estimate": est, "expected": expected,
                            "z": z, "warning": abs(z) > MC_Z_WARN}
            if abs(z) > MC_Z_GATE:
                tally.fail_run(trials, f"{name}: P_err+P_det={est:.6g} is {z:.1f} sigma "
                                       f"from {expected:.6g}")
        return {"mc_checks": report}

    def summary(self, pool, samples):
        """Latency is per round of the three loop-path calls, which keeps
        it to one mode; rates are per trial."""
        calls = [(op, op_time(xs)) for op, xs in zip(pool, samples) if xs]
        loop = [(op.trials, ns) for op, ns in calls if op.code != "hamming15"]
        arr = [(op.trials, ns) for op, ns in calls if op.code == "hamming15"]
        rounds = Counter()
        for op, ns in calls:
            if op.code != "hamming15":
                rounds[op.round] += ns
        p50, tail, q = latency([ns * 1e-6 for ns in rounds.values()])
        bits = [(self.payload_bits[op.code] * op.trials / 8, ns)
                for op, ns in calls if op.code != "hamming15"]
        named = {
            "mc_loop_trials_per_s": (rate(loop), "1/s"),
            "mc_array_trials_per_s": (rate(arr), "1/s"),
            "mc_round_ms_p50": (p50, "ms"),
        }
        generic = {
            "ops_per_s": named["mc_loop_trials_per_s"][0],
            "payload_bytes_per_s": rate(bits),
            "op_ms_p50": p50,
            "op_ms_tail": tail,
            "aux_ops_per_s": named["mc_array_trials_per_s"][0],
        }
        return named, generic, {"loop_calls": len(loop), "rounds": len(rounds),
                                "loop_trials": sum(t for t, _ in loop),
                                "array_trials": sum(t for t, _ in arr),
                                "tail_percentile": q}

    def sample(self, op, result):
        return result["ns"]

    def units(self, op):
        return 0 if op.code == "hamming15" else op.trials

    def kind(self, op):
        return "mc_array" if op.code == "hamming15" else "mc_loop"


# -- cli_decode -----------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    argv: tuple
    expected: str      # the codeword line `decode --format record` must print
    child: bool        # a cold `python -m blockfec.cli` process, else cli.main


def children_cpu_ns() -> int:
    """User plus system CPU time of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliDecode(Workload):
    """Cold `python -m blockfec.cli decode` processes, one at a time, each
    followed by warm in-process `cli.main` calls on the same word."""

    name = "cli_decode"
    pool_len, tiny_pool_len = 6 * 9, 2 * 3     # words of a child + 8 main calls
    mains_per_child, tiny_mains_per_child = 8, 2

    def build(self):
        return {"rs": codespec.build(CLI_CODE)}

    def _words(self, seed):
        built = codespec.build(CLI_CODE)
        fld = built.field
        rng = random.Random(f"cli_decode:{seed}")
        while True:
            msg = tuple(rng.randrange(fld.q) for _ in range(built.k))
            sent = built.encode(msg)
            word = list(sent)
            for p in CLI_ERASURES:
                word[p] = rng.randrange(fld.q)
            others = [p for p in range(built.n) if p not in CLI_ERASURES]
            for p in rng.sample(others, rng.randint(0, 2)):   # 2e + s <= 6
                word[p] ^= rng.randrange(1, fld.q)
            argv = ("decode", "--code", CLI_CODE,
                    "--received", ",".join(fld.format_element(x, "vector") for x in word),
                    "--erasures", ",".join(map(str, CLI_ERASURES)),
                    "--format", "record")
            yield argv, "codeword=" + ",".join(fld.format_element(x) for x in sent)

    def ops(self, seed):
        mains = self.tiny_mains_per_child if self.tiny else self.mains_per_child
        for argv, expected in self._words(seed):
            yield CliOp(argv, expected, True)
            for _ in range(mains):
                yield CliOp(argv, expected, False)

    def traced_ops(self, seed):
        return (op for op in self.ops(seed) if not op.child)

    def step(self, codes, op):
        try:
            if op.child:
                before = children_cpu_ns()
                proc = subprocess.run([sys.executable, "-m", "blockfec.cli", *op.argv],
                                      capture_output=True, text=True, env=child_env(),
                                      cwd=SRC.parent, timeout=120)
                return {"rc": proc.returncode, "stdout": proc.stdout,
                        "ns": children_cpu_ns() - before}
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = clock()
                rc = cli.main(list(op.argv))
                t1 = clock()
            return {"rc": rc, "stdout": buf.getvalue(), "ns": t1 - t0}
        except Exception as exc:  # noqa: BLE001
            return {"error": repr(exc)}

    def outcome(self, result):
        return result.get("error") or (result["rc"], result["stdout"])

    def judge(self, codes, op, result, tally):
        where = "child" if op.child else "cli.main"
        if "error" in result:
            tally.one("failed", problem=f"{where} raised {result['error']}")
        elif result["rc"] != 0:
            tally.one("failed", problem=f"{where} exited {result['rc']}")
        elif op.expected not in result["stdout"].splitlines():
            tally.one("failed", problem=f"{where} printed no {op.expected!r}")
        else:
            tally.one("corrected")

    def summary(self, pool, samples):
        """Rates take each op's time over the passes.  A pool of six
        processes has no tail, so p50 and tail are over every process of
        the run."""
        child = [op_time(xs) for op, xs in zip(pool, samples) if op.child and xs]
        main = [op_time(xs) for op, xs in zip(pool, samples) if not op.child and xs]
        runs = [ns for op, xs in zip(pool, samples) if op.child for ns in xs]
        p50, tail, q = latency([ns * 1e-6 for ns in runs])
        payload = 4 * 4 / 8          # k = 4 symbols of GF(16) per decode
        named = {
            "cli_ms_p50": (p50, "ms"),
            "cli_ms_tail": (tail, "ms"),
        }
        generic = {
            "ops_per_s": rate([(1, ns) for ns in child]),
            "payload_bytes_per_s": rate([(payload, ns) for ns in child]),
            "op_ms_p50": p50,
            "op_ms_tail": tail,
            "aux_ops_per_s": rate([(1, ns) for ns in main]),
        }
        return named, generic, {"cli_processes": len(runs),
                                "main_calls": sum(len(xs) for op, xs in zip(pool, samples)
                                                  if not op.child),
                                "tail_percentile": q}

    def sample(self, op, result):
        return result["ns"]

    def kind(self, op):
        return "cli_child" if op.child else "cli_main"


def import_ms(reps):
    """Median time of `import blockfec.cli` in fresh processes."""
    code = ("import time; t = time.process_time(); import blockfec.cli; "
            "print(time.process_time() - t)")
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), cwd=SRC.parent, timeout=120, check=True)
        times.append(float(out.stdout.strip()) * 1e3)
    return statistics.median(times)


WORKLOADS = {w.name: w for w in (RS255(), BurstGF8(), MonteCarlo(), CliDecode())}
