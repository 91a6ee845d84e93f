"""Planted faults that the tier-1 tests must kill.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant replaces one piece of text, which must occur exactly once,
in one file of the package.  The script copies src/, tests/,
pyproject.toml and README.md (test_cli.py reads its commands) into a
temporary directory, applies each mutant there in turn and runs
`pytest -x -q` on the mutant's test selection, one process at a time.  A mutant is killed when pytest reports a failure.  It never
writes to the checkout.  The exit status is 1 if a mutant survives or
no longer applies.

Pytest does not collect this file: its name does not start with test_.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RS = "src/blockfec/reed_solomon.py"
LINEAR = "src/blockfec/linear.py"
GALOIS = "src/blockfec/galois.py"
CODESPEC = "src/blockfec/codespec.py"
CLI = "src/blockfec/cli.py"
DIGIT_GROUPS = ["tests/test_galois.py", "-k", "digit_groups"]
RS_BATCH = ["tests/test_reed_solomon.py", "-k", "batch or packed"]
ARRAY = ["tests/test_channel.py", "tests/test_acceptance.py::test_criterion_13_monte_carlo"]
KERNEL = ["tests/test_linear.py", "-k", "packed_map"]

# (name, file, old text, new text, pytest arguments that select the tests)
MUTANTS = [
    # -- the RS batch codec ------------------------------------------------
    ("ribm-growth-kappa>0", RS,
     "grow = (delta[0] < order) & (kappa >= 0)",
     "grow = (delta[0] < order) & (kappa > 0)", RS_BATCH),
    ("root-count-dropped", RS,
     "kept = np.flatnonzero(root.sum(axis=1) == L)",
     "kept = np.arange(len(L))", RS_BATCH),
    ("packed-recheck-dropped", RS,
     "ok[kept] = (check == S.take(kept, axis=0)).all(axis=1)",
     "ok[kept] = True", RS_BATCH),
    ("lane-shift-off-by-one", LINEAR,
     "(m * (np.arange(lanes * per) % per))",
     "(m * (np.arange(lanes * per) % per + 1))", RS_BATCH),
    ("symbol-straddles-lanes", LINEAR,
     "per = 64 // m\n",
     "per = -(-64 // m)\n", RS_BATCH),
    ("forney-exponent-m0", RS,
     "(np.arange(t)[:, None] + code.m0 + nk)",
     "(np.arange(t)[:, None] + code.m0)", RS_BATCH),
    # -- the packed-table kernel and the standard-array codec's maps --------
    ("array-enc-bit-flipped", LINEAR,
     "self.enc = PackedMap(np.array(code.G.rows, dtype=np.uint8)[:, None])\n",
     "self.enc = PackedMap(np.array(code.G.rows, dtype=np.uint8)[:, None])\n"
     "        self.enc.table[0, 0x40, 0] ^= np.uint64(1 << 9)\n", ARRAY),
    ("array-syndrome-bit-flipped", LINEAR,
     ".reshape(n - k, n).T[:, None])\n",
     ".reshape(n - k, n).T[:, None])\n"
     "        self.syndrome.table[0, 0x20, 0] ^= np.uint64(1)\n", ARRAY),
    ("array-unenc-bit-flipped", LINEAR,
     "self.unenc = PackedMap(unencode[:, None])\n",
     "self.unenc = PackedMap(unencode[:, None])\n"
     "        self.unenc.table[0, 0x10, 0] ^= np.uint64(1 << 2)\n", ARRAY),
    ("array-last-partial-byte-dropped", LINEAR,
     "padded[:, :a] = rows",
     "padded[:, :a - a % 8] = rows[:, :a - a % 8]", ARRAY),
    ("array-lane-bytes-swapped", LINEAR,
     "np.unpackbits(lanes.view(np.uint8)",
     "np.unpackbits(lanes.byteswap().view(np.uint8)", ARRAY),
    ("array-single-lane", LINEAR,
     "lanes = max(1, -(-b // per))",
     "lanes = 1", ARRAY),
    ("kernel-doubling-wrong-bit", LINEAR,
     "^ images[:, c, None]",
     "^ images[:, c - 1, None]", KERNEL),
    ("kernel-entries-no-digit-offset", LINEAR,
     "self.flat.take(at * self.size + values, axis=0)",
     "self.flat.take(values, axis=0)", KERNEL),
    ("kernel-symbols-no-shift", LINEAR,
     "(lanes.take(self.lane, axis=1) >> self.shift) & self.mask",
     "lanes.take(self.lane, axis=1) & self.mask", KERNEL),
    ("array-detect-rows-ignored", LINEAR,
     "self.ok[detect], self.leader[detect] = False, 0",
     "pass", ARRAY),
    # -- the standard-array search and the message read ----------------------
    ("patterns-pairs-share-a-position", LINEAR,
     "(at[moved - 1] if moved else n)",
     "(at[moved - 1] + 1 if moved else n)", ["tests/test_linear.py", "-k", "patterns"]),
    ("message-of-always-reads-pivots", LINEAR,
     "return u if self._pivots_are_message else inv.mul_vec(u)",
     "return u", ["tests/test_linear.py", "-k", "message_of"]),
    # -- the warm command-line path ---------------------------------------------
    ("digit-group-not-reversed", GALOIS,
     "return int(text[::-1], self.p)",
     "return int(text, self.p)", DIGIT_GROUPS),
    ("digit-group-bound-dropped", GALOIS,
     "and text.isdigit() and max(text) < str(self.p)):",
     "and text.isdigit()):", DIGIT_GROUPS),
    ("digit-group-any-prime", GALOIS,
     "if (self.p <= 10 and len(text) == self.nu",
     "if (len(text) == self.nu", DIGIT_GROUPS),
    ("code-file-oserror-leaks", CODESPEC,
     "    except OSError as exc:\n",
     "    except LookupError as exc:\n", ["tests/test_cli.py", "-k", "unreadable"]),
    ("spec-field-not-cached", CODESPEC,
     "return GF(p, nu, modulus)",
     "return FiniteField(p, nu, modulus)", ["tests/test_cli.py", "-k", "share_one_field"]),
    ("parser-keeps-last-arguments", CLI,
     "args = ap.parse_args(argv)\n",
     "args = ap.parse_args(argv)\n"
     "        ap._subparsers._group_actions[0].choices[args.command]"
     ".set_defaults(**vars(args))\n", ["tests/test_cli.py", "-k", "one_parser"]),
]


def run(path, old, new, selection, tree):
    """'killed by TEST', 'SURVIVED' or 'STALE (...)' for one mutant."""
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"STALE (the old text occurs {text.count(old)} times)"
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *selection],
                              cwd=tree, env=env, capture_output=True, text=True,
                              timeout=900)
    finally:
        target.write_text(text)
    if done.returncode == 1:
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        return f"killed by {failed.group(1) if failed else '?'}"
    if done.returncode == 0:
        return "SURVIVED"
    return f"STALE (pytest exit {done.returncode})"


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    start, bad = time.monotonic(), 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree)
        for mutant in chosen:
            t0 = time.monotonic()
            verdict = run(*mutant[1:], tree)
            bad += not verdict.startswith("killed")
            print(f"{mutant[0]:34s} {time.monotonic() - t0:6.1f} s  {verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
