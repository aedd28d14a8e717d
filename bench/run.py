"""End-to-end benchmark of the fcrystals CLI, with an optional traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload motive-batch --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from the seed and written as JSON files
before timing starts.  One client then drives `fcrystals.cli.main` in this
process, in a closed loop (the next call starts when the previous one has
returned), cycling over the inputs until `--seconds` have passed and at
least 100 calls were made.  Every output is checked: the first cycle
against the generator's expectations and independent oracles, every later
cycle byte for byte against the first.  For `--seed 1` the digest of the
first cycle's output must match `bench/expected.json`.

Times are scaled to a reference machine speed.  The shared machines this
runs on drift in speed by up to 40%, over seconds to minutes, so a fixed
pure-Python kernel is timed after every call and around every set-up, and
each time is multiplied by REFERENCE_KERNEL_S / (the mean of the kernel
timings on either side of it).  The unscaled figures are printed as well.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced cycles and reports per-layer counts and self times for
one cycle (see layers.py), plus the traced/untraced wall-time ratio.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit status is 0 when
every check passed, 1 when one failed, and 2 when the program under test
cannot be found or the arguments are wrong (no result line then).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("motive-batch", "crystal-galois", "picard-lattice")
DIGEST_SEED = 1
SETUP_REPEATS = 5
MIN_CALLS = 100
# about the calibration kernel's time on the 2-CPU Xeon the bounds were set on
REFERENCE_KERNEL_S = 0.001


class _Elem:
    __slots__ = ("m", "c")

    def __init__(self, m: int, c: tuple[int, ...]):
        self.m, self.c = m, c

    def mul(self, other: "_Elem") -> "_Elem":
        return _Elem(self.m, tuple((x * y) % self.m for x, y in zip(self.c, other.c)))

    def add(self, other: "_Elem") -> "_Elem":
        return _Elem(self.m, tuple((x + y) % self.m for x, y in zip(self.c, other.c)))


def _kernel() -> int:
    """Stand-ins for the two kinds of work fcrystals does: immutable element
    objects with modular tuple arithmetic, and products of integer
    list-of-lists matrices.  Its time tracks the program's speed changes far
    better than a plain arithmetic loop does."""
    m = 5**13
    x, acc = _Elem(m, (3, 5, 7)), _Elem(m, (1, 1, 1))
    for _ in range(150):
        acc = acc.add(acc.mul(x))
    a = [[(i * j + 1) % 7 - 3 for j in range(12)] for i in range(12)]
    b = [[u - v for u, v in zip(row, a[0])] for row in a]
    return acc.c[0] + sum(sum(u * v for u, v in zip(ra, rb)) for ra in a for rb in b)


def kernel_seconds() -> float:
    """One timing of the kernel, with garbage collection held off so that a
    collection of the program's garbage is not charged to it."""
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def import_fresh():
    """Import fcrystals.cli from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "fcrystals" or n.startswith("fcrystals.")]:
        del sys.modules[name]
    return importlib.import_module("fcrystals.cli")


def invoke(cli, argv: list[str]) -> tuple[int, str, float, str]:
    """Run one CLI call in-process; return (exit status, stdout, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped exception is a failed call, not a crash of the benchmark
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed, err.getvalue()


def generate(workload: str, seed: int, cli, work: Path) -> list[workloads.Call]:
    if workload == "motive-batch":
        spec_path = work / "assemble-in.json"

        def assemble(doc: dict) -> dict:
            spec_path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, _, err = invoke(cli, ["motive-assemble", "--in", os.path.relpath(spec_path)])
            if code != 0:
                raise RuntimeError(f"motive-assemble exited {code} on a generated document: {err}")
            return json.loads(out)["module"]

        return workloads.motive_batch(seed, assemble)
    if workload == "crystal-galois":
        return workloads.crystal_galois(seed)
    return workloads.picard_lattice(seed)


def write_inputs(calls: list[workloads.Call], work: Path) -> list[list[str]]:
    argvs = []
    for k, call in enumerate(calls):
        argv = [call.verb]
        if call.ring is not None:
            path = work / f"c{k:03d}-ring.json"
            path.write_text(json.dumps(call.ring), encoding="utf-8")
            argv += ["--ring", os.path.relpath(path)]
        for d, doc in enumerate(call.docs):
            path = work / f"c{k:03d}-{d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv += ["--in", os.path.relpath(path)]
        argvs.append(argv)
    return argvs


def set_up(workload: str, seed: int, work: Path):
    """Import, generate and write the inputs, then warm each verb up once."""
    start = perf_counter()
    cli = import_fresh()
    calls = generate(workload, seed, cli, work)
    argvs = write_inputs(calls, work)
    seen = set()
    for call, argv in zip(calls, argvs):
        if call.verb not in seen:
            seen.add(call.verb)
            invoke(cli, argv)
    return perf_counter() - start, cli, calls, argvs


def call_digest(argv: list[str], result) -> str:
    code, out = result[:2]
    return hashlib.sha256(f"{' '.join(argv)}\n{code}\n{out}".encode("utf-8")).hexdigest()


def digest(argvs, results) -> str:
    """sha256 over every call's arguments, exit status and output, in order."""
    return hashlib.sha256("".join(call_digest(a, r) for a, r in zip(argvs, results)).encode()).hexdigest()


class Loop:
    """Runs whole cycles over the inputs and keeps what the checks need: the
    first cycle's outputs, and for every call whether it repeated them."""

    def __init__(self, cli, calls, argvs):
        self.cli, self.calls, self.argvs = cli, calls, argvs
        self.first = None
        self.cycles: list[list[float]] = []  # scaled call times
        self.raw: list[list[float]] = []  # unscaled call times
        self.mismatches: list[set[int]] = []  # per cycle: calls whose output differs from cycle 1
        self.digests: list[str] = []
        self._kernel = kernel_seconds()

    def cycle(self) -> float:
        """Run every call once; return the cycle's scaled call time.  Each
        call is scaled by the kernel timings taken just before and after it."""
        results, scaled = [], []
        for argv in self.argvs:
            results.append(invoke(self.cli, argv))
            before, self._kernel = self._kernel, kernel_seconds()
            scaled.append(results[-1][2] * 2 * REFERENCE_KERNEL_S / (before + self._kernel))
        if self.first is None:
            self.first = results
        self.mismatches.append(
            {k for k, (r, r0) in enumerate(zip(results, self.first)) if r[:2] != r0[:2]}
        )
        self.digests.append(digest(self.argvs, results))
        self.cycles.append(scaled)
        self.raw.append([r[2] for r in results])
        return sum(scaled)

    @property
    def calls_made(self) -> int:
        return sum(len(c) for c in self.cycles)

    def check_first(self) -> dict[int, str]:
        bad = {}
        for k, (call, argv, (code, out, _, err)) in enumerate(zip(self.calls, self.argvs, self.first)):
            paths = [argv[i + 1] for i, a in enumerate(argv) if a == "--in"]
            try:
                reason = workloads.check(call, code, out, paths)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"output has an unexpected shape: {exc!r}"
            if reason and err.strip():
                reason += f"; stderr: {err.strip().splitlines()[-1]}"
            if reason:
                bad[k] = reason
        return bad

    def failed(self, bad: dict[int, str]) -> int:
        """Calls that failed a check; a wrong first output fails every cycle."""
        return sum(len(m | bad.keys()) for m in self.mismatches)


def run_untraced(loop: Loop, seconds: float) -> None:
    start = perf_counter()
    while True:
        loop.cycle()
        if perf_counter() - start >= seconds and loop.calls_made >= MIN_CALLS:
            return


def run_traced(loop: Loop, seconds: float, spans_path: Path):
    """Alternate untraced and traced cycles; return the per-layer metrics, a
    list of failed self-checks and the number of traced cycles."""
    tracer = layers.Tracer()
    plain, traced, summaries, problems = [], [], [], []
    start = perf_counter()
    while True:
        plain.append(loop.cycle())
        tracer.reset()
        tracer.install()
        try:
            traced.append(loop.cycle())
        finally:
            leftovers = tracer.uninstall()
        if leftovers:
            problems.append(f"names not restored after tracing: {leftovers}")
        if loop.digests[-1] != loop.digests[0]:
            problems.append("traced output digest differs from the untraced one")
        calls, self_s, work = tracer.summary()
        scale = traced[-1] / sum(loop.raw[-1])
        summaries.append((calls, Counter({k: v * scale for k, v in self_s.items()}), work))
        if perf_counter() - start >= seconds and len(summaries) >= 2:
            break
    tracer.write_spans(spans_path)
    calls0, _, work0 = summaries[0]
    for calls, _, work in summaries[1:]:
        if calls != calls0 or work != work0:
            problems.append("span counts differ between traced cycles")
            break
    docs = sum(len(c.docs) for c in loop.calls)
    per_cycle = [layers.layer_metrics(c, s, w, docs) for c, s, w in summaries]
    metrics = {}
    for name, unit, kind, _ in layers.METRICS:
        values = [m[name] for m in per_cycle]
        metrics[name] = (statistics.median(values) if kind == "self_s" else values[0], unit)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics, problems, len(summaries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fcrystals" / "cli.py").is_file():
        print(f"fcrystals sources not found under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # input paths are relative, so outputs do not depend on the checkout location
    sys.path.insert(0, str(src))
    work = Path(".bench_work") / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = statistics.median(kernel_seconds() for _ in range(3))
            seconds, cli, calls, argvs = set_up(args.workload, args.seed, work)
            after = statistics.median(kernel_seconds() for _ in range(3))
            raw_setups.append(seconds)
            setups.append(seconds * 2 * REFERENCE_KERNEL_S / (before + after))
        if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
            print(f"imported fcrystals from {cli.__file__}, not from {src}", file=sys.stderr)
            return 2
        loop = Loop(cli, calls, argvs)
        problems = []
        if args.trace:
            spans_path = Path(".bench_work") / f"spans-{args.workload}-seed{args.seed}.tsv"
            metrics, problems, traced_cycles = run_traced(loop, args.seconds, spans_path)
        else:
            run_untraced(loop, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = loop.check_first()
    first_digest = loop.digests[0]
    if args.seed == DIGEST_SEED:
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
        if recorded["sha256"].get(args.workload) != first_digest:
            problems.append(f"output sha256 {first_digest} != recorded {recorded['sha256'].get(args.workload)}")
            per_call = recorded["calls"].get(args.workload, [])
            for k, (argv, result) in enumerate(zip(argvs, loop.first)):
                if k >= len(per_call) or call_digest(argv, result) != per_call[k]:
                    bad.setdefault(k, "output differs from the recorded bytes")
    for k, reason in sorted(bad.items()):
        problems.append(f"call {k} ({calls[k].verb}): {reason}")
    mismatched = sum(len(m) for m in loop.mismatches)
    if mismatched:
        problems.append(f"{mismatched} calls did not repeat their first-cycle output")
    attempted = loop.calls_made
    failed = loop.failed(bad)
    docs_per_cycle = sum(len(c.docs) for c in calls)

    print(f"workload {args.workload}, seed {args.seed}: {len(calls)} calls and {docs_per_cycle} documents per cycle")
    print(f"output sha256 (first cycle) {first_digest}")
    print(f"error_ratio {failed / attempted:.6f} ({failed} of {attempted} calls failed a check)")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    if args.trace:
        print(f"per-layer figures for one cycle; self times are medians of {traced_cycles} traced cycles")
    else:
        durations = [d for cyc in loop.cycles for d in cyc]
        metrics = {
            "docs_per_s": (statistics.median(docs_per_cycle / sum(cyc) for cyc in loop.cycles), "1/s"),
            "call_p50_ms": (1e3 * statistics.median(durations), "ms"),
            "call_p90_ms": (1e3 * statistics.quantiles(durations, n=10)[8], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw = [d for cyc in loop.raw for d in cyc]
        print(
            f"docs_per_s is the median of {len(loop.cycles)} cycles, call times are {len(durations)} samples, "
            f"setup_s is the median of {SETUP_REPEATS} set-ups"
        )
        print(
            f"unscaled: docs_per_s {statistics.median(docs_per_cycle / sum(c) for c in loop.raw):.6g}, "
            f"call_p50_ms {1e3 * statistics.median(raw):.6g}, "
            f"call_p90_ms {1e3 * statistics.quantiles(raw, n=10)[8]:.6g}, "
            f"setup_s {statistics.median(raw_setups):.6g}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
