#!/usr/bin/env python3
"""The biorthopoly benchmark: four seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload exact-pairing --seed 1 --seconds 30 --trace 0

One client in one process sends its next operation when the previous one
returns (cli-mix starts one child interpreter at a time).  Workloads:

    exact-pairing  check-biortho + expand pipeline, exact, N = 6..13
    exact-family   recurrence pipeline (+ closed forms on q**k data), exact,
                   N = 16..26, no pairing matrix
    float-sweep    exact-pairing's pipeline in float mode, N = 4..22, plus
                   contour checks on every fourth operation
    cli-mix        `python -m biorthopoly <subcommand>` per operation

Input i is generated from (workload, seed, i) and checked against references
computed by independent routes (bench/reference.py); both happen outside the
timed operation.  Operation and warm-up times are scaled by samples of a
fixed yardstick taken between operations (bench/yardstick.py), which cancels
the drift of the machine's speed; raw times stay in the report.  With
--trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 every input runs once untraced and once traced, in alternating
order, and the last line holds the per-layer metrics.  Per-layer
times and counts are per traced operation.  The line before the last is a
full report: provenance, sample counts, the digest of exact outputs, float
accuracy and within-run noise.  The same report, and in traced runs every
span, is written under .bench_out/.

Exit status 0 when a result was printed (its "correct" field says whether
every operation passed its checks); 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("exact-pairing", "exact-family", "float-sweep", "cli-mix")
WARMUPS = 5
# Fresh interpreters whose median import time is set-up's import part.
IMPORTS = 5
# Inputs made, and outputs checked, per batch of operations.
BATCH = 8
# Exact outputs of the first DIGEST_OPS operations are digested, so runs of
# one seed share a digest whatever their length.
DIGEST_OPS = 40

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = (
    "divided_differences.divided_differences_recursive",
    "interpolation.monic_family",
    "interpolation.family_from_recurrence",
    "biorthogonality.build_system",
    "biorthogonality.biorthogonality_matrix",
    "biorthogonality.expand_in_interpolants",
    "exponential.closed_forms",
    "contour.hermite_divided_difference",
    "contour.contour_biortho_check",
    "cli.main",
)
PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in LAYERS
       for field, unit in (("calls", "count/op"), ("self_ms", "ms/op"), ("share", "frac"))},
    "biorthogonality.pairings": "count/op",
    "contour.integrand_evals": "count/op",
    "interpolation.coeff_bits_max": "bits",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.startup.share": "frac",
    "bench.op.self_ms": "ms/op",
    "bench.verify.self_ms": "ms/op",
    "trace_overhead_frac": "frac",
    "float_relerr_max": "rel",
    "float_check_fail_frac": "frac",
}


def plain_call(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory: (span id, parent id, operation, name, start, end).

    A layer span's parent is the operation's root span; layer calls are not
    nested, so a layer's self time is its span's duration.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.root = None
        self.op = None
        self.start = 0.0

    def begin(self, op: int) -> None:
        self.op, self.root = op, len(self.spans)
        self.spans.append(None)  # the root span, completed by end()
        self.start = time.perf_counter()

    def end(self) -> None:
        self.spans[self.root] = (self.root, None, self.op, "op", self.start,
                                 time.perf_counter())

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((len(self.spans), self.root, self.op, name, start,
                               time.perf_counter()))


def load_workload(name: str, seed: int):
    """Import the workload's module (and so the library) and build it."""
    if name == "cli-mix":
        import climix
        return climix.CliMix(seed, ROOT)
    import inprocess
    return inprocess.WORKLOADS[name](seed)


def import_seconds(name: str) -> float:
    """Seconds a fresh interpreter takes to import the workload's module,
    and so the library."""
    module = "climix" if name == "cli-mix" else "inprocess"
    code = (f"import sys, time; sys.path[:0] = {[str(ROOT / 'src'), str(BENCH)]!r}; "
            f"start = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def execute(workload, item, call):
    """Run one operation: (output, error, seconds)."""
    start = time.perf_counter()
    try:
        out, error = workload.run(item, call), None
    except Exception as exc:  # judged by check(); the loop must go on
        out, error = None, exc
    return out, error, time.perf_counter() - start


def verify(workload, item, out, error) -> list:
    try:
        return workload.check(item, out, error)
    except Exception as exc:  # a malformed output must not stop the run
        return [f"check raised {type(exc).__name__}: {exc}"]


def percentile_ms(samples, fraction_index: int) -> float:
    """The fraction_index-th tenth of the samples, in milliseconds."""
    ms = [s * 1e3 for s in samples]
    if len(ms) < 2:
        return ms[0]
    return statistics.quantiles(ms, n=10)[fraction_index - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + sha.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def provenance(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit(), "source": source_digest(),
            "machine": platform.machine()}


def benchmark(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run the closed loop for `seconds`; return the report and the
    tracer (None when untraced)."""
    # Importing the library is one-off work in a process, so it is timed in
    # IMPORTS fresh interpreters and their median taken.  It is not scaled:
    # import time does not follow the yardstick's drift.
    import_s = statistics.median(import_seconds(name) for _ in range(IMPORTS))
    started = time.perf_counter()
    workload = load_workload(name, seed)
    import_here_s = time.perf_counter() - started
    stick = workload.yardstick

    # Set-up is repeated WARMUPS times on inputs of their own (negative
    # indices) and its median reported, after the one-off import.  Warm-up
    # operations are checked and counted like the others.
    failed = attempted = 0
    failures = []
    warmups_raw, warmup_ticks = [], [stick.sample()]
    for k in range(1, WARMUPS + 1):
        start = time.perf_counter()
        item = workload.make(-k)
        out, error, _ = execute(workload, item, plain_call)
        problems = verify(workload, item, out, error)
        warmups_raw.append(time.perf_counter() - start)
        warmup_ticks.append(stick.sample())
        attempted += 1
        if problems:
            failed += 1
            failures.append(f"{name} seed {seed} warm-up input {-k}: {'; '.join(problems)}")
    warmups = [t * yardstick.scale(stick, warmup_ticks) for t in warmups_raw]
    setup_s = import_s + statistics.median(warmups)
    setup_raw = import_s + statistics.median(warmups_raw)
    workload.stats.clear()

    # Inputs are made and outputs checked a batch at a time, so that little
    # runs between two operations but a yardstick sample, taken after every
    # `stick.every` operations.  Each operation is recorded with the index of
    # the first sample after it.
    tracer = Tracer() if trace else None
    ticks = [stick.sample()]
    plain_at, traced_at = [], []
    timed = 0
    verify_s = 0.0
    digest, digested = hashlib.sha256(), 0
    coeff_bits = 0
    loop_start = time.perf_counter()
    i, done = 0, False
    while not done:
        start = time.perf_counter()
        batch = [(j, workload.make(j)) for j in range(i, i + BATCH)]
        verify_s += time.perf_counter() - start
        outcomes = []
        for j, item in batch:
            order = (False, True) if j % 2 == 0 else (True, False)
            for use_trace in (order if trace else (False,)):
                if use_trace:
                    tracer.begin(j)
                    with workload.counting(tracer.counts):
                        out, error, took = execute(workload, item, tracer.call)
                    tracer.end()
                else:
                    out, error, took = execute(workload, item, plain_call)
                (traced_at if use_trace else plain_at).append((took, len(ticks)))
                timed += 1
                if timed % stick.every == 0:
                    ticks.append(stick.sample())
                outcomes.append((j, item, use_trace, out, error))
            if trace:
                workload.observe(item, tracer)
            if time.perf_counter() - loop_start >= seconds:
                done = True
                break
        i += BATCH

        start = time.perf_counter()
        for j, item, use_trace, out, error in outcomes:
            attempted += 1
            problems = verify(workload, item, out, error)
            if problems:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{name} seed {seed} input {j}: {'; '.join(problems)}")
            elif not use_trace and digested < DIGEST_OPS:
                text = workload.digest_text(item, out) if error is None else \
                    f"{type(error).__name__}({error.index})"
                if text is not None:
                    digest.update(f"{j}:{text}\n".encode())
                    digested += 1
            if use_trace and error is None and not problems:
                coeff_bits = max(coeff_bits, workload.coeff_bits(out))
        verify_s += time.perf_counter() - start
    plain_raw = [took for took, _ in plain_at]
    plain = yardstick.scale_each(stick, ticks, plain_at)

    stats = workload.stats
    float_checks = stats.get("float_checks", 0)
    report = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "import_s": import_s,
        "import_here_s": import_here_s,
        "warmup_s": warmups,
        "warmup_raw_s": warmups_raw,
        "yardstick": {"kind": type(stick).__name__, "nominal_ms": stick.nominal_s * 1e3,
                      "ticks_ms": [t * 1e3 for t in ticks],
                      "plain_raw_ms": [(took * 1e3, k) for took, k in plain_at]},
        "outputs_digest": digest.hexdigest() if digested else None,
        "outputs_digest_ops": digested,
        "float_relerr_max": stats.get("float_relerr_max", 0.0),
        "float_check_fail_frac": stats.get("float_check_fails", 0) / float_checks
        if float_checks else 0.0,
        "provenance": provenance(seed),
    }
    if trace:
        traced = yardstick.scale_each(stick, ticks, traced_at)
        overhead = 1.0 - sum(plain) / sum(traced)
        report["metrics"] = layer_metrics(workload, tracer, traced_at, overhead, verify_s,
                                          attempted, coeff_bits, report)
        report["spans"] = len(tracer.spans)
    else:
        ms = sorted(s * 1e3 for s in plain)
        quartiles = statistics.quantiles(ms, n=4) if len(ms) >= 2 else [ms[0]] * 3
        p90 = percentile_ms(plain, 9)
        report.update(
            samples=len(plain),
            samples_beyond_p90=sum(1 for s in ms if s > p90),
            op_ms_iqr_frac=(quartiles[2] - quartiles[0]) / quartiles[1],
            verify_ms_per_op=verify_s / attempted * 1e3,
            raw={"setup_s": setup_raw, "ops_per_s": len(plain_raw) / sum(plain_raw),
                 "op_ms_p50": statistics.median(plain_raw) * 1e3,
                 "op_ms_p90": percentile_ms(plain_raw, 9)},
        )
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(plain) / sum(plain),
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": p90,
            "peak_rss_mb": peak_rss_mb(children=name == "cli-mix"),
        }
        report["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return report, tracer


def layer_metrics(workload, tracer, traced_at, overhead, verify_s, attempted,
                  coeff_bits, report) -> dict:
    """Per traced operation, from raw span times: a layer's share compares
    it with the raw operation time, measured at the same moment."""
    ops = len(traced_at)
    total = sum(took for took, _ in traced_at)
    durations = Counter()
    calls = Counter()
    for _, parent, _, name, start, stop in tracer.spans:
        if parent is not None:
            durations[name] += stop - start
            calls[name] += 1
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls[layer] / ops
        values[f"{layer}.self_ms"] = durations[layer] / ops * 1e3
        values[f"{layer}.share"] = durations[layer] / total
    inside = sum(durations[layer] for layer in LAYERS if layer != "cli.main")
    startup = workload.startup_medians()
    interpreter = startup.get("cli.interpreter_ms", 0.0)
    imports = startup.get("cli.import_ms", 0.0)
    values.update({
        "biorthogonality.pairings": tracer.counts["biorthogonality.pairings"] / ops,
        "contour.integrand_evals": tracer.counts["contour.integrand_evals"] / ops,
        "interpolation.coeff_bits_max": coeff_bits,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imports,
        "cli.startup.share": (interpreter + imports) / (total / ops * 1e3)
        if startup else 0.0,
        "bench.op.self_ms": (total - inside) / ops * 1e3,
        "bench.verify.self_ms": verify_s / attempted * 1e3,
        "trace_overhead_frac": overhead,
        "float_relerr_max": report["float_relerr_max"],
        "float_check_fail_frac": report["float_check_fail_frac"],
    })
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def write_out(name: str, seed: int, trace: bool, report: dict, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for span_id, parent, op, span, start, stop in tracer.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                         "name": span, "start": start, "end": stop}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biorthopoly" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    report, tracer = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    write_out(args.workload, args.seed, bool(args.trace), report, tracer)
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for metric, entry in report["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(report))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
