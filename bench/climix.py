"""The cli-mix workload: one fresh interpreter per operation.

Operation i runs `python -m biorthopoly <subcommand>` in a child process,
cycling through all six subcommands; the problem-file subcommands alternate
between exact and float mode and read their problem (N <= 6) from stdin.
Exit code 4 is predicted in set-up wherever reference.py finds a zero alpha
or nu; otherwise a call must exit 0, or 1 when only a float tolerance check
failed, and every report is checked against the references.  This module
does not import the library, so the parent's set-up and memory stay those
of the benchmark alone.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import reference
from inputs import (
    H_VALUES,
    distinct_rationals,
    item_rng,
    plant_degeneracy,
    probe_points,
    rational,
)
from yardstick import InterpreterYardstick

SUBCOMMANDS = ("interpolate", "recurrence", "check-biortho", "expand", "exp-example", "hermite")
PROBLEM_SUBCOMMANDS = SUBCOMMANDS[:4]
CONTOUR_TOL = 1e-8
# The float checks of exp-example --with-contour; its other checks are exact.
CONTOUR_CHECKS = {"contour_hermite", "contour_biortho"}
CHILD_TIMEOUT_S = 120
# Every sixteenth round plants a zero alpha or nu in the exact problems, so
# exit code 4 is exercised a few times per run.
PLANT_ROUND = 4


def close(x: float, y: float, rel: float = 1e-6) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1.0)


class CliMix:
    """Interpreter start, imports and argument handling dominate here."""

    name = "cli-mix"

    def __init__(self, seed: int, root):
        self.seed = seed
        self.root = root
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.stats = {}
        self.startup = {"cli.interpreter_ms": [], "cli.import_ms": []}
        self.yardstick = InterpreterYardstick(self.env, root)

    def make(self, i: int):
        rng = item_rng(self.name, self.seed, i)
        sub, round_ = SUBCOMMANDS[i % len(SUBCOMMANDS)], i // len(SUBCOMMANDS)
        item = SimpleNamespace(sub=sub, stdin=None, expect=None, mode="exact")
        if sub in PROBLEM_SUBCOMMANDS:
            item.mode = ("exact", "float")[round_ % 2]
            n = 2 + round_ % 5
            nodes = distinct_rationals(rng, n + 1)
            item.probes = probe_points(rng, nodes)
            while True:
                values = [rational(rng) for _ in range(n + 1)]
                if item.mode == "exact" and round_ % 16 == PLANT_ROUND:
                    plant_degeneracy(rng, nodes, values, (round_ // 16) % 2, n)
                ref = reference.family_reference(nodes, values, item.probes)
                # A zero alpha or nu in exact arithmetic need not come out
                # zero in floating point, so float problems are drawn without.
                if item.mode == "exact" or reference.predicted_rejection(ref, n, n - 1) is None:
                    break
            degree = rng.randint(0, n - 1)
            item.q_coeffs = [rational(rng, nonzero=False) for _ in range(degree)]
            item.q_coeffs.append(rational(rng))
            item.nodes, item.n, item.ref = nodes, n, ref
            item.stdin = json.dumps({"nodes": [str(a) for a in nodes],
                                     "values": [str(v) for v in values]})
            tops = {"interpolate": None, "recurrence": (n, None),
                    "check-biortho": (n, n - 1), "expand": (degree + 1, degree)}[sub]
            if item.mode == "exact" and tops is not None:
                item.expect = reference.predicted_rejection(ref, *tops)
            extra = {"interpolate": ["--degree", str(n)], "recurrence": [],
                     "check-biortho": ["--n-max", str(n - 1)],
                     "expand": ["--poly", json.dumps([str(c) for c in item.q_coeffs])]}[sub]
            item.argv = [sub, "-", "--mode", item.mode, *extra]
        elif sub == "exp-example":
            item.k = 1 + round_ % 4
            contour = round_ % 4 == 3
            item.q = Fraction(1)
            while item.q in (0, 1) or (contour and item.q < 0):
                item.q = rational(rng, height=9, den=6)
            item.argv = [sub, f"--q={item.q}", "--n-max", str(item.k)]
            if contour:
                item.argv.append("--with-contour")
        else:
            item.mode = "float"
            h, k = rng.choice(H_VALUES), round_ % 5
            item.expected = (math.exp(h) - 1.0) ** k / math.factorial(k)
            item.argv = [sub, f"--h={h!r}", "--k", str(k)]
        return item

    def run(self, item, call):
        return subprocess.run([sys.executable, "-m", "biorthopoly", *item.argv],
                              input=item.stdin, capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S)

    def check(self, item, proc, error) -> list:
        """Exit code and report against the prediction.  Float results are
        measured, not gated: a float call whose report fails a tolerance
        check (exit 1) or differs from the reference by more than 1e-6
        counts towards float_check_fail_frac."""
        if error is not None:
            return [f"child failed to run: {error!r}"]
        if item.expect is not None:
            name, index = item.expect
            if proc.returncode != 4 or f"error: {name}:" not in proc.stderr \
                    or f"_{index} = 0" not in proc.stderr:
                return [f"expected exit 4 with {name}({index}), got {proc.returncode}"]
            return []
        if proc.returncode not in (0, 1):
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        try:
            report = json.loads(proc.stdout)
            failing = {check["name"] for check in report["checks"] if not check["pass"]}
        except (ValueError, KeyError, TypeError):
            return ["malformed report"]
        if (proc.returncode == 1) != bool(failing):
            return ["exit code disagrees with the report"]
        if item.mode == "float":
            self._count_float(bool(failing) or not self._outputs_match(item, report["outputs"]))
            return []
        if failing - CONTOUR_CHECKS:
            return [f"checks failed: {sorted(failing)}"]
        if "--with-contour" in item.argv:
            self._count_float(bool(failing))
        return [] if self._outputs_match(item, report["outputs"]) else \
            [f"{item.sub} report differs from the reference"]

    def _count_float(self, missed: bool) -> None:
        self.stats["float_checks"] = self.stats.get("float_checks", 0) + 1
        self.stats["float_check_fails"] = self.stats.get("float_check_fails", 0) + missed

    @staticmethod
    def _outputs_match(item, out) -> bool:
        sub = item.sub
        if sub == "hermite":
            return abs(float(out["estimate_real"]) - item.expected) < CONTOUR_TOL
        if sub == "exp-example":
            q = item.q
            return (out["alphas"] == [str(reference.exp_grid_alpha(q, n))
                                      for n in range(item.k + 2)]
                    and all(nu == str(q / (q - 1)) for nu in out["nus"]))
        ref, n = item.ref, item.n
        if sub == "interpolate":
            expected = reference.newton_coefficients(item.nodes, ref.alphas, n)
            got = out["newton"]
        elif sub == "recurrence":
            expected, got = ref.alphas, out["alphas"]
        elif sub == "check-biortho":
            expected, got = ref.diagonal[:n], out["diagonal"]
            zeros = [out["matrix"][r][c] for r in range(n) for c in range(n) if r != c]
            if item.mode == "exact" and any(z != "0" for z in zeros):
                return False
        else:
            coeffs = [Fraction(x) for x in out["coefficients"]]
            expected = [reference.horner(item.q_coeffs, z) for z in item.probes]
            got = [sum(x * item.ref.phat_at[j][k] for k, x in enumerate(coeffs))
                   for j in range(len(item.probes))]
            got = [str(g) for g in got] if item.mode == "exact" else [float(g) for g in got]
        if item.mode == "exact":
            return [str(e) for e in expected] == [str(g) for g in got]
        return len(expected) == len(got) and all(
            close(float(g), float(e)) for g, e in zip(got, expected))

    @staticmethod
    def digest_text(item, proc):
        if item.mode != "exact":
            return None
        if proc.returncode == 4:
            return f"4:{proc.stderr}"
        return json.dumps(json.loads(proc.stdout)["outputs"], sort_keys=True)

    @staticmethod
    def coeff_bits(out) -> int:
        return 0

    @staticmethod
    def counting(counts):
        return nullcontext()

    def observe(self, item, tracer) -> None:
        """Traced runs only: time a bare interpreter, an import-only child and
        the same argv through cli.main in this process."""
        bare = self._child_ms(["-c", "pass"])
        imported = self._child_ms(["-c", "import biorthopoly.cli"])
        self.startup["cli.interpreter_ms"].append(bare)
        self.startup["cli.import_ms"].append(imported - bare)
        from biorthopoly import cli
        stdin = sys.stdin
        sys.stdin = io.StringIO(item.stdin or "")
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                tracer.call("cli.main", cli.main, item.argv)
        finally:
            sys.stdin = stdin

    def _child_ms(self, args) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=self.env, cwd=self.root,
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        return (time.perf_counter() - start) * 1e3

    def startup_medians(self) -> dict:
        return {name: statistics.median(v) if v else 0.0 for name, v in self.startup.items()}
