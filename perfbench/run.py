"""The orthoform benchmark.

    python3 perfbench/run.py --workload gfp-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports `src/orthoform`).  It
generates the workload's forms from the seed, then repeats whole passes over
them until `--seconds` have gone by.  A pass calls `decompose_gs`,
`decompose_blocks` and `check_decomposition` on every form, and runs
`orthoform decompose --verify --json --emit-transform slp` on the workload's
form files, one subprocess at a time.  Every output is checked by
`checks.py`, which shares no arithmetic with the program.

With `--trace 0` it prints the end-to-end metrics, each the median over
passes.  With `--trace 1` it alternates untraced and traced passes, runs the
CLI in-process (`orthoform.cli.main`), and prints the per-module metrics
(see tracing.py) and the tracing overhead.  The last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPS = 7
CLI_TIMEOUT_S = 120
IMPORT_PROBE = "import time; t = time.perf_counter(); import orthoform.cli; print(time.perf_counter() - t)"
# Runs `python -m orthoform.cli <args>` and, at exit, writes the process's own
# peak RSS to the last line of stderr.  VmHWM starts afresh at exec; the
# ru_maxrss that wait4 reports does not, it keeps the high-water mark of the
# (benchmark's) image the child had before exec.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def _hwm():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print("VmHWM_kB", kb, file=sys.stderr, flush=True)
atexit.register(_hwm)
runpy.run_module("orthoform.cli", run_name="__main__", alter_sys=True)
"""
# Seconds each speed probe takes at the reference speed (see Speed).
PROBE_REF_S = 1.5e-3
START_PROBE_REF_S = 50e-3
PROBE_EVERY_S = 0.1

END_TO_END = (
    ("gs_s", "s"), ("blocks_s", "s"), ("check_gs_s", "s"), ("check_blocks_s", "s"),
    ("cli_s", "s"), ("slp_bytes", "bytes"), ("cli_peak_rss_mb", "MB"), ("setup_s", "s"),
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Time to import orthoform (with its CLI module) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_cli(argv: list, stdout_path: Path) -> tuple:
    """(exit code, peak RSS in MB or None) of one CLI subprocess."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        code = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCHER] + argv, stdout=out, stderr=err,
            env=_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
        ).returncode
    last = (err_path.read_text(encoding="utf-8").splitlines() or [""])[-1].split()
    return code, int(last[1]) / 1024 if last[:1] == ["VmHWM_kB"] else None


def _probe_work() -> int:
    """A fixed piece of pure-Python work that shares no code with orthoform:
    modular row updates on one list, a small elimination that allocates a
    new list per row, Fraction arithmetic and tuple building.  Contention
    on a shared host slows these unequally, and the mix tracks orthoform's
    own calls better than any one of them."""
    p = 1009
    row = list(range(256))
    for k in range(40):
        row = [(v * 7919 + k) % p for v in row]
    m = [[(i * 31 + j * 17 + 1) % p for j in range(20)] for i in range(20)]
    for c in range(19):
        piv = m[c]
        inv = pow(piv[c] or 1, -1, p)
        m[c + 1 :] = [[(x - r[c] * inv * y) % p for x, y in zip(r, piv)] for r in m[c + 1 :]]
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 3) * Fraction(i + 1, 7)
    pairs = [(i, i + 1, (i, i)) for i in range(300)]
    return row[-1] + m[-1][-1] + acc.numerator + len(pairs)


def _start_probe() -> None:
    """Start a bare interpreter and wait for it: exec, dynamic loading and
    interpreter start, the part of a CLI run that no code of orthoform's
    runs in.  A shared host slows this kernel-heavy work in stretches that
    _probe_work does not see."""
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True, timeout=CLI_TIMEOUT_S)


class Speed:
    """How fast the machine runs right now, relative to the reference speed.

    On a shared host the same call runs up to 1.4x slower for stretches of
    seconds to minutes, whatever this process does.  A short probe run next
    to every timed call measures that, and each time is reported at the
    reference speed: measured seconds * reference_s / probe seconds.
    """

    def __init__(self, probe, reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.probes: list = []
        self._scale = 1.0
        self._at = float("-inf")

    def scale(self) -> float:
        if perf_counter() - self._at > PROBE_EVERY_S:
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                self.probe()
                best = min(best, perf_counter() - t0)
            self.probes.append(best)
            self._scale = self.reference_s / best
            self._at = perf_counter()
        return self._scale


def timed(speeds: tuple, fn, *args):
    """(result, seconds at the reference speed) of fn(*args): the wall time
    times the mean of the speeds' scales read before and after the call."""
    before = [sp.scale() for sp in speeds]
    t0 = perf_counter()
    out = fn(*args)
    wall = perf_counter() - t0
    return out, wall * statistics.fmean(before + [sp.scale() for sp in speeds])


def library_blocks(alg: checks.Algebra, dec) -> list:
    """A Decomposition's blocks as the checker's scalar matrices, read
    through the ring's text format as the CLI prints them."""
    zero, one, sign = alg.from_int(0), alg.from_int(1), alg.from_int(dec.s)
    return [
        [[alg.parse(dec.ring.format(b.value))]] if hasattr(b, "value") else [[zero, one], [sign, zero]]
        for b in dec.blocks
    ]


class Bench:
    def __init__(self, name: str, inputs: list, work: Path, of, speed: Speed, start_speed: Speed):
        self.workload = workloads.WORKLOADS[name]
        self.inputs = inputs
        self.work = work
        self.of = of
        self.speed = (speed,)
        # A CLI subprocess is interpreter start plus Python work: over the
        # workloads' CLI runs the mean of the two scales spreads least.
        self.cli_speed = (speed, start_speed)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.reference: dict = {}  # op key -> output digest of the first pass
        self.parsed: dict = {}  # form index -> (algebra, s, rows, rank of B)

    # -- bookkeeping ---------------------------------------------------------

    def _fail(self, key, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{key}: failed: {exc!r}")

    def _wrong(self, key, why: str) -> None:
        self.errors.append(f"{key}: wrong output: {why}")

    def _same_as_first(self, key, digest) -> None:
        if key not in self.reference:
            self.reference[key] = digest
        elif self.reference[key] != digest:
            self._wrong(key, "differs from the first pass")

    def _form(self, idx: int):
        if idx not in self.parsed:
            inp = self.inputs[idx]
            from orthoform.cli import format_form_file

            text = inp.path.read_text(encoding="utf-8") if inp.path else format_form_file(
                inp.matrix.ring, inp.spec.s, inp.matrix
            )
            alg, s, rows = checks.parse_form_text(text)
            self.parsed[idx] = (alg, s, rows, checks.form_rank(alg, rows))
        return self.parsed[idx]

    # -- operations ------------------------------------------------------------

    def library(self, idx: int, algo: str, check: bool, samples: dict, summaries: dict) -> None:
        """Decompose form idx and check the result: two operations."""
        of = self.of
        inp = self.inputs[idx]
        key = (idx, algo)
        form = of.HermitianForm(inp.matrix.ring, inp.matrix.copy(), inp.spec.s, validate=False)
        decompose = of.decompose_gs if algo == "gs" else of.decompose_blocks
        self.attempted += 2
        gc.collect()
        try:
            dec, secs = timed(self.speed, decompose, form)
        except Exception as exc:  # the program's fault: count it, keep measuring
            self._fail(key, exc)
            self._fail((idx, "check_" + algo), exc)
            return
        samples[f"{algo}_s"][key].append(secs)
        gc.collect()
        try:
            report, secs = timed(self.speed, of.check_decomposition, inp.matrix, inp.spec.s, dec)
        except Exception as exc:
            self._fail((idx, "check_" + algo), exc)
            return
        samples[f"check_{algo}_s"][key].append(secs)
        if not report.passed:
            self._wrong(key, f"check_decomposition: {report.details}")
        self._same_as_first(key, (repr(dec.blocks), len(dec.log), dec.radical_dim))
        if check:
            alg, s, rows, rank = self._form(idx)
            try:
                checks.check_result(alg, s, rows, rank, dec.log.slp_lines(dec.ring),
                                    library_blocks(alg, dec), dec.radical_dim)
            except checks.CheckFailed as exc:
                self._wrong(key, str(exc))
            summaries[algo] = of.invariants_of(dec)

    def agree(self, idx: int, summaries: dict) -> None:
        """gs and blocks must agree on invariants_of.  Over characteristic 2 the
        J count is not an invariant (J + [a] is congruent to [a, a, a]), so only
        rank and radical are compared there."""
        a, b = summaries.get("gs"), summaries.get("blocks")
        if a is None or b is None:
            return
        if self.inputs[idx].matrix.ring.characteristic == 2:
            a, b = (a.rank, a.radical_dim), (b.rank, b.radical_dim)
        if a != b:
            self._wrong((idx, "invariants"), f"gs {a} vs blocks {b}")

    def cli(self, j: int, check: bool, inprocess: bool, samples: dict) -> None:
        idx, algo = self.workload.cli[j]
        inp = self.inputs[idx]
        key = (idx, "cli", algo)
        argv = ["decompose", "--input", str(inp.path), "--algo", algo, "--post", inp.spec.post,
                "--verify", "--json", "--emit-transform", "slp"]
        self.attempted += 1
        gc.collect()
        if inprocess:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code, secs = timed(self.speed, importlib.import_module("orthoform.cli").main, argv)
            except (Exception, SystemExit) as exc:  # a subprocess would exit non-zero
                self._fail(key, exc)
                return
            text = buf.getvalue()
        else:
            out_path = self.work / f"cli-{j:03d}.json"
            try:
                (code, rss), secs = timed(self.cli_speed, run_cli, argv, out_path)
            except subprocess.TimeoutExpired as exc:
                self._fail(key, exc)
                return
            text = out_path.read_text(encoding="utf-8")
            if rss is None and code in (0, 1):
                self._wrong(key, "no VmHWM line on stderr")
            elif rss is not None:
                samples["cli_peak_rss_mb"][key].append(rss)
        # Exit 1 is a decomposition that its own --verify rejects: a wrong
        # output, checked below.  Anything else non-zero is a failed run.
        if code not in (0, 1):
            self._fail(key, RuntimeError(f"exit code {code}"))
            return
        samples["cli_s"][key].append(secs)
        try:
            payload = json.loads(text)
            lines = payload["transform"]
            samples["slp_bytes"][key].append(sum(len(line.encode("utf-8")) + 1 for line in lines))
            if code != 0 or not all(payload["verification"].values()):
                self._wrong(key, f"exit code {code}, --verify reported {payload['verification']}")
            self._same_as_first(key, hashlib.sha256(text.encode("utf-8")).hexdigest())
            if check:
                alg, s, rows, rank = self._form(idx)
                blocks = [[[alg.parse(v) for v in row] for row in b["entries"]] for b in payload["blocks"]]
                checks.check_result(alg, s, rows, rank, lines, blocks, payload["radical_dim"])
                if payload["invariants"]["rank"] != rank:
                    self._wrong(key, "reported rank differs from rank(B)")
        except (checks.CheckFailed, AttributeError, KeyError, TypeError, ValueError) as exc:
            self._wrong(key, repr(exc))

    def run_pass(self, samples: dict, check: bool = False, inprocess: bool = False) -> None:
        """Every operation once, its measurements appended to samples[metric][op]."""
        for idx in range(len(self.inputs)):
            summaries: dict = {}
            for algo in ("gs", "blocks"):
                self.library(idx, algo, check, samples, summaries)
            self.agree(idx, summaries)
        for j in range(len(self.workload.cli)):
            self.cli(j, check, inprocess, samples)
        gc.collect()


def new_samples() -> dict:
    return defaultdict(lambda: defaultdict(list))


def summarize(samples: dict) -> dict:
    """Each metric per pass: the sum over operations of the operation's
    median (the peak RSS: the largest median)."""
    out = {}
    for metric, ops in samples.items():
        medians = [statistics.median(v) for v in ops.values()]
        out[metric] = max(medians) if metric == "cli_peak_rss_mb" else sum(medians)
    return out


def warm_up(of, inputs: list) -> None:
    """Exercise each ring once on a tiny form, so lazy set-up is not timed."""
    import random

    seen = set()
    for inp in inputs:
        ring = inp.matrix.ring
        if (ring, inp.spec.s) in seen:
            continue
        seen.add((ring, inp.spec.s))
        m = of.random_form(ring, inp.spec.s, 4, random.Random(0)).m
        for fn in (of.decompose_gs, of.decompose_blocks):
            dec = fn(of.HermitianForm(ring, m.copy(), inp.spec.s, validate=False))
            of.check_decomposition(m, inp.spec.s, dec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orthoform end-to-end and per-module benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orthoform" / "__init__.py").is_file():
        print(f"error: no orthoform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthoform as of

    # One CPU for this process and its subprocesses: the two CPUs of a shared
    # host can run at different speeds, and the speed probe must measure the
    # CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        speed = Speed(_probe_work, PROBE_REF_S)
        start_speed = Speed(_start_probe, START_PROBE_REF_S)
        setup, imports = [], []
        for _ in range(SETUP_REPS):
            scale = speed.scale()
            imports.append(import_seconds() * scale)
            inputs, secs = timed((speed,), workloads.build, args.workload, args.seed, work, of)
            setup.append(imports[-1] + secs)
        warm_up(of, inputs)
        bench = Bench(args.workload, inputs, work, of, speed, start_speed)
        # Long-lived objects (modules, inputs, checker state) are frozen, so
        # the collection before each timed call sees only that call's garbage.
        gc.collect()
        gc.freeze()
        # One untimed pass whose outputs are all checked; later passes must
        # reproduce them exactly.
        bench.run_pass(new_samples(), check=True, inprocess=bool(args.trace))
        bench.parsed.clear()
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced(bench, args, statistics.median(imports))
        else:
            samples = new_samples()
            deadline = perf_counter() + args.seconds
            while perf_counter() < deadline:
                bench.run_pass(samples)
            values = summarize(samples)
            values["setup_s"] = statistics.median(setup)
            metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in bench.errors[:20]:
        print(line, file=sys.stderr)
    for name, sp in (("speed probe", speed), ("start probe", start_speed)):
        if sp.probes:
            probes = sorted(sp.probes)
            print(f"{name}: {len(probes)} runs, median {statistics.median(probes) * 1e3:.3f} ms, "
                  f"range {probes[0] * 1e3:.3f}-{probes[-1] * 1e3:.3f} ms "
                  f"(reference {sp.reference_s * 1e3:g} ms)", file=sys.stderr)
    wrong = any("wrong output" in e for e in bench.errors)
    print(json.dumps({"correct": not wrong, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def traced(bench: Bench, args, import_s: float) -> dict:
    """Alternate untraced and traced in-process passes; per-module metrics
    are medians over the traced ones, the overhead is the difference of the
    summed end-to-end times."""
    tracer = tracing.Tracer()
    plain, traced_samples, layers = new_samples(), new_samples(), []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        bench.run_pass(plain, inprocess=True)
        tracer.reset()
        tracer.install()
        try:
            bench.run_pass(traced_samples, inprocess=True)
        finally:
            tracer.uninstall()
        layers.append(tracing.layer_metrics(tracer.spans))
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    values = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    values["cli.import.s"] = import_s * len(bench.workload.cli)
    totals = ("gs_s", "blocks_s", "check_gs_s", "check_blocks_s", "cli_s")
    traced_s, plain_s = summarize(traced_samples), summarize(plain)
    values["trace.overhead_s"] = sum(traced_s[k] - plain_s[k] for k in totals)
    return {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
