"""silentspecies benchmark: wall time of the batch CLI, one fresh process per
command, driven by a single closed-loop client (the next command starts
when the previous one has exited).

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py, and BENCHMARK.json for why each exists):
`ingest`, `resample`, `synth-write`, or `all` to run the three in turn. Each run generates its inputs from `--seed`, then
repeats the workload's command script ("a pass") until `--seconds` have
gone by, checking every command's output against an in-process reference.

With `--trace 0` it reports the end-to-end metrics:

* setup_s        median wall time of `python -m silentspecies.cli --version`
* pass_p50_rel   median over passes of the pass's wall time divided by the
                 wall time of calibrate.py, run just before the pass
* pass_tail_rel  the highest percentile of that ratio with at least ten
                 passes beyond it; a run makes at least MIN_PASSES (14)
                 passes, so a slow workload can run past `--seconds`
* peak_rss_mb    largest maximum resident set of any workload command

It also prints the raw pass times, pass_p50_s and pass_tail_s, and the
median calibration time. They are not gated: on shared machines whose speed
drifts for minutes, raw medians spread more between runs than a useful
bound (see calibrate.py).

With `--trace 1` it alternates untraced passes with passes in which each
command runs under tracing.py, and reports per-layer self times and counts,
the tracing overhead and, on `resample`, a thread-count probe.

Commands are started by launcher.py, a small process of its own, so that
the peak memory reported for a command is the command's and not inherited
from this process. A command fails when it exits non-zero, writes to
stderr, or its data lines differ from the reference; failures are counted
as `failed` out of `attempted` commands and printed as ops_failed_ratio.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the readable
report and the run record (code identity, versions, CPU, seed, input
shapes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

PROBE_ROUNDS = 3
TAIL_BEYOND = 10
# Enough passes for the tail percentile to sit above the fastest few, even
# when a pass is slow; the tail of fewer passes spread too much between runs.
MIN_PASSES = TAIL_BEYOND + 4

PROBE_KEYS = ("resampling.bootstrap_t1_s", "resampling.bootstrap_tN_s",
              "resampling.accumulate_t1_s", "resampling.accumulate_tN_s",
              "resampling.thread_speedup")


@dataclass
class Outcome:
    seconds: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str


class Runner:
    """Runs commands one at a time through launcher.py and counts failures."""

    def __init__(self, work: Path) -> None:
        self.stdout = work / "stdout.txt"
        self.stderr = work / "stderr.txt"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def spawn(self, argv: list[str]) -> Outcome:
        request = {"argv": argv, "stdout": str(self.stdout),
                   "stderr": str(self.stderr)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited")
        result = json.loads(reply)
        return Outcome(result["seconds"], result["rss_kb"], result["code"],
                       self.stdout.read_text(errors="replace"),
                       self.stderr.read_text(errors="replace"))

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {problem}")


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "silentspecies.cli", *args]


def run_command(runner: Runner, command, argv: list[str]) -> Outcome:
    """Run one workload command and record whether it failed: a non-zero
    exit, any stderr output, or data lines that differ from the reference."""
    for path in command.expected:
        path.unlink(missing_ok=True)
    outcome = runner.spawn(argv)
    if outcome.code != 0:
        problem = f"exit code {outcome.code}"
    elif outcome.stderr:
        problem = "stderr: " + outcome.stderr.splitlines()[0]
    else:
        problem = command.mismatch()
    runner.record(command.name, problem)
    return outcome


def measure_setup(runner: Runner, version: str) -> float:
    outcome = runner.spawn(cli_argv(["--version"]))
    ok = outcome.code == 0 and outcome.stdout == f"silentspecies {version}\n"
    runner.record("--version", None if ok else f"exit code {outcome.code}")
    return outcome.seconds


def measure_calibration(runner: Runner) -> float:
    outcome = runner.spawn([sys.executable, str(BENCH / "calibrate.py")])
    ok = outcome.code == 0 and not outcome.stderr
    runner.record("calibrate.py", None if ok else f"exit code {outcome.code}")
    return outcome.seconds


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND of the (at least MIN_PASSES) samples beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_untraced(workload, runner: Runner, seconds: float, version: str,
                 report, show) -> None:
    setup: list[float] = []
    calibration: list[float] = []
    passes: list[float] = []
    peak_kb = 0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        # Start-up and calibration samples are spread over the run like the
        # passes, so a slow spell of the machine weighs on all alike.
        setup.append(measure_setup(runner, version))
        calibration.append(measure_calibration(runner))
        total = 0.0
        for command in workload.commands:
            outcome = run_command(runner, command, cli_argv(command.argv))
            total += outcome.seconds
            peak_kb = max(peak_kb, outcome.rss_kb)
        passes.append(total)
    relative = [p / c for p, c in zip(passes, calibration)]
    n = len(passes)
    report("setup_s", statistics.median(setup), "s",
           f"median of {len(setup)} runs of --version")
    rel_tail, rel_pct = tail(relative)
    report("pass_p50_rel", statistics.median(relative), "ratio",
           f"median of {n} passes of {len(workload.commands)} commands, "
           "each over the calibration run before it")
    report("pass_tail_rel", rel_tail, "ratio", f"p{rel_pct:.1f} of {n}")
    report("peak_rss_mb", peak_kb / 1024.0, "MB",
           f"max over {n * len(workload.commands)} commands")
    raw_tail, raw_pct = tail(passes)
    show("pass_p50_s", statistics.median(passes), "s", f"median of {n} passes")
    show("pass_tail_s", raw_tail, "s", f"p{raw_pct:.1f} of {n} passes")
    show("calibration_s", statistics.median(calibration), "s",
         f"median of {len(calibration)} runs of calibrate.py")


def thread_probe(seed: int, report) -> bool:
    """Time bootstrap_ci and accumulate at 1 thread and at os.cpu_count()
    threads on the `resample` inputs; True when all results are identical,
    as the per-replicate SeedSequence streams promise."""
    import silentspecies as ss
    import workloads as wl

    tally = wl.resample_tally(seed)
    nproc = os.cpu_count() or 1
    times: dict[tuple[str, int], list[float]] = {}
    results: dict[int, list] = {1: [], nproc: []}
    for round_ in range(PROBE_ROUNDS):
        order = (1, nproc) if round_ % 2 == 0 else (nproc, 1)
        for threads in order:
            start = time.perf_counter()
            boot = ss.bootstrap_ci(tally, wl.BOOTSTRAP_REPLICATES, wl.LEVEL,
                                   seed, threads=threads)
            middle = time.perf_counter()
            acc = ss.accumulate(tally, wl.ACCUMULATE_SIZES,
                                wl.ACCUMULATE_REPLICATES, seed,
                                threads=threads)
            end = time.perf_counter()
            times.setdefault(("bootstrap", threads), []).append(middle - start)
            times.setdefault(("accumulate", threads), []).append(end - middle)
            results[threads].append((boot, acc))
    identical = all(r == results[1][0] for rs in results.values() for r in rs)
    med = {key: statistics.median(v) for key, v in times.items()}
    note = f"median of {PROBE_ROUNDS} rounds"
    for kernel in ("bootstrap", "accumulate"):
        report(f"resampling.{kernel}_t1_s", med[(kernel, 1)], "s", note)
        report(f"resampling.{kernel}_tN_s", med[(kernel, nproc)], "s",
               f"{note}, N={nproc}")
    t1, tn = med[("bootstrap", 1)], med[("bootstrap", nproc)]
    report("resampling.thread_speedup", t1 / tn, "ratio",
           f"bootstrap_ci {t1:.4f} s at 1 thread / {tn:.4f} s at {nproc}; "
           f"results identical: {identical}")
    return identical


def run_traced(workload, runner: Runner, seconds: float, work: Path,
               layer_units: dict[str, str], report) -> list:
    import tracing

    spans_path = work / "spans.json"
    untraced: list[float] = []
    traced: list[float] = []
    layer_passes: list[dict[str, float]] = []
    kept: list = []
    layers: Counter[str] = Counter()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(
            run_command(runner, c, cli_argv(c.argv)).seconds
            for c in workload.commands))
        figures: dict[str, float] = {}
        total = 0.0
        for command in workload.commands:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_path),
                    *command.argv]
            total += run_command(runner, command, argv).seconds
            if not spans_path.exists():
                continue
            dump = json.loads(spans_path.read_text())
            kept.append({"pass": len(traced), "argv": command.argv, **dump})
            layers.update(span[2].split(".")[0] for span in dump["spans"])
            summary = tracing.summarize(command.name, dump["spans"],
                                        dump["main_thread"])
            summary["cli.import_s"] = dump["import_s"]
            for key, value in summary.items():
                if key == "resampling.workers":
                    figures[key] = max(figures.get(key, 0), value)
                else:
                    figures[key] = figures.get(key, 0.0) + value
        traced.append(total)
        rows = figures.get("io.read_rows", 0)
        figures["io.read_us_per_row"] = (
            1e6 * figures.get("io.read_s", 0.0) / rows if rows else 0.0)
        reps = figures.get("resampling.replicates", 0)
        figures["resampling.us_per_replicate"] = (
            1e6 * figures.get("resampling.inclusive_s", 0.0) / reps
            if reps else 0.0)
        layer_passes.append(figures)

    for key, unit in layer_units.items():
        if key in PROBE_KEYS or key == "trace.overhead_ratio":
            continue
        how = {"resampling.workers": "max", "io.read_us_per_row": "ratio",
               "resampling.us_per_replicate": "ratio"}.get(key, "sum")
        report(key, statistics.median(p.get(key, 0.0) for p in layer_passes),
               unit, f"median over {len(layer_passes)} traced passes of the "
               f"per-pass {how}")
    print(f"  spans per layer {json.dumps(dict(sorted(layers.items())))}")
    t_traced, t_plain = statistics.median(traced), statistics.median(untraced)
    report("trace.overhead_ratio", t_traced / t_plain, "ratio",
           f"traced pass {t_traced:.4f} s ({len(traced)} passes) / untraced "
           f"{t_plain:.4f} s ({len(untraced)} passes)")
    return kept


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "silentspecies").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "threads_env": os.environ.get("SILENTSPECIES_THREADS", ""),
    }


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, why: str, seed: int, seconds: float, trace: int,
                 layer_units: dict[str, str]):
    import silentspecies
    import workloads as wl

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    metrics: dict[str, dict] = {}

    def show(key, value, unit, note):
        print(f"  {key:<28} {value:>14.6g} {unit:<6} {note}")

    def report(key, value, unit, note):
        metrics[key] = {"value": value, "unit": unit}
        show(key, value, unit, note)

    runner = None
    try:
        workload = wl.build(name, seed, work)
        record = run_record(name, seed, seconds, trace)
        print(f"== {name}: {why}")
        print(f"  record {json.dumps(record)}")
        for file_name, shape in workload.inputs.items():
            print(f"  input {file_name} {json.dumps(shape)}")
        runner = Runner(work)
        # Fill the bytecode cache and the page cache before timing.
        runner.spawn(cli_argv(["--version"]))
        if trace:
            spans = run_traced(workload, runner, seconds, work, layer_units,
                               report)
            if name == "resample":
                identical = thread_probe(seed, report)
                runner.record("thread probe", None if identical
                              else "results differ by thread count")
            else:
                for key in PROBE_KEYS:
                    report(key, 0.0, layer_units[key],
                           "thread probe runs on resample only")
            out = WORK / f"spans-{name}-s{seed}.json"
            out.write_text(json.dumps({"record": record, "commands": spans}))
            print(f"  spans written to {out.relative_to(ROOT)}")
        else:
            run_untraced(workload, runner, seconds, silentspecies.__version__,
                         report, show)
        ratio = runner.failed / runner.attempted
        print(f"  {'ops_failed_ratio':<28} {ratio:>14.6g} ratio  "
              f"{runner.failed} failed / {runner.attempted} attempted "
              "commands")
        for failure in runner.failures:
            print(f"  failure {failure}")
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
    return runner.attempted, runner.failed, metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*whys, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "silentspecies" / "cli.py").is_file():
        print(f"error: no silentspecies sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(whys) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        a, f, m = run_workload(name, whys[name], args.seed, args.seconds,
                               args.trace, layer_units)
        attempted, failed = attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
