"""stabrec benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads: corpus, enumeration, bulk, cli (``all`` runs the four in turn).
The inputs are generated from --seed in separate set-up processes, before
timing starts.  The timed phase then runs the workload's item set again and
again, each repetition on freshly loaded algebras, while the next one is
expected to end within --seconds plus half a repetition (at least once).
Between items it runs calibration slices (see calibration.py), which
measure the shared machine's current speed.  Every answer is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed, 1
when one failed, 2 on bad usage or a missing source tree.

--trace 0 reports the end-to-end metrics setup_s, wall_cal_s (the median
repetition's wall time, calibrated to the reference machine speed) and
peak_rss_mb; the line above the JSON also gives the raw wall_s,
item_p50_ms, item_p90_ms and fail_ratio.  Raw wall times drift with the
host's load by more than the regression bound, and the item figures depend
on a handful of items, so none of these serves as a regression gate.
--trace 1 alternates untraced and traced repetitions and reports per-layer
calls, self time and traffic counts, plus the tracing overhead; the spans
go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io as _stdio
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("corpus", "enumeration", "bulk", "cli")
SETUP_REPS = 3
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description="stabrec benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(workload: str, seed: int):
    """Median wall time of SETUP_REPS set-up processes, and their inputs.

    A set-up process starts the interpreter, imports stabrec and numpy,
    loads and completes the workload's algebras and generates the inputs.
    All of them must produce the same inputs.
    """
    times, outputs = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(f"set-up of {workload} failed")
        outputs.append(proc.stdout)
    if len(set(outputs)) != 1:
        raise SystemExit(f"set-up of {workload} is not a function of the seed")
    return statistics.median(times), json.loads(outputs[0])


class Repetition:
    """Fresh algebras and members for one timed pass over the items."""

    def __init__(self, workloads, inputs):
        self.algebras = {n: workloads.load_algebra(n) for n in inputs["algebras"]}
        self.members = {n: workloads.loads(d, self.algebras[n])
                        for n, d in inputs["members"].items()}
        self.scratch = {}

    def context(self, item):
        name = item["algebra"]
        return self.algebras[name], self.members.get(name)


class InProcess:
    """Runs corpus, enumeration and bulk items in this process."""

    def __init__(self, workloads, inputs):
        self.wl = workloads
        self.inputs = inputs
        self.peak_rss_mb = 0.0

    def repetition(self, tracer=None, cal=None):
        """(wall seconds, [(item seconds, status)]) for one pass; the
        calibration slices `cal` runs meanwhile are not in the times."""
        from stabrec.errors import Inconclusive
        gc.collect()                 # the previous repetition's algebras
        clock = time.perf_counter if cal is None else cal.clock
        if tracer is not None:
            tracer.install()
        try:
            rep = Repetition(self.wl, self.inputs)
            results = []
            with contextlib.nullcontext() if cal is None else cal.sampling():
                t_rep = clock()
                for item in self.inputs["items"]:
                    t0 = clock()
                    try:
                        status = self.wl.RUNNERS[item["kind"]](item, rep)
                    except self.wl.CheckFailed as e:
                        status = f"wrong: {item['kind']} {item.get('algebra')}: {e}"
                    except Inconclusive:
                        status = "undecided"
                    except Exception as e:  # a crash is reported, not fatal
                        status = f"error: {item['kind']} {item.get('algebra')}: {e!r}"
                    results.append((clock() - t0, status))
                wall = clock() - t_rep
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return wall, results

    def close(self):
        pass


class CliRunner:
    """Runs each CLI invocation as a fresh ``python -m stabrec.cli``
    process, one at a time, or in this process through ``cli.main``."""

    def __init__(self, workloads, inputs):
        self.wl = workloads
        self.inputs = inputs
        self.work = OUT / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for name, text in inputs["files"].items():
            (self.work / name).write_text(text, encoding="utf-8")
        self.peak_rss_mb = 0.0
        self.report_s = 0.0
        self.process_s = 0.0

    def _argv(self, argv):
        emit = self.work / "emit"
        shutil.rmtree(emit, ignore_errors=True)
        full = [str(self.work / a) if a.endswith(".json") else a for a in argv]
        return full + ["--emit", str(emit)]

    def _emitted(self, argv):
        emit = self.work / "emit"
        prefix = f"{argv[0]}."
        return {p.name[len(prefix):]: p.read_text(encoding="utf-8")
                for p in emit.glob(prefix + "*")} if emit.exists() else {}

    def _spawn(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "stabrec.cli", *argv],
                                cwd=self.work, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, out.decode("utf-8")

    def _call(self, argv):
        from stabrec import cli
        buf = _stdio.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_stdio.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()

    def repetition(self, tracer=None, cal=None, in_process=False):
        clock = time.perf_counter if cal is None else cal.clock
        if tracer is not None:
            tracer.install()
        try:
            results = []
            t_rep = clock()
            for item in self.inputs["items"]:
                if cal is not None:
                    cal.tick()
                argv = self._argv(item["argv"])
                t0 = clock()
                code, out = (self._call if in_process else self._spawn)(argv)
                dt = clock() - t0
                try:
                    report = json.loads(out) if out else None
                    status = self.wl.check_cli(item["argv"], code, report,
                                               self._emitted(item["argv"]))
                except (self.wl.CheckFailed, ValueError, KeyError) as e:
                    report = None
                    status = f"wrong: {' '.join(item['argv'])}: {e}"
                if report is not None and not in_process:
                    self.report_s += report["timing"]["seconds"]
                    self.process_s += dt
                results.append((dt, status))
            wall = clock() - t_rep
        finally:
            if tracer is not None:
                tracer.uninstall()
        return wall, results

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def timed_phase(runner, workload: str, seconds: float):
    """Repetitions while the next one is expected to end before `seconds`
    plus half a repetition; at least one.  Returns each repetition's wall
    time, its calibrated wall time and the item results."""
    import calibration
    cal = calibration.Calibrator(workload)
    walls, calibrated, results = [], [], []
    t_begin = time.perf_counter()
    while True:
        wall, res = runner.repetition(cal=cal)
        walls.append(wall)
        calibrated.append(cal.calibrated(wall))
        results.extend(res)
        if time.perf_counter() - t_begin + statistics.median(walls) / 2 >= seconds:
            return walls, calibrated, results


def tally(results):
    attempted = len(results)
    bad = [s for _, s in results if s not in ("ok", "undecided")]
    undecided = sum(s == "undecided" for _, s in results)
    return attempted, undecided + len(bad), undecided, bad


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        import workloads
        sys.stdout.write(json.dumps(workloads.SETUP[args.workload](args.seed),
                                    sort_keys=True))
        return 0
    setup_s, inputs = setup(args.workload, args.seed)
    import workloads
    runner = (CliRunner if args.workload == "cli" else InProcess)(workloads, inputs)
    try:
        if args.trace:
            metrics, results = traced_phase(args, runner)
        else:
            walls, calibrated, results = timed_phase(runner, args.workload, args.seconds)
    finally:
        runner.close()
    attempted, failed, undecided, bad = tally(results)
    for s in bad[:20]:
        print(f"check failed: {s}", file=sys.stderr)
    times = [dt for dt, _ in results]
    if not args.trace:
        p90 = (f"{statistics.quantiles(times, n=10)[8] * 1e3:.3f} ms (n={len(times)})"
               if len(times) >= 100 else f"undefined (n={len(times)} < 100)")
        print(f"{args.workload} seed={args.seed}: repetitions={len(walls)} "
              f"items={attempted} setup_s={setup_s:.4f} wall_s={statistics.median(walls):.4f} "
              f"wall_cal_s={statistics.median(calibrated):.4f} "
              f"item_p50_ms={statistics.median(times) * 1e3:.3f} item_p90_ms={p90} "
              f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted}, "
              f"{undecided} undecided) peak_rss_mb={runner.peak_rss_mb:.2f}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_cal_s": (statistics.median(calibrated), "s"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        }
    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not bad else 1


def traced_phase(args, runner):
    """Untraced and traced repetitions in turn, TRACE_PAIRS of each; the
    per-layer metrics come from the last traced one, the overhead from the
    medians.  The CLI is traced in-process through ``cli.main``, after one
    pass of child processes for the run-report and start-up times."""
    import tracing
    cli = args.workload == "cli"
    if cli:
        runner.repetition()
    repetition = functools.partial(runner.repetition, in_process=True) if cli \
        else runner.repetition
    untraced_walls, traced_walls = [], []
    for _ in range(TRACE_PAIRS):
        untraced_walls.append(repetition()[0])
        tracer = tracing.Tracer()
        wall, results = repetition(tracer)
        traced_walls.append(wall)
    untraced = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
    attempted, failed, undecided, _ = tally(results)
    metrics = tracer.metrics()
    report_s, process_s = (runner.report_s, runner.process_s) if cli else (0.0, 0.0)
    metrics.update({
        "cli.report_s": (report_s, "s"),
        "cli.startup_s": (process_s - report_s, "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "workload.items": (attempted, "count"),
        "workload.undecided": (undecided, "count"),
        "workload.fail_ratio": (failed / attempted, "ratio"),
    })
    print(f"{args.workload} seed={args.seed}: traced wall_s={traced:.4f}, untraced "
          f"wall_s={untraced:.4f}, overhead_s={traced - untraced:.4f}, "
          f"{len(tracer.spans)} spans")
    return metrics, results


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if code == 0:
        print(json.dumps(combined))
    return code if code else (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stabrec" / "__init__.py").is_file():
        print(f"run.py: no stabrec source tree at {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
