"""Run one volcur benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-sample --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is ``src/volcur`` next to this
directory.  Every workload is a closed loop with one client.

--trace 0  Each op spawns ``python -m volcur.cli ...`` as a fresh process,
           reads all of its stdout, waits for it with os.wait4 and checks the
           output.  Reports the end-to-end metrics.
--trace 1  The same ops run in-process through ``volcur.cli.main``, with and
           without the tracer (alternating which goes first), and every output
           is checked.  Reports the per-layer metrics, per traced op.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it record the environment, the self-check
on corrupted outputs and the known-failure probes.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUPS = 3            # setup_s is the median of this many set-ups
IMPORT_PAIRS = 5      # bare interpreter / import volcur start-ups, interleaved;
                      # fewer (3) beside an untraced run, which only records them
OP_TIMEOUT_S = 120.0  # a child still running after this is killed and failed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
                    "cpu_s_per_op": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms_per_draw"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "count"


@dataclass
class Child:
    """One finished op process: wall and CPU time, peak RSS, exit, output."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


class Launcher:
    """Spawns processes one at a time through launcher.py (see its docstring)."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, args: list[str], cwd: Path) -> Child:
        request = {"args": args, "cwd": str(cwd), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        read = self.proc.stdout.read
        chunks = []
        while True:
            header = read(4)
            if len(header) != 4:
                raise RuntimeError("launcher exited unexpectedly")
            (size,) = struct.unpack("<I", header)
            if size == 0:
                break
            chunks.append(read(size))
        stats = json.loads(self.proc.stdout.readline())
        return Child(stats["wall"], stats["cpu"], stats["rss_mb"], stats["code"],
                     b"".join(chunks), stats["err"].encode("latin-1"))


class Verdicts:
    """Checks op outputs; an output equal to an earlier verified one for the
    same command line passes without re-parsing, and any other output for
    that command line fails, since volcur promises byte-identical stdout."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.verified: dict[tuple[str, ...], str] = {}
        self.first_verified: tuple[Op, bytes] | None = None

    def judge(self, op: Op, code: int, out: bytes, err: bytes) -> bool:
        self.attempted += 1
        key = tuple(op.argv)
        digest = workloads.digest(out)
        if key in self.verified:
            why = None if (code == 0 and self.verified[key] == digest) else (
                "stdout differs from an earlier run with the same arguments")
        else:
            why = checked(op, code, out, err)
            if why is None:
                self.verified[key] = digest
                if self.first_verified is None:
                    self.first_verified = (op, out)
        if why is not None:
            self.failed += 1
            reason = f"{op.argv[0]}: {why}"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return why is None


def checked(op: Op, code: int, out: bytes, err: bytes) -> str | None:
    try:
        return op.check(code, out, err)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return f"unparseable output ({exc})"


def self_check(wl: Workload, verdicts: Verdicts) -> list[str]:
    """Damage a verified output; the checker must reject every damaged copy."""
    if verdicts.first_verified is None:
        return ["no verified output to corrupt"]
    op, out = verdicts.first_verified
    problems = []
    for c in wl.corruptions():
        why = checked(op, 0, c.damage(out), b"")
        print(f"self-check: {c.what} -> {'rejected: ' + why if why else 'ACCEPTED'}")
        if why is None:
            problems.append(f"checker accepted a {c.what}")
    return problems


def run_probes(wl: Workload, cwd: Path, launcher: Launcher) -> None:
    for probe in wl.probes():
        child = launcher.run(["-m", "volcur.cli", *probe.argv], cwd)
        why = checked(Op(probe.argv, probe.check), child.code, child.out, child.err)
        if why is None:
            status = "fixed: output passes the checker"
        elif probe.signature(child.code, child.out, child.err):
            status = f"reproduced ({why})"
        else:
            status = f"fails differently ({why})"
        print(f"known failure {probe.bug}: volcur {' '.join(probe.argv[:3])} ... {status}")


def import_times(cwd: Path, launcher: Launcher, pairs: int) -> tuple[float, float]:
    """Median start-up (ms) of a bare interpreter and of `import volcur`."""
    bare, imported = [], []
    for _ in range(pairs):
        bare.append(launcher.run(["-c", "pass"], cwd).wall)
        imported.append(launcher.run(["-c", "import volcur"], cwd).wall)
    return 1e3 * statistics.median(bare), 1e3 * statistics.median(imported)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    config = np.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten ops beyond it; with fewer than 21
    ops that percentile would not lie above the median, so the slowest op."""
    ordered = sorted(walls)
    if len(ordered) >= 21:
        i = len(ordered) - 11
        return ordered[i], f"p{100 * (i + 1) / len(ordered):.0f} of {len(ordered)} ops"
    return ordered[-1], f"the slowest of {len(ordered)} ops (fewer than 21)"


def cycles(wl: Workload, seconds: float, run_cycle) -> None:
    """Run whole cycles until the next one would end past the deadline."""
    start = time.perf_counter()
    i = 0
    while True:
        began = time.perf_counter()
        run_cycle(i, wl.cycle(i))
        i += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def untraced(wl: Workload, seconds: float, cwd: Path, launcher: Launcher,
             verdicts: Verdicts) -> dict[str, float]:
    children: list[Child] = []
    passed = []

    def run_op(op: Op) -> Child:
        child = launcher.run(["-m", "volcur.cli", *op.argv], cwd)
        passed.append(verdicts.judge(op, child.code, child.out, child.err))
        return child

    def run_cycle(i: int, ops: list[Op]) -> None:
        children.extend(run_op(op) for op in ops)

    run_op(wl.cycle(0)[0])  # warm-up, checked but not timed: the first op of a run is slower
    passed.clear()
    cycles(wl, seconds, run_cycle)
    walls = [c.wall for c in children]
    tail_s, tail_note = tail(walls)
    print(f"op_tail_s is {tail_note}")
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "ops_per_s": sum(passed) / sum(walls),
        "cpu_s_per_op": statistics.median(c.cpu for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
    }


def traced(wl: Workload, seconds: float, verdicts: Verdicts,
           trace_path: Path) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import volcur.cli  # noqa: F401  (loads every volcur module before wrapping)
    from tracer import Tracer

    def in_process(argv: list[str]) -> tuple[int, bytes, bytes, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = sys.modules["volcur.cli"].main(argv)
        wall = time.perf_counter() - start
        return code, out.getvalue().encode(), err.getvalue().encode(), wall

    warm = wl.cycle(0)[0]  # warm-up, checked but not timed: first BLAS calls, lazy imports
    verdicts.judge(warm, *in_process(warm.argv)[:3])
    tracer = Tracer()
    totals = {False: 0.0, True: 0.0}
    stdout_bytes = 0

    def run_cycle(i: int, ops: list[Op]) -> None:
        nonlocal stdout_bytes
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            for op in ops:
                if with_trace:
                    tracer.op += 1
                    tracer.install()
                try:
                    code, out, err, wall = in_process(op.argv)
                finally:
                    tracer.uninstall()
                if with_trace:
                    tracer.end_op()
                    stdout_bytes += len(out)
                totals[with_trace] += wall
                verdicts.judge(op, code, out, err)

    cycles(wl, seconds, run_cycle)
    ops = tracer.op + 1
    metrics = tracer.layer_metrics(ops)
    metrics["cli.stdout_bytes"] = stdout_bytes / ops
    metrics["trace.overhead_pct"] = 100.0 * (totals[True] - totals[False]) / totals[False]
    self_s, _ = tracer.self_times()
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    print("largest self time per op: " + ", ".join(
        f"{name} {1e3 * s / ops:.1f} ms" for name, s in top))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"ops": ops, "spans": tracer.dump()}))
    print(f"spans of {ops} traced ops written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "volcur" / "cli.py").is_file():
        print(f"error: no volcur sources at {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with Launcher(env) as launcher:
            setups, setup_times = [], []
            for _ in range(SETUPS if not args.trace else 1):
                start = time.perf_counter()
                wl = WORKLOADS[args.workload]()
                wl.setup(args.seed, workdir)
                warm = launcher.run(["-c", "import volcur"], workdir)
                if warm.code != 0:
                    print(f"error: cannot import volcur: {warm.err.decode()[-500:]}",
                          file=sys.stderr)
                    return 2
                setup_times.append(time.perf_counter() - start)
                setups.append(wl)
            wl = setups[-1]

            verdicts = Verdicts()
            if args.trace:
                trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
                metrics = traced(wl, args.seconds, verdicts, trace_path)
            else:
                metrics = untraced(wl, args.seconds, workdir, launcher, verdicts)
                metrics["setup_s"] = statistics.median(setup_times)
            problems = self_check(wl, verdicts)
            if not args.trace:
                run_probes(wl, workdir, launcher)
            bare_ms, import_ms = import_times(
                workdir, launcher, IMPORT_PAIRS if args.trace else 3)
            if args.trace:
                metrics["volcur.import_ms"] = import_ms - bare_ms
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment()))
    print(f"interpreter start {bare_ms:.1f} ms, import volcur adds "
          f"{import_ms - bare_ms:.1f} ms (medians)")
    for reason, count in sorted(verdicts.reasons.items()):
        print(f"FAILED x{count}: {reason}")
    units = END_TO_END_UNITS if not args.trace else {m: layer_unit(m) for m in metrics}
    result = {
        "correct": verdicts.failed == 0 and not problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in sorted(units.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
