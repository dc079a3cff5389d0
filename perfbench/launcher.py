"""Spawn the op processes of a run and relay their output and resource use.

The peak RSS that wait4 reports for a child also covers the peak of the
process that spawned it, because the child starts as a copy of that process
until it execs.  run.py holds matrices and reference values, so it spawns ops
through this small process, which imports no numpy and streams each op's
stdout through without keeping it.

Protocol, one op at a time.  run.py writes one JSON line
{"args": [...], "cwd": "...", "timeout": seconds}.  This process answers with
frames of the op's stdout (a 4-byte little-endian length, then that many
bytes), an empty frame, and one JSON line with wall, cpu, rss_mb, code and the
op's stderr as latin-1 text.
"""
from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import threading
import time


def run_op(request: dict, out) -> dict:
    with open(os.path.join(request["cwd"], "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *request["args"]], stdout=subprocess.PIPE,
                                stderr=err, cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            while chunk := proc.stdout.read1(1 << 16):
                out.write(struct.pack("<I", len(chunk)))
                out.write(chunk)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode("latin-1")
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode, "err": stderr}


def main() -> None:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        stats = run_op(json.loads(line), out)
        out.write(struct.pack("<I", 0))
        out.write(json.dumps(stats).encode() + b"\n")
        out.flush()


if __name__ == "__main__":
    main()
