"""Run benchmark operations one at a time; report wall time, exit code and peak RSS.

Reads one JSON request per line on stdin and answers each with one JSON line on
stdout.  A child's ``ru_maxrss`` starts from the high-water mark of the process
that spawned it, and run.py holds parsed fields and reports.  This
process holds nothing, so the peak it reports for a child is the child's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"],
            cwd=request["cwd"],
            env=request["env"],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not try again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
