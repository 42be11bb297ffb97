"""
Spawns the benchmark's processes on request and reports how each ended.

A child's ru_maxrss starts at its parent's peak RSS, because the memory
map is copied on fork.  The benchmark's own peak grows while it checks
outputs, so it starts this small process first and has it spawn every
op; then an op's peak RSS is the op's own.

Protocol, one JSON object per line: the request {"argv", "stdout",
"stderr", "timeout"} on stdin, the answer {"start", "end", "code",
"rss_kb", "timed_out"} on stdout.  Times are time.perf_counter values.
The process exits at the end of its input.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    killed = threading.Event()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "end": end,
        "code": proc.returncode,
        "rss_kb": usage.ru_maxrss,
        "timed_out": killed.is_set(),
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
