"""Start the CLI workload's child processes, one at a time, on request.

The kernel records a child's peak RSS as at least its parent's at the
moment of exec, so children started by the benchmark process itself would
report the benchmark's memory.  This process stays small: it reads one
JSON request per line on stdin, ``{"cmd", "env", "cwd", "stdin", "stdout",
"stderr"}`` with file paths for the three streams (``stdin`` may be null),
runs the command and writes one JSON reply per line: the exit code, the
wall time around spawn and wait, the monotonic time of the spawn, and the
largest peak RSS of any child so far, in KiB.
"""

import json
import resource
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120  # a child still running then is killed


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
            src = open(req["stdin"]) if req["stdin"] else subprocess.DEVNULL
            try:
                spawned = time.monotonic()
                t0 = time.perf_counter()
                proc = subprocess.Popen(req["cmd"], stdin=src, stdout=out, stderr=err,
                                        env=req["env"], cwd=req["cwd"])
                # A blocking wait: waiting with a timeout polls in steps of
                # up to 50 ms, which would round every time measured here.
                watchdog = threading.Timer(TIMEOUT_S, proc.kill)
                watchdog.start()
                try:
                    code = proc.wait()
                finally:
                    watchdog.cancel()
                elapsed = time.perf_counter() - t0
            finally:
                if src is not subprocess.DEVNULL:
                    src.close()
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps({"rc": code, "elapsed_s": elapsed, "spawned": spawned, "peak_kb": peak}),
              flush=True)


if __name__ == "__main__":
    main()
