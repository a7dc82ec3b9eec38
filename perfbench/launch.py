"""Start, time and reap the commands that run.py asks for, one at a time.

On Linux a child's peak RSS (``ru_maxrss``) is at least its parent's RSS
when it was started, and run.py grows while it checks outputs.  Commands
are therefore started from this small process, so that each command's
peak RSS is its own.

Protocol, one JSON object per line: run.py writes
``{"argv", "out", "err", "timeout"}`` to stdin, and this process answers
``{"seconds", "rc", "rss_kb"}`` on stdout once the command has ended.  A
command still running after ``timeout`` seconds is killed.  The process
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        reply = {"seconds": seconds, "rc": os.waitstatus_to_exitcode(status),
                 "rss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
