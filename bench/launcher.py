"""Child-process launcher for run.py.

On Linux a child's ru_maxrss also counts the memory of the process that
forked it.  run.py grows while it checks outputs, so it starts this small
launcher first and has it start every measured process.  Requests arrive
as one JSON object per line on stdin ({"argv", "stderr", "timeout"}); each
answer is one JSON line on stdout with the wall time, ru_maxrss and exit
code.  The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stderr_path, timeout):
    done = threading.Event()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            if not done.is_set():
                proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
