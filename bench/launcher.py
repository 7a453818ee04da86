"""Spawns the benchmark's commands and reports their wall time and peak
memory.

On Linux the maximum resident set size that wait4 reports for a child
starts at the resident size of the process that spawned it. run.py holds
the generated inputs and reference outputs, so it hands every command to
this small process instead, which stays a few megabytes in size.

Protocol: one JSON object per line on stdin,
{"argv": [...], "stdout": path, "stderr": path}; one JSON object per line
on stdout, {"seconds": wall time, "rss_kb": peak RSS, "code": exit code}.
A command still running after TIMEOUT_S is killed and reported with the
signal's negative exit code. The launcher exits when stdin closes.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 120


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
        argv = request["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except Timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - start
        print(json.dumps({"seconds": seconds, "rss_kb": usage.ru_maxrss,
                          "code": os.waitstatus_to_exitcode(status)}),
              flush=True)


if __name__ == "__main__":
    main()
