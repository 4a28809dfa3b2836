"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 -S perfbench/spawn.py TIMEOUT_S PROGRAM [ARGS...]

Linux charges a child the peak RSS of the address space it was forked from,
so a command forked straight from the benchmark process would report the
benchmark's own memory. Forked from this small interpreter instead, the peak
is the command's own. The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout, argv = float(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
