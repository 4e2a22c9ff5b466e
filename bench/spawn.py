"""Run one command; report its exit status, wall time and peak RSS.

    python -I -S bench/spawn.py REPORT TIMEOUT_S PROGRAM [ARG ...]

On Linux a child's ru_maxrss also counts the resident size of the
process it was spawned from, so children spawned straight from the
benchmark process would report the benchmark's size. Every measured
child is therefore spawned from this small interpreter, which imports
only built-in modules. The child inherits stdin, stdout, stderr and the
environment; wall time runs from spawn to exit. REPORT receives one
line: "<exit status, or timeout> <wall seconds> <peak RSS in KiB>".
"""

import os
import signal
import sys
import time


def main() -> None:
    report, timeout_s, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    timed_out = []
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def kill(signum, frame):
        timed_out.append(signum)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    outcome = "timeout" if timed_out else os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="ascii") as fh:
        fh.write(f"{outcome} {wall_s!r} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
