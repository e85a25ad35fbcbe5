"""Run one command and report its exit code, wall time, peak RSS and CPU
time (user + system, including the descendants it waited for).

    python3 bench/runner.py REPORT -- CMD [ARG...]

run.py starts every child through this small process.  A process's
ru_maxrss includes the peak of the process it was forked from, so a command
forked straight from the benchmark would report at least the benchmark's own
peak (about 20 MB, more after it generated a large tree).  Forked from here
it reports at least this bare interpreter's, which is below that of any
treedist process.  On SIGTERM the command is killed and reaped first.
"""

import os
import signal
import sys
import time


def main() -> int:
    report, cmd = sys.argv[1], sys.argv[3:]
    children = []

    def stop(signum, frame):
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    start = time.perf_counter()
    children.append(os.posix_spawn(cmd[0], cmd, os.environ))
    _, status, usage = os.wait4(children[0], 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        cpu = usage.ru_utime + usage.ru_stime
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss} {cpu!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
