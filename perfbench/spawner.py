"""Start and reap the benchmark's child processes, one at a time.

Linux carries a process's peak RSS across ``exec``, so a child forked from
``run.py`` reports at least the peak RSS of ``run.py`` itself (which grows
as it parses megabytes of output) as its ``wait4`` max-RSS.  This process
stays small, so the children it spawns report their own peak.

Protocol: one JSON request per stdin line, ``{"argv", "env", "stdout",
"stderr", "timeout"}``, with the output paths inside the checkout; one JSON
reply per stdout line, ``{"code", "timed_out", "wall_s", "max_rss_kb",
"cpu_s"}``.
``code`` is the exit code, negative for a signal.  Ends at EOF on stdin.
"""

import json
import os
import select
import signal
import sys
import time


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timed_out = False
    try:
        ready, _, _ = select.select([pidfd], [], [], request["timeout"])
        if not ready:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "wall_s": wall,
        "max_rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
