"""Fork server that starts every timed process of the benchmark.

    python3 -S bench/spawner.py

Reads one JSON command list per line on stdin, runs it with stdout piped
back to this process and stderr discarded, and answers with one JSON line:
seconds from spawn to exit, the child's max-RSS from os.wait4, its exit
code, and the SHA-256 and length of its stdout.  Children inherit this
process's working directory and environment.

It exists to stay small.  A child's max-RSS starts at the RSS of the process
that spawned it, so a child spawned by `run.py` (about 20 MB once
it has imported what it needs) could never read below that, while a
`simcores` job with small output peaks near 16.5 MB.  This process imports
only builtin modules and reads output in small chunks, so it stays near
10 MB.
"""

import json
import os
import signal
import sys
import time

try:
    from _sha256 import sha256  # builtin; hashlib would load OpenSSL (+4 MB)
except ImportError:
    from hashlib import sha256

CHUNK = 1 << 16
# A job is killed after this long, so a hung program cannot stall the run.
TIMEOUT_S = 120


def run(command):
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_CLOSE, read_end),
        (os.POSIX_SPAWN_CLOSE, write_end),
    ])
    os.close(write_end)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    digest, size = sha256(), 0
    try:
        while chunk := os.read(read_end, CHUNK):
            digest.update(chunk)
            size += len(chunk)
    finally:
        os.close(read_end)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
    return {"seconds": time.perf_counter() - start,
            "max_rss_mb": usage.ru_maxrss / 1024,
            "exit": os.waitstatus_to_exitcode(status),
            "sha256": digest.hexdigest(), "bytes": size}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
