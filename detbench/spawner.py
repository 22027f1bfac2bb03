"""Child launcher with a small memory footprint.

Linux starts a child's peak RSS, as wait4 and getrusage report it, from the
high-water mark of the process that spawned it.  The benchmark process holds
numpy and parsed results, so every measured child is started from this
small process instead.  Protocol: one JSON request per line on stdin
(argv, cwd, env, stdout and stderr paths), one JSON reply per line on stdout
(exit status, wall time from spawn to exit, CPU time, peak RSS in KiB).
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"], stdout=out, stderr=err
            )
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "status": child.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
