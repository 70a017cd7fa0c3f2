"""Set-up probe run in a fresh interpreter: import, then two reference `qfi` calls.

Usage: python3 setup_child.py <src-dir>

Prints one JSON line of CLOCK_MONOTONIC readings, which the parent compares
with its own reading taken just before it started this interpreter.  The
second call gives the warm latency that the parent subtracts from the first.
"""

import contextlib
import io
import json
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    sys.path.insert(0, sys.argv[1])
    from cavqfi import cli

    imported = now()
    durations, codes = [], []
    for _ in range(2):
        sink = io.StringIO()
        t0 = now()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(cli.main(["qfi"]))
        durations.append(now() - t0)
    print(json.dumps({"imported": imported, "first_s": durations[0], "warm_s": durations[1], "codes": codes}))


if __name__ == "__main__":
    main()
