"""Runs CLI invocations for the cli-mix worker and reports their peak memory.

    python3 -S launcher.py

Reads one JSON request per line on stdin, ``{"argv": [...], "timeout": s}``,
runs ``python -m arndt.cli`` with it and answers with one JSON line,
``{"code": exit code, "stdout": text, "seconds": its CPU time}`` (or
``{"timeout": true}``).  At end of input it answers
``{"maxrss_kb": peak resident set of any invocation}`` and exits.

A spawned process is charged the resident set of the process that spawned
it, so the invocations are run from this small interpreter (no ``site``,
no library) rather than from the worker, whose own memory would otherwise
be reported as the CLI's.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "arndt.cli", *request["argv"]],
                capture_output=True,
                timeout=request["timeout"],
            )
        except subprocess.TimeoutExpired:
            reply = {"timeout": True}
        else:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            reply = {
                "code": proc.returncode,
                "stdout": proc.stdout.decode(),
                "seconds": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.write(json.dumps({"maxrss_kb": peak}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
