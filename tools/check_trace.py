#!/usr/bin/env python3
"""Checks that a --trace-out export is a trace Perfetto can load.

The export must parse as Chrome trace_event JSON, contain at least one
complete ("X") span, and give no complete span a negative duration — a
trace with visible slices, not just an empty envelope.

Usage:
  check_trace.py TRACE_JSON                 # validate an existing export
  check_trace.py TRACE_JSON BINARY [ARG...] # run `BINARY ARG... \
                                            #   --trace-out=TRACE_JSON` first

Exit status 0 when the trace holds, 1 with the reason on stderr otherwise.
"""

import json
import subprocess
import sys


def check(path):
    """Returns None when the trace at `path` holds, else what is wrong."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        return f"cannot read trace JSON: {err}"
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        return "no traceEvents list"
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        return "trace has no complete ('X') spans"
    for e in complete:
        if e.get("dur", -1) < 0:
            return f"negative or missing duration: {e}"
    print(f"{len(events)} events, {len(complete)} complete spans: OK")
    return None


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    path, command = argv[0], argv[1:]
    if command:
        result = subprocess.run(command + [f"--trace-out={path}"],
                                stdout=subprocess.DEVNULL, check=False)
        if result.returncode != 0:
            print(f"{command[0]} exited {result.returncode}",
                  file=sys.stderr)
            return 1
    problem = check(path)
    if problem is not None:
        print(f"{path}: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
