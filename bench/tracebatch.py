"""The trace-batch workload: one timed pass of obstruction traces.

`trace_all` is the loop itself. The benchmark calls it in-process for
the traced run; run as a script it is the untraced child process:

    PYTHONPATH=src python bench/tracebatch.py WINDOWS.json

reads ``[[n, d, k], ...]`` and prints one JSON object with the loop's
wall time and ``[obstruction, valuation]`` per window, so the parent can
check every result outside the timed region.
"""

from __future__ import annotations

import json
import sys
import time


def trace_all(windows: list[list[int]]) -> list[list]:
    # Look the functions up on their modules at each call, so the
    # tracer's wrappers are seen.
    from apsquares import apsum, obstruction

    out = []
    for n, d, k in windows:
        window = apsum.APWindow(n=n, d=d, k=k)
        if k == 3:
            report = obstruction.trace_length3(window)
        else:
            report = obstruction.valuation_law(window)
        out.append([report.obstruction, report.details["valuation"]])
    return out


def main(path: str) -> None:
    with open(path, encoding="ascii") as fh:
        windows = json.load(fh)
    import apsquares  # noqa: F401  (import cost stays outside the timed loop)

    start = time.perf_counter()
    results = trace_all(windows)
    loop_s = time.perf_counter() - start
    json.dump({"loop_s": loop_s, "results": results}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
