"""Run one repetition of a workload in this process and print it as JSON.

Started by ``run.py`` in a fresh interpreter per repetition, with the BLAS
thread variables pinned to 1 and ``PYTHONPATH`` pointing at the checkout's
``src``.  ``import lriga`` is timed first, before anything else loads
numpy, because every CLI invocation pays that import.

    python3 bench/child.py <workload> <seed> <trace 0|1>
"""

import json
import os
import sys
import time


def main(argv):
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    t = time.perf_counter()
    import lriga
    import_s = time.perf_counter() - t
    if os.path.dirname(os.path.dirname(os.path.abspath(lriga.__file__))) != src:
        raise SystemExit("lriga imported from %s, not from %s"
                         % (lriga.__file__, src))

    import spans
    import workloads

    if not traced:
        out = workloads.run(name, seed)
    else:
        with spans.Tracer() as tracer:
            out = workloads.run(name, seed)
        out["layers"] = spans.layer_metrics(tracer)
        out["traced_solve_span_s"] = spans.solve_span_s(tracer)
        trace_failures = spans.loop_failures(
            tracer, out["iterations"], workloads.components(name))
        if trace_failures:
            out["failures"] += trace_failures
            out["failed"] += 1
    out["import_s"] = import_s
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
