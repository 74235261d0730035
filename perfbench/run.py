"""poppersim benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run times the set-up a user
pays (fresh interpreter, ``import poppersim.cli``, input loading) a few
times before and a few times after the timed loop.  The loop repeats the
workload's operation with one client until S seconds have passed, checking
every output.  The last line
of stdout is {"correct", "attempted", "failed", "metrics"}:

- ``--trace 0``: the end-to-end metrics setup_s, op_s, op_cpu_s and
  peak_rss_mb, all from untraced operations.
- ``--trace 1``: the per-layer metrics.  Each round runs the operation on one
  input once untraced and once with the layer tracer installed; layer figures are
  averaged over the traced operations, and trace.overhead_s is the traced
  minus the untraced median op time.  The spans of the run are written to
  perfbench/out/spans-<workload>-<seed>.json.

See perfbench/README.md for the workloads, checks and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"
# set-up probes run before and again after the timed loop, so that the
# median samples the host's speed at both ends of the run
SETUP_REPEATS = 6
WORKLOADS = ("fixture_runs", "strekalov_sweep", "layout_scan")


def probe_setup(run_child, input_files) -> list[tuple[float, float]]:
    """(process wall s, import s) of SETUP_REPEATS fresh set-up probes."""
    probes = []
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, str(BENCH / "setup_probe.py"),
                           *map(str, input_files)], OUT)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        probes.append((child.wall_s, json.loads(child.stdout)["import_s"]))
    return probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "src" / "poppersim" / "cli.py").is_file():
        sys.stderr.write(f"error: no poppersim source under {REPO / 'src'}; "
                         "run from the root of a poppersim checkout\n")
        return 2
    sys.path.insert(0, str(REPO / "src"))
    OUT.mkdir(exist_ok=True)
    # One BLAS thread, for this process and the children, before numpy loads.
    # With OpenBLAS's default two, the idle worker spins after each call and
    # the same layout_scan op took 0.26 or 0.33 s depending on what else ran
    # on the second vCPU.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import workloads as wl
    from tracing import Tracer, append_spans, dump_spans, layer_metrics, \
        layer_modules, load_spans

    workload = wl.make(args.workload, args.seed, OUT)
    probes = probe_setup(wl.run_child, workload.input_files())
    in_process = isinstance(workload, wl.LayoutScan)
    tracer = Tracer()
    ops = {False: [], True: []}  # traced? -> [OpResult]

    def run_op(traced: bool, doc):
        op_id = len(ops[False]) + len(ops[True])
        if not in_process:
            result = workload.run_op(op_id, traced)
            for path in result.span_files:
                if path.exists():  # absent when a traced child died early
                    append_spans(tracer.spans, load_spans(path))
                    os.remove(path)
        elif traced:
            tracer.op = op_id
            tracer.install(layer_modules())
            try:
                result = workload.run_op(doc)
            finally:
                tracer.uninstall()
        else:
            result = workload.run_op(doc)
        ops[traced].append(result)
        for kind in ("error", "wrong"):
            message = getattr(result, kind)
            if message:
                sys.stderr.write(f"op {op_id} {kind}: {message}\n")

    start = time.perf_counter()
    rounds = 0
    while True:
        doc = workload.next_layout() if in_process else None
        # a traced round runs one input untraced and traced, each first in turn
        order = (True, False) if rounds % 2 else (False, True)
        for traced in order if args.trace else (False,):
            run_op(traced, doc)
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    probes += probe_setup(wl.run_child, workload.input_files())
    for traced, done in ops.items():
        if done:
            sys.stderr.write(f"{'traced' if traced else 'untraced'} op wall s: "
                             f"{' '.join(f'{r.wall_s:.4f}' for r in done)}\n")

    results = ops[False] + ops[True]
    untraced_op_s = statistics.median(r.wall_s for r in ops[False])
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in layer_metrics(tracer.spans, len(ops[True])).items()}
        metrics["process.import_s"] = {
            "value": statistics.median(p[1] for p in probes), "unit": "s"}
        overhead = statistics.median(r.wall_s for r in ops[True]) - untraced_op_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        dump_spans(OUT / f"spans-{args.workload}-{args.seed}.json", tracer.spans)
    else:
        if in_process:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        else:
            peak = statistics.median(r.rss_mb for r in ops[False])
        metrics = {
            "setup_s": {"value": statistics.median(p[0] for p in probes),
                        "unit": "s"},
            "op_s": {"value": untraced_op_s, "unit": "s"},
            "op_cpu_s": {"value": statistics.median(r.cpu_s for r in ops[False]),
                         "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    print(json.dumps({"correct": not any(r.wrong for r in results),
                      "attempted": len(results),
                      "failed": sum(1 for r in results if r.error or r.wrong),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
