"""ksembed benchmark: one workload per run, outputs checked on every op.

    python3 perfbench/run.py --workload report165 --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it needs nothing but the sources under
src/ and the files in this directory, and writes only to .bench_work/.  Ops
run one at a time in a closed loop, with the library at its default single
thread, while the next op is expected to end within --seconds.

--trace 0 prints the end-to-end metrics of the named workload: wall_s, the
median op; setup_s, the median of several set-ups, each in a fresh process;
peak_rss_mb.  Both times are rescaled to a reference core speed (speed.py),
and the process and its children are pinned to one core for that.  Failed
ops are counted in "failed" of "attempted" (error_rate = failed / attempted).
The summary line before the result also gives the raw median and the
fastest op.

--trace 1 traces all three workloads, whichever is named, so that every
per-layer metric has a measured value: each round runs an op untraced and
again under the tracer (tracing.py); --seconds is shared between the
workloads.  Metric names are <workload>.<module>.<function>.<stat>.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without the sources under src/ it exits 2 and prints no result.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("report165", "stress741", "solve165")
SETUP_PROBES = 8  # extra set-ups, each in a fresh process
PROBE_TIMEOUT_S = 60


class Tally:
    """Runs ops, rescales their times by the host speed, and counts attempts
    and failures."""

    def __init__(self, speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.raw_s: list[float] = []

    def run(self, workload, op) -> tuple[float, bool]:
        """One op: its time at reference speed, and whether it passed."""
        workload.prepare()
        first = len(self.speed.samples)
        self.speed.sample()
        busy_s = self.speed.busy_s
        t = time.perf_counter()
        try:
            op()
            ok = True
        except Exception:  # a failed op is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        # less the time the periodic sampler paused this process
        op_s = time.perf_counter() - t - (self.speed.busy_s - busy_s)
        self.speed.sample()
        self.raw_s.append(op_s)
        self.attempted += 1
        self.failed += not ok
        # rescaled by the speed sampled just before, during and after the op
        return op_s * self.speed.factor(first), ok


def repeat(step, budget_s: float) -> None:
    """Call ``step`` back to back while the next call is expected to end
    within ``budget_s`` of the first one's start; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > budget_s:
            return


def op_times(samples: list[tuple[float, bool]]) -> list[float]:
    """Times of the ops that passed, or of all ops if none did."""
    return [s for s, passed in samples if passed] or [s for s, _ in samples]


def setup_probe(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.splitlines()[-1])


def timed_run(name: str, seed: int, seconds: float) -> dict:
    from speed import SpeedSampler
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    setups = [time.perf_counter() - T0]
    with SpeedSampler(periodic=False) as setup_speed:
        for _ in range(SETUP_PROBES):
            setup_speed.sample()
            setups.append(setup_probe(name, seed))

    samples = []
    with SpeedSampler(periodic=not workload.spawns_child) as speed:
        tally = Tally(speed)
        repeat(lambda: samples.append(tally.run(workload, workload.op)), seconds)

    times = op_times(samples)
    wall_s = statistics.median(times)
    setup_s = statistics.median(setups) * setup_speed.factor()
    rss = workload.peak_rss_mb()
    print(f"{name}: wall_s {wall_s:.4f} s (median of {len(times)} ops; raw median "
          f"{statistics.median(tally.raw_s):.4f} s, fastest {min(tally.raw_s):.4f} s), "
          f"setup_s {setup_s:.4f} s (median of {len(setups)}), peak_rss_mb {rss:.1f} MiB, "
          f"error_rate {tally.failed / tally.attempted:g} ({tally.failed}/{tally.attempted})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }


def trace_run(seed: int, seconds: float) -> dict:
    from speed import SpeedSampler
    from tracing import LAYER_METRICS, Tracer, layer_values, unit
    from workloads import WORK, WORKLOADS

    tracer = Tracer()
    # no periodic samples: the handler's time would land in the spans
    tally = Tally(SpeedSampler(periodic=False))
    metrics = {}
    for name in NAMES:
        workload = WORKLOADS[name](seed)
        workload.setup()
        child, untraced, traced, traced_ops = [], [], [], []

        def round_():
            if workload.spawns_child:
                child.append(tally.run(workload, workload.op))
            untraced.append(tally.run(workload, workload.in_process_op))
            tracer.op += 1
            traced_ops.append(tracer.op)
            with tracer:
                traced.append(tally.run(workload, workload.in_process_op))

        repeat(round_, seconds / len(NAMES))
        values = layer_values(tracer, traced_ops, LAYER_METRICS[name])
        untraced_s = statistics.median(op_times(untraced))
        values["trace.overhead_s"] = statistics.median(op_times(traced)) - untraced_s
        if workload.spawns_child:
            # the cold child's wall time less the same command in-process
            values["cli.startup_s"] = statistics.median(op_times(child)) - untraced_s
        for metric, value in values.items():
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit(metric)}
            print(f"{name}.{metric:<58} {value:>14.6g} {unit(metric)}")

    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "trace_spans.json"), "w") as fh:
        json.dump(tracer.dump(), fh)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ksembed", "cli.py")):
        print(f"perfbench: no ksembed sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # one core for this process and its children, so that the speed samples
    # (speed.py) are taken on the core the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import ksembed

    if not os.path.abspath(ksembed.__file__).startswith(SRC + os.sep):
        print(f"perfbench: ksembed imported from {ksembed.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).setup()
        print(time.perf_counter() - T0)
        return 0
    if args.trace:
        result = trace_run(args.seed, args.seconds)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
