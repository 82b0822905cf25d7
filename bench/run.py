"""Closed-loop benchmark of crossband.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
One caller issues ops back to back, each starting when the previous one
returned, for S seconds after an untimed warm-up op.

Times are in calibrated seconds (see Calibration), which remove the
machine's speed drift; the record line keeps the wall times too.

With --trace 0 the ops are timed end to end through the public API and the
end-to-end metrics are reported. With --trace 1 each op is also replayed
stage by stage, with a span around every public call into a module, and the
per-layer metrics are reported.

Every op's output is checked. An op *misses* when the library reports that
it could not register (RegistrationError) or its estimate is outside the
accuracy tolerance; a miss counts as a failed op. Any other failure (an
unexpected exception, an output off its reference, a replay differing from
the public call) is a wrong output and makes "correct" false.

The last line of standard output is one JSON object {correct, attempted,
failed, metrics}. The line before it, prefixed "record:", carries the
machine, versions, op times, the tail percentile, failures with their stage,
and a digest of the first ops' outputs, which two runs with one seed share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One closed-loop caller on one core: keep BLAS from spreading over more.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS settings)
import scipy  # noqa: E402
from scipy import ndimage  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5    # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10     # the tail percentile keeps this many samples above it
DIGEST_OPS = 5       # ops (warm-up included) whose outputs form the digest
MISS_STAGE = "accuracy"  # check problem that is a miss, not a wrong output
CAL_SECONDS = 0.010  # the calibration's time on the reference machine, by definition
CAL_WINDOW = 5       # calibrations, centred on a measurement, that set its speed

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("success_rate", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-op span times (median over the traced ops that ran the span).
LAYER_TIMES = (
    "features.harris_s", "features.nms_s", "edges.canny_s", "descriptor.build_s",
    "registration.match_ungated_s", "registration.match_gated_s",
    "registration.consensus_s", "image.warp_s", "image.luminance_s",
    "fusion.scale1_s", "fusion.scale2_s", "fusion.scale4_s", "fusion.combine_s",
    "fusion.restore_color_s", "image_io.decode_s.png8-rgb",
    "image_io.decode_s.png16-gray", "image_io.decode_s.pnm",
    "image_io.encode_s.png", "image_io.encode_s.pnm",
)
# Per-op counts (mean over the traced ops that counted them).
LAYER_COUNTS = (
    ("features.corners", "count", "higher"),
    ("edges.edge_px", "count", "higher"),
    ("descriptor.count", "count", "higher"),
    ("registration.pairs_scored", "count", "lower"),
    ("registration.matches", "count", "higher"),
    ("image_io.bytes_read", "bytes", "lower"),
    ("image_io.bytes_written", "bytes", "lower"),
)
PER_LAYER = (
    tuple((name, "s", "lower") for name in LAYER_TIMES) + LAYER_COUNTS + (
        ("registration.gate_admit_ratio", "ratio", "lower"),
        ("registration.inlier_ratio", "ratio", "higher"),
        ("registration.stage_failures", "count", "lower"),
        ("error_px.mean", "px", "lower"),
        ("failure_rate", "ratio", "lower"),
        ("trace.op_s", "s", "lower"),
        ("trace.untraced_op_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ))


def tail(samples, beyond=TAIL_BEYOND):
    """The highest sample with at least `beyond` samples above it.

    Returns (value, percentile, samples above it). With `beyond` or fewer
    samples no sample qualifies, and the minimum is returned.
    """
    s = sorted(samples)
    k = max(0, len(s) - 1 - beyond)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def _failure(stage, detail, wrong) -> dict:
    return {"stage": stage, "detail": detail, "wrong": wrong}


def stage_of(exc: Exception) -> str:
    """The failing stage an error names ("iteration 2 consensus: ...")."""
    head, sep, _ = str(exc).partition(":")
    return head if sep and head else type(exc).__name__


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Calibration:
    """Tracks the machine's speed with fixed work timed beside every op.

    On a shared 2-vCPU VM, the same code ran 20-50% slower for minutes at a
    time, which spread run medians by more than any bound allows. So the
    benchmark times this calibration after every measurement and reports
    calibrated seconds: wall seconds times CAL_SECONDS over the median of
    the CAL_WINDOW calibration times centred on the measurement. The
    calibration is the benchmark's own code and never calls crossband, so a
    change to the library moves calibrated times exactly as it moves wall
    times. It mixes what the library spends its time on: a scipy filter over
    a 640x480 image, a Python loop of small numpy calls, and a loop over
    numpy scalars.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.img = rng.random((480, 640))
        self.pts = rng.random((64, 2))
        self.row = rng.integers(0, 256, size=1500)
        self.box = np.full(7, 1.0 / 7.0)
        self.times = []

    def _work(self):
        for _ in range(2):
            ndimage.correlate1d(self.img, self.box, axis=0, mode="nearest")
            for i in range(300):
                np.hypot(self.pts[:, 0] - i, self.pts[:, 1]).sum()
            row = self.row.copy()
            for i in range(3, row.size):
                row[i] = (row[i] + row[i - 3]) & 0xFF

    def mark(self) -> int:
        """Time the calibration once; return the index of that time."""
        start = perf_counter()
        self._work()
        self.times.append(perf_counter() - start)
        return len(self.times) - 1

    def seconds(self, wall: float, k: int) -> float:
        """Calibrated seconds of a wall time measured just before mark k."""
        lo = max(0, min(k - CAL_WINDOW // 2, len(self.times) - CAL_WINDOW))
        return wall * CAL_SECONDS / statistics.median(self.times[lo:lo + CAL_WINDOW])


def measure_setup(workload: str, cal: Calibration) -> list[tuple[float, int]]:
    """Wall times, each with its calibration mark, of fresh interpreters
    importing crossband and building the workload's configs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.WORKLOADS[{workload!r}]().configs()")
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append((perf_counter() - start, cal.mark()))
    return times


class Run:
    """The closed loop over one workload, its checks and its samples."""

    def __init__(self, wl, cal: Calibration, tracer=None):
        self.wl = wl
        self.cal = cal
        self.tracer = tracer    # span recorder class, or None for untraced runs
        self.attempted = 0
        self.failures = []      # {"op", "stage", "detail", "wrong"}
        self.op_wall = []       # (untraced op wall time, calibration mark), warm-up excluded
        self.errors_px = []
        self.traced = []        # (tracer, traced wall time, calibration mark) per traced op
        self.stage_failures = 0
        self.digest = hashlib.sha256()

    def loop(self, seconds: float):
        self.op(0, timed=False)
        deadline = perf_counter() + seconds
        i = 1
        while perf_counter() < deadline:
            self.op(i, timed=True)
            i += 1
        for _ in range(CAL_WINDOW // 2):  # the last op's window
            self.cal.mark()

    @property
    def op_s(self) -> list[float]:
        """Calibrated untraced op times."""
        return [self.cal.seconds(wall, k) for wall, k in self.op_wall]

    def op(self, i: int, timed: bool):
        wl = self.wl
        inp = wl.make_input(i)
        self.attempted += 1
        start = perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a failed op is recorded, not fatal
            out, failure = None, _failure(stage_of(exc), repr(exc),
                                          not isinstance(exc, wl.misses))
        else:
            failure = None
        elapsed = perf_counter() - start
        mark = self.cal.mark()
        if timed:
            self.op_wall.append((elapsed, mark))
        if out is not None:
            problem, err = wl.check(inp, out)
            if err is not None:
                self.errors_px.append(err)
            if problem is not None:
                stage = problem.partition(":")[0]
                failure = _failure(stage, problem, stage != MISS_STAGE)
        if i < DIGEST_OPS or self.tracer is not None:
            artifact = (wl.artifact(inp, out, traced=False) if out is not None
                        else repr(failure).encode())
        if i < DIGEST_OPS:
            self.digest.update(artifact)

        if self.tracer is not None:
            tr = self.tracer()
            start = perf_counter()
            try:
                replayed = wl.replay(inp, tr)
            except Exception as exc:
                replayed = None
                self.stage_failures += 1
                failure = failure or _failure(tr.stage, f"replay: {exc!r}",
                                              not isinstance(exc, wl.misses))
            self.traced.append((tr, perf_counter() - start, mark))
            if (replayed is not None and out is not None
                    and wl.artifact(inp, replayed, traced=True) != artifact):
                failure = failure or _failure(
                    "replay", "replay output differs from the public call", True)
        if failure is not None:
            self.failures.append(dict(failure, op=i))

    def end_to_end(self, setup_s) -> dict:
        op_s = self.op_s
        tail_s, _, _ = tail(op_s)
        return {
            "setup_s": statistics.median(setup_s),
            "throughput_ops_per_s": len(op_s) / sum(op_s),
            "op_s.p50": statistics.median(op_s),
            "op_s.tail": tail_s,
            "success_rate": 1.0 - len(self.failures) / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        tracers = [tr for tr, _, _ in self.traced]

        def median_time(name):
            vals = [self.cal.seconds(tr.times[name], k)
                    for tr, _, k in self.traced if name in tr.times]
            return statistics.median(vals) if vals else 0.0

        def mean_count(name):
            vals = [tr.counts[name] for tr in tracers if name in tr.counts]
            return statistics.fmean(vals) if vals else 0.0

        def ratio(num, den):
            d = sum(tr.counts[den] for tr in tracers)
            return sum(tr.counts[num] for tr in tracers) / d if d else 0.0

        walls = [self.cal.seconds(wall, k) for _, wall, k in self.traced]
        traced_op = statistics.median(walls) if walls else 0.0
        untraced_op = statistics.median(self.op_s) if self.op_wall else 0.0
        coverage = [sum(tr.times.values()) / wall for tr, wall, _ in self.traced]
        out = {name: median_time(name) for name in LAYER_TIMES}
        out.update({name: mean_count(name) for name, _, _ in LAYER_COUNTS})
        out.update({
            "registration.gate_admit_ratio": ratio("registration.gate_admitted",
                                                   "registration.gate_offered"),
            "registration.inlier_ratio": ratio("registration.support",
                                               "registration.matches"),
            "registration.stage_failures": self.stage_failures,
            "error_px.mean": statistics.fmean(self.errors_px) if self.errors_px else 0.0,
            "failure_rate": len(self.failures) / self.attempted,
            "trace.op_s": traced_op,
            "trace.untraced_op_s": untraced_op,
            "trace.overhead_s": traced_op - untraced_op,
            "trace.coverage": statistics.median(coverage) if coverage else 0.0,
        })
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crossband" / "__init__.py").is_file():
        print(f"bench: no crossband sources under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    trace = bool(args.trace)
    cal = Calibration()
    for _ in range(CAL_WINDOW // 2):  # the first measurement's window
        cal.mark()
    setup = [] if trace else measure_setup(args.workload, cal)
    wl = workloads.WORKLOADS[args.workload]()
    run = Run(wl, cal, spans.Tracer if trace else None)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        wl.prepare(args.seed, Path(workdir))
        run.loop(args.seconds)
    try:
        work_root.rmdir()
    except OSError:  # another run still uses it
        pass

    setup_s = [cal.seconds(wall, k) for wall, k in setup]
    if trace:
        values, table = run.per_layer(), PER_LAYER
    else:
        values, table = run.end_to_end(setup_s), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    _, tail_pct, tail_beyond = tail(run.op_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "ops_timed": len(run.op_wall), "ops_traced": len(run.traced),
        "tail_percentile": tail_pct, "tail_samples_beyond": tail_beyond,
        "setup_s_samples": setup_s, "op_s_samples": run.op_s,
        "op_wall_s_samples": [wall for wall, _ in run.op_wall],
        "calibration_s": cal.times,
        "failures": run.failures,
        "digest": {"ops": min(DIGEST_OPS, run.attempted),
                   "sha256": run.digest.hexdigest()},
    }
    print("record: " + json.dumps(record, sort_keys=True))
    correct = not any(f["wrong"] for f in run.failures)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
