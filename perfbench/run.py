"""Benchmark entry point: one workload, one seed, one local Ray session.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 10 --trace 0

Run from the root of a checkout of the repository. The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
workload runs again with spans (written under .perfbench_out/) and the
metrics are the per-layer metrics, measured by the layer probes of every
workload. The exit code is 0 only when every output matched its oracle.
"""

from __future__ import annotations

import time

_IMPORT_TIME = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build", "serve", "ingest", "operators")
OBJECT_STORE_BYTES = 768 << 20
# Times are reported at the CPU speed where common.calibration_loop takes
# this long: the median, over five `ingest` runs on a 1-CPU reference
# machine (Xeon, 2.1 GHz), of each run's median loop time; see README.md.
CALIBRATION_REFERENCE_S = 0.00157
_SPEED_POWER = {"s": 1, "ms": 1, "1/s": -1}


def process_start_time() -> float:
    """Wall-clock start of this process (set-up time counts from here)."""
    try:
        with open("/proc/self/stat") as f:
            ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/stat") as f:
            btime = next(int(line.split()[1]) for line in f if line.startswith("btime"))
        return btime + ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, StopIteration):
        return _IMPORT_TIME


def nproc() -> int:
    """The CPU count `nproc` prints (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return max(1, int(out.stdout))
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def confine_session(n: int) -> None:
    """Move this process and the Ray session it started, every thread of
    them, onto n CPUs; processes started later inherit the set. A machine
    whose `nproc` is n may show more CPUs, and Ray's processes spread over
    them would make latency depend on how the host schedules the extra ones.
    Called after ray.init, so the session starts at full speed."""
    import psutil  # shipped with Ray

    cpus = sorted(os.sched_getaffinity(0))[-n:]
    me = psutil.Process()
    for proc in [me] + me.children(recursive=True):
        try:
            tids = [t.id for t in proc.threads()]
        except psutil.Error:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(tid, cpus)
            except OSError:  # the thread has exited
                pass


def scale_to_reference(metrics: dict, units: dict,
                       calibration: list[float]) -> tuple[dict, float]:
    """Rescale, in place, the time and rate metrics measured while
    `calibration` was sampled to the reference CPU speed; return the
    unscaled metrics and the factor. setup_s stays as measured: it is
    dominated by process start-up, which the calibration loop does not
    track."""
    import statistics

    unscaled = dict(metrics)
    factor = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    for name, value in metrics.items():
        power = _SPEED_POWER.get(units[name])
        if power is not None and name != "setup_s":
            metrics[name] = value * factor ** power
    return unscaled, factor


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import the engine from this checkout, and make it importable in Ray
    workers too: they start from the session's PYTHONPATH, not from this
    script's sys.path."""
    if not os.path.isdir(os.path.join(ROOT, "elasticsearch_ray")):
        raise SystemExit(f"perfbench: no elasticsearch_ray package under {ROOT}")
    sys.path.insert(0, ROOT)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    import elasticsearch_ray

    where = os.path.dirname(os.path.dirname(os.path.abspath(elasticsearch_ray.__file__)))
    if where != ROOT:
        raise SystemExit(f"perfbench: elasticsearch_ray imported from {where}, not {ROOT}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still leaves through the `finally` that stops Ray
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = process_start_time()
    _import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]

    import importlib

    import ray

    from perfbench.common import Context

    ncpu = nproc()
    work = os.path.join(ROOT, ".perfbench_runs",
                        f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(work=work, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), nproc=ncpu, process_start=start)
    modules = {w: importlib.import_module(f"perfbench.wl_{w}") for w in WORKLOADS}
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    try:
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        confine_session(ncpu)
        modules[args.workload].run(ctx)
        ctx.metrics["setup_s"] = ctx.setup_s
        ctx.metrics["peak_mem_mb"] = ctx.memory.total_mb()
        unscaled, factor = scale_to_reference(ctx.metrics, units, ctx.calibration)
        if args.trace:
            traced_e2e = dict(ctx.metrics)
            ctx.metrics = {}
            ctx.counting = False  # probe outputs are checked, not counted
            ctx.calibration = []
            ctx.checkpoint()
            for w in WORKLOADS:
                with ctx.tracer.span(f"layers.{w}"):
                    modules[w].layers(ctx)
                ctx.checkpoint()
            unscaled, factor = scale_to_reference(ctx.metrics, units, ctx.calibration)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass
    if args.trace:
        out = os.path.join(ROOT, ".perfbench_out",
                           f"trace-{args.workload}-s{args.seed}-p{os.getpid()}.jsonl")
        ctx.tracer.write(out)
        with open(out, "a") as f:
            f.write(json.dumps({"traced_e2e": traced_e2e, "layers": ctx.metrics,
                                "layers_unscaled": unscaled, "speed_factor": factor}) + "\n")
    missing = sorted(set(wanted) - set(ctx.metrics))
    extra = sorted(set(ctx.metrics) - set(wanted))
    if missing or extra:
        raise SystemExit(f"perfbench: metric set mismatch, missing={missing} extra={extra}")
    correct = not ctx.errors
    if ctx.failed_by_fault:
        print(f"[perfbench] failed operations by known fault: {ctx.failed_by_fault}",
              file=sys.stderr)
    # the same metrics before rescaling, and the factor: a diagnostic line
    print(json.dumps({"unscaled": {n: float(unscaled[n]) for n in wanted},
                      "speed_factor": factor}))
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {n: {"value": float(ctx.metrics[n]), "unit": units[n]} for n in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
