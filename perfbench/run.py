#!/usr/bin/env python3
"""adflow benchmark: train, evaluate and serve workloads.

    python3 perfbench/run.py --workload {train,evaluate,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. Each run:

1. starts one stage worker per workload (train, evaluate, serve): a child
   process that runs rounds of that stage on a fixed seed when asked. The
   first round of each, untimed, trains the checkpoints that `evaluate` and
   `serve` load and gives the quality metrics, which then depend only on
   the code;
2. measures set-up: a fresh process imports adflow and loads the config,
   checkpoints and inputs the workload needs, several times (untraced runs);
3. for ``--seconds`` seconds, runs rounds of the workload, generated from
   ``--seed``, in this process, interleaved with rounds of the other two
   stage workers, so that all three share the window and its machine speed
   and every run reports every end-to-end metric; every output is checked;
4. prints a table of every metric with its unit, and as the last line a JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics of BENCHMARK.json untraced, or its per-layer metrics
   with ``--trace 1``.

With ``--trace 1`` only the workload runs in the window, its rounds
alternating between untraced and traced with every public adflow function
wrapped (see spans.py); their outputs must be byte-identical. The full
result, with the environment, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

STAGES = ("train", "evaluate", "serve")   # train first: it makes checkpoints
STAGE_SEED = 0
STAGE_SIZES = {"train": {"n_train": 32}, "evaluate": {"n_eval": 8},
               "serve": {"n_eval": 24}}
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60


def pin_blas_threads() -> None:
    """One BLAS thread in every process of the run.

    The workloads are one client in one process, and an idle BLAS thread
    spins on a core that a shared 2-CPU host then lacks, which makes the
    timings swing more.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in libs:
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    sources = sorted((SRC / "adflow").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
        "src_sha256": digest.hexdigest(), "src_adflow_lines": lines,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q: float):
    import numpy
    return float(numpy.percentile(values, q)) if values else None


# ---------------------------------------------------------------------------
# Stage workers: the other workloads' stages, in child processes

def run_stage_worker(stage_dir: Path, stage: str) -> None:
    """Child process: rounds of one stage on ``STAGE_SEED``, on request.

    The first round runs at start, untimed: it trains the checkpoints
    (train) or writes the first eval set (serve) and warms the process, and
    its outputs give the quality metrics. Then each line on standard input
    runs one more round and is answered by one line on standard output. At
    the end of input the measurements go to ``<stage>.json``.
    """
    from workloads import Checks, Workload, loss_tail, write_config
    checks = Checks()
    config = stage_dir / f"{stage}.cfg"
    write_config(config, STAGE_SEED, stage_dir, STAGE_SIZES[stage])
    wl = Workload(stage, config, None, checks)
    wl.round(STAGE_SEED)
    quality = {}
    if stage == "train":
        quality = {
            "quality.vel_final_loss": loss_tail(stage_dir / "train_vel_loss.csv"),
            "quality.mr_final_loss": loss_tail(stage_dir / "train_mr_loss.csv")}
    elif stage == "evaluate":
        est = [r for r in wl.check_ablation(stage_dir / "ablation.csv")
               if (r[1], r[2]) == ("estimated", "net")]
        quality = {
            "quality.si_sdr_impr_db": statistics.fmean(float(r[7]) for r in est),
            "quality.tau_rmse": statistics.fmean(
                (float(r[4]) - float(r[3])) ** 2 for r in est) ** 0.5,
            "quality.lsd_db": statistics.fmean(float(r[8]) for r in est)}
    wl.calls = {}
    print("ready", flush=True)
    for _ in sys.stdin:
        wl.round(STAGE_SEED)
        print("done", flush=True)
    result = {"calls": wl.calls, "work": wl.work, "quality": quality,
              **checks.as_dict()}
    (stage_dir / f"{stage}.json").write_text(json.dumps(result), "utf-8")


class StageWorker:
    """Parent's handle on a stage worker; one round at a time, waited for."""

    def __init__(self, stage_dir: Path, stage: str):
        self.stage = stage
        self.stage_dir = stage_dir
        self._err_path = stage_dir / f"{stage}.err"
        with open(self._err_path, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "run.py"), "--stage-dir",
                 str(stage_dir), "--workload", stage], env=child_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True)
        self._reply()

    def _fail(self, what: str):
        err = self._err_path.read_text("utf-8", "replace").strip()[-300:]
        raise RuntimeError(f"stage worker {self.stage} {what}: {err}")

    def _reply(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        if not (ready and self.proc.stdout.readline()):
            self._fail("gave no reply")

    def round(self) -> None:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        self._reply()

    def finish(self) -> dict:
        self.proc.stdin.close()
        if self.proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            self._fail(f"exited {self.proc.returncode}")
        return json.loads(
            (self.stage_dir / f"{self.stage}.json").read_text("utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# One benchmark run

def setup_probe(workload: str, config: Path, stage_dir: Path, checks,
                calibration, out: list) -> None:
    """Time one fresh process that imports adflow and loads the workload's
    inputs; appends its [start, CPU seconds] to ``out``."""
    from workloads import serve_dir
    t0 = perf_counter()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(config),
         str(stage_dir), str(serve_dir(stage_dir, 0) / "dataset")],
        env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    calibration.catch_up()
    if checks(proc.returncode == 0,
              f"set-up probe failed: {proc.stderr.strip()[-300:]}"):
        out.append([t0, after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime])


def end_to_end(wl, stages, setup, rounds, calibration):
    """End-to-end metrics, and a note on how each was measured.

    ``stages`` holds the calls the stage workers timed in the same window
    as the workload's ``rounds``; every time is scaled by ``calibration``.
    """
    work = {**stages["work"], **wl.work}
    times = {cmd: calibration.scaled(calls)
             for cmd, calls in {**stages["calls"], **wl.calls}.items()}
    metrics, notes = {}, {}

    def throughput(name, cmd):
        if times.get(cmd):
            metrics[name] = work[cmd] / median(times[cmd])
            where = "rounds" if cmd in wl.calls else "stage worker rounds"
            notes[name] = (f"{work[cmd]} per call / median of "
                           f"{len(times[cmd])} {where}")

    metrics["setup_s"] = median(calibration.scaled(setup)) if setup else None
    notes["setup_s"] = f"median of {len(setup)} fresh processes"
    metrics["wall_s"] = median(calibration.scaled(rounds))
    notes["wall_s"] = f"median CLI CPU time of {len(rounds)} rounds"
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes["peak_rss_mb"] = "max RSS of the workload process"
    throughput("train_vel.item_epochs_per_s", "train-vel")
    throughput("train_mr.item_epochs_per_s", "train-mr")
    throughput("ablate.items_per_s", "ablate")
    throughput("nfe_sweep.items_per_s", "nfe-sweep")
    throughput("gen_data.items_per_s", "gen-data")
    lat = [1e3 * t for t in times.get("extract", [])]
    if lat:
        beyond = len(lat) - int(0.9 * len(lat))
        for q in (50, 90):
            metrics[f"extract.latency_ms.p{q}"] = percentile(lat, q)
            notes[f"extract.latency_ms.p{q}"] = (
                f"{len(lat)} calls ({beyond} beyond p90), "
                + ("rounds" if "extract" in wl.calls
                   else "stage worker rounds"))
    for name, value in stages["quality"].items():
        metrics[name] = value
        notes[name] = f"stage worker, seed {STAGE_SEED}"
    return metrics, notes


def traced_metrics(wl, tracer, traced, checks) -> dict:
    """Per-layer metrics averaged over traced rounds, with their checks."""
    from spans import is_count, layer_metrics
    per_round = [layer_metrics(tracer.spans, lo, hi, wl.items)
                 for lo, hi in traced]
    for m in per_round[1:]:
        for name, value in m.items():
            if is_count(name):
                checks(value == per_round[0][name],
                       f"{name} differs between traced rounds: "
                       f"{value} vs {per_round[0][name]}")
    out = {name: value if is_count(name)
           else statistics.fmean(m[name] for m in per_round)
           for name, value in per_round[0].items()}
    expect_zero = {"train": ("signal.wav.reads",
                             "sampler.extract_adaptive.calls"),
                   "evaluate": ("velnet.loss_and_grad.calls",
                                "velnet.adamw_step.calls")}.get(wl.name, ())
    for name in expect_zero:
        checks(out[name] == 0, f"{wl.name} workload made {name}={out[name]}")
    if wl.name == "serve":
        checks(out["signal.wav.reads"] > 0 and out["signal.wav.writes"] > 0,
               "serve workload made no WAV reads or writes")
    return out


def run(args) -> int:
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    stage_dir = work / "stages"
    stage_dir.mkdir(parents=True)
    workers = []
    try:
        for stage in STAGES:
            workers.append(StageWorker(stage_dir, stage))
        return measure(args, work, stage_dir, workers)
    finally:
        for worker in workers:
            worker.kill()


def measure(args, work: Path, stage_dir: Path, workers: list) -> int:
    import adflow
    from calibrate import NOMINAL_S, Calibration
    from spans import Tracer
    from workloads import LOOP_SIZES, Checks, Workload, write_config

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    checks = Checks()
    stages = {"calls": {}, "work": {}, "quality": {}}

    def collect(worker, measured: bool):
        res = worker.finish()
        checks.merge(res)
        stages["quality"].update(res["quality"])
        if measured:
            stages["calls"].update(res["calls"])
            stages["work"].update(res["work"])

    # The workload's rounds measure its own stage, so its stage worker only
    # gives the quality metrics of its first round. The traced run measures
    # only the workload.
    sides = [w for w in workers if w.stage != args.workload and not args.trace]
    for worker in workers:
        if worker not in sides:
            collect(worker, measured=False)

    config = work / "loop.cfg"
    write_config(config, args.seed, work / "loop", LOOP_SIZES[args.workload])
    calibration = Calibration()
    wl = Workload(args.workload, config,
                  None if args.workload == "train" else stage_dir, checks,
                  calibration)

    # Untraced runs repeat the seed once, for the re-run check, then draw a
    # new input set per round, so the medians cover many items. Traced runs
    # keep one seed, so the work counts of their rounds must match exactly,
    # and alternate untraced and traced rounds after a first untraced one,
    # so the overhead compares rounds that are equally warm. The first round
    # warms the process up and is not timed. Between the workload's rounds,
    # each stage worker takes a round in turn and a fresh process is timed
    # for set-up, so all share the window and its machine speed, and each
    # end-to-end metric rests on a like number of samples.
    tracer = Tracer() if args.trace else None
    round_cpu, rounds, traced, faults, sys_s, setup = [], [], [], [], [], []
    min_rounds = 4 if args.trace else MIN_ROUNDS
    t_end = perf_counter() + args.seconds
    while len(round_cpu) < min_rounds or perf_counter() < t_end:
        for worker in sides:
            worker.round()
            calibration.catch_up()
        if not args.trace:
            setup_probe(args.workload, config, stage_dir, checks,
                        calibration, setup)
        r = len(round_cpu)
        t0 = perf_counter()
        before = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None and r % 2 == 1:
            lo = len(tracer.spans)
            tracer.install(adflow)
            try:
                round_cpu.append(wl.round(args.seed))
            finally:
                tracer.uninstall()
            traced.append((lo, len(tracer.spans)))
        else:
            seed = args.seed if tracer is not None or r < 2 \
                else args.seed * 1000 + r
            round_cpu.append(wl.round(seed))
            after = resource.getrusage(resource.RUSAGE_SELF)
            faults.append(after.ru_minflt - before.ru_minflt)
            sys_s.append(after.ru_stime - before.ru_stime)
        if r == 0:
            wl.calls = {}
        else:
            rounds.append([t0, round_cpu[-1]])
    for worker in sides:
        collect(worker, measured=True)

    if args.trace:
        metrics = traced_metrics(wl, tracer, traced, checks)
        metrics["trace.overhead_s"] = (median(round_cpu[1::2])
                                       - median(round_cpu[2::2]))
        # Page faults and kernel time of the untraced rounds: allocations
        # above glibc's mmap threshold fault in fresh pages on every call.
        metrics["process.minor_faults"] = median(faults[1:])
        metrics["process.sys_s"] = median(sys_s[1:])
        notes = {}
        tracer.write_spans(work / "spans.jsonl")
        wanted = spec["per_layer"]
    else:
        metrics, notes = end_to_end(wl, stages, setup, rounds, calibration)
        metrics["ops_failed_ratio"] = checks.failed / checks.attempted
        wanted = spec["end_to_end"]

    for scratch in (work / "loop", stage_dir):   # generated inputs, outputs
        shutil.rmtree(scratch, ignore_errors=True)
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    checks(not missing, f"metrics not measured: {missing}")
    env = environment()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "raw_round_cpu_s": round_cpu,
        "untraced_round_minor_faults": faults, "raw_setup_s": setup,
        "raw_calls_s": wl.calls, "raw_stage_calls_s": stages["calls"],
        "calibration": {"nominal_s": NOMINAL_S,
                        "samples_s": calibration.samples},
        "environment": env,
        "metrics": metrics, "notes": notes, **checks.as_dict()}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(result, indent=1), "utf-8")

    print(f"adflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"rounds={len(round_cpu)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    units.update({"ops_failed_ratio": "share", "gen_data.items_per_s": "1/s",
                  "quality.si_sdr_impr_db": "dB"})
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units.get(name, ''):<6} "
              f"{notes.get(name, '')}")
    print(f"checks: attempted={checks.attempted} failed={checks.failed}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing}}))
    return 0 if not missing else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("train", "evaluate", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stage-dir", type=Path,
                        help="run as the stage worker of this workload, "
                        "in this directory")
    args = parser.parse_args(argv)
    if not (SRC / "adflow" / "cli.py").is_file():
        print(f"error: no adflow sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    pin_blas_threads()
    # On SIGTERM, unwind so that run() stops the stage workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    if args.stage_dir is not None:
        run_stage_worker(args.stage_dir, args.workload)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
