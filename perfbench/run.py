#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of the cwgl fit, characterize and serve
paths, with a traced run that attributes time to the program's layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_full --seed 1 --seconds 10 \
        --trace 0

Builds the program and the helper binary into $CARGO_TARGET_DIR (default
.bench_build), generates the workload's inputs from --seed under
.bench_work (kept per build of the binaries), measures for --seconds,
checks the outputs, and prints every metric by name and unit followed by one
JSON result line. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import helpers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK = ROOT / ".bench_work"
CWGL = BUILD / "cwgl" / "src" / "cli" / "cwgl"
HARNESS = BUILD / "perfbench_harness"

# Inputs. The fit trace carries batch_instance.csv like the released trace;
# the serve workloads use the same task file (the snapshot does not depend
# on instances) and fit it before timing starts.
FIT_JOBS = 200_000
CHARACTERIZE_JOBS = 100_000
CHARACTERIZE_SAMPLE = 400
AGREEMENT_SAMPLE = 2000  # jobs in the fit_full agreement subsample

# Open-loop rates: constants, about half the rate at which the seed starts
# to shed, never derived from a capacity measured during the run.
RATES = {"serve_recurring": 2000.0, "serve_novel": 1000.0}
# Each serve phase ends with a closed-loop batch of this many further
# requests, at most WINDOW of them unanswered; its wall time is `wall_s`.
BATCH = {"serve_recurring": 16000, "serve_novel": 6000}
WINDOW = 32
# `agreement_ari` on serve: disjoint subsamples of the open-loop requests,
# each clustered exactly on its own. Novel requests are all distinct shapes,
# so a subsample's size bounds its dense eigenproblem; the mean over many
# subsamples keeps the figure steady across seeds.
SERVE_AGREEMENT_SAMPLE = 200
SERVE_AGREEMENT_SAMPLES = 24
SERVE_THREADS = 2
LATENCY_LIMIT_MS = 10.0
# A serve run is invalid when the generator sent a request this late, or
# when the outstanding-request backlog kept growing past RATE * LIMIT.
LATE_LIMIT_MS = 50.0

STARTUP_LAUNCHES = 11  # no-op `cwgl help` launches per batch repeat
# A serve run measures SERVE_PHASES consecutive phases, each against a fresh
# daemon, and reports medians over them; set-up time is the median over
# those launches and EXTRA_DAEMON_LAUNCHES more.
SERVE_PHASES = 4
EXTRA_DAEMON_LAUNCHES = 3
COMMAND_TIMEOUT_S = 120

WORKLOADS = ("fit_full", "characterize_sampled", "serve_recurring",
             "serve_novel")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "perfbench-build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j4", "--target", "cwgl",
              "perfbench_harness"]]
    if (BUILD / "CMakeCache.txt").exists():
        steps = steps[1:]
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError(f"build failed, see {build_log}")


def harness(*args, timeout=COMMAND_TIMEOUT_S):
    proc = subprocess.run([str(HARNESS), *map(str, args)],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def run_measured(cmd, stdout=subprocess.PIPE):
    """Runs `cmd` to completion (killed after COMMAND_TIMEOUT_S); returns
    (wall_s, peak_rss_mib, exit code, stdout, cpu_s). Peak RSS is the child's
    own ru_maxrss and cpu_s its user + system CPU time."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], stdout=stdout,
                            stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read() if stdout == subprocess.PIPE else ""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode, out,
            usage.ru_utime + usage.ru_stime)


def inputs_dir():
    """The directory of generated inputs for the binaries just built.
    Traces and the serve snapshot are made by program code, so they are
    reused only by the build that made them; other builds' inputs are
    removed."""
    digest = hashlib.sha256()
    for binary in (CWGL, HARNESS):
        digest.update(binary.read_bytes())
    path = WORK / f"build-{digest.hexdigest()[:16]}"
    if not path.exists():
        for old in WORK.glob("build-*"):
            subprocess.run(["rm", "-rf", str(old)], check=True)
        path.mkdir(parents=True)
    return path


def prepare_trace(seed, jobs, instances):
    """`cwgl generate` trace directory for (seed, jobs, instances), reused
    when a complete one exists; other seeds of the same kind are removed."""
    kind = f"trace-{jobs}-{'inst' if instances else 'task'}"
    inputs = inputs_dir()
    path = inputs / f"{kind}-{seed}"
    if (path / "complete").exists():
        return path
    for old in inputs.glob(f"{kind}-*"):
        subprocess.run(["rm", "-rf", str(old)], check=True)
    cmd = [CWGL, "generate", "--out", path, "--jobs", jobs, "--seed", seed]
    if not instances:
        cmd.append("--no-instances")
    if run_measured(cmd, stdout=subprocess.DEVNULL)[2] != 0:
        raise BenchError(f"cwgl generate failed for {path.name}")
    (path / "complete").touch()
    return path


def warm(trace_dir):
    """Flushes the files input preparation wrote, so disk writeback does not
    run while timing, and reads the trace files once so every timed run
    finds them cached."""
    os.sync()
    for f in sorted(trace_dir.glob("*.csv")):
        with open(f, "rb") as data:
            while data.read(1 << 22):
                pass


def timed_repeats(cmd, seconds):
    """Repeats `cmd` until `seconds` have passed (at least three times).
    Before each repeat, times STARTUP_LAUNCHES no-op `cwgl help` launches,
    so the set-up samples spread over the whole run; returns the runs and
    the median launch time."""
    runs, launches = [], []
    start = time.perf_counter()
    while len(runs) < 3 or time.perf_counter() - start < seconds:
        launches += [run_measured([CWGL, "help"], stdout=subprocess.DEVNULL)[0]
                     for _ in range(STARTUP_LAUNCHES)]
        runs.append(run_measured(cmd))
    return runs, helpers.median(launches)


# ---------------------------------------------------------------------------
# batch workloads


def fit_full(seed, seconds, traced):
    trace_dir = prepare_trace(seed, FIT_JOBS, instances=True)
    warm(trace_dir)
    snapshot = WORK / "fit_full.cwgl"
    cmd = [CWGL, "fit", "--full", "--trace", trace_dir, "--out", snapshot,
           "--json"]
    runs, setup = command_runs(cmd, seconds, traced)
    failed = 0
    for _wall, _rss, code, out, _cpu in runs:
        ok = code == 0 and json.loads(out)["self_check"]["ok"]
        failed += 0 if ok else 1
    # The snapshot must load; its labels are compared with an exact
    # weighted spectral clustering of a seeded uniform job subsample.
    agree = harness("agree", "--trace", trace_dir, "--model", snapshot,
                    "--seed", seed, "--sample", AGREEMENT_SAMPLE)
    ari = helpers.adjusted_rand_index(agree["labels"], agree["reference"])
    distinct_ratio = agree["distinct_shapes"] / agree["eligible_jobs"]
    report_inputs({"input.eligible_jobs": agree["eligible_jobs"],
                   "input.distinct_shape_ratio": distinct_ratio})
    if traced:
        metrics = layer_metrics(harness("replay-fit", "--trace", trace_dir,
                                        "--out", WORK / "replay.cwgl"))
        metrics["input.distinct_shape_ratio"] = (distinct_ratio, "ratio")
        return len(runs) + 2, failed, metrics
    return len(runs) + 1, failed, batch_metrics(runs, setup, ari)


def characterize_sampled(seed, seconds, traced):
    trace_dir = prepare_trace(seed, CHARACTERIZE_JOBS, instances=False)
    warm(trace_dir)
    cmd = [CWGL, "characterize", "--trace", trace_dir, "--sample",
           CHARACTERIZE_SAMPLE, "--json"]
    runs, setup = command_runs(cmd, seconds, traced)
    # Every run must exit 0 with the same report apart from its timings.
    reports = [json.loads(r[3]) if r[2] == 0 else None for r in runs]
    if reports[0] is None:
        raise BenchError("characterize failed")
    for report in reports:
        if report is not None:
            report.pop("timings")
    failed = sum(1 for r in reports if r != reports[0])
    report = reports[0]
    jobs = report["fig7"]["jobs"]
    labels = report["fig9"]["labels"]
    failed += 0 if len(jobs) == len(labels) == CHARACTERIZE_SAMPLE else 1
    names = WORK / "characterize_jobs.txt"
    names.write_text("".join(f"{j}\n" for j in jobs))
    reference = harness("reference", "--trace", trace_dir, "--jobs", names,
                        "--clusters", len(report["fig9"]["groups"]))
    ari = helpers.adjusted_rand_index(labels, reference["reference"])
    distinct_ratio = reference["distinct_shapes"] / len(jobs)
    report_inputs({"input.sample_jobs": len(jobs),
                   "input.distinct_shape_ratio": distinct_ratio})
    if traced:
        metrics = layer_metrics(harness("replay-characterize", "--trace",
                                        trace_dir, "--sample",
                                        CHARACTERIZE_SAMPLE))
        metrics["input.distinct_shape_ratio"] = (distinct_ratio, "ratio")
        return len(runs) + 2, failed, metrics
    return len(runs) + 1, failed, batch_metrics(runs, setup, ari)


def batch_metrics(runs, setup, ari):
    """End-to-end metrics of a batch workload, whose operation is one run of
    the command: its latency is reported both as `wall_s` and as `p50_ms`,
    and its CPU time as `cpu_us_per_req`."""
    wall = helpers.median([r[0] for r in runs])
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mib": (helpers.median([r[1] for r in runs]), "MiB"),
        "agreement_ari": (ari, "ARI"),
        "p50_ms": (1000.0 * wall, "ms"),
        "cpu_us_per_req": (1e6 * helpers.median([r[4] for r in runs]), "us"),
    }


def command_runs(cmd, seconds, traced):
    """The timed repeats and set-up time of an untraced run; a traced run
    runs the command once, for its output checks."""
    if traced:
        return [run_measured(cmd)], None
    return timed_repeats(cmd, seconds)


def layer_metrics(spans):
    """Per-layer self time of every span name as `<name>_s`, the counts the
    replay recorded, the wall time no span covers, and the tracing overhead:
    the traced replay's wall time over the same replay run untraced in the
    same process."""
    metrics = {f"{name}_s": (value, "s")
               for name, value in helpers.self_times(spans["spans"]).items()}
    units = declared_metrics("per_layer")
    for name, value in spans["counts"].items():
        metrics[name] = (value, units[name])
    metrics["unattributed_s"] = (
        helpers.unattributed(spans["wall_s"], spans["spans"]), "s")
    untraced = spans["untraced_wall_s"]
    metrics["trace_overhead_pct"] = (
        100.0 * (spans["wall_s"] - untraced) / untraced, "%")
    return metrics


def report_inputs(properties):
    for name, value in properties.items():
        print(f"{name} = {value}")


# ---------------------------------------------------------------------------
# serve workloads


def frame(payload):
    data = json.dumps(payload).encode()
    return struct.pack("<I", len(data)) + data


def ping_ok(sock_path):
    """True when the daemon at `sock_path` answers a ping with status ok."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(2.0)
            s.connect(str(sock_path))
            s.sendall(frame({"type": "ping", "id": 1}))
            header = s.recv(4, socket.MSG_WAITALL)
            if len(header) < 4:
                return False
            body = s.recv(struct.unpack("<I", header)[0], socket.MSG_WAITALL)
            return json.loads(body).get("status") == "ok"
    except (ConnectionRefusedError, FileNotFoundError):
        return False


class Daemon:
    """A `cwgl serve` process on a unix socket under .bench_work."""

    def __init__(self, snapshot, sock_path):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(CWGL), "serve", "--model", str(snapshot), "--socket",
             str(sock_path), "--threads", str(SERVE_THREADS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        while not ping_ok(sock_path):
            if (self.proc.poll() is not None
                    or time.perf_counter() - start > 60):
                self.proc.kill()
                self.proc.wait()
                raise BenchError("daemon did not answer a ping")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - start
        self.peak_rss_mib = None

    def stop(self):
        """Drains the daemon (SIGTERM) and returns its exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, status, usage = wait4_timeout(self.proc.pid, 30)
        except TimeoutError:
            self.proc.kill()
            _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = usage.ru_maxrss / 1024.0
        return self.proc.returncode


class Spinners:
    """`perfbench_harness spin` for the duration of a `with` block: one
    lowest-priority busy thread per CPU, so no virtual CPU halts while idle.
    On a busy host, waking a halted virtual CPU took milliseconds, and serve
    latency then followed the host's load rather than the program's."""

    def __enter__(self):
        self.proc = subprocess.Popen([str(HARNESS), "spin", "--parent",
                                      str(os.getpid())])
        return self

    def __exit__(self, *exc):
        exited = self.proc.poll() is not None
        self.proc.kill()
        self.proc.wait()
        if exited and exc[0] is None:
            raise BenchError("perfbench_harness spin exited early")


def wait4_timeout(pid, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return got, status, usage
        time.sleep(0.01)
    raise TimeoutError(f"process {pid} did not exit")


def prepare_serve(workload, seed, count, sample_within):
    trace_dir = prepare_trace(seed, FIT_JOBS, instances=False)
    snapshot = trace_dir / "model.cwgl"
    if not snapshot.exists():
        code = run_measured([CWGL, "fit", "--full", "--trace", trace_dir,
                             "--out", WORK / "serve-fit.cwgl", "--json"])[2]
        if code != 0:
            raise BenchError("fit of the serve snapshot failed")
        os.replace(WORK / "serve-fit.cwgl", snapshot)
    kind = "recurring" if workload == "serve_recurring" else "novel"
    requests = WORK / f"{workload}.frames"
    summary = harness("requests", "--trace", trace_dir, "--model", snapshot,
                      "--kind", kind, "--count", count, "--seed", seed,
                      "--sample", SERVE_AGREEMENT_SAMPLE,
                      "--samples", SERVE_AGREEMENT_SAMPLES,
                      "--sample-within", sample_within, "--out", requests)
    return snapshot, requests, summary


def serve(workload, seed, seconds, traced):
    rate = RATES[workload]
    batch = BATCH[workload]
    phases = 1 if traced else SERVE_PHASES
    per_phase = int(round(rate * seconds / phases))
    open_loop = per_phase * phases
    snapshot, requests, inputs = prepare_serve(
        workload, seed, open_loop + batch * phases, open_loop)
    os.sync()  # no writeback of the prepared inputs while timing
    # Relative to the checkout (every process here runs from it): a unix
    # socket path is limited to 108 bytes.
    sock_path = WORK.relative_to(ROOT) / "serve.sock"
    records_path = WORK / "records.txt"

    def drive(daemon, offset, count, mode, stats=False):
        load = harness("load", "--socket", sock_path, "--requests", requests,
                       "--offset", offset, "--count", count, *mode,
                       "--pid", daemon.proc.pid, "--records", records_path,
                       *(["--stats"] if stats else []), timeout=seconds + 60)
        load["records"] = [tuple(map(int, line.split()))
                           for line in open(records_path)]
        return load

    with Spinners():  # idle CPUs spin rather than halt while timing
        setups = []
        for _ in range(0 if traced else EXTRA_DAEMON_LAUNCHES):
            daemon = Daemon(snapshot, sock_path)
            setups.append(daemon.setup_s)
            daemon.stop()
        results, batches = [], []
        for phase in range(phases):
            daemon = Daemon(snapshot, sock_path)
            setups.append(daemon.setup_s)
            try:
                load = drive(daemon, phase * per_phase, per_phase,
                             ["--rate", rate], stats=traced)
                batches.append(drive(daemon, open_loop + phase * batch, batch,
                                     ["--window", WINDOW]))
            finally:
                if daemon.stop() != 0:
                    raise BenchError("daemon did not drain cleanly")
            latencies, lateness = helpers.open_loop_latencies(load["records"])
            load.update(
                latencies=latencies, late_max_ms=max(lateness),
                peak_rss_mib=daemon.peak_rss_mib,
                failed=per_phase - load["ok"] + load["mismatched"],
                growing=helpers.backlog_growing(
                    load["backlog"], rate * LATENCY_LIMIT_MS / 1000.0))
            results.append(load)

    failed = sum(r["failed"] for r in results)
    failed += sum(batch - b["ok"] + b["mismatched"] for b in batches)
    late_max = max(r["late_max_ms"] for r in results)
    growing = any(r["growing"] for r in results)
    p99 = [helpers.percentile(r["latencies"], 99) for r in results]
    ari = served_agreement(requests, results)
    report_inputs({
        "input.requests": open_loop + batch * phases,
        "input.sent": sum(r["sent"] for r in results + batches),
        "input.ok": sum(r["ok"] for r in results + batches),
        "input.failed": failed,
        "input.distinct_shape_ratio": inputs["distinct_shape_ratio"],
        "serve.recurring_share": inputs["recurring_share"],
        "serve.oov_share": inputs["oov_share"],
        "gen.late_max_ms": late_max,
        "gen.backlog_growing": growing,
        "p99_ms per phase": p99,
    })
    # The traffic must have the property the workload exists for.
    recurring = inputs["recurring_share"]
    mix_ok = (recurring >= 0.9 if workload == "serve_recurring"
              else recurring == 0)
    if late_max > LATE_LIMIT_MS or growing or not mix_ok:
        log(f"{workload}: run invalid (generator late {late_max:.2f} ms, "
            f"backlog growing: {growing}, recurring share {recurring})")
        failed += 1
    attempted = open_loop + batch * phases
    if traced:
        return attempted, failed, serve_layers(snapshot, requests, inputs,
                                               results[0], failed)
    return attempted, failed, {
        "setup_s": (helpers.median(setups), "s"),
        "wall_s": (helpers.median([b["wall_s"] for b in batches]), "s"),
        "peak_rss_mib": (helpers.median([r["peak_rss_mib"] for r in results]),
                         "MiB"),
        "agreement_ari": (ari, "ARI"),
        "p50_ms": (helpers.median([helpers.percentile(r["latencies"], 50)
                                   for r in results]), "ms"),
        "cpu_us_per_req": (helpers.median([1e6 * r["daemon_cpu_s"] / r["ok"]
                                           for r in results]), "us"),
    }


def served_agreement(requests, results):
    """Mean over the agreement subsamples of the ARI of the clusters the
    daemon answered for a subsample's requests against the subsample's exact
    reference labels."""
    with open(requests) as frames:
        subsamples = [tuple(map(int, line.split("\t", 3)[1:3]))
                      for line in frames]
    records = [r for load in results for r in load["records"]]
    return helpers.mean_subsample_ari(
        (group, record[5], label)
        for (group, label), record in zip(subsamples, records)
        if record[3] == 0)


def serve_layers(snapshot, requests, inputs, load, failed):
    """Per-layer metrics of a traced serve run: the in-process replay of
    every frame plus the open-loop phase's daemon statistics."""
    spans = harness("replay-serve", "--model", snapshot, "--requests",
                    requests)
    metrics = layer_metrics(spans)
    for name in ("serve.decode", "core.build_dag", "serve.encode"):
        del metrics[f"{name}_s"]
        metrics[f"{name}_us"] = (
            1e6 * helpers.median(helpers.durations(spans["spans"], name)),
            "us")
    classify = [1e6 * d
                for d in helpers.durations(spans["spans"], "serve.classify")]
    del metrics["serve.classify_s"]
    metrics["serve.classify_us_p50"] = (helpers.percentile(classify, 50), "us")
    metrics["serve.classify_us_p99"] = (helpers.percentile(classify, 99), "us")
    histograms = load["daemon_metrics"]["metrics"]["histograms"]
    for name in ("queue_wait_us", "batch_wait_us", "compute_us"):
        metrics[f"serve.{name}_p50"] = (
            histograms[f"serve.daemon.{name}"]["p50_est"], "us")
    batch = histograms["serve.daemon.batch_size"]
    metrics["serve.batch_size_mean"] = (batch["sum"] / max(1, batch["count"]),
                                        "count")
    stats = load["daemon_stats"]
    for name in ("shed", "timeouts", "errors"):
        metrics[f"serve.{name}"] = (stats[name], "count")
    metrics["serve.oov_share"] = (inputs["oov_share"], "ratio")
    metrics["serve.recurring_share"] = (inputs["recurring_share"], "ratio")
    metrics["p99_ms"] = (helpers.percentile(load["latencies"], 99), "ms")
    metrics["gen.late_max_ms"] = (load["late_max_ms"], "ms")
    metrics["gen.sent"] = (load["sent"], "count")
    metrics["gen.ok"] = (load["ok"], "count")
    metrics["gen.failed"] = (failed, "count")
    metrics["input.distinct_shape_ratio"] = (inputs["distinct_shape_ratio"],
                                             "ratio")
    return metrics


# ---------------------------------------------------------------------------


def declared_metrics(kind):
    """name -> unit of the metrics BENCHMARK.json declares under `kind`."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        traced = args.trace == 1
        if args.workload == "fit_full":
            attempted, failed, metrics = fit_full(args.seed, args.seconds,
                                                  traced)
        elif args.workload == "characterize_sampled":
            attempted, failed, metrics = characterize_sampled(
                args.seed, args.seconds, traced)
        else:
            attempted, failed, metrics = serve(args.workload, args.seed,
                                               args.seconds, traced)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if traced:
        # A layer the workload's chain never calls (the daemon on a batch
        # workload, the fit on a serve workload) spent no time and counted
        # nothing there.
        for name, unit in declared.items():
            metrics.setdefault(name, (0.0, unit))
    for name, (value, unit) in metrics.items():
        if declared.get(name) != unit:
            log(f"perfbench: {name} [{unit}] is not declared in "
                "BENCHMARK.json")
            return 1
        print(f"{args.workload} {name} = {value} {unit}")
    print(helpers.result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
