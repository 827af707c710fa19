#!/usr/bin/env python3
"""The VSAN benchmark: one command per workload run.

    python3 perfbench/run.py --workload dense_repeat --seed 1 --seconds 40 \
        --trace 0

Run from the repository root.  Builds perfbench_worker and vsan_serve from
source into $CARGO_TARGET_DIR (default .bench_build), then runs one workload:
training through core::Vsan::Fit and eval::EvaluateRanking
(perfbench_worker train), and serving through the real vsan_serve binary,
driven over HTTP with seeded open-loop Poisson traffic (perfbench_worker
loadgen): a low and a high fixed rate, a binary search of a fixed rate
ladder for goodput, and a POST /reload phase.  Training repetitions and the
fixed-rate windows are taken in turns, so a slow spell of the host lands in
one sample of each metric rather than in a whole metric; every figure is a
median over those samples.  Answered responses are checked against the
offline oracle.

Prints each metric with unit and sample count, then, as the last line, the
JSON result object.  --trace 1 makes a separate traced run that reports the
per-layer metrics instead.  Exits 1 when an output check fails and 2 when
the repository sources are missing.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing beside the sources

import schedule  # noqa: E402
import stats  # noqa: E402

# name -> (training corpus, serving traffic).  Both serve the same
# Beauty-like checkpoint (12,069 items, n=50) at the same rates.
WORKLOADS = {
    "dense_repeat": ("dense", "repeat"),
    "sparse_fresh": ("sparse", "fresh"),
}
# The training corpus, split, initialisation and batch order come from a
# fixed seed per corpus, standing in for a fixed dataset: after a few
# optimizer steps test NDCG@10 varies by +-15% from one random corpus to the
# next, too much for a quality guard.  --seed drives the serving traffic.
DATA_SEED = {"dense": 1997, "sparse": 2021}
SERVE_HISTORY_LEN = (5, 13)  # Beauty-like histories

# Serving configuration, fixed here rather than derived per run.  The load
# generator keeps at most four connections in flight, so batches flush at
# four.
DAEMON_FLAGS = ["--threads=4", "--max-batch=4", "--max-wait-us=300",
                "--max-queue=256", "--cache-mb=64", "--retrieval=exact"]
LOW_QPS = 200    # about a quarter of sparse_fresh goodput on 4 cores
HIGH_QPS = 500   # about half to three quarters of it
LADDER = stats.ladder(100, 3200, 1.06)
P99_LIMIT_MS = 10.0
FAIL_LIMIT = 0.01
LAG_GROWTH_LIMIT_MS = 2.0
RELOAD_EVERY_S = 0.2  # in the reload windows, at the low rate
WARMUP_S = 1.0
# A sample (Fit + eval, or a traffic window) during which the hypervisor
# stole more than this share of the host's CPU time is taken again, at most
# MAX_REMEASURES times per run.  Steal is time other tenants of the machine
# took from this one's cores, not work of the program: the slow spells it
# causes made single windows read 3-10x slower.  A discarded sample still
# counts towards attempted and failed operations.
STEAL_LIMIT = 0.05
MAX_REMEASURES = 5
# Rounds of {Fit + eval, low window, high windows, reload window}, with a
# full goodput search after every SEARCH_EVERY rounds.  The high rate, whose
# tail catches more host stalls, gets more and shorter windows.  A ladder
# probe's tail is the median over equal slices of the probe.
ROUNDS = 4
HIGH_WINDOWS_PER_ROUND = 2
SEARCH_EVERY = 2
PROBE_WINDOWS = 3
# Shares of --seconds spent serving (the rest goes to the Fit rounds).
LOW_SHARE = 0.15
HIGH_SHARE = 0.2
PROBE_SHARE = 0.035
RELOAD_SHARE = 0.08

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_seq_per_s": "1/s",
    "eval_users_per_s": "1/s", "ndcg_at_10": "ratio",
    "serve_low_p50_ms": "ms", "serve_high_p50_ms": "ms",
    "serve_reload_ms": "ms",
}
PER_LAYER_UNITS = {
    "nn.attention_ms": "ms", "autograd.head_xent_ms": "ms",
    "autograd.forward_ms": "ms", "autograd.backward_ms": "ms",
    "core.latent_ms": "ms", "optim.step_ms": "ms",
    "data.next_batch_ms": "ms", "tensor.gemm_ms": "ms",
    "tensor.gemm_calls": "count", "tensor.pack_ms": "ms",
    "util.thread_pool.calls": "count", "util.thread_pool.overhead_ms": "ms",
    "util.thread_pool.busy_frac": "ratio", "tensor.pool.hit_rate": "ratio",
    "tensor.pool.cached_mb": "MB", "eval.score_user_p50_ms": "ms",
    "eval.score_user_p99_ms": "ms", "eval.busy_frac": "ratio",
    "core.step.attributed_frac": "ratio",
    "core.fit.unattributed_frac": "ratio", "trace.dropped_spans": "count",
    "trace.overhead_frac": "ratio", "serve.cache.hit_rate": "ratio",
    "serve.encode.batch_mean": "count",
    "serve.encode.queue_wait_us_mean": "us",
    "serve.score.batch_mean": "count", "serve.score.queue_wait_us_mean": "us",
    "serve.handler_ms_mean": "ms", "serve.client_ms_mean": "ms",
    "obs.http.outside_handler_ms": "ms", "serve.cpu_ms_per_request": "ms",
    "serve.rejected": "count", "serve.deadline_expired": "count",
    "obs.http.errors": "count", "serve.model_registry.reloads": "count",
    "loadgen.lag_ms_p99": "ms",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_checked(cmd, **kwargs):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if proc.returncode != 0:
        raise RuntimeError("command failed (%d): %s" %
                           (proc.returncode, " ".join(cmd)))


# ---------------------------------------------------------------------------
# Build and fingerprint.

def build(root, build_dir):
    # Configuring an existing tree takes well under a second and picks up
    # any change to the build files.
    run_checked(["cmake", "-S", os.path.join(root, "perfbench"),
                 "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", build_dir, "-j", str(os.cpu_count()),
                 "--target", "perfbench_worker", "vsan_serve"])
    return (os.path.join(build_dir, "perfbench_worker"),
            os.path.join(build_dir, "vsan", "tools", "vsan_serve"))


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def source_digest(root):
    """Identifies the code under test when the checkout is not a git repo."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in sorted(paths):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root, build_dir, seed):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "vsan_native": cache.get("VSAN_NATIVE", ""),
        "vsan_obs": cache.get("VSAN_OBS", ""),
        "commit": "src-" + source_digest(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Serve stage.

class Daemon:
    """One vsan_serve process; set-up time runs from exec to /healthz 200."""

    def __init__(self, binary, ckpt, env, log_path):
        self.log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--checkpoint=" + ckpt, "--port=0"] + DAEMON_FLAGS,
            stdout=subprocess.PIPE, stderr=self.log, env=env, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("READY"):
            self.stop()
            raise RuntimeError("vsan_serve did not start: %r" % line)
        self.port = int(line.split("port=")[1].split()[0])
        while self.get("/healthz")[0] != 200:
            if time.perf_counter() - start > 60 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("vsan_serve never answered /healthz 200")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - start

    def get(self, path):
        try:
            with urllib.request.urlopen(
                    "http://127.0.0.1:%d%s" % (self.port, path),
                    timeout=10) as r:
                return r.status, r.read().decode()
        except OSError:
            return 0, ""

    def metrics(self):
        """Scalar series of a /metrics scrape (labels dropped)."""
        status, text = self.get("/metrics")
        if status != 200:
            raise RuntimeError("/metrics scrape failed")
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                out[name] = float(value)
        return out

    def cpu_ms(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Phase:
    """Outcome of one open-loop phase."""

    def __init__(self, label, rate, result, windows):
        self.label, self.rate = label, rate
        reload = result["reload"]
        status = [int(s) for s in result["status"]]
        due, sent, done = result["due_us"], result["sent_us"], result["done_us"]
        self.attempted = len(status)
        self.mismatches = int(result["mismatches"])
        self.verified = int(result["verified"])
        self.failed = stats.count_failures(status, self.mismatches)
        # A failed request misses every latency limit.
        self.latency_ms = [
            (dn - du) / 1000.0 if st == 200 else float("inf")
            for du, dn, st, r in zip(due, done, status, reload) if not r]
        self.client_ms = [(dn - s) / 1000.0 for s, dn, st, r in
                          zip(sent, done, status, reload) if not r and st == 200]
        self.reload_ms = [(dn - s) / 1000.0 for s, dn, st, r in
                          zip(sent, done, status, reload) if r and st == 200]
        self.lag_ms = [(s - du) / 1000.0 for du, s in zip(due, sent)]
        self.lag_growth_ms = stats.lag_growth_ms(due, sent)
        self.p50_ms = stats.median(self.latency_ms)
        self.p99_ms, self.p99_used = stats.windowed_tail(self.latency_ms,
                                                         windows)
        self.lag_p99_ms = stats.tail_percentile(self.lag_ms)[0]
        self.answered = sum(1 for st, r in zip(status, reload)
                            if st == 200 and not r)
        self.metrics_before = self.metrics_after = None
        self.cpu_before = self.cpu_after = None

    def passes(self):
        return stats.phase_passes(self.p99_ms, self.failed, self.attempted,
                                  self.lag_growth_ms, P99_LIMIT_MS,
                                  FAIL_LIMIT, LAG_GROWTH_LIMIT_MS)


def host_cpu_ticks():
    """(steal, total) jiffies of the host's aggregate CPU line."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


class StealGuard:
    """Takes a sample again when the host stole more than STEAL_LIMIT of the
    CPU time while it ran (see STEAL_LIMIT)."""

    def __init__(self):
        self.remeasured = 0

    def measure(self, sample):
        """sample(attempt) -> result; returns the first undisturbed result,
        or the last one once the run's re-measure budget is spent."""
        attempt = 0
        while True:
            steal0, total0 = host_cpu_ticks()
            result = sample(attempt)
            steal1, total1 = host_cpu_ticks()
            stolen = (steal1 - steal0) / max(1, total1 - total0)
            if stolen <= STEAL_LIMIT or self.remeasured >= MAX_REMEASURES:
                return result
            self.remeasured += 1
            attempt += 1
            log("  host stole %.0f%% of the CPU time; measuring again" %
                (100 * stolen))


class ServeStage:
    def __init__(self, args, worker, daemon, ckpt, traffic, work, scrape,
                 guard):
        self.args, self.worker, self.daemon = args, worker, daemon
        self.ckpt, self.traffic, self.work = ckpt, traffic, work
        self.scrape, self.guard = scrape, guard
        self.phases = []  # every window run, measured or discarded

    def search(self, label):
        """One binary search of the goodput ladder."""
        return stats.search_ladder(LADDER, lambda rate: self.phase(
            "%s-%d" % (label, rate), rate, PROBE_SHARE * self.args.seconds,
            windows=PROBE_WINDOWS).passes())

    def phase(self, label, rate, seconds, reload_every=0.0, windows=1):
        return self.guard.measure(lambda attempt: self._run(
            label + ("-again%d" % attempt if attempt else ""), rate, seconds,
            reload_every, windows))

    def _run(self, label, rate, seconds, reload_every, windows):
        lines = schedule.phase_lines(self.traffic, label, rate, seconds,
                                     reload_every)
        sched = os.path.join(self.work, "schedule-%s.txt" % label)
        out = os.path.join(self.work, "phase-%s.json" % label)
        with open(sched, "w") as f:
            f.write("\n".join(lines) + "\n")
        before = (self.daemon.metrics(), self.daemon.cpu_ms()) \
            if self.scrape else None
        run_checked([self.worker, "loadgen", "--port=%d" % self.daemon.port,
                     "--schedule=" + sched, "--out=" + out,
                     "--ckpt=" + self.ckpt])
        with open(out) as f:
            phase = Phase(label, rate, json.load(f), windows)
        if self.scrape:
            time.sleep(0.05)  # let the last flush publish its histograms
            phase.metrics_before, phase.cpu_before = before
            phase.metrics_after = self.daemon.metrics()
            phase.cpu_after = self.daemon.cpu_ms()
        self.phases.append(phase)
        log("  phase %-12s %5d qps  n=%-5d p50=%.2fms p99=%.2fms "
            "lag_growth=%.2fms failed=%d %s" %
            (label, rate, len(phase.latency_ms), phase.p50_ms, phase.p99_ms,
             phase.lag_growth_ms, phase.failed,
             "pass" if phase.passes() else "FAIL"))
        return phase


class Series:
    """One fixed rate, measured in ROUNDS windows spread over the run."""

    def __init__(self, phases):
        self.phases = phases
        self.p50_ms = stats.median([p.p50_ms for p in phases])
        self.p99_ms = stats.median([p.p99_ms for p in phases])
        self.p99_used = min(p.p99_used for p in phases)
        self.n = sum(len(p.latency_ms) for p in phases)
        self.answered = sum(p.answered for p in phases)
        self.client_ms = [ms for p in phases for ms in p.client_ms]
        self.lag_p99_ms = max(p.lag_p99_ms for p in phases)

    def delta(self, name):
        """Change of a /metrics series across this rate's windows."""
        return sum(p.metrics_after.get(name, 0.0) -
                   p.metrics_before.get(name, 0.0) for p in self.phases)

    def ratio(self, num, den):
        d = self.delta(den)
        return self.delta(num) / d if d > 0 else 0.0

    def cpu_ms(self):
        return sum(p.cpu_after - p.cpu_before for p in self.phases)


def serve_layers(low, high, phases):
    """Per-layer serve figures from /metrics deltas across the windows."""
    out = {}
    hits = low.delta("vsan_serve_cache_hits_total")
    lookups = hits + low.delta("vsan_serve_cache_misses_total")
    out["serve.cache.hit_rate"] = hits / lookups if lookups else 0.0
    for stage, prefix in (("encode", "vsan_serve_"),
                          ("score", "vsan_serve_score_")):
        out["serve.%s.batch_mean" % stage] = high.ratio(
            prefix + "batch_size_sum", prefix + "batch_size_count")
        out["serve.%s.queue_wait_us_mean" % stage] = high.ratio(
            prefix + "queue_wait_us_sum", prefix + "queue_wait_us_count")
    handler = low.ratio("vsan_serve_request_ms_sum",
                        "vsan_serve_request_ms_count")
    client = sum(low.client_ms) / len(low.client_ms)
    out["serve.handler_ms_mean"] = handler
    out["serve.client_ms_mean"] = client
    out["obs.http.outside_handler_ms"] = client - handler
    out["serve.cpu_ms_per_request"] = (
        high.cpu_ms() / high.answered if high.answered else 0.0)
    first, last = phases[0], phases[-1]
    for metric, name in (
            ("serve.rejected", "vsan_serve_rejected_total"),
            ("serve.deadline_expired", "vsan_serve_deadline_expired_total"),
            ("obs.http.errors", "vsan_http_errors_total"),
            ("serve.model_registry.reloads", "vsan_serve_model_generation")):
        out[metric] = (last.metrics_after.get(name, 0.0) -
                       first.metrics_before.get(name, 0.0))
    out["loadgen.lag_ms_p99"] = max(low.lag_p99_ms, high.lag_p99_ms)
    return out


# ---------------------------------------------------------------------------

class Trainer:
    """The long-lived perfbench_worker train process (one JSON line per
    command)."""

    def __init__(self, worker, corpus, ckpt, spans, env, guard):
        self.proc = subprocess.Popen(
            [worker, "train", "--corpus=" + corpus,
             "--seed=%d" % DATA_SEED[corpus], "--ckpt=" + ckpt,
             "--spans=" + spans],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        self.info = self.read()
        self.guard = guard
        self.reps = []  # every rep run, measured or discarded

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench_worker train exited early")
        return json.loads(line)

    def command(self, name):
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self.read()

    def rep(self, name="rep"):
        def sample(_):
            self.reps.append(self.command(name))
            return self.reps[-1]
        return self.guard.measure(sample)

    def quit(self):
        result = self.command("quit")
        self.proc.wait(timeout=30)
        return result

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Unwind (stopping the child processes in the finally block) when
    # terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: run from the repository root (no src/ here)")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    worker, serve_bin = build(root, build_dir)
    corpus, traffic_kind = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, VSAN_NUM_THREADS=str(threads))
    result_dir = os.path.join(build_dir, "perfbench-results")
    os.makedirs(result_dir, exist_ok=True)
    S = args.seconds
    steal0, total0 = host_cpu_ticks()

    with tempfile.TemporaryDirectory(dir=build_dir,
                                     prefix="perfbench-run-") as work:
        ckpt = os.path.join(work, "model.ckpt")
        spans_path = os.path.join(work, "spans.bin")
        trainer = daemon = None
        try:
            guard = StealGuard()
            trainer = Trainer(worker, corpus, ckpt, spans_path, env, guard)
            # Warm-up (pool caches, page faults): checked, never timed.
            trainer.reps.append(trainer.command("rep"))
            if args.trace:
                # Before the daemon starts, so its 30 s sliding histograms
                # still hold every sample of the traced serve windows.
                plain = trainer.rep()  # untraced reference for the overhead
                traced = trainer.rep("trace")
            traffic = schedule.Traffic(args.seed, traffic_kind,
                                       int(trainer.info["serve_num_items"]),
                                       *SERVE_HISTORY_LEN)
            serve_setup = []
            for _ in range(1 if args.trace else 3):
                if daemon is not None:
                    daemon.stop()
                daemon = Daemon(serve_bin, ckpt, env,
                                os.path.join(work, "daemon.log"))
                serve_setup.append(daemon.setup_s)
            stage = ServeStage(args, worker, daemon, ckpt, traffic, work,
                               bool(args.trace), guard)
            stage.phase("warmup", LOW_QPS, WARMUP_S)
            timed, reload_windows = [], []
            lows, highs, searches = [], [], []
            high_windows = ROUNDS * HIGH_WINDOWS_PER_ROUND
            for r in range(ROUNDS):
                if not args.trace:
                    timed.append(trainer.rep())
                lows.append(stage.phase("low-%d" % r, LOW_QPS,
                                        LOW_SHARE * S / ROUNDS))
                for _ in range(HIGH_WINDOWS_PER_ROUND):
                    highs.append(stage.phase(
                        "high-%d" % len(highs), HIGH_QPS,
                        HIGH_SHARE * S / high_windows))
                reload_windows.append(stage.phase(
                    "reload-%d" % r, LOW_QPS, RELOAD_SHARE * S / ROUNDS,
                    RELOAD_EVERY_S))
                if not args.trace and (r + 1) % SEARCH_EVERY == 0:
                    searches.append(stage.search("search%d" % len(searches)))
            low, high = Series(lows), Series(highs)
            daemon_rss = daemon.peak_rss_mb()
            final = trainer.quit()
        finally:
            if daemon is not None:
                daemon.stop()
            if trainer is not None:
                trainer.kill()
        if args.trace:
            train_layers = stats.fold_train(stats.read_spans(spans_path),
                                            threads)
    steal1, total1 = host_cpu_ticks()

    # ---- output checks and accounting
    reps = trainer.reps
    ndcg = [r["ndcg10"] for r in reps]
    steps_attempted = int(final["steps_attempted"])
    skipped = steps_attempted - int(final["steps_completed"])
    attempted = steps_attempted + sum(p.attempted for p in stage.phases)
    failed = skipped + sum(p.failed for p in stage.phases)
    mismatches = sum(p.mismatches for p in stage.phases)
    verified = sum(p.verified for p in stage.phases)
    checks = {
        "train.loss_finite": all(r["loss_finite"] == 1 for r in reps),
        "train.nonfinite_counters_zero": final["nonfinite"] == 0,
        # JSON carries doubles at %.17g, so equality here is bitwise.
        "train.ndcg_bitwise_repeatable": all(v == ndcg[0] for v in ndcg),
        "serve.oracle_mismatches_zero": mismatches == 0,
        "serve.oracle_checked_some": verified > 0,
    }
    reloads = [ms for p in reload_windows for ms in p.reload_ms]

    informational = {}
    if args.trace:
        metrics = dict(train_layers)
        checks["trace.zero_dropped_spans"] = traced["dropped_spans"] == 0
        checks["trace.step_attribution_ge_95pct"] = (
            train_layers["core.step.attributed_frac"] >= 0.95)
        metrics["trace.dropped_spans"] = traced["dropped_spans"]
        metrics["trace.overhead_frac"] = traced["fit_s"] / plain["fit_s"] - 1.0
        hits, misses = traced["pool_hits"], traced["pool_misses"]
        metrics["tensor.pool.hit_rate"] = (hits / (hits + misses)
                                           if hits + misses else 0.0)
        metrics["tensor.pool.cached_mb"] = traced["pool_cached_bytes"] / 2**20
        metrics.update(serve_layers(low, high, stage.phases[1:]))
        checks["trace.client_reconciles_with_handler"] = (
            metrics["obs.http.outside_handler_ms"] >= 0)
        units = PER_LAYER_UNITS
        steps = metrics.pop("core.fit.steps")
        users = metrics.pop("eval.users")
        samples = {}
        for name in metrics:
            if name.startswith("eval."):
                samples[name] = "%d users" % users
            elif name.startswith(("serve.", "obs.", "loadgen.")):
                samples[name] = "%d+%d requests" % (low.answered,
                                                    high.answered)
            else:
                samples[name] = "%d steps" % steps
    else:
        seqs = trainer.info["steps_per_fit"] * trainer.info["batch_size"]
        metrics = {
            "setup_s": stats.median(trainer.info["setup_s"]) +
            stats.median(serve_setup),
            "peak_rss_mb": final["peak_rss_mb"] + daemon_rss,
            "train_seq_per_s": stats.median([seqs / r["fit_s"]
                                             for r in timed]),
            "eval_users_per_s": stats.median(
                [trainer.info["test_users"] / r["eval_s"] for r in timed]),
            "ndcg_at_10": ndcg[0],
            "serve_low_p50_ms": low.p50_ms,
            "serve_high_p50_ms": high.p50_ms,
            "serve_reload_ms": stats.median(reloads) if reloads else 0.0,
        }
        units = END_TO_END_UNITS
        samples = {
            "setup_s": "%d+%d" % (len(trainer.info["setup_s"]),
                                  len(serve_setup)),
            "peak_rss_mb": "2 processes",
            "train_seq_per_s": "%d Fits" % len(timed),
            "eval_users_per_s": "%d evals" % len(timed),
            "ndcg_at_10": "%d users" % trainer.info["test_users"],
            "serve_low_p50_ms": "%d in %d windows" % (low.n, len(lows)),
            "serve_high_p50_ms": "%d in %d windows" % (high.n, len(highs)),
            "serve_reload_ms": "%d reloads" % len(reloads),
        }
        # Printed and recorded, but not end-to-end metrics: across ten seeds
        # on a 4-vCPU VM their interquartile spread reached 0.35-1.0 of the
        # median, wider than the largest bound the benchmark may set (0.25).
        informational = {
            # A host stall can fail a ladder step but never pass one, so
            # the best of the searches, run at different times, is the
            # estimate least disturbed by the host.
            "serve_goodput_qps": (
                max(g or 0.0 for g, _ in searches), "1/s",
                "best of %d searches, %d probes" % (
                    len(searches), sum(len(p) for _, p in searches))),
            "serve_low_p99_ms": (low.p99_ms, "ms", "%d in %d windows (p%.4g)"
                                 % (low.n, len(lows), 100 * low.p99_used)),
            "serve_high_p99_ms": (high.p99_ms, "ms",
                                  "%d in %d windows (p%.4g)" % (
                                      high.n, len(highs),
                                      100 * high.p99_used)),
        }
    if set(metrics) != set(units):
        raise RuntimeError("metric set differs from BENCHMARK.json: %s" %
                           sorted(set(metrics) ^ set(units)))
    correct = all(checks.values())

    fp = fingerprint(root, build_dir, args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "fingerprint": fp, "checks": checks, "metrics": metrics,
              "samples": samples,
              "informational": {k: v[0] for k, v in informational.items()},
              "train": {"info": trainer.info,
                                            "reps": reps, "final": final},
              "remeasured_samples": guard.remeasured,
              "host_steal_frac": (steal1 - steal0) / max(1, total1 - total0),
              "attempted": attempted, "failed": failed,
              "fail_frac": stats.fail_frac(attempted, failed),
              "phases": [{"label": p.label, "rate": p.rate,
                          "n": len(p.latency_ms), "p50_ms": p.p50_ms,
                          "p99_ms": p.p99_ms, "lag_growth_ms": p.lag_growth_ms,
                          "failed": p.failed, "passes": p.passes()}
                         for p in stage.phases]}
    path = os.path.join(result_dir, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print("perfbench %s seed=%d trace=%d  host: %s, %d cpus, %s" %
          (args.workload, args.seed, args.trace, fp["cpu"], fp["nproc"],
           fp["compiler"]))
    for name in sorted(metrics):
        print("  %-34s %14.6g %-6s n=%s" % (
            name, metrics[name], units[name], samples[name]))
    for name, (value, unit, n) in informational.items():
        print("  %-34s %14.6g %-6s n=%s (not gated)" % (name, value, unit, n))
    print("  %-34s %14.6g        n=%d attempted" % (
        "fail_frac", record["fail_frac"], attempted))
    print("  %-34s %14d" % ("remeasured_samples", guard.remeasured))
    for name, ok in checks.items():
        print("  check %-40s %s" % (name, "ok" if ok else "FAILED"))
    print("  full record: %s" % path)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
