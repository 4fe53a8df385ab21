#!/usr/bin/env python3
"""Run one workload of the cvewb benchmark and print its metrics.

    python3 perfbench/run.py --workload store|service --seed N \\
        [--seconds S] [--trace 0|1]

Run from the repository root.  The first run builds the cvewb libraries,
the cvewbd daemon and the measurement harness into .bench_build/ (or
$CARGO_TARGET_DIR); later runs only check the build is current.

Every workload measures all three surfaces a cvewb user waits on -- a
whole study, a store query, a daemon request -- so that every run reports
every end-to-end metric.  A workload is named after the surface it loads
at full size; the study is measured the same way in both, and the other
surface runs a short probe.  README.md says why each workload exists and
which layer metric should move which end-to-end metric.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 prints the per-layer metrics and the per-span scaling table from
a traced run, and the tracing overhead against untraced studies.

Every line but the last is for people: the host stamp, each metric by name
with its unit and sample count, operation counts, and output checks.  The
last line is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every output check passed.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import benchstats as bs  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
HARNESS_TIMEOUT_S = 150
DAEMON_STOP_TIMEOUT_S = 30

# Phase sizes.  "share" scales --seconds.  The focus phase is the one the
# workload is named after; the other phase runs the probe size, and the
# study phase has one size (no workload is named after it).  Each phase
# measures in slices, and the phases take turns slice by slice: the host's
# speed swings by a quarter over tens of seconds, and taking turns spreads
# every metric's samples over the whole run.  Per-slice values are per
# slice.
ROUNDS = 6
STUDY = {"share": 0.5}
STORE = {
    # The store is built in set-up ("setups" times, the last one kept);
    # each slice is one process that reopens it ("reopens" times, each
    # timed) and queries it, and the last slice then writes one more study
    # into it.
    "focus": {"scale": 1.0, "setups": 2, "reopens": 1, "share": 1.0, "min_scan_blocks": 1},
    "probe": {"scale": 0.1, "setups": 3, "reopens": 2, "share": 0.75, "min_scan_blocks": 1},
}
SERVICE = {
    # tiers: extra base tiers in set-up.  With the populated run, 7, so a
    # fresh submit brings the store to 8 tiers: compaction.  With
    # "fresh", every slice runs on its own daemon over a copy of the set-up
    # store, and the slice's first submit is fresh: one compaction per
    # slice.  Without it, one daemon serves every slice and every submit
    # repeats the populated config: the stalls are the per-job ones, not
    # store writes.  A slice lasts at least min_slice_s and until its
    # submits are done; at 400 requests/s, 2.5 s give a p99 per slice.
    "focus": {"tiers": 6, "slices": 3, "submits": 5, "min_slice_s": 6.5,
              "fresh": True},
    "probe": {"tiers": 0, "slices": 4, "submits": 2, "min_slice_s": 2.6,
              "fresh": False},
}
FAILED_QUERY_MS = 10_000.0   # a failed request counts as the client timeout
FAILED_SUBMIT_S = 60.0

WORKLOADS = ("store", "service")


class BenchError(Exception):
    """The benchmark itself could not run (build, harness, or daemon)."""


# ------------------------------------------------------------------ build

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("cvewb sources not found under %s" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                raise BenchError("cmake configure failed; see %s" % log_path)
        compile_cmd = ["cmake", "--build", out, "-j", str(NPROC)]
        if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode != 0:
            raise BenchError("build failed; see %s" % log_path)
    return out


# ------------------------------------------------------------- host stamp

def host_stamp(out, seed):
    mask = sum(1 << cpu for cpu in os.sched_getaffinity(0))
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return {
        "nproc": NPROC,
        "affinity_mask": hex(mask),
        "cpu_model": cpu_model,
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "Release",
        "compiler": (version.stdout.splitlines() or ["unknown"])[0],
        "commit": commit_id(),
        "seed": seed,
    }


def commit_id():
    """The git commit when run from a clone; otherwise a digest of the
    sources the benchmark builds (a checkout without .git)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"), recursive=True))
    files += [os.path.join(ROOT, "tools", "cvewbd.cpp")]
    files += sorted(glob.glob(os.path.join(HERE, "*")))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


# ------------------------------------------------------------- processes

class Run:
    """Per-run state: a pid-keyed scratch directory under the build tree,
    the daemons started, and the counts every phase adds to."""

    def __init__(self, out, workload, seed, seconds, trace):
        self.harness = os.path.join(out, "perfbench_harness")
        self.cvewbd = os.path.join(out, "cvewbd")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = os.path.join(out, "run-%d" % os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        self.daemons = []
        self.ops = bs.OpCounter()
        self.checks = []  # (description, checked, mismatches)
        self.metrics = {}  # name -> (value, unit, note)
        self.setup_s = []  # one median per phase
        self.lines = []

    def size(self, table, phase):
        return table["focus" if self.workload == phase else "probe"]

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit, note)

    def check(self, description, checked, mismatches):
        self.checks.append((description, int(checked), int(mismatches)))

    def harness_json(self, command, out_name, **flags):
        out_path = os.path.join(self.tmp, out_name)
        argv = [self.harness, command]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        argv += ["--out", out_path]
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("harness %s timed out" % command)
        if proc.stderr.strip():
            self.lines.append("harness %s: %s" % (command, proc.stderr.strip()))
        if proc.returncode != 0:
            raise BenchError("harness %s exited %d: %s"
                             % (command, proc.returncode, proc.stderr.strip()))
        with open(out_path) as f:
            return json.load(f)

    def start_daemon(self, directory):
        port_file = os.path.join(directory, "port")
        log = open(os.path.join(directory, "cvewbd.log"), "w")
        argv = [self.cvewbd, "--port", "0", "--port-file", port_file,
                "--store-dir", os.path.join(directory, "store"),
                "--cache-dir", os.path.join(directory, "cache"),
                "--metrics-out", os.path.join(directory, "metrics.json")]
        proc = subprocess.Popen(argv, stdout=log, stderr=log)
        log.close()
        self.daemons.append(proc)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise BenchError("cvewbd exited %d at start" % proc.returncode)
            try:
                with open(port_file) as f:
                    text = f.read().strip()
                if text:
                    return proc, int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        raise BenchError("cvewbd did not publish its port")

    def stop_daemon(self, proc):
        """SIGTERM (graceful drain, writes --metrics-out), then SIGKILL."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("cvewbd did not drain within %ds" % DAEMON_STOP_TIMEOUT_S)
        if proc in self.daemons:
            self.daemons.remove(proc)
        return proc.returncode

    def close(self):
        """Kill and reap every daemon still running; remove the scratch dir."""
        for proc in list(self.daemons):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.daemons.clear()
        shutil.rmtree(self.tmp, ignore_errors=True)


def derive(seed, stream, index=0):
    """A per-purpose seed from the workload seed (stable across runs)."""
    digest = hashlib.sha256(("%d/%d/%d" % (seed, stream, index)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


# ----------------------------------------------------------------- study

# Spans whose per-layer metric is a per-study total (ms).
SPAN_METRICS = {
    "traffic.generate_ms": "traffic/generate",
    "traffic.merge_sort_ms": "traffic/merge_sort",
    "ids.ruleset_ms": "phase/ruleset",
    "ids.match_corpus_ms": "ids/match_corpus",
    "pipeline.reconstruct_ms": "reconstruct",
    "pipeline.rca_join_ms": "reconstruct/rca_join",
    "pipeline.hygiene_ms": "reconstruct/hygiene",
    "pipeline.unique_ips_ms": "phase/unique_ips",
    "lifecycle.analyze_ms": "phase/analyze",
}


def span_totals(trace):
    """name -> (total ms, instances, longest instance ms) for one study."""
    totals = {}
    for name, _ts, dur, _tid in trace["events"]:
        total, count, longest = totals.get(name, (0.0, 0, 0.0))
        totals[name] = (total + dur / 1e3, count + 1, max(longest, dur / 1e3))
    return totals


def serial_spans(trace):
    """Span names that run as one task with no sharded work inside.

    Taken from a threads=1 trace, where every span is on one thread and
    nesting is exact: a span is serial when it occurs once per study and
    no span nested in it occurs more than once.  pipeline.serial_ms sums
    the outermost serial spans -- the part of a study no thread count
    shortens (the Amdahl floor)."""
    events = [(ts, ts + dur, name) for name, ts, dur, _tid in trace["events"]]
    counts = {}
    for _b, _e, name in events:
        counts[name] = counts.get(name, 0) + 1
    serial = set()
    for begin, end, name in events:
        if counts[name] != 1:
            continue
        inner = [n for b, e, n in events if begin <= b and e <= end and n != name]
        if all(counts[n] == 1 for n in inner):
            serial.add(name)
    outermost = set()
    for begin, end, name in events:
        if name not in serial:
            continue
        enclosed = any(b <= begin and end <= e and n != name and n in serial
                       for b, e, n in events)
        if not enclosed:
            outermost.add(name)
    return serial, outermost


def phase_study(run):
    size = STUDY
    trace = run.trace
    first_s, first_traces = [], []
    doc = {"par_s": [], "serial_s": [], "untraced_par_s": [], "par_traces": [],
           "serial_traces": []}
    checked = mismatches = 0
    for r in range(ROUNDS):
        part = run.harness_json("study", "study.json", seed=derive(run.seed, 2, r),
                                seconds=run.seconds * size["share"] / ROUNDS, trace=int(trace))
        first_s.append(part["first_s"])
        if trace:
            first_traces.append(part["first_trace"])
        checked += part["digest_checks"]
        mismatches += part["mismatches"]
        for key in doc:
            doc[key] += part.get(key, [])
        yield
    run.check("threads=%d result == threads=1 result" % NPROC, checked, mismatches)
    run.setup_s.append(bs.median(first_s))
    run.ops.add("study", len(first_s) + len(doc["par_s"]) + len(doc["serial_s"])
                + len(doc["untraced_par_s"]))
    n = len(doc["par_s"])
    if not trace:
        run.metric("study_s", bs.median(doc["par_s"]), "s", "median of %d, threads=%d" % (n, NPROC))
        run.metric("study_serial_s", bs.median(doc["serial_s"]), "s", "median of %d, threads=1" % n)
        run.metric("study_first_s", bs.median(first_s), "s",
                   "median of %d fresh processes" % len(first_s))
        return

    par = [span_totals(t) for t in doc["par_traces"]]
    serial = [span_totals(t) for t in doc["serial_traces"]]
    first = [span_totals(t) for t in first_traces]
    serial_names, outermost = serial_spans(doc["serial_traces"][0])

    def med(tables, name, field=0):
        return bs.median([t[name][field] if name in t else 0.0 for t in tables])

    note = "median of %d traced studies, threads=%d" % (n, NPROC)
    for metric, span in SPAN_METRICS.items():
        run.metric(metric, med(par, span), "ms", note)
    run.metric("traffic.exploit_actor_max_ms", med(par, "traffic/exploit_actor", 2), "ms",
               "longest of the per-CVE shards; " + note)
    counters = [t["counters"] for t in doc["par_traces"]]
    run.metric("pipeline.match_groups_per_session",
               bs.median([c["reconstruct/match_groups"] / c["ids/sessions_scanned"]
                          for c in counters]), "count", "match groups / sessions scanned")
    run.metric("util.pool_busy_frac",
               bs.median([c["pool/task_run_us"] / (c["pool/task_run_us"] + c["pool/idle_us_total"])
                          for c in counters]), "fraction", "task run / (task run + idle); " + note)
    run.metric("util.pool_task_wait_ms",
               bs.median([c["pool/task_wait_us"] / 1e3 / c["pool/tasks_completed"]
                          for c in counters]), "ms", "mean queue wait per pool task; " + note)
    run.metric("pipeline.serial_ms",
               bs.median([sum(t.get(name, (0.0,))[0] for name in outermost) for t in par]), "ms",
               "sum of outermost serial spans: " + ", ".join(sorted(outermost)))
    first_wall = [t["wall_s"] for t in first_traces]
    par_wall = [t["wall_s"] for t in doc["par_traces"]]
    run.metric("pipeline.first_run_extra_ms",
               (bs.median(first_wall) - bs.median(par_wall)) * 1e3, "ms",
               "first study of a process minus steady state, both traced")
    run.metric("obs.trace_overhead_pct",
               (bs.median(par_wall) / bs.median(doc["untraced_par_s"]) - 1) * 100, "%",
               "traced vs untraced threads=%d studies, same seeds" % NPROC)

    names = sorted(set().union(*par, *serial),
                   key=lambda name: -med(serial, name))
    rows = ["per-span scaling (ms per study, medians of %d; first-run: %d fresh processes)"
            % (n, len(first)),
            "%-32s %9s %9s %8s %6s %9s %9s" % ("span", "1t", "%dt" % NPROC, "speedup",
                                               "serial", "first", "steady")]
    for name in names:
        one, many = med(serial, name), med(par, name)
        rows.append("%-32s %9.1f %9.1f %7.2fx %6s %9.1f %9.1f" % (
            name, one, many, one / many if many > 0 else 0.0,
            "yes" if name in serial_names else "", med(first, name), many))
    run.lines.extend(rows)
    with open(os.path.join(os.path.dirname(run.tmp), "span_table.txt"), "w") as f:
        f.write("\n".join(rows) + "\n")


# ----------------------------------------------------------------- store

# Per-sample lists a store slice reports, merged across slices.
STORE_SAMPLES = ("lat_us", "cls", "matched", "scanned", "postings", "plans", "plan_us")


def phase_store(run):
    size = run.size(STORE, "store")
    directory = os.path.join(run.tmp, "store")
    pools = os.path.join(run.tmp, "pools.json")
    build = run.harness_json("store-build", "store-build.json", seed=derive(run.seed, 3),
                             scale=size["scale"], setups=size["setups"], dir=directory,
                             pools=pools)
    slices = []
    for r in range(ROUNDS):
        slices.append(run.harness_json(
            "store-query", "store.json", seed=derive(run.seed, 3, r + 1),
            seconds=run.seconds * size["share"] / ROUNDS, reopens=size["reopens"],
            min_scan_blocks=size["min_scan_blocks"], writes=int(r == ROUNDS - 1),
            scale=size["scale"], trace=int(run.trace), dir=directory, pools=pools))
        yield
    shutil.rmtree(directory)
    run.check("index result == brute-force result (sampled)",
              sum(s["brute_checks"] for s in slices), sum(s["mismatches"] for s in slices))
    doc = {key: sum((s.get(key, []) for s in slices), []) for key in STORE_SAMPLES}
    last = slices[-1]
    run.setup_s.append(bs.median(build["setup_s"]))
    classes = last["classes"]
    is_scan = [classes[int(c)].startswith("scan") for c in doc["cls"]]
    lookups = [lat for lat, scan in zip(doc["lat_us"], is_scan) if not scan]
    scans = [lat for lat, scan in zip(doc["lat_us"], is_scan) if scan]
    run.ops.add("store.lookup", len(lookups))
    run.ops.add("store.scan", len(scans))
    # An ingest of each set-up study, a checkpoint per set-up, and the
    # final ingest, checkpoint and compact.
    run.ops.add("store.write", 3 * size["setups"] + 3)
    where = "scale %g store" % size["scale"]
    if not run.trace:
        reopens = sum((s["reopen_s"] for s in slices), [])
        run.metric("reopen_s", bs.median(reopens), "s",
                   "median of %d reopens, %s" % (len(reopens), where))
        run.metric("lookup_p50_us", bs.median(lookups), "us", bs.describe(lookups) + ", " + where)
        run.metric("lookup_p99_us", bs.tail(lookups), "us", bs.describe(lookups))
        run.metric("scan_p50_ms", bs.median(scans) / 1e3, "ms", bs.describe(scans) + ", " + where)
        rows = build["write_rows"] + [last["ingest_rows"]]
        seconds = build["write_s"] + [last["ingest_s"] + last["checkpoint_s"]]
        rates = [r / t for r, t in zip(rows, seconds)]
        run.metric("ingest_rows_per_s", bs.median(rates), "rows/s",
                   "ingest + checkpoint, median of %d writes" % len(rates))
        run.metric("bytes_per_row", last["snapshot_bytes"] / last["stored_rows"], "bytes/row",
                   "base tier after compact, %d rows" % last["stored_rows"])
        if run.workload == "store":
            added = [(s["peak_rss_kb"] - s["rss_before_open_kb"]) / 1024.0 for s in slices]
            run.metric("peak_rss_mb", bs.median(added), "MB",
                       "VmHWM over reopen + query loop minus VmRSS before it, median of %d "
                       "query processes" % len(added))
        return

    shapes = {}
    for plan, lat in zip(doc["plans"], doc["lat_us"]):
        shapes.setdefault(plan.split("(")[0], []).append(lat)
    for shape in ("single", "intersect", "brute", "empty"):
        if shape in shapes:
            run.metric("store.query_us." + shape, bs.median(shapes[shape]), "us",
                       "n=%d" % len(shapes[shape]))
        else:  # the planner chose this shape for no query of the run
            run.metric("store.query_us." + shape, 0.0, "us", "n=0: no query had this plan")
    run.metric("store.plan_us", bs.median(doc["plan_us"]), "us", "Store::plan, n=%d"
               % len(doc["plan_us"]))
    look = [i for i, scan in enumerate(is_scan) if not scan]
    matched = sum(doc["matched"][i] for i in look)
    run.metric("store.scanned_per_match", sum(doc["scanned"][i] for i in look) / max(1.0, matched),
               "count", "rows examined / rows matched, lookups")
    run.metric("store.postings_per_query", sum(doc["postings"][i] for i in look) / len(look),
               "count", "mean postings visited per lookup")
    per_row = [doc["lat_us"][i] / doc["matched"][i]
               for i, scan in enumerate(is_scan) if scan and doc["matched"][i] > 0]
    run.metric("store.us_per_matched_row", bs.median(per_row), "us", "scans, n=%d" % len(per_row))
    note = "the last slice's writes"
    run.metric("store.ingest_ms", last["ingest_s"] * 1e3, "ms", note)
    run.metric("store.checkpoint_ms", last["checkpoint_s"] * 1e3, "ms", note)
    written = ((last["counters"].get("store/wal_bytes", 0)
                + last["counters"].get("store/checkpoint_bytes", 0)) / last["ingest_rows"])
    run.metric("store.bytes_written_per_row", written, "bytes/row",
               "WAL + checkpoint bytes per ingested row; " + note)
    run.metric("store.compact_ms", last["compact_s"] * 1e3, "ms",
               "%d tiers merged; %s" % (last["tiers_before_compact"], note))


# --------------------------------------------------------------- service

def submit_and_wait(port, seed, scale):
    """Submit one study and poll it to completion on one connection (a
    closed connection cancels the jobs it owns)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        replies = conn.makefile("r")

        def call(request):
            conn.sendall((json.dumps(request) + "\n").encode())
            line = replies.readline()
            if not line:
                raise BenchError("cvewbd closed the connection")
            return json.loads(line)

        reply = call({"op": "submit", "seed": seed, "scale": scale, "threads": 1})
        if not reply.get("ok"):
            raise BenchError("set-up submit refused: %s" % reply)
        while True:
            status = call({"op": "query", "job": reply["job"]})
            if status.get("state") not in ("queued", "running"):
                break
            time.sleep(0.002)
    if status.get("state") != "complete":
        raise BenchError("set-up study did not complete: %s" % status)


def cache_entries(directory):
    return len(glob.glob(os.path.join(directory, "**", "*.cwbc"), recursive=True))


# Per-request lists a service load slice reports, merged across slices.
SERVICE_SAMPLES = ("query_records", "query_lat_ms", "query_late_ms", "ping_lat_ms",
                   "ping_late_ms", "submit_s", "jobs")


def daemon_hwm_kb(proc):
    with open("/proc/%d/status" % proc.pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for cvewbd")


def phase_service(run):
    size = run.size(SERVICE, "service")
    template = os.path.join(run.tmp, "service-setup")
    os.makedirs(template)
    start = time.monotonic()
    spec = run.harness_json("service-populate", "spec.json", seed=derive(run.seed, 4),
                            tiers=size["tiers"], dir=os.path.join(template, "store"))
    # The set-up submit fills the daemon's stage cache with the populated
    # config, which every repeat submit then hits.
    proc, port = run.start_daemon(template)
    submit_and_wait(port, spec["populated_seed"], spec["submit_scale"])
    run.setup_s.append(time.monotonic() - start)
    if size["fresh"]:
        run.stop_daemon(proc)

    entries_per_config = cache_entries(os.path.join(template, "cache"))
    spec_path = os.path.join(run.tmp, "load-spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    slices = []  # per slice: the load document, VmHWM and --metrics-out of its daemon
    new_entries = 0
    for r in range(size["slices"]):
        directory = template
        if size["fresh"]:
            # A daemon of its own over a copy of the set-up store, so that
            # the slice's fresh submit compacts the same 8 tiers.
            directory = os.path.join(run.tmp, "service-%d" % r)
            shutil.rmtree(directory, ignore_errors=True)
            shutil.copytree(template, directory,
                            ignore=shutil.ignore_patterns("port", "*.log", "metrics.json"))
            proc, port = run.start_daemon(directory)
        entries_before = cache_entries(os.path.join(directory, "cache"))
        load = run.harness_json("service-load", "load.json", port=port,
                                seed=derive(run.seed, 6, r), fresh=int(size["fresh"]),
                                submits=size["submits"], min_seconds=size["min_slice_s"],
                                spec=spec_path)
        hwm_kb = daemon_hwm_kb(proc)
        daemon_metrics = None
        if size["fresh"] or r + 1 == size["slices"]:
            if run.stop_daemon(proc) != 0:
                raise BenchError("cvewbd exited %d on drain" % proc.returncode)
            with open(os.path.join(directory, "metrics.json")) as f:
                daemon_metrics = json.load(f)
        new_entries += cache_entries(os.path.join(directory, "cache")) - entries_before
        slices.append({"load": load, "hwm_kb": hwm_kb, "metrics": daemon_metrics})
        if size["fresh"] and r + 1 < size["slices"]:
            shutil.rmtree(directory)
        yield

    load = {key: sum((s["load"][key] for s in slices), []) for key in SERVICE_SAMPLES}
    load["queries"] = spec["queries"]
    load_path = os.path.join(run.tmp, "load-all.json")
    with open(load_path, "w") as f:
        json.dump(load, f)
    # Every store query names the populated run, which no submit changes,
    # so the store the last daemon left answers every slice's queries.
    check = run.harness_json("service-check", "check.json", load=load_path,
                             dir=os.path.join(directory, "store"))
    run.check("job digest == in-process run_study", check["job_checks"], check["job_mismatches"])
    run.check("wire store_query digest == in-process replay", len(check["replay_ms"]),
              check["query_mismatches"])

    jobs = load["jobs"]
    run.ops.add_samples("service.submit", load["submit_s"])
    run.ops.add_samples("service.store_query", load["query_lat_ms"])
    run.ops.add_samples("service.ping", load["ping_lat_ms"])
    queries = bs.samples_with_failures(load["query_lat_ms"], FAILED_QUERY_MS)
    submits = bs.samples_with_failures(load["submit_s"], FAILED_SUBMIT_S)
    if not run.trace:
        def slice_tails(key):
            return [bs.samples_with_failures(s["load"][key], FAILED_QUERY_MS) for s in slices]
        run.metric("query_p50_ms", bs.median(queries), "ms", bs.describe(queries))
        run.metric("query_p99_ms", bs.median_of_tails(slice_tails("query_lat_ms")), "ms",
                   bs.describe_slices(slice_tails("query_lat_ms")))
        run.metric("ping_p99_ms", bs.median_of_tails(slice_tails("ping_lat_ms")), "ms",
                   bs.describe_slices(slice_tails("ping_lat_ms")))
        run.metric("submit_p50_s", bs.median(submits), "s", bs.describe(submits))
        if run.workload == "service":
            hwm = [s["hwm_kb"] / 1024.0 for s in slices]
            run.metric("peak_rss_mb", bs.median(hwm), "MB",
                       "cvewbd VmHWM, median of %d slices" % len(hwm))
        return

    done = [j for j in jobs if j["state"] == "complete"]
    run.metric("daemon.queue_wait_ms", bs.median([j["wait_us"] / 1e3 for j in done]), "ms",
               "job query reply wait_us, n=%d" % len(done))
    run.metric("daemon.job_run_ms", bs.median([j["run_us"] / 1e3 for j in done]), "ms",
               "job query reply run_us")
    rejected = sum(1 for j in jobs if j["state"] == "rejected")
    run.metric("daemon.rejected_frac", rejected / len(jobs), "fraction",
               "%d of %d submits" % (rejected, len(jobs)))
    # cvewbd --metrics-out has no stage-cache counters (the scheduler runs
    # studies without an Observability), so hits are read off the cache
    # directory: a job that finds its stage in the cache writes no entry.
    lookups = len(done) * entries_per_config
    run.metric("cache.hit_frac", 1 - new_entries / max(1.0, lookups), "fraction",
               "1 - new cache entries / (jobs x %g entries per config)" % entries_per_config)
    run.metric("daemon.wire_overhead_us",
               bs.median([(w - r) * 1e3 for w, r in zip(check["wire_ms"], check["replay_ms"])]),
               "us", "wire store_query minus in-process Store::query")
    daemon_metrics = [s["metrics"] for s in slices if s["metrics"] is not None]
    run.metric("store.tiers_max",
               max(m.get("gauges", {}).get("store/base_segments", {}).get("max", 0)
                   for m in daemon_metrics), "count", "cvewbd store/base_segments high-water")
    run.metric("store.compactions",
               sum(m.get("counters", {}).get("store/compactions", 0) for m in daemon_metrics),
               "count", "cvewbd, all %d daemons of the run" % len(daemon_metrics))
    late = load["query_late_ms"] + load["ping_late_ms"]
    run.metric("loadgen.late_ms", bs.tail(late), "ms", "p99 send lateness, " + bs.describe(late))


# ------------------------------------------------------------------ main

PHASES = {"study": phase_study, "store": phase_store, "service": phase_service}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def interrupted(signum, _frame):
        raise BenchError("interrupted by signal %d" % signum)

    signal.signal(signal.SIGTERM, interrupted)
    try:
        out = build()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    stamp = host_stamp(out, args.seed)
    run = Run(out, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        # The workload's own surface first, then the phases take turns.
        order = [args.workload, "study"] + [w for w in WORKLOADS if w != args.workload]
        phases = {w: PHASES[w](run) for w in order}
        elapsed = dict.fromkeys(order, 0.0)
        while phases:
            for name, phase in list(phases.items()):
                start = time.monotonic()
                if next(phase, StopIteration) is StopIteration:
                    del phases[name]
                elapsed[name] += time.monotonic() - start
        run.lines.append("phase seconds: " + ", ".join("%s %.1f" % kv for kv in elapsed.items()))
        if not args.trace:
            run.metric("setup_s", sum(run.setup_s), "s",
                       "sum of per-surface set-up medians: " +
                       ", ".join("%.3f" % s for s in run.setup_s))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        for line in run.lines:
            print(line, file=sys.stderr)
        return 1
    finally:
        run.close()

    correct = all(mismatches == 0 and checked > 0 for _, checked, mismatches in run.checks)
    print("host: " + " ".join("%s=%s" % (k, json.dumps(v)) for k, v in stamp.items())
          + " workload=%s trace=%d" % (args.workload, args.trace))
    for line in run.lines:
        print(line)
    for name, (value, unit, note) in run.metrics.items():
        print("metric %-36s %14.6g %-9s %s" % (name, value, unit, note))
    for name, (attempted, failed) in sorted(run.ops.classes.items()):
        print("ops %-20s attempted=%d failed=%d" % (name, attempted, failed))
    for description, checked, mismatches in run.checks:
        print("check %-50s %s (%d checked, %d mismatched)"
              % (description, "ok" if mismatches == 0 and checked > 0 else "FAILED",
                 checked, mismatches))
    result = {
        "correct": correct,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in run.metrics.items()},
    }
    record = dict(result, host=stamp, workload=args.workload, trace=args.trace)
    results_dir = os.path.join(os.path.dirname(out), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
