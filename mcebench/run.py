#!/usr/bin/env python3
"""MCE benchmark: time from an in-memory edge list to a verified count of
all maximal cliques, with RMCEdegen, on two seeded workloads.

    python3 mcebench/run.py --workload sparse_fringe --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the program and the
benchmark from source with sbt (offline) into mcebench/target; later runs
reuse the build while the sources are unchanged. Each run starts its own
JVMs with the flags in settings.json, prints a summary of every metric with
its unit and sample count, and ends with one JSON line. With --trace 1 the
JSON holds the per-layer metrics, the run also drives the Spark path on a
small fixed input for the spark.* layers, and the spans are written under
.bench_build/work.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "classpath.txt")
STAMP_FILE = os.path.join(BUILD_DIR, "stamp.txt")
# All JVMs of one run must end within this many seconds after the build.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Cold JVMs whose first op gives setup_s (the measuring JVM and two more).
SETUP_JVMS = 3

# Spark on JDK 17 needs these module internals open (as in the root build).
ADD_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
]

# Per-layer metrics of the traced run, on every workload; the spark.* ones
# come from the Spark path on its own input.
PER_LAYER = [
    ("graph.build_ms", "ms"), ("core.prepare_ms", "ms"), ("core.global_ms", "ms"),
    ("graph.order_ms", "ms"), ("core.search_ms", "ms"),
    ("graph.build_alloc_mb", "MB"), ("core.prepare_alloc_mb", "MB"), ("core.search_alloc_mb", "MB"),
    ("core.recursive_calls", "count"), ("core.roots", "count"), ("core.cliques", "count"),
    ("core.pre_global", "count"), ("core.pre_dynamic", "count"), ("core.reduced_n", "count"),
    ("graph.degeneracy", "count"), ("core.global_yield", "ratio"),
    ("core.forbidden_keep_ratio", "ratio"),
    ("host.probe_us.p50", "us"), ("host.wall_ms.p50", "ms"),
    ("ref.BKdegen_ms.p50", "ms"), ("ref.speedup", "x"), ("trace.overhead_pct", "%"),
    ("spark.canon_ms", "ms"), ("spark.reduction_ms", "ms"), ("spark.run_ms", "ms"),
    ("spark.jobs", "count"), ("spark.stages", "count"), ("spark.tasks", "count"),
    ("spark.task_ms.max", "ms"), ("spark.task_ms.mean", "ms"), ("spark.shuffle_mb", "MB"),
    ("spark.gc_ms", "ms"),
]


def fail(msg):
    print("mcebench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every file the build reads, so an edit forces a rebuild."""
    h = hashlib.sha256()
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH_FILE) as cp:
                    return cp.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Djava.io.tmpdir=%s -XX:-UsePerfData" % tmp).strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(proc.stdout[-4000:] if proc.returncode else "")
    if proc.returncode != 0:
        fail("build failed (sbt exit %d)" % proc.returncode)
    classpath = proc.stdout.strip().splitlines()[-1].strip()
    if not classpath.startswith(HERE):
        fail("could not read the classpath from sbt")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(classpath)
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp)
    print("built in %.1f s" % (time.time() - t0), file=sys.stderr)
    return classpath


def pinned(rec):
    return "%d,%d,%s,%d,%d" % (rec["n"], rec["m"], rec["hash"], rec["count"], rec["checksum"])


def run_jvm(classpath, settings, args, mode, seed, deadline):
    """One benchmark JVM; returns its parsed result record."""
    probe = settings["host_probe"]
    spark = settings["spark"]
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + settings["jvm"]["flags"] + ADD_OPENS +
           ["-Djava.io.tmpdir=" + tmp, "-cp", classpath, "mcebench.Main",
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--mode", mode,
            "--pref-us", str(settings["workloads"][args.workload]["p_ref_us"]),
            "--probe-vertices", str(probe["vertices"]),
            "--threads", str(min(spark["master_threads"], os.cpu_count() or 1)),
            "--shuffle-partitions", str(spark["shuffle_partitions"]), "--work-dir", WORK_DIR])
    if seed == settings["default_seed"]:
        cmd += ["--expect", pinned(settings["workloads"][args.workload]["pinned"]),
                "--spark-expect", pinned(spark["pinned"])]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("benchmark JVM (%s) did not finish in time" % mode)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [l for l in out.splitlines() if l.startswith("MCEBENCH ")]
    if proc.returncode != 0 or not lines:
        fail("benchmark JVM (%s) exited with %s" % (mode, proc.returncode))
    return json.loads(lines[-1][len("MCEBENCH "):])


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples beyond); the maximum when even the median
    has fewer than 10 samples beyond it."""
    v = sorted(values)
    if len(v) < 20:
        return v[-1], 100.0, 0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v), 10


def main():
    # On SIGTERM, unwind so that run_jvm kills and reaps its JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail("program sources not found under %s; run from a full checkout" % PROGRAM_SOURCES)
    with open(os.path.join(HERE, "settings.json")) as fh:
        settings = json.load(fh)
    if args.workload not in settings["workloads"]:
        fail("unknown workload %s" % args.workload)
    seed = settings["default_seed"] if args.seed is None else args.seed

    classpath = build()
    deadline = time.time() + RUN_TIMEOUT_S
    main_rec = run_jvm(classpath, settings, args, "run", seed, deadline)
    setup_recs = [main_rec]
    if not args.trace:
        setup_recs += [run_jvm(classpath, settings, args, "setup", seed, deadline)
                       for _ in range(SETUP_JVMS - 1)]

    ident = {k: main_rec[k] for k in ("n", "m", "hash", "count", "checksum")}
    for r in setup_recs:
        if {k: r[k] for k in ident} != ident:
            fail("setup JVM saw a different input or reference: %s vs %s" % (r, ident))

    attempted = sum(r["attempted"] for r in setup_recs)
    failed = sum(r["failed"] for r in setup_recs)
    samples = main_rec["samples"]
    ms = [s[0] for s in samples]
    wall = [s[1] for s in samples]
    probe = [s[2] for s in samples]
    setup_s = [r["setup_op"][3] / 1000.0 for r in setup_recs]

    print("workload %s seed %d: n=%d m=%d edge-hash=%s cliques=%d checksum=%d"
          % (args.workload, seed, ident["n"], ident["m"], ident["hash"], ident["count"],
             ident["checksum"]))
    metrics = {}
    if not args.trace:
        t, pct, beyond = tail(ms)
        rows = [
            ("mce_ms.p50", statistics.median(ms), "ms", "%d ops" % len(ms)),
            ("mce_ms.tail", t, "ms", "p%.1f of %d ops, %d beyond" % (pct, len(ms), beyond)),
            ("setup_s", statistics.median(setup_s), "s", "median of %d cold JVMs" % len(setup_s)),
            ("heap_peak_mb", main_rec["heap_peak_mb"], "MB", "peak over %d ops" % len(ms)),
        ]
        for name, value, unit, note in rows:
            metrics[name] = {"value": value, "unit": unit}
    else:
        layers = {k: statistics.median(v) for k, v in main_rec["layers"].items()}
        counts = main_rec["counts"]
        traced = statistics.median(main_rec["traced"])
        plain = statistics.median(ms)
        ref = statistics.median(main_rec["ref"])
        values = dict(counts)
        values.update({k: v for k, v in layers.items()})
        values["host.probe_us.p50"] = statistics.median(probe)
        values["host.wall_ms.p50"] = statistics.median(wall)
        values["ref.BKdegen_ms.p50"] = ref
        values["ref.speedup"] = ref / plain
        values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        rows = []
        for name, unit in PER_LAYER:
            v = values[name]
            metrics[name] = {"value": v, "unit": unit}
            if name in counts:
                note = "from the last traced op"
            else:
                note = "median of %d traced ops" % len(main_rec["layers"].get(name, main_rec["traced"]))
            rows.append((name, v, unit, note))
        rows.append(("base: m", counts["base.m"], "count", "base of core.global_yield"))
        rows.append(("base: forbidden X total", counts["base.forbidden_total"], "count",
                     "base of core.forbidden_keep_ratio"))

    rows.append(("ops_failed_ratio", failed / attempted, "-", "%d of %d ops" % (failed, attempted)))
    if not args.trace:
        rows.append(("host.probe_us.p50", statistics.median(probe), "us", "raw, %d ops" % len(ms)))
        rows.append(("host.wall_ms.p50", statistics.median(wall), "ms", "raw, %d ops" % len(ms)))
    for name, value, unit, note in rows:
        print("  %-26s %14.4f %-6s %s" % (name, value, unit, note))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
