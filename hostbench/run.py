#!/usr/bin/env python3
"""Layered host-time benchmark of the simulator (see METHOD.md).

    python3 hostbench/run.py --workload fig3-grid --seed 1 --seconds 30 --trace 0

Builds the measurement driver from the checkout's sources (Release,
into .bench_build/hostbench), runs one workload with every SWSM_*
variable unset or pinned, checks each simulation's verify() result and
simulated signature against hostbench/signatures.json, and prints every
metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones and a Chrome
trace_event file of the driver's spans.

    python3 hostbench/run.py --record-signatures   # after a deliberate model change
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import metrics as M

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
DRIVER = os.path.join(BUILD, "swsm_hostbench")
SIGNATURES = os.path.join(HERE, "signatures.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"hostbench: {msg}")
    sys.exit(2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "swsm_hostbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def pinned_env():
    """The caller's environment minus every SWSM_* knob, with the
    serial event kernel pinned (the driver raises SWSM_SIM_THREADS
    itself for its parallel-kernel runs)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SWSM_")}
    dropped = sorted(k for k in os.environ if k.startswith("SWSM_"))
    env["SWSM_SIM_THREADS"] = "1"
    return env, dropped


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "hostbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256-src:" + h.hexdigest()[:16]


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def run_driver(workload, seed, seconds, trace):
    env, dropped = pinned_env()
    cmd = [DRIVER, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1]), dropped


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------

def simulations(raw):
    """(name, verified, signature) of every simulation the run made."""
    out = []
    if raw["workload"] == "fig3-grid":
        for p in raw["passes"]:
            for it in p["items"]:
                out.append((it["key"], it["verified"], it["sig"]))
            for app, cycles in p["baselines"].items():
                out.append((f"baseline/{app}", True, [cycles]))
    else:
        name = raw["experiment"]
        for r in raw["runs"] + raw.get("parallel_runs", []):
            out.append((name, r["verified"], r["sig"]))
        for cycles in raw["baseline_cycles"]:
            out.append((f"baseline/{raw['app']}", True, [cycles]))
    return out


def check(raw, expected):
    attempted = failed = 0
    for name, verified, sig in simulations(raw):
        attempted += 1
        problems = M.check_simulation(name, verified, sig, expected)
        if problems:
            failed += 1
            for p in problems:
                log(f"hostbench: MISMATCH {p}")
    return attempted, failed


# ---------------------------------------------------------------------
# End-to-end metrics (tracing off)
# ---------------------------------------------------------------------

def end_to_end(raw):
    setup = M.median(raw["setup_s"])
    rss = raw["peak_rss_mb"]
    notes = {}
    if raw["workload"] == "fig3-grid":
        walls = [p["wall_s"] for p in raw["passes"]]
        items = [it["host_s"] for p in raw["passes"] for it in p["items"]]
        grid_wall = M.median(walls)
        p50 = M.median(items)
        run_wall = p50
        notes["run_wall_s"] = "median item hostSeconds"
    else:
        runs = raw["runs"]
        walls = [r["wall_s"] for r in runs]
        items = [r["cluster_s"] + r["setup_s"] + r["run_s"] for r in runs]
        run_wall = M.median(walls)
        grid_wall = run_wall
        p50 = M.median(items)
        notes["grid_wall_s"] = "one-experiment grid: equals run_wall_s"
    p90, exact = M.tail(items, 0.9)
    if not exact:
        notes["item_p90_s"] = (f"max of {len(items)}: p90 needs "
                               f">= {M.MIN_BEYOND} samples beyond it")
    values = {
        "setup_s": setup,
        "grid_wall_s": grid_wall,
        "item_p50_s": p50,
        "item_p90_s": p90,
        "run_wall_s": run_wall,
        "peak_rss_mb": rss,
    }
    notes["samples"] = f"{len(walls)} timed units, {len(items)} items"
    return values, notes


# ---------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------

def per_layer(raw):
    probes = raw["probes"]
    out = {}
    na = set()
    grid = raw["workload"] == "fig3-grid"

    if grid:
        p = raw["passes"][0]
        items = p["items"]
        host = [it["host_s"] for it in items]
        # Grid totals; a queue-depth peak combines as a maximum.
        counts = {}
        for it in items:
            for k, v in it["counters"].items():
                counts[k] = counts.get(k, 0) + v
        counts["sim.max_pending_events"] = max(
            it["counters"]["sim.max_pending_events"] for it in items)
        spans = raw["spans"]
        for sp in spans:
            if sp["name"] == "experiment":
                for k in ("mem.l1_hits", "mem.l1_misses", "mem.l2_hits",
                          "mem.l2_misses"):
                    counts[k] = counts.get(k, 0) + int(sp["args"][k])
        run_s = sum(host)
        out["harness.busy_frac"] = sum(host) / (raw["jobs"] * p["wall_s"])
        out["harness.longest_item_s"] = max(host)
        out["harness.items"] = len(items)
        out["apps.setup_s"] = sum(s["dur_s"] for s in spans
                                  if s["name"] == "Workload::setup")
        out["apps.verify_s"] = sum(s["dur_s"] for s in spans
                                   if s["name"] == "Workload::verify")
        na |= {"sim.pdes_ratio", "sim.pdes_windows",
               "sim.pdes_mailbox_events", "trace.overhead_frac"}
    else:
        runs = raw["runs"]
        plain = [r for r in runs if not r["traced"]]
        traced = [r for r in runs if r["traced"]]
        counts = dict(traced[0]["counters"])
        run_s = M.median([r["run_s"] for r in plain])
        loop = sum(r["wall_s"] for r in runs)
        out["harness.busy_frac"] = loop / raw["loop_s"]
        out["harness.longest_item_s"] = max(r["wall_s"] for r in runs)
        out["harness.items"] = len(runs)
        out["apps.setup_s"] = M.median([r["setup_s"] for r in runs])
        out["apps.verify_s"] = M.median([r["verify_s"] for r in runs])
        out["trace.overhead_frac"] = (
            M.median([r["wall_s"] for r in traced]) /
            M.median([r["wall_s"] for r in plain]) - 1.0)
        parallel = raw.get("parallel_runs")
        if parallel:
            out["sim.pdes_ratio"] = (
                M.median([r["wall_s"] for r in parallel]) /
                M.median([r["wall_s"] for r in plain]))
            for k in ("sim.pdes_windows", "sim.pdes_mailbox_events"):
                out[k] = parallel[0]["counters"][k]
        else:
            na |= {"sim.pdes_ratio", "sim.pdes_windows",
                   "sim.pdes_mailbox_events"}
    accesses = counts["mem.l1_hits"] + counts["mem.l1_misses"]
    l2 = counts["mem.l2_hits"] + counts["mem.l2_misses"]
    out["mem.cache_accesses"] = accesses
    out["mem.l1_hit_frac"] = M.ratio(counts["mem.l1_hits"], accesses)
    out["mem.l2_hit_frac"] = M.ratio(counts["mem.l2_hits"], l2)
    out["mem.cache_share"] = (
        M.share(counts["mem.l1_hits"], probes["mem.cache_hit_ns"], run_s)
        + M.share(counts["mem.l1_misses"], probes["mem.cache_miss_ns"],
                  run_s))
    events = counts["sim.events_run"]
    out["sim.events_run"] = events
    out["sim.max_pending_events"] = counts["sim.max_pending_events"]
    out["sim.host_ns_per_event"] = M.ratio(run_s * 1e9, events)
    out["sim.queue_share"] = M.share(events, probes["sim.queue_ns"], run_s)
    page = 4096
    out["mem.diff_share"] = (
        M.share(counts["mem.simd_diff_scan_bytes"] / page,
                probes["mem.diff_scan_ns_per_page"], run_s)
        + M.share(counts["mem.simd_twin_copy_bytes"] / page,
                  probes["mem.twin_ns_per_page"], run_s))
    hits = counts["machine.fastpath_hits"]
    out["machine.fastpath_hits"] = hits
    out["machine.fastpath_hit_frac"] = M.ratio(
        hits, hits + counts["machine.fastpath_misses"])
    for k in ("proto.read_faults", "proto.write_faults",
              "proto.diffs_created", "proto.diff_words_written",
              "proto.handlers_run", "proto.msgs", "net.messages",
              "net.bytes", "comm.requests", "comm.data"):
        out[k] = counts[k]
    out["net.share"] = M.share(counts["net.messages"], probes["net.send_ns"],
                               run_s)
    out.update(probes)
    shares = [out[k] for k in ("sim.queue_share", "mem.cache_share",
                               "mem.diff_share", "net.share") if k in out]
    out["unattributed_share"] = M.residual(shares)
    for k in na:
        out[k] = 0.0
    return out, na


# ---------------------------------------------------------------------
# Trace file
# ---------------------------------------------------------------------

def write_trace(raw, path):
    labels = {}
    if raw["workload"] == "fig3-grid":
        for it in raw["passes"][0]["items"]:
            sig = ",".join(str(v) for v in it["sig"])
            labels[(it["app"], it["protocol"], sig)] = it
    events = []
    for s in raw["spans"]:
        args = dict(s["args"])
        name = s["name"]
        if name == "experiment":
            it = labels.get((args["app"], args["protocol"], args["sig"]))
            if it:
                args["config"] = it["config"]
                args["host_s"] = it["host_s"]
                name = it["key"]
        elif name == "baseline" and "app" in args:
            name = f"baseline/{args['app']}"
        events.append({"name": name, "ph": "X", "pid": 1, "tid": s["tid"],
                       "ts": s["start_s"] * 1e6, "dur": s["dur_s"] * 1e6,
                       "args": args})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------

def record_signatures(names):
    table = {}
    for name in names:
        raw, _ = run_driver(name, 1, 1, False)
        sigs = {}
        for sim, verified, sig in simulations(raw):
            if not verified:
                fail(f"{name}: {sim} failed verify(); not recording")
            if sigs.setdefault(sim, list(sig)) != list(sig):
                fail(f"{name}: {sim} is not deterministic")
        table[name] = dict(sorted(sigs.items()))
        log(f"hostbench: recorded {len(sigs)} signatures for {name}")
    with open(SIGNATURES, "w") as f:
        f.write("{\n")
        for i, (name, sigs) in enumerate(sorted(table.items())):
            f.write(f" {json.dumps(name)}: {{\n")
            rows = [f"  {json.dumps(k)}: {json.dumps(v)}"
                    for k, v in sigs.items()]
            f.write(",\n".join(rows))
            f.write("\n }" + ("," if i + 1 < len(table) else "") + "\n")
        f.write("}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-signatures", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    build()
    if args.record_signatures:
        record_signatures(names)
        return
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds or bench["run_seconds"]
    with open(SIGNATURES) as f:
        expected = json.load(f)[args.workload]

    load_before = loadavg()
    raw, dropped = run_driver(args.workload, args.seed, seconds,
                              args.trace == 1)
    load_after = loadavg()
    attempted, failed = check(raw, expected)

    print(f"hostbench {args.workload} seed={args.seed} "
          f"seconds={seconds} trace={args.trace}")
    print(f"env: nproc={raw['nproc']} build={raw['build_type']} "
          f"compiler={raw['compiler']} "
          f"source={source_id()}")
    print(f"env: loadavg before={load_before} after={load_after} "
          f"SWSM_SIM_THREADS=1 unset={','.join(dropped) or '-'}")
    print(f"fail_frac = {M.fail_frac(failed, attempted):.6g} "
          f"({failed} of {attempted} simulations)")

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        values, na = per_layer(raw)
        wanted = [m["name"] for m in bench["per_layer"]]
        trace_path = os.path.join(
            BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
        write_trace(raw, trace_path)
        print(f"trace: {os.path.relpath(trace_path, ROOT)}")
    else:
        values, notes = end_to_end(raw)
        na = set()
        wanted = [m["name"] for m in bench["end_to_end"]]
        for k, v in notes.items():
            print(f"note: {k}: {v}")
    for name in wanted:
        tag = "  (n/a on this workload)" if name in na else ""
        print(f"{name} = {values[name]:.6g} {units[name]}{tag}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in wanted},
    }))


if __name__ == "__main__":
    main()
