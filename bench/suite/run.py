#!/usr/bin/env python3
"""Repository benchmark runner (stdlib only).

One run of one workload (what a job comparing two commits calls):

    python3 bench/suite/run.py --workload jacobi_mem --seed 1 --seconds 20 --trace 0

The whole suite, every workload, written to a result set:

    python3 bench/suite/run.py [--out DIR] [--runs K] [--seed N] [--trace] [--smoke]

Two result sets against each other, using each metric's direction and
bound from BENCHMARK.json:

    python3 bench/suite/run.py compare A B

Every mode first builds tb_bench into build-bench/ at the repository root
(CMake, incremental).  tb_bench reports raw samples; this file turns them
into medians, percentiles and quartiles, checks correctness, and prints
every metric by name with its unit.  The last line of a single run's
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
LAYERS = os.path.join(HERE, "layers.json")
RUN_TIMEOUT_S = 170
# The tb_bench run that fingerprints and calibrates the host and, traced,
# takes the workload-independent layer probes once per result set.
HOST = "host"

# Host fingerprint keys two result sets must share to be compared; the
# measured bandwidths under "calibration" vary run to run and are left out.
FINGERPRINT_KEYS = ("cpu", "nproc", "threads", "l2_bytes", "llc_bytes", "simd",
                    "compiler", "tier_l2", "tier_llc", "tier_mem", "tier_dist")


class BenchError(Exception):
    pass


# ---- statistics -----------------------------------------------------------

def percentile(values, p):
    """Linear-interpolation percentile (numpy's default), p in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def verdict(a, b, better, bound):
    """Compare metric values of runs `a` (before) and `b` (after).

    same / better / worse by the medians against `bound`; when either
    side's interquartile range is wider than the bound the result is
    unresolved unless every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = [sign * x for x in a], [sign * x for x in b]  # larger is better
    separated = min(sb) > max(sa) or max(sb) < min(sa)
    if max(rel_spread(a), rel_spread(b)) > bound and not separated:
        return "unresolved"
    change = (statistics.median(sb) - statistics.median(sa)) / abs(statistics.median(a))
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


# ---- configuration --------------------------------------------------------

def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_checkout():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{os.path.join(ROOT, need)} is missing: run.py "
                             "builds the repository it sits in")
    if not os.path.exists(BENCHMARK):
        raise BenchError(f"{BENCHMARK} is missing")


def build():
    """Configure once, then build tb_bench incrementally; output to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tb_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "tb_bench")


def run_tb(exe, workload, seed, seconds, smoke=False, trace_path=None):
    """One tb_bench process; returns its parsed JSON record."""
    env = dict(os.environ)
    for key in ("TB_TELEMETRY", "TB_TRACE", "TB_TRACE_JSONL", "TB_RUNDB"):
        env.pop(key, None)
    if trace_path:
        # Telemetry also appends the library's run-database rows; keep them
        # next to the trace instead of in the working directory.
        env["TB_TELEMETRY"] = "1"
        env["TB_TRACE"] = trace_path
        env["TB_RUNDB"] = trace_path.replace(".trace.json", ".runs.jsonl")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"tb_bench --workload {workload} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


# ---- metrics --------------------------------------------------------------

# End-to-end quantities reported as per-layer metrics, with no bound: on a
# shared host their run-to-run spread is wider than any bound of 0.10 or
# less allows (README, "Why throughput is not gated").  `compare` still
# gives them a verdict at UNGATED_BOUND, which never fails it.
UNGATED = {"mlups": "higher", "call_ms_p90": "lower"}
UNGATED_BOUND = 0.10


def run_metrics(record):
    """{metric: {value, unit, q1, q3, n}} from one untraced record: the
    end-to-end metrics and the UNGATED quantities.  Set-up time is the
    median over the run's set-ups.  Memory is the smallest per-pass peak
    RSS: passes repeat the same work, and what one pass inherits from the
    allocator's cache of earlier passes is noise, not footprint."""
    s = record["series"]
    out = {}

    def put(name, unit, value, sample):
        q1, _, q3 = quartiles(sample)
        out[name] = {"value": value, "unit": unit, "q1": q1, "q3": q3,
                     "n": len(sample)}

    put("setup_s", "s", statistics.median(s["setup_s"]), s["setup_s"])
    put("peak_rss_mb", "MiB", min(s["rss_mb"]), s["rss_mb"])
    put("mlups", "MLUP/s", statistics.median(s["mlups"]), s["mlups"])
    put("call_ms_p90", "ms", percentile(s["call_ms"], 90), s["call_ms"])
    return out


def span_summary(trace_path):
    """Validates a Chrome trace_event file and returns per-span-name
    {count, total_ms, self_ms}; self time is a span's duration minus the
    time its children on the same thread cover."""
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    spans = [e for e in events if e.get("ph") == "X"]
    for e in spans:
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in e:
                raise BenchError(f"{trace_path}: span without '{key}'")
    by_thread = {}
    for e in spans:
        by_thread.setdefault((e["pid"], e["tid"]), []).append(e)
    summary = {}
    for evs in by_thread.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, event, child_us]
        finished = []

        def pop():
            end, ev, child = stack.pop()
            finished.append((ev, child))
            if stack:
                stack[-1][2] += ev["dur"]

        for e in evs:
            while stack and stack[-1][0] <= e["ts"]:
                pop()
            stack.append([e["ts"] + e["dur"], e, 0.0])
        while stack:
            pop()
        for ev, child in finished:
            row = summary.setdefault(ev["name"], {"count": 0, "total_ms": 0.0,
                                                  "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += ev["dur"] / 1e3
            row["self_ms"] += (ev["dur"] - child) / 1e3
    return summary


def per_layer(traced, untraced, where, catalog):
    """(values, missing) for the per-layer metrics layers.json measures on
    `where` (a workload, or HOST).  `untraced` is the same workload's
    untraced record, the source of the ungated end-to-end quantities and
    the base of the tracing overhead (None for HOST).  A metric the record
    should carry but does not, or carries as null, is listed in `missing`;
    metrics measured elsewhere are left out, never read as 0."""
    values = dict(traced["layers"])
    if untraced is not None:
        plain = run_metrics(untraced)
        values.update({name: plain[name]["value"] for name in UNGATED})
        values["obs.overhead_frac"] = (
            1.0 - statistics.median(traced["series"]["mlups"]) / values["mlups"])
    want = [name for name, entry in catalog.items() if where in entry["measured_on"]]
    found = {name: values[name] for name in want if values.get(name) is not None}
    return found, [name for name in want if name not in found]


def traced_run(exe, where, untraced, args, trace_path, catalog):
    """Runs `where` traced.  Returns {record, layers, spans, attempted,
    failed}, where the checks are the run's own, one per per-layer metric
    it should report, and one for the trace file."""
    traced = run_tb(exe, where, args.seed, args.seconds, args.smoke, trace_path)
    found, missing = per_layer(traced, untraced, where, catalog)
    for name in missing:
        print(f"CHECK FAILED: {where} did not report per-layer metric {name}",
              file=sys.stderr)
    failed = traced["failed"] + len(missing)
    try:
        spans = span_summary(trace_path)
    except (OSError, ValueError, KeyError, BenchError) as e:
        print(f"CHECK FAILED: {where} trace: {e}", file=sys.stderr)
        spans, failed = {}, failed + 1
    return {"record": traced, "layers": found, "spans": spans,
            "attempted": traced["attempted"] + len(found) + len(missing) + 1,
            "failed": failed}


# ---- modes ----------------------------------------------------------------

def single_run(args, bench):
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload '{args.workload}' "
                         f"({', '.join(sorted(names))})")
    exe = build()
    record = run_tb(exe, args.workload, args.seed, args.seconds, args.smoke)
    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        catalog = load_json(LAYERS)["metrics"]
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        values = {}
        for where, untraced in ((HOST, None), (args.workload, record)):
            path = os.path.join(trace_dir, f"{where}.seed{args.seed}.trace.json")
            t = traced_run(exe, where, untraced, args, path, catalog)
            values.update(t["layers"])
            attempted += t["attempted"]
            failed += t["failed"]
        # The result line carries every per-layer metric as a number, so a
        # layer this workload does not run (layers.json: measured_on)
        # reads 0 here; the suite's results leave it out.
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        e2e = run_metrics(record)
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def suite(args, bench):
    exe = build()
    args.seconds = args.seconds if args.seconds else bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    out = os.path.abspath(args.out or os.path.join(BUILD, "results", "latest"))
    os.makedirs(out, exist_ok=True)
    catalog = load_json(LAYERS)["metrics"]

    result = {"seconds": args.seconds, "runs": args.runs, "smoke": args.smoke,
              "workloads": {}}
    failed_total = 0
    if args.trace:
        t = traced_run(exe, HOST, None, args, os.path.join(out, f"{HOST}.trace.json"),
                       catalog)
        host, result["host_layers"] = t["record"], t["layers"]
        failed_total += t["failed"]
    else:
        host = run_tb(exe, HOST, args.seed, 1, args.smoke)
        failed_total += host["failed"]
    result["host"] = host["host"]
    for w in workloads:
        entry = {"runs": []}
        for i in range(args.runs):
            seed = args.seed + i
            t0 = time.time()
            rec = run_tb(exe, w, seed, args.seconds, args.smoke)
            entry["runs"].append({"seed": seed, "attempted": rec["attempted"],
                                  "failed": rec["failed"], "failures": rec["failures"],
                                  "wall_s": time.time() - t0,
                                  "metrics": run_metrics(rec)})
            failed_total += rec["failed"]
            print(f"{w} seed {seed}: {time.time() - t0:.1f} s, "
                  f"{rec['failed']}/{rec['attempted']} checks failed", file=sys.stderr)
            if i == 0:
                first = rec
        if args.trace:
            t = traced_run(exe, w, first, args, os.path.join(out, f"{w}.trace.json"),
                           catalog)
            entry["layers"], entry["spans"] = t["layers"], t["spans"]
            failed_total += t["failed"]
        result["workloads"][w] = entry
    with open(os.path.join(out, "results.json"), "w") as f:
        json.dump(result, f, indent=1)
    print_suite(result, bench)
    print(f"results: {os.path.join(out, 'results.json')}")
    return 0 if failed_total == 0 else 1


def run_values(entry, metric):
    return [r["metrics"][metric]["value"] for r in entry["runs"]]


def print_suite(result, bench):
    host = result["host"]
    print(f"host: {host['cpu']}, nproc {host['nproc']}, T = {host['threads']}, "
          f"L2 {host['l2_bytes']} B, LLC {host['llc_bytes']} B, {host['simd']}, "
          f"{host['compiler']}")
    for tier in ("tier_l2", "tier_llc", "tier_mem", "tier_dist"):
        print(f"  {tier}: n = {host[tier]['n']}, {host[tier]['bytes'] / 2**20:.1f} MiB")
    c = host["calibration"]
    print(f"  Ms {c['ms_gbs']:.2f} GB/s, Ms,1 {c['ms1_gbs']:.2f} GB/s, "
          f"Mc {c['mc_gbs']:.2f} GB/s (model: {c['model']})")
    runs = result["runs"]
    print(f"\n{'metric':14s} {'workload':13s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'n':>4s}  unit   ({runs} run(s) x {result['seconds']} s; quartiles over "
          f"{'runs' if runs > 1 else 'samples'})")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name in [m["name"] for m in bench["end_to_end"]] + list(UNGATED):
        for w, entry in result["workloads"].items():
            vals = run_values(entry, name)
            if runs > 1:
                q1, med, q3 = quartiles(vals)
                n = len(vals)
            else:
                r = entry["runs"][0]["metrics"][name]
                med, q1, q3, n = r["value"], r["q1"], r["q3"], r["n"]
            tag = "  (ungated)" if name in UNGATED else ""
            print(f"{name:14s} {w:13s} {med:12.5g} {q1:12.5g} {q3:12.5g} {n:4d}"
                  f"  {units[name]}{tag}")
    for w, entry in result["workloads"].items():
        att = sum(r["attempted"] for r in entry["runs"])
        bad = sum(r["failed"] for r in entry["runs"])
        print(f"fail_frac      {w:13s} {bad / att if att else 0.0:12.5g}   "
              f"({bad} of {att} checks)")
    layer_sets = [("host", "host probes (traced host run)", result.get("host_layers"))]
    layer_sets += [(w, f"{w} (traced run, seed {e['runs'][0]['seed']})", e.get("layers"))
                   for w, e in result["workloads"].items()]
    for _, title, layers in layer_sets:
        if layers is None:
            continue
        print(f"\nper-layer, {title}:")
        for name, value in layers.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")


def fingerprint(host):
    return {k: host.get(k) for k in FINGERPRINT_KEYS}


def compare(args, bench):
    sets = [load_json(os.path.join(p, "results.json")) for p in (args.a, args.b)]
    fa, fb = (fingerprint(s["host"]) for s in sets)
    if fa != fb:
        diff = [k for k in FINGERPRINT_KEYS if fa[k] != fb[k]]
        raise BenchError(f"host fingerprints differ ({', '.join(diff)}); "
                         "refusing to compare")
    worse = 0
    print(f"{'metric':14s} {'workload':13s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for name in list(bounds) + list(UNGATED):
        for w in sets[0]["workloads"]:
            if w not in sets[1]["workloads"]:
                continue
            a = run_values(sets[0]["workloads"][w], name)
            b = run_values(sets[1]["workloads"][w], name)
            ma, mb = statistics.median(a), statistics.median(b)
            if name in UNGATED:
                v = verdict(a, b, UNGATED[name], UNGATED_BOUND)
                bound, tag = UNGATED_BOUND, " (ungated)"
            else:
                better, bound = bounds[name]
                v, tag = verdict(a, b, better, bound), ""
                worse += v == "worse"
            print(f"{name:14s} {w:13s} {ma:12.5g} {mb:12.5g} "
                  f"{(mb - ma) / ma * 100:+7.2f}% {bound:6.2f}  {v}{tag}")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        return compare(args, load_json(BENCHMARK))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                   help="traced run: per-layer metrics and a Perfetto trace")
    p.add_argument("--smoke", action="store_true",
                   help="in-cache sizes, two samples per series")
    p.add_argument("--out", help="suite result directory")
    p.add_argument("--runs", type=int, default=3, help="suite runs per workload")
    args = p.parse_args(argv)
    if args.runs < 1:
        raise BenchError("--runs must be at least 1")
    check_checkout()
    bench = load_json(BENCHMARK)
    if args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return single_run(args, bench)
    return suite(args, bench)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
