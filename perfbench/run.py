#!/usr/bin/env python3
"""End-to-end benchmark: crawl -> pack -> analyze -> serve.

One workload per process:

    python3 perfbench/run.py --workload crawl_pack --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the repository's src/ it links) into .bench_build/,
runs the workload and passes its output through; the last stdout line is
the JSON result. --trace 1 runs the traced variant, which prints the
per-layer metrics and writes its spans to .bench_build/spans/.

    python3 perfbench/run.py --all [--seeds 1,2,3] [--seconds 20]

runs every workload in its own process, untraced and traced, prints a table
and rewrites BENCHMARK.json and perfbench/baseline.json (the measured
numbers, and which end-to-end metric each per-layer metric should move).

    python3 perfbench/run.py --self-test

checks the harness at tiny scale: metric names and units, seed
determinism of the generated inputs, and that a corrupted archive byte
fails the output checks.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("crawl_pack",
     "the paper's crawl (policy none, default faults, 2 threads) packed and "
     "analyzed: browser, jar, net, recorder, encode/CRC, merge and fold work"),
    ("crawl_guarded",
     "the same crawl under policy cookieguard with one CookieGuard per "
     "worker: the only load on policy/cookieguard, and filtered jar reads"),
    ("serve_zipf",
     "2 closed-loop clients on the zipf(0.99) 90/10 query mix, cache a "
     "quarter of the sites: p50 on the hit path, p99 on the miss path"),
]

# (name, unit, better, bound). Every workload prints every metric: crawl_*
# serve their own archive in windows between crawl passes, and serve_zipf
# reports the crawls, analyses and loads of its set-ups. The timing bounds
# are wide because a shared host's speed drifts by 20-40% over minutes;
# archive size and memory are nearly exact per seed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("crawl_sites_per_s", "sites/s", "higher", 0.25),
    ("analyze_sites_per_s", "sites/s", "higher", 0.25),
    ("archive_bytes_per_site", "bytes/site", "lower", 0.1),
    ("server_load_s", "s", "lower", 0.25),
    ("serve_qps", "1/s", "higher", 0.25),
    ("site_query_p50_us", "us", "lower", 0.25),
    ("site_query_p99_us", "us", "lower", 0.25),
    ("aggregate_query_p99_us", "us", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

CRAWL = "crawl_pack, crawl_guarded"
# (name, unit, better, what it should move -> on which workloads)
PER_LAYER = [
    ("corpus.generate_s", "s", "lower", "setup_s on all workloads"),
    ("crawler.wait_s", "s", "lower", "crawl_sites_per_s on " + CRAWL),
    ("crawler.attempts_per_site", "ratio", "lower",
     "crawl_sites_per_s on " + CRAWL),
    ("crawler.retained_per_attempt", "ratio", "higher",
     "crawl_sites_per_s on " + CRAWL),
    ("runtime.tasks_stolen", "count", "lower", "crawl_sites_per_s on " + CRAWL),
    ("runtime.merge_blocked_pushes", "count", "lower",
     "crawl_sites_per_s on " + CRAWL),
    ("runtime.merge_max_occupancy", "count", "lower",
     "crawl_sites_per_s on " + CRAWL),
    ("browser.navigations_per_site", "ratio", "lower",
     "crawl_sites_per_s on " + CRAWL),
    ("webplat.tasks_per_site", "ratio", "lower",
     "crawl_sites_per_s on " + CRAWL),
    ("cookies.set_ns", "ns", "lower",
     "crawl_sites_per_s on " + CRAWL + "; not serve_zipf"),
    ("cookies.read_ns", "ns", "lower",
     "crawl_sites_per_s on " + CRAWL + "; not serve_zipf"),
    ("cookies.jar_size_at_finish", "count", "lower",
     "crawl_sites_per_s on " + CRAWL + "; not serve_zipf"),
    ("net.url_parse_ns", "ns", "lower", "crawl_sites_per_s on " + CRAWL),
    ("net.etld1_ns", "ns", "lower", "crawl_sites_per_s on " + CRAWL),
    ("policy.writes_blocked", "count", "lower",
     "crawl_sites_per_s on crawl_guarded"),
    ("policy.reads_blocked", "count", "lower",
     "crawl_sites_per_s on crawl_guarded"),
    ("cookieguard.cookies_hidden", "count", "lower",
     "crawl_sites_per_s on crawl_guarded; 0 on crawl_pack"),
    ("cookieguard.writes_blocked", "count", "lower",
     "crawl_sites_per_s on crawl_guarded; 0 on crawl_pack"),
    ("cookieguard.reads_filtered", "count", "lower",
     "crawl_sites_per_s on crawl_guarded; 0 on crawl_pack"),
    ("cookieguard.inline_denied", "count", "lower",
     "crawl_sites_per_s on crawl_guarded; 0 on crawl_pack"),
    ("instrument.records_per_site", "count", "lower",
     "archive_bytes_per_site and crawl_sites_per_s on " + CRAWL),
    ("store.encode_us", "us", "lower", "crawl_sites_per_s on " + CRAWL),
    ("store.block_bytes", "bytes", "lower",
     "archive_bytes_per_site on all workloads"),
    ("store.open_s", "s", "lower",
     "analyze_sites_per_s on " + CRAWL + "; server_load_s on serve_zipf"),
    ("store.decode_us", "us", "lower",
     "analyze_sites_per_s, server_load_s; site_query_p99_us on serve_zipf"),
    ("crypto.crc32c_mb_per_s", "MB/s", "higher",
     "crawl_sites_per_s, analyze_sites_per_s; site_query_p99_us on "
     "serve_zipf"),
    ("analysis.fold_us", "us", "lower",
     "analyze_sites_per_s, server_load_s; site_query_p50_us on serve_zipf"),
    ("analysis.merge_us", "us", "lower",
     "analyze_sites_per_s and server_load_s on all workloads"),
    ("serve.site_hit_us", "us", "lower",
     "site_query_p50_us and serve_qps on serve_zipf"),
    ("serve.site_miss_us", "us", "lower",
     "site_query_p99_us and serve_qps on serve_zipf"),
    ("serve.aggregate_us", "us", "lower",
     "aggregate_query_p99_us on serve_zipf"),
    ("serve.cache.hit_ratio", "ratio", "higher",
     "site_query_p50_us, site_query_p99_us, serve_qps on serve_zipf"),
    ("serve.cache.evictions", "count", "lower",
     "site_query_p99_us and serve_qps on serve_zipf"),
    ("corpus.self_s", "s", "lower", "setup_s (measured-phase self time)"),
    ("crawler.self_s", "s", "lower", "crawl_sites_per_s on " + CRAWL),
    ("store.self_s", "s", "lower",
     "crawl_sites_per_s, analyze_sites_per_s on " + CRAWL),
    ("crypto.self_s", "s", "lower", "crawl_sites_per_s on " + CRAWL),
    ("analysis.self_s", "s", "lower", "analyze_sites_per_s on " + CRAWL),
    ("cookies.self_s", "s", "lower", "crawl_sites_per_s on " + CRAWL),
    ("net.self_s", "s", "lower", "crawl_sites_per_s on " + CRAWL),
    ("serve.self_s", "s", "lower", "serve_qps on serve_zipf"),
    ("trace.span_coverage", "ratio", "higher",
     "none: share of measured wall time the layer spans cover (>= 0.9)"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced over untraced wall time of the measured phase"),
]

RUN_SECONDS = 20
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; False on failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def run_binary(args, quiet=False):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL if quiet else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 124, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def workload_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, workload + ".json")]
    return args + list(extra)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(seeds, seconds):
    """Each workload in its own process: untraced per seed, then traced."""
    names = [n for n, _ in WORKLOADS]
    table = {}
    for workload in names:
        untraced = []
        for seed in seeds:
            code, out = run_binary(workload_args(workload, seed, seconds,
                                                 False), quiet=True)
            result = result_of(out)
            if code != 0 or result is None or not result["correct"]:
                log(f"perfbench: {workload} seed {seed} failed")
                return 1
            log(f"{workload} seed {seed}: done")
            untraced.append(result)
        code, out = run_binary(workload_args(workload, seeds[0], seconds,
                                             True), quiet=True)
        traced = result_of(out)
        if code != 0 or traced is None or not traced["correct"]:
            log(f"perfbench: traced {workload} failed")
            return 1
        entry = {"seeds": seeds, "end_to_end": {}, "per_layer": {}}
        for name, unit, _, _ in END_TO_END:
            values = [r["metrics"][name]["value"] for r in untraced]
            median = statistics.median(values)
            entry["end_to_end"][name] = {
                "median": median, "unit": unit, "runs": values,
                "spread": spread(values)}
        for name, unit, _, _ in PER_LAYER:
            entry["per_layer"][name] = {
                "value": traced["metrics"][name]["value"], "unit": unit}
        table[workload] = entry

    # End-to-end: median over seeds, and (spread) = IQR / median.
    print(f"{'metric':34}" + "".join(f"{n:>22}" for n in names))
    for name, unit, _, _ in END_TO_END:
        row = "".join(f"{table[n]['end_to_end'][name]['median']:14.4g} "
                      f"({table[n]['end_to_end'][name]['spread']:5.3f})"
                      for n in names)
        print(f"{name + ' (' + unit + ')':34}{row}")
    for name, unit, _, _ in PER_LAYER:
        row = "".join(f"{table[n]['per_layer'][name]['value']:22.4g}"
                      for n in names)
        print(f"{name + ' (' + unit + ')':34}{row}")

    baseline = {
        "note": "end_to_end: median, runs and spread (IQR / median) of "
                "untraced runs, one per seed; per_layer: one traced run on "
                "the first seed; moves: the end-to-end metric and workloads "
                "each per-layer metric should move",
        "run_seconds": seconds,
        "moves": {n: m for n, _, _, m in PER_LAYER},
        "workloads": table,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as out:
        json.dump(baseline, out, indent=1, sort_keys=True)
        out.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
        json.dump(benchmark_json(), out, indent=2)
        out.write("\n")
    return 0


def self_test():
    problems = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        check(json.load(f) == benchmark_json(),
              "BENCHMARK.json matches the metric table in run.py")
    check(all(len(why) <= 200 and "\n" not in why for _, why in WORKLOADS),
          "every workload has a one-line reason of at most 200 characters")
    check(all(0 < bound <= 0.25 for *_, bound in END_TO_END),
          "every end-to-end bound is in (0, 0.25]")
    end_to_end = {n: u for n, u, _, _ in END_TO_END}
    per_layer = {n: u for n, u, _, _ in PER_LAYER}
    check(all(NAME_RE.match(name) for name in list(end_to_end) +
              list(per_layer)), "every metric name is well formed")
    tiny = ["--sites", "40"]
    for workload, _ in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            code, out = run_binary(workload_args(workload, 7, 1, trace, tiny),
                                   quiet=True)
            result = result_of(out)
            label = f"{workload} trace={int(trace)}"
            check(code == 0 and result is not None and result["correct"],
                  f"{label}: output checks pass")
            if result is None:
                continue
            metrics = result["metrics"]
            check(set(metrics) == set(expected),
                  f"{label}: prints exactly its metric set")
            check(all(metrics.get(n, {}).get("unit") == u and
                      UNIT_RE.match(u) for n, u in expected.items()),
                  f"{label}: every metric has its unit")
            if not trace:
                check(all(metrics.get(n, {}).get("value", 0) > 0
                          for n in expected),
                      f"{label}: every end-to-end metric is nonzero")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{label}: attempted >= 1 and nothing failed")
    digests = []
    for seed in (7, 7, 8):
        code, out = run_binary(["--inputs-digest", "--seed", str(seed)] + tiny,
                               quiet=True)
        digests.append(out.strip() if code == 0 else None)
    check(digests[0] is not None and digests[0] == digests[1],
          "the same seed generates the same inputs")
    check(digests[0] != digests[2], "another seed generates other inputs")
    code, out = run_binary(workload_args("crawl_pack", 7, 1, False,
                                         tiny + ["--corrupt-archive"]),
                           quiet=True)
    result = result_of(out)
    check(code == 1 and result is not None and not result["correct"],
          "a corrupted archive byte fails the output checks")
    log("self-test: " + ("passed" if not problems else
                         f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.self_test or args.workload):
        parser.error("give --workload, --all or --self-test")
    if not build():
        log("perfbench: build failed")
        return 2
    if args.self_test:
        return self_test()
    if args.all:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        return run_all(seeds, args.seconds)
    code, out = run_binary(workload_args(args.workload, args.seed,
                                         args.seconds, args.trace == 1))
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
