#!/usr/bin/env python3
"""Campaign benchmark for the AdapTBF simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.

--trace 0 runs whole campaigns of the workload back to back, each in a
fresh child process, for about S seconds (at least three), and prints the
end-to-end metrics of BENCHMARK.json: medians over the campaigns, and
trial-wall percentiles over every trial of the run. --trace 1 runs the
child's traced mode once and prints the per-layer metrics. Progress and a
readable summary go to stderr; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts trials; `failed` counts trials that produced no row,
including every unfinished trial of a child that died.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

MIN_CAMPAIGNS = 3
CHILD_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message):
    log(f"error: {message}")
    sys.exit(2)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", "perfbench", "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", "3"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def spawn(argv, log_path):
    """Runs a child to completion; returns (status, stdout, rusage, t_spawn).

    The child is waited for with wait4 so its own CPU time and peak RSS
    are known; it is killed if it outlives CHILD_TIMEOUT_S."""
    with open(log_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read().decode("utf-8", "replace")
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage, t_spawn


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def digest(paths):
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as data:
            sha.update(data.read())
    return sha.hexdigest()


def journal_rows(path):
    """Complete, parseable rows in a journal (header excluded)."""
    if not os.path.exists(path):
        return 0
    rows = 0
    with open(path, "rb") as journal:
        lines = journal.read().split(b"\n")
    for line in lines[1:]:
        try:
            if "trial" in json.loads(line):
                rows += 1
        except ValueError:
            pass
    return rows


def check_artifacts(workload, csv, json_path, journal):
    """Row count and the §IV shape; returns (rows, problems)."""
    problems = []
    try:
        with open(json_path, encoding="utf-8") as data:
            document = json.load(data)
        if not os.path.getsize(csv):
            problems.append("empty CSV")
    except (OSError, ValueError) as error:
        return (journal_rows(journal) if journal else 0), [f"artifacts: {error}"]
    rows = journal_rows(journal) if journal else len(document["trials"])
    if rows != workload.trials or len(document["trials"]) != workload.trials:
        problems.append(f"{rows} rows, {len(document['trials'])} exported, "
                        f"expected {workload.trials}")
    if workload.paper_shape:
        cells = {(c["scenario"], c["policy"]): c["mibps_mean"] for c in document["cells"]}
        for scenario in workloads.PAPER_SCENARIOS:
            adaptive = cells.get((scenario, "AdapTBF"), 0.0)
            static = cells.get((scenario, "Static BW"), 0.0)
            if not adaptive > static:
                problems.append(f"§IV shape: {scenario} AdapTBF {adaptive} "
                                f"<= Static BW {static} MiB/s")
    return rows, problems


class DigestLedger:
    """Artifact digests per (workload, seed, binary): one build must write
    the same bytes for the same inputs on every run."""

    def __init__(self, path, binary):
        self.path = path
        with open(binary, "rb") as data:
            self.build = hashlib.sha256(data.read()).hexdigest()[:16]
        try:
            with open(path, encoding="utf-8") as data:
                self.entries = json.load(data)
        except (OSError, ValueError):
            self.entries = {}

    def check(self, workload, seed, value):
        key = f"{workload}:{seed}:{self.build}"
        known = self.entries.setdefault(key, value)
        with open(self.path, "w", encoding="utf-8") as data:
            json.dump(self.entries, data)
        return known == value


def child_args(binary, mode, workload, directory):
    argv = [binary, mode, "--sweep", workload.sweep,
            "--csv", os.path.join(directory, "campaign.csv"),
            "--json", os.path.join(directory, "campaign.json")]
    if workload.journal:
        argv += ["--journal", os.path.join(directory, "campaign.jsonl")]
    if workload.fleet:
        argv += ["--fleet"]
    return argv


def run_campaign(binary, workload, directory):
    os.makedirs(directory)
    argv = child_args(binary, "run", workload, directory)
    code, out, usage, t_spawn = spawn(argv, os.path.join(directory, "stderr.txt"))
    result = last_json(out) or {}
    csv, json_path = argv[argv.index("--csv") + 1], argv[argv.index("--json") + 1]
    journal = os.path.join(directory, "campaign.jsonl") if workload.journal else None
    rows, problems = check_artifacts(workload, csv, json_path, journal)
    if code != 0 or result.get("error", "?"):
        problems.insert(0, f"child exit {code}: {result.get('error', 'no result')}")
    campaign = {"problems": problems, "failed": max(0, workload.trials - rows)}
    if problems:
        return campaign
    phase = result["t_durable"] - result["t_first"]
    campaign.update(
        digest=digest([csv, json_path]),
        campaign_s=result["t_artifacts"] - t_spawn,
        setup_s=result["t_first"] - t_spawn,
        trials_per_s=result["done"] / phase,
        sim_rpcs_per_s=result["rpcs"] / phase,
        cpu_ms_per_trial=(usage.ru_utime + usage.ru_stime) * 1e3 / workload.trials,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        trial_ms=result["trial_ms"],
    )
    return campaign


def percentile(values, q):
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(binary, workload, seconds, run_dir, ledger, seed, spec):
    campaigns, walls = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        campaign = run_campaign(binary, workload, os.path.join(run_dir, f"c{len(campaigns)}"))
        campaigns.append(campaign)
        walls.append(time.monotonic() - began)
        if campaign["problems"]:
            break
        elapsed = time.monotonic() - start
        if len(campaigns) >= MIN_CAMPAIGNS and elapsed + statistics.median(walls) > seconds:
            break

    problems = [p for c in campaigns for p in c["problems"]]
    digests = {c["digest"] for c in campaigns if "digest" in c}
    if len(digests) > 1:
        problems.append("artifact bytes differ between campaigns of one run")
    if digests and not ledger.check(workload.name, seed, next(iter(digests))):
        problems.append("artifact bytes differ from an earlier run of this build")
    attempted = workload.trials * len(campaigns)
    failed = sum(c["failed"] for c in campaigns)
    good = [c for c in campaigns if not c["problems"]]
    metrics = {}
    if good:
        pooled = [ms for c in good for ms in c["trial_ms"]]
        values = {name: statistics.median(c[name] for c in good)
                  for name in ("campaign_s", "setup_s", "trials_per_s", "sim_rpcs_per_s",
                               "cpu_ms_per_trial", "peak_rss_mib")}
        values["trial_ms_p50"] = percentile(pooled, 0.50)
        values["trial_ms_p90"] = percentile(pooled, 0.90)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        log(f"{workload.name} seed {seed}: {len(good)} campaigns of {workload.trials} "
            f"trials; trial walls n={len(pooled)}; failed {failed}/{attempted}")
        for name, metric in metrics.items():
            log(f"  {name:<18} {metric['value']:.6g} {metric['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems


def trace(binary, workload, run_dir, build_root, ledger, seed, spec):
    directory = os.path.join(run_dir, "trace")
    os.makedirs(directory)
    spans_dir = os.path.join(build_root, "traces")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{workload.name}-seed{seed}.spans.jsonl")
    argv = child_args(binary, "trace", workload, directory)
    argv += ["--scratch", directory, "--spans", spans]
    code, out, _, _ = spawn(argv, os.path.join(directory, "stderr.txt"))
    result = last_json(out) or {}
    problems = []
    if code != 0 or result.get("error", "?"):
        problems.append(f"child exit {code}: {result.get('error', 'no result')}")
    problems += [f"check failed: {name}" for name, ok in result.get("checks", {}).items()
                 if not ok]
    # Pass A of the traced run is an ordinary campaign: same checks.
    journal = os.path.join(directory, "untraced.jsonl") if workload.journal else None
    csv, json_path = (os.path.join(directory, f"untraced.{ext}") for ext in ("csv", "json"))
    rows, shape_problems = check_artifacts(workload, csv, json_path, journal)
    problems += shape_problems
    if not shape_problems and not ledger.check(workload.name, seed, digest([csv, json_path])):
        problems.append("artifact bytes differ from an earlier run of this build")
    measured = result.get("metrics", {})
    metrics = {}
    for metric in spec["per_layer"]:
        if metric["name"] not in measured:
            problems.append(f"missing per-layer metric {metric['name']}")
            continue
        metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    log(f"{workload.name} seed {seed} traced: spans in {spans}")
    for name, metric in metrics.items():
        log(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    log(f"  info: {json.dumps(result.get('info', {}))}")
    return {"correct": not problems, "attempted": workload.trials,
            "failed": max(0, workload.trials - rows), "metrics": metrics}, problems


def self_test(binary, build_root):
    """Fidelity, fleet-vs-local bytes and seed sensitivity on every workload."""
    problems = []
    root = os.path.join(build_root, "runs", f"selftest-{os.getpid()}")
    try:
        for name in workloads.GENERATORS:
            counts, digests = set(), set()
            for seed in (1, 2):
                directory = os.path.join(root, f"{name}-{seed}")
                os.makedirs(directory)
                workload = workloads.generate(name, seed, directory)
                campaign = run_campaign(binary, workload, os.path.join(directory, "run"))
                problems += [f"{name} seed {seed}: {p}" for p in campaign["problems"]]
                counts.add(workload.trials)
                digests.add(campaign.get("digest"))
            if len(counts) != 1:
                problems.append(f"{name}: trial count depends on the seed")
            if len(digests) != 2:
                problems.append(f"{name}: seeds 1 and 2 gave identical trial bytes")
            # The traced run checks traced_trial against run_experiment on
            # every cell, the replays against the live trial, and fleet
            # artifacts against in-process ones.
            directory = os.path.join(root, f"{name}-trace")
            os.makedirs(directory)
            workload = workloads.generate(name, 3, directory)
            argv = child_args(binary, "trace", workload, directory)
            argv += ["--scratch", directory, "--spans", os.path.join(directory, "spans.jsonl")]
            code, out, _, _ = spawn(argv, os.path.join(directory, "stderr.txt"))
            result = last_json(out) or {}
            if code != 0 or result.get("error", "?"):
                problems.append(f"{name} trace: exit {code}: {result.get('error')}")
            problems += [f"{name} trace: {check}"
                         for check, ok in result.get("checks", {}).items() if not ok]
            log(f"self-test {name}: checks {json.dumps(result.get('checks', {}))}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for problem in problems:
        log(f"FAIL {problem}")
    log("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    for needed in ("src", os.path.join("perfbench", "CMakeLists.txt"), "BENCHMARK.json"):
        if not os.path.exists(needed):
            die(f"run from the repository root: '{needed}' not found")
    with open("BENCHMARK.json", encoding="utf-8") as data:
        spec = json.load(data)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if args.self_test:
        return self_test(binary, build_root)

    ledger = DigestLedger(os.path.join(build_root, "digests.json"), binary)
    run_dir = os.path.join(build_root, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        workload = workloads.generate(args.workload, args.seed, run_dir)
        if args.trace:
            result, problems = trace(binary, workload, run_dir, build_root, ledger,
                                     args.seed, spec)
        else:
            result, problems = measure(binary, workload, args.seconds, run_dir, ledger,
                                       args.seed, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        log(f"FAIL {problem}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
