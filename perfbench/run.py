#!/usr/bin/env python3
"""Benchmark of the UDP prover, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `udp-serve`, `udp-verify` and the
in-process harness `perfbench/layers` in release mode, then:

* `--trace 0` drives the seeded workload through the release binaries as
  child processes (tracing off), checks every verdict against its known
  answer, and reports the end-to-end metrics;
* `--trace 1` sends the same generated inputs through each layer's public
  functions in process (`perfbench-layers`), with spans timed from the
  harness, plus a short untraced end-to-end pass to split protocol and
  process overhead from in-process work, and reports the per-layer metrics.

Human-readable tables go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md
for every metric's meaning, unit and direction.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ["serve-distinct", "serve-variants", "corpus"]
CHUNK = 64                # goals per blank-line chunk on serve-distinct
DISTINCT_BATCH = 4096     # goals per udp-serve process on serve-distinct
VARIANT_SEGMENT = 500     # requests per segment on serve-variants
PROBE_EVERY_S = 1.0       # timed work between two probe rounds
SETUP_PER_ROUND = 8       # spawn-to-warm-up measurements per probe round
# The host's CPU speed swings within seconds and a slow spell only ever adds
# time, so repeated timings of one thing report this low quantile (and
# rates the matching high one), not their median.
LOW_QUANTILE = 0.1
TIMEOUT_S = 1             # --timeout for corpus rules; only c39 reaches it

E2E_UNITS = {
    "goals_per_s": "1/s", "latency_p50_us": "us", "latency_p90_us": "us",
    "latency_p99_us": "us", "pathological_s": "s", "decided_share": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "sql.prepare_us": "us", "sql.parse_us": "us", "sql.lower_us": "us",
    "spnf.normalize_us": "us", "spnf.nf_nodes": "count",
    "fingerprint.key_us": "us", "fingerprint.key_bytes": "B",
    "fingerprint.repeat_share": "ratio", "canonize.nf_us": "us",
    "canonize.iters": "count", "canonize.repeat_gain_share": "ratio",
    "prove.decide_us": "us", "prove.steps": "count", "prove.share": "ratio",
    "prove.canonize_core_share": "ratio", "prove.congruence_share": "ratio",
    "congruence.unions": "count", "congruence.finds": "count",
    "cache.hit_ratio": "ratio", "cache.resident_bytes": "B",
    "scheduler.batch_overhead_us": "us", "scheduler.busy_share": "ratio",
    "serve.protocol_us": "us", "verify.process_us": "us",
    **{f"family.{f}.{s}": "us" for f in ("literature", "calcite", "bugs", "extensions")
       for s in ("p50_us", "max_us")},
    "pathological.decide_us": "us", "obs.trace_overhead": "ratio",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Release-build the two binaries and the harness; returns bin dir."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("run from the repository root: the program's sources are not here")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "udp-serve", "--bin", "udp-verify"],
                ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/layers/Cargo.toml"]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return (ROOT / env["CARGO_TARGET_DIR"] / "release").resolve()


# ---------------------------------------------------------------- checking

class Tally:
    """Verdicts checked against known answers."""

    def __init__(self):
        self.attempted = self.wrong = self.failed = self.decided = 0

    def check(self, expected, observed):
        self.attempted += 1
        if observed in ("error", "missing"):
            self.failed += 1
        elif observed != expected:
            self.wrong += 1
        self.decided += observed in ("proved", "not-proved")


def verdict_class(line):
    """Class of one `goal N: ...` response line."""
    verdict = line.split(": ", 1)[1] if ": " in line else ""
    for prefix, cls in (("Proved", "proved"), ("NotProved", "not-proved"), ("Timeout", "timeout")):
        if verdict.startswith(prefix):
            return cls
    return "error"


def pct(values, q):
    s = sorted(values)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------- processes

def reap(p):
    """Wait for child `p`; returns its peak resident set (VmHWM) in MB."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def serve_batch(bins, schema, chunks, jobs):
    """Pipe a whole stream from a file through `udp-serve`, reading to EOF.
    Returns the response lines with their arrival times, stderr, peak RSS."""
    path = OUT / "batch.txt"
    path.write_text(gen.stream_text(chunks, labelled=False))
    with open(path, "rb") as stdin:
        p = subprocess.Popen([bins / "udp-serve", schema, "--jobs", str(jobs), "--stats"],
                             stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines, times = [], []
        for line in p.stdout:
            times.append(time.perf_counter())
            lines.append(line.decode())
        err = p.stderr.read().decode()
        rss = reap(p)
    return lines, times, err, rss


def start_server(bins, schema, jobs, warmup, flags=()):
    """Spawn `udp-serve` and wait for its answer to one warm-up goal."""
    t0 = time.perf_counter()
    p = subprocess.Popen([bins / "udp-serve", schema, "--jobs", str(jobs), "--stats", *flags],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.write(p.stdin.fileno(), f"{warmup}\n\n".encode())
    line = p.stdout.readline().decode()
    return p, time.perf_counter() - t0, line


def stop_server(p):
    p.stdin.close()
    p.stdout.read()
    err = p.stderr.read().decode()
    return err, reap(p)


def request(p, goal):
    """One closed-loop request: returns (latency s, response line)."""
    t = time.perf_counter()
    os.write(p.stdin.fileno(), f"{goal}\n\n".encode())
    line = p.stdout.readline().decode()
    return time.perf_counter() - t, line


def cache_hits(stats):
    """Cache hits from `udp-serve --stats` output."""
    m = re.search(r"cache: (\d+) hits", stats)
    return int(m.group(1)) if m else 0


def run_verify(bins, path, dialect, timeout=TIMEOUT_S):
    """`udp-verify FILE` as its own process: (wall s, class, peak RSS MB).
    `timeout=None` keeps the binary's shipped budget."""
    limit = [] if timeout is None else ["--timeout", str(timeout)]
    t0 = time.perf_counter()
    p = subprocess.Popen([bins / "udp-verify", path, *gen.dialect_flags(dialect), *limit],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read().decode()
    rss = reap(p)
    wall = time.perf_counter() - t0
    if out.startswith("unsupported:") and p.returncode == 3:
        return wall, "unsupported", rss
    first = out.splitlines()[0] if out else ""
    return wall, verdict_class(first) if first.startswith("goal 1: ") else "error", rss


# ---------------------------------------------------------------- inputs

def schema_file():
    path = OUT / "schema.sql"
    path.write_text(gen.SCHEMA)
    return path


def rule_files(rules):
    """DDL of every rule in its own file (udp-serve's schema argument)."""
    for r in rules:
        r["ddl_path"] = OUT / ("ddl-" + r["name"].replace("/", "-") + ".sql")
        r["ddl_path"].write_text(r["ddl"])
    return rules


def rule_server(bins, r):
    """`udp-serve` on one rule's DDL, warmed up on its first table."""
    table = gen.first_table(r["ddl"])
    return start_server(bins, r["ddl_path"], 1, f"SELECT * FROM {table} w1 == SELECT * FROM {table} w2",
                        ["--timeout", str(TIMEOUT_S), *gen.dialect_flags(r["dialect"])])[0]


class Probes:
    """Set-up and pathological probes, taken in rounds spread over the whole
    run so that they sample the host as the timed work does. Through
    `udp-serve` with `jobs` workers, or through `udp-verify` when `jobs` is
    None."""

    def __init__(self, bins, seed, jobs, tally):
        self.bins, self.jobs, self.tally = bins, jobs, tally
        self.rng = gen.seeded(seed, "pathological")
        self.schema = schema_file()
        self.warm = OUT / "warmup.sql"
        self.warm.write_text(gen.SCHEMA + f"verify {gen.WARMUP[1]};\n")
        self.setups, self.pathological = [], []

    def round(self):
        for _ in range(SETUP_PER_ROUND):
            self.setups.append(self.setup())
        self.pathological.append(self.pathological_goal())

    def setup(self):
        """Spawn to the answer of the warm-up goal, in seconds."""
        if self.jobs is None:
            wall, cls, _ = run_verify(self.bins, self.warm, "paper")
        else:
            p, wall, line = start_server(self.bins, self.schema, self.jobs, gen.WARMUP[1])
            stop_server(p)
            cls = verdict_class(line)
        self.tally.check(gen.WARMUP[0], cls)
        return wall

    def pathological_goal(self):
        """Time to verdict of one seeded c39-shape goal in a fresh process
        under the shipped budget (which it stays well inside): through
        `udp-serve` after its warm-up, or as a whole `udp-verify` run."""
        cls, goal = gen.pathological_goal(self.rng)
        if self.jobs is None:
            path = OUT / "pathological.sql"
            path.write_text(gen.SCHEMA + f"verify {goal};\n")
            wall, observed, _ = run_verify(self.bins, path, "paper", timeout=None)
        else:
            p, _, _ = start_server(self.bins, self.schema, 1, gen.WARMUP[1])
            wall, line = request(p, goal)
            stop_server(p)
            observed = verdict_class(line)
        self.tally.check(cls, observed)
        return wall

    def metrics(self):
        return {"setup_s": pct(self.setups, LOW_QUANTILE),
                "pathological_s": pct(self.pathological, LOW_QUANTILE)}


def drive(seconds, step, probes):
    """Call `step()` until it has used `seconds`, with a probe round before
    the first call and after every PROBE_EVERY_S of step time. Probe time
    does not count against `seconds`."""
    busy, due = 0.0, 0.0
    while busy < seconds:
        if busy >= due:
            probes.round()
            due += PROBE_EVERY_S
        t = time.perf_counter()
        step()
        busy += time.perf_counter() - t
    probes.round()


def timeout_row(bins, rules, tally, through_serve):
    """The timeout-expected rules (c39) once each at `--timeout TIMEOUT_S`:
    a checked verdict row, whose wall is the configured timeout."""
    rows = []
    for r in (r for r in rules if r["expect"] == "timeout"):
        if through_serve:
            p = rule_server(bins, r)
            wall, line = request(p, r["goal"])
            stop_server(p)
            observed = verdict_class(line)
        else:
            wall, observed, _ = run_verify(bins, r["path"], r["dialect"])
        tally.check(r["expect"], observed)
        rows.append(f"timeout row: {r['name']} -> {observed} after {wall:.3f} s "
                    f"(--timeout {TIMEOUT_S}; bounded by the timeout, not a metric)")
    return rows


def self_test(workload, bins, schema, rules):
    """Feed one mislabelled goal through the workload's checking path; the
    checker must count exactly one wrong verdict."""
    tally = Tally()
    if workload == "corpus":
        rule = next(r for r in rules if r["expect"] == "proved")
        _, cls, _ = run_verify(bins, rule["path"], rule["dialect"])
        tally.check("not-proved", cls)
    else:
        proved = next(g for c, g in gen.distinct_goals(gen.seeded(0, "self-test"), 8, set()) if c == "proved")
        chunks = [[gen.WARMUP], [("not-proved", proved)]]
        lines, _, _, _ = serve_batch(bins, schema, chunks, 1)
        for (cls, _), line in zip([g for c in chunks for g in c], lines):
            tally.check(cls, verdict_class(line))
    return tally.wrong == 1


# ---------------------------------------------------------------- end to end

def e2e_serve_distinct(bins, seed, seconds, rules):
    rng = gen.seeded(seed, "serve-distinct")
    schema = schema_file()
    tally, used = Tally(), set()
    probes = Probes(bins, seed, 2, tally)
    rates, chunks_seen, rss, hits, sent = [], 0, [], 0, 0
    tails = {0.5: [], 0.9: [], 0.99: []}

    def step():
        nonlocal chunks_seen, hits, sent
        goals = gen.distinct_goals(rng, DISTINCT_BATCH, used)
        chunks = [[gen.WARMUP]] + [goals[i:i + CHUNK] for i in range(0, len(goals), CHUNK)]
        lines, times, err, peak = serve_batch(bins, schema, chunks, 2)
        labels = [cls for c in chunks for cls, _ in c]
        for i, cls in enumerate(labels):
            tally.check(cls, verdict_class(lines[i]) if i < len(lines) else "missing")
        hits += cache_hits(err)
        sent += len(labels)
        rss.append(peak)
        if len(lines) != len(labels):
            return
        ends, at = [times[0]], 0
        for c in chunks:
            at += len(c)
            ends.append(times[at - 1])
        gaps = [(b - a) * 1e6 for a, b in zip(ends[1:], ends[2:])]
        chunks_seen += len(gaps)
        for q, values in tails.items():
            values.append(pct(gaps, q))
        rates.append(len(goals) / (times[-1] - times[0]))

    drive(seconds, step, probes)
    props = f"cache hit ratio {hits / max(sent, 1):.4f} over {sent} goals ({len(rates)} udp-serve processes)"
    # Percentiles within each process, then the low quantile over processes:
    # a host slow spell during some processes cannot set the run's figures.
    metrics = {
        "goals_per_s": pct(rates, 1 - LOW_QUANTILE),
        "latency_p50_us": pct(tails[0.5], LOW_QUANTILE),
        "latency_p90_us": pct(tails[0.9], LOW_QUANTILE),
        "latency_p99_us": pct(tails[0.99], LOW_QUANTILE),
        "peak_rss_mb": statistics.median(rss),
        **probes.metrics(),
    }
    notes = [f"latency: per {CHUNK}-goal chunk, {chunks_seen} chunks in {len(rates)} processes"]
    return tally, metrics, props, notes


def e2e_serve_variants(bins, seed, seconds, rules):
    rng = gen.seeded(seed, "serve-variants")
    schema = schema_file()
    pool = gen.variant_pool(rng)
    tally = Tally()
    probes = Probes(bins, seed, 1, tally)
    p, _, line = start_server(bins, schema, 1, gen.WARMUP[1])
    tally.check(gen.WARMUP[0], verdict_class(line))
    segments, seen, fresh = [], set(), 0

    def step():
        nonlocal fresh
        lat = []
        for cls, goal, base in gen.variant_requests(rng, pool, VARIANT_SEGMENT):
            wall, line = request(p, goal)
            tally.check(cls, verdict_class(line) if line else "missing")
            lat.append(wall * 1e6)
            fresh += base not in seen
            seen.add(base)
        segments.append(lat)

    drive(seconds, step, probes)
    err, peak = stop_server(p)
    hits = cache_hits(err)
    n = sum(map(len, segments))
    props = (f"requests {n}: (a) key-equal repeats {hits / n:.4f} (cache hits), "
             f"(b) equal only after canonize {(n - hits - fresh) / n:.4f} (non-fresh misses), "
             f"(c) fresh pool goals {fresh / n:.4f}")
    # Figures within each segment of requests, then the low quantile (for
    # the rate the high one) over segments.
    metrics = {
        "goals_per_s": pct([len(lat) / (sum(lat) / 1e6) for lat in segments], 1 - LOW_QUANTILE),
        **{f"latency_p{int(q * 100)}_us": pct([pct(lat, q) for lat in segments], LOW_QUANTILE)
           for q in (0.5, 0.9, 0.99)},
        "peak_rss_mb": peak,
        **probes.metrics(),
    }
    return tally, metrics, props, [f"latency: request write to response line, {n} requests "
                                   f"in {len(segments)} segments of {VARIANT_SEGMENT}"]


def e2e_corpus(bins, seed, seconds, rules):
    rng = gen.seeded(seed, "corpus")
    regular = [r for r in rules if r["expect"] != "timeout"]
    tally = Tally()
    probes = Probes(bins, seed, None, tally)
    rates, rss, per_rule = [], [], {r["name"]: [] for r in regular}

    def step():
        order = regular[:]
        rng.shuffle(order)
        walls = []
        for r in order:
            wall, cls, peak = run_verify(bins, r["path"], r["dialect"])
            tally.check(r["expect"], cls)
            walls.append(wall)
            rss.append(peak)
            per_rule[r["name"]].append(wall * 1e6)
        rates.append(len(walls) / sum(walls))

    drive(seconds, step, probes)
    # Percentiles over rules of each rule's low quantile over passes: a rule
    # author's time to verdict, without process-spawn hiccups or host slow
    # spells.
    typical = {name: pct(w, LOW_QUANTILE) for name, w in per_rule.items()}
    notes = [f"latency: udp-verify process wall per rule, 10th percentile over {len(rates)} passes, "
             f"{len(regular)} rules",
             "family          rules   p50_us   p90_us   max_us"]
    for fam in ("literature", "calcite", "bugs", "extensions"):
        meds = [typical[r["name"]] for r in regular if r["family"] == fam]
        notes.append(f"{fam:<14}{len(meds):>6} {pct(meds, 0.5):>8.0f} {pct(meds, 0.9):>8.0f} {max(meds):>8.0f}")
    meds = list(typical.values())
    metrics = {
        "goals_per_s": pct(rates, 1 - LOW_QUANTILE),
        "latency_p50_us": pct(meds, 0.5),
        "latency_p90_us": pct(meds, 0.9),
        "latency_p99_us": pct(meds, 0.99),
        "peak_rss_mb": max(rss),
        **probes.metrics(),
    }
    return tally, metrics, f"{len(regular)} rules per pass, order shuffled by seed", notes


# ---------------------------------------------------------------- traced

def harness(bins, *args):
    out = subprocess.run([bins / "perfbench-layers", *map(str, args)], stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout)


def process_overhead(bins, goals, product_us, prepare_us, tally):
    """Median `udp-verify` wall on one-goal programs minus the in-process
    prepare + goal time of the same goals."""
    diffs = []
    path = OUT / "one-goal.sql"
    for i, (cls, goal) in goals:
        path.write_text(gen.SCHEMA + f"verify {goal};\n")
        wall, observed, _ = run_verify(bins, path, "paper")
        tally.check(cls, observed)
        diffs.append(wall * 1e6 - prepare_us - product_us[i])
    return statistics.median(diffs)


def traced_serve(workload, bins, seed, tally):
    rng = gen.seeded(seed, workload)
    schema = schema_file()
    if workload == "serve-distinct":
        goals = gen.distinct_goals(rng, 2048, set())
        chunks = [[gen.WARMUP]] + [goals[i:i + CHUNK] for i in range(0, len(goals), CHUNK)]
        jobs = 2
    else:
        pool = gen.variant_pool(rng)
        chunks = [[gen.WARMUP]] + [[(c, g)] for c, g, _ in gen.variant_requests(rng, pool, 2000)]
        jobs = 1
    (OUT / "goals.tsv").write_text(gen.stream_text(chunks, labelled=True))
    res = harness(bins, "serve", schema, OUT / "goals.tsv", jobs, OUT / f"spans-{workload}-{seed}.jsonl")
    flat = [g for c in chunks for g in c]
    if workload == "serve-distinct":
        lines, times, _, _ = serve_batch(bins, schema, chunks, jobs)
        for (cls, _), line in zip(flat, lines):
            tally.check(cls, verdict_class(line))
        e2e_goal_us = (times[-1] - times[0]) * 1e6 / (len(flat) - 1)
        protocol = e2e_goal_us - sum(res["chunk_us"]) / (len(flat) - 1)
    else:
        p, _, _ = start_server(bins, schema, 1, gen.WARMUP[1])
        lat = []
        for cls, goal in flat[1:]:
            wall, line = request(p, goal)
            tally.check(cls, verdict_class(line))
            lat.append(wall * 1e6)
        stop_server(p)
        protocol = statistics.median(lat) - statistics.median(res["chunk_us"])
    sample = [(i, flat[i]) for i in range(1, len(flat), max(1, len(flat) // 25))]
    m = res["metrics"]
    m["serve.protocol_us"] = protocol
    m["verify.process_us"] = process_overhead(bins, sample, res["product_us"], m["sql.prepare_us"], tally)
    return res


def traced_corpus(bins, seed, rules, tally, passes, full):
    """The corpus rules in process, plus seeded c39-shape goals as rules of
    a `pathological` family of their own."""
    rng = gen.seeded(seed, "pathological")
    shapes = [{"family": "pathological", "dialect": "paper", "name": f"pathological/{i}",
               "ddl_path": schema_file(), "expect": cls, "goal": goal}
              for i, (cls, goal) in enumerate(gen.pathological_goal(rng) for _ in range(3))]
    listing = "".join(f"{r['family']}\t{r['dialect']}\t{r['expect']}\t{r['name']}\t{r['ddl_path']}\t{r['goal']}\n"
                      for r in rules + shapes)
    (OUT / "rules.tsv").write_text(listing)
    res = harness(bins, "corpus", OUT / "rules.tsv", passes, TIMEOUT_S, OUT / f"spans-corpus-{seed}.jsonl")
    if not full:
        return res
    m = res["metrics"]
    process, protocol = [], []
    for r in rules:
        if r["expect"] == "timeout":
            continue
        wall, cls, _ = run_verify(bins, r["path"], r["dialect"])
        tally.check(r["expect"], cls)
        process.append(wall * 1e6 - res["rule_us"][r["name"]])
        if gen.first_table(r["ddl"]) and r["name"] in res["session_us"]:
            p = rule_server(bins, r)
            wall, line = request(p, r["goal"])
            stop_server(p)
            tally.check(r["expect"], verdict_class(line))
            protocol.append(wall * 1e6 - res["session_us"][r["name"]])
    m["verify.process_us"] = statistics.median(process)
    m["serve.protocol_us"] = statistics.median(protocol)
    return res


def traced(workload, bins, seed, rules):
    tally = Tally()
    corpus = traced_corpus(bins, seed, rules, tally, passes=5 if workload == "corpus" else 2,
                           full=workload == "corpus")
    res = corpus if workload == "corpus" else traced_serve(workload, bins, seed, tally)
    metrics = res["metrics"]
    for k, v in corpus["metrics"].items():
        if k.startswith(("family.", "pathological.")):
            metrics[k] = v
    lines = [f"in-process goals {int(res['goals'])}, harness wrong verdicts {int(res['wrong'] + corpus['wrong'])}",
             "workload property: key-equal repeats {:.4f}, equal only after canonize {:.4f}".format(
                 metrics["fingerprint.repeat_share"], metrics["canonize.repeat_gain_share"]),
             "prove share of service goal path {:.3f}; nested canonize-core {:.3f}, congruence {:.3f}".format(
                 metrics["prove.share"], metrics["prove.canonize_core_share"], metrics["prove.congruence_share"])]
    if "session_shares" in res:
        lines.append("udp_service::Session recorder shares of goal wall: " + ", ".join(
            f"{k} {v:.3f}" for k, v in res["session_shares"].items()))
    total = res["self_us"].get("goal", 0.0) or 1.0
    lines.append("span totals (share of goal spans): " + ", ".join(
        f"{k} {v / total:.3f}" for k, v in res["self_us"].items() if k != "goal"))
    lines.append("corpus in process, per family (us): " + "; ".join(
        f"{k} " + " ".join(f"{s}={v:.0f}" for s, v in row.items()) for k, row in corpus["families"].items()))
    tally.attempted += int(res["goals"])
    tally.wrong += int(res["wrong"]) + (int(corpus["wrong"]) if res is not corpus else 0)
    return tally, metrics, lines


# ---------------------------------------------------------------- main

E2E = {"serve-distinct": e2e_serve_distinct, "serve-variants": e2e_serve_variants, "corpus": e2e_corpus}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bins = build()
    OUT.mkdir(parents=True, exist_ok=True)
    rules = rule_files(gen.load_rules(ROOT))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{os.cpu_count()} CPUs")
    if args.trace:
        tally, metrics, lines = traced(args.workload, bins, args.seed, rules)
        units = LAYER_UNITS
        ok = True
    else:
        tally, metrics, props, lines = E2E[args.workload](bins, args.seed, args.seconds, rules)
        metrics["decided_share"] = tally.decided / tally.attempted
        lines += timeout_row(bins, rules, tally, through_serve=args.workload != "corpus")
        ok = self_test(args.workload, bins, OUT / "schema.sql", rules)
        lines = [f"workload property: {props}"] + lines + [f"self-test (one mislabelled goal -> wrong_verdicts = 1): {'pass' if ok else 'FAIL'}"]
        units = E2E_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"metrics not produced: {missing}")
    for line in lines:
        print(line)
    print(f"wrong_verdicts {tally.wrong}; failed_share {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted})")
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>14.4f} {unit}")
    result = {
        "correct": ok and tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.wrong,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
