//! `perfbench-layers` — the traced, in-process half of the benchmark.
//!
//! ```text
//! perfbench-layers serve  SCHEMA GOALS JOBS SPANS_OUT
//! perfbench-layers corpus RULES PASSES TIMEOUT_SECS SPANS_OUT
//! ```
//!
//! `serve` reads the generated goal stream `run.py` also pipes through
//! `udp-serve` (`CLASS<TAB>GOAL` lines, blank lines between chunks, the
//! first chunk being the warm-up goal). `corpus` reads one rule per line
//! (`FAMILY<TAB>DIALECT<TAB>EXPECT<TAB>NAME<TAB>DDL_FILE<TAB>GOAL`); rules
//! of the family `pathological` are generated c39-shape goals, kept out of
//! the typical-goal figures and run under the shipped wall budget.
//!
//! Every goal goes through each layer's public function in pipeline order —
//! parse, (desugar), lower, SPNF normalization, cache key, one standalone
//! `canonize_nf` per side, decide — and each call is timed from here as a
//! span (name, start, end, parent, goal id) kept in memory and written to
//! `SPANS_OUT` as JSON lines at the end. Counters and the nested
//! `canonize-core`/`congruence` stages come from `udp_obs::Recorder`
//! snapshots; cache and scheduler figures come from `udp_service::Session`.
//! Nothing is probed inside the program. The result is one JSON object on
//! stdout.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};
use udp_core::budget::Budget;
use udp_core::canonize::canonize_nf;
use udp_core::ctx::Ctx;
use udp_core::decide::{decide_normalized_with, DecideConfig, Decision};
use udp_core::expr::VarId;
use udp_core::fingerprint::{canonical_form_nf, fingerprint_form};
use udp_obs::{Counter, Recorder, Stage, TrackingAlloc};
use udp_service::{Session, SessionConfig};
use udp_sql::{Dialect, Frontend};

/// The shipped binaries install this allocator wrapper; so does the
/// harness, so in-process and end-to-end times are comparable.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Per-goal budget, as `udp-serve`/`udp-verify` configure it.
const STEPS: u64 = 20_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["serve", schema, goals, jobs, spans] => serve(schema, goals, parse(jobs), spans),
        ["corpus", rules, passes, timeout, spans] => {
            corpus(rules, parse(passes), parse(timeout), spans)
        }
        _ => {
            eprintln!(
                "usage: perfbench-layers serve SCHEMA GOALS JOBS SPANS_OUT\n       \
                 perfbench-layers corpus RULES PASSES TIMEOUT_SECS SPANS_OUT"
            );
            std::process::exit(64);
        }
    };
    println!("{out}");
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| panic!("not a number: `{s}`"))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"))
}

// ---------------------------------------------------------------- spans

struct SpanRec {
    parent: u32,
    goal: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store. Switched off, `time` only runs the closure, so
/// the untraced pass pays for no clock reads.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (1-based; 0 means "no parent").
    fn begin(&mut self, name: &'static str, goal: u32, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(SpanRec {
            parent,
            goal,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    /// Close span `id`; returns its duration in ns (0 when tracing is off).
    fn end(&mut self, id: u32) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.now();
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = now;
        now - s.start_ns
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        goal: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, goal, parent);
        let r = f();
        (r, self.end(id))
    }

    fn write(&self, path: &str) {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"goal\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                i + 1,
                s.parent,
                s.goal,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
    }

    /// Total duration per span name, plus the goal spans' self time (goal
    /// duration minus the part its children cover; children never overlap).
    fn totals_us(&self) -> BTreeMap<String, f64> {
        let mut t: BTreeMap<String, f64> = BTreeMap::new();
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            *t.entry(s.name.to_string()).or_default() += d as f64 / 1e3;
            child_ns[s.parent as usize] += d;
        }
        let mut root_self = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "goal" {
                root_self += (s.end_ns - s.start_ns).saturating_sub(child_ns[i + 1]) as f64 / 1e3;
            }
        }
        t.insert("self:goal".to_string(), root_self);
        t
    }
}

// ---------------------------------------------------------------- one goal

/// The two recorders of a traced pass: one for the standalone `canonize_nf`
/// calls (so `canonize-iters` counts only those) and one for `decide`
/// (nested `canonize-core`/`congruence` stages, congruence counters).
struct Recs {
    canon: Recorder,
    decide: Recorder,
}

impl Recs {
    fn new(on: bool) -> Recs {
        let r = || {
            if on {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            }
        };
        Recs {
            canon: r(),
            decide: r(),
        }
    }
}

#[derive(Default)]
struct GoalOut {
    class: &'static str,
    /// parse + desugar + lower + normalize + decide, ns: what `udp-verify`
    /// runs per goal.
    product_ns: u64,
    /// desugar + lower + normalize + key + decide, ns: the service's goal
    /// path on a cache miss.
    pipeline_ns: u64,
    parse_ns: u64,
    lower_ns: u64,
    normalize_ns: u64,
    key_ns: u64,
    canonize_ns: u64,
    decide_ns: u64,
    nf_nodes: usize,
    key_bytes: usize,
    steps: u64,
    /// Time spent on the repeat classification below, outside every span;
    /// subtracted from the traced pass's wall.
    classify_ns: u64,
    key: Option<(String, String)>,
    canon_key: Option<(String, String)>,
}

fn class_of(d: &Decision) -> &'static str {
    match d {
        Decision::Proved => "proved",
        Decision::NotProved(_) => "not-proved",
        Decision::Timeout => "timeout",
    }
}

#[allow(clippy::too_many_arguments)]
fn run_goal(
    fe: &mut Frontend,
    line: &str,
    dialect: Dialect,
    wall: Duration,
    tr: &mut Tracer,
    gid: u32,
    recs: &Recs,
    classify: bool,
) -> GoalOut {
    let root = tr.begin("goal", gid, 0);
    let mut o = GoalOut::default();
    let (parsed, ns) = tr.time("sql.parse", gid, root, || {
        udp_sql::parse_goal_in(line, dialect)
    });
    o.parse_ns = ns;
    let goal = match parsed {
        Ok(g) => g,
        Err(e) => {
            tr.end(root);
            o.class = if e.unsupported_feature().is_some() {
                "unsupported"
            } else {
                "error"
            };
            return o;
        }
    };
    let goal = if dialect == Dialect::Full {
        let (d, ns) = tr.time("ext.desugar", gid, root, || {
            udp_ext::desugar_goal(fe, &goal)
        });
        o.pipeline_ns += ns;
        match d {
            Ok(g) => g,
            Err(e) => {
                tr.end(root);
                o.class = match e {
                    udp_ext::ExtError::Unsupported(_) => "unsupported",
                    _ => "error",
                };
                return o;
            }
        }
    } else {
        goal
    };
    let (lowered, ns) = tr.time("sql.lower", gid, root, || udp_sql::lower_goal(fe, &goal));
    o.lower_ns = ns;
    let (q1, q2) = match lowered {
        Ok(pair) => pair,
        Err(e) => {
            tr.end(root);
            o.class = if e.unsupported_feature().is_some() {
                "unsupported"
            } else {
                "error"
            };
            return o;
        }
    };
    // The service's one normalization: both sides, output variables aligned.
    let ((nf1, nf2), ns) = tr.time("spnf.normalize", gid, root, || {
        udp_solve::normalize_pair(&q1, &q2)
    });
    o.normalize_ns = ns;
    o.nf_nodes = nf1.size() + nf2.size();
    let catalog = &fe.catalog;
    let (key, ns) = tr.time("fingerprint.key", gid, root, || {
        let key = (
            canonical_form_nf(catalog, &nf1, q1.out, q1.schema),
            canonical_form_nf(catalog, &nf2, q1.out, q2.schema),
        );
        black_box((fingerprint_form(&key.0), fingerprint_form(&key.1)));
        key
    });
    o.key_ns = ns;
    o.key_bytes = key.0.len() + key.1.len();

    // One standalone canonize per side, in a context set up the way
    // `decide` sets up its own.
    let watermark = nf1.max_var().max(nf2.max_var()).max(q1.out.0) + 1;
    let (side1, side2) = (nf1.clone(), nf2.clone());
    let (canon, ns) = tr.time("canonize.nf", gid, root, || {
        let mut ctx = Ctx::new(&fe.catalog, &fe.constraints)
            .with_budget(Budget::new(Some(STEPS), Some(wall)))
            .with_recorder(recs.canon.clone());
        ctx.gen.reserve(VarId(watermark));
        ctx.declare_free(q1.out, q1.schema);
        let c1 = canonize_nf(&mut ctx, side1, &[], false).ok();
        let c2 = canonize_nf(&mut ctx, side2, &[], false).ok();
        (c1, c2)
    });
    o.canonize_ns = ns;

    let config = DecideConfig {
        budget: Some(Budget::new(Some(STEPS), Some(wall))),
        recorder: recs.decide.clone(),
        ..DecideConfig::default()
    };
    let (verdict, ns) = tr.time("prove.decide", gid, root, || {
        decide_normalized_with(
            &fe.catalog,
            &fe.constraints,
            q1.out,
            q1.schema,
            q2.schema,
            &nf1,
            &nf2,
            config,
        )
    });
    o.decide_ns = ns;
    tr.end(root);
    o.class = class_of(&verdict.decision);
    o.steps = verdict.stats.steps_used;
    o.product_ns = o.parse_ns + o.pipeline_ns + o.lower_ns + o.normalize_ns + o.decide_ns;
    o.pipeline_ns += o.lower_ns + o.normalize_ns + o.key_ns + o.decide_ns;
    if classify {
        let t = Instant::now();
        if let (Some(c1), Some(c2)) = &canon {
            o.canon_key = Some((
                canonical_form_nf(&fe.catalog, c1, q1.out, q1.schema),
                canonical_form_nf(&fe.catalog, c2, q1.out, q2.schema),
            ));
        }
        o.key = Some(key);
        o.classify_ns = t.elapsed().as_nanos() as u64;
    }
    o
}

// ---------------------------------------------------------------- figures

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Minimal JSON object writer (numbers and nested raw values).
#[derive(Default)]
struct Obj(Vec<(String, String)>);

impl Obj {
    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((k.to_string(), v));
        self
    }
    fn raw(&mut self, k: &str, v: String) -> &mut Self {
        self.0.push((k.to_string(), v));
        self
    }
    fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

fn num_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

/// Per-goal layer figures over a traced pass: medians of per-call wall
/// times, means of sizes and counts, and the prove-stage shares of the
/// service goal path.
fn layer_metrics(m: &mut Obj, outs: &[&GoalOut], recs: &Recs) {
    let n = outs.len().max(1) as f64;
    let med =
        |f: &dyn Fn(&GoalOut) -> u64| median(&outs.iter().map(|o| us(f(o))).collect::<Vec<_>>());
    let mean = |f: &dyn Fn(&GoalOut) -> f64| outs.iter().map(|o| f(o)).sum::<f64>() / n;
    m.num("sql.parse_us", med(&|o| o.parse_ns))
        .num("sql.lower_us", med(&|o| o.lower_ns))
        .num("spnf.normalize_us", med(&|o| o.normalize_ns))
        .num("spnf.nf_nodes", mean(&|o| o.nf_nodes as f64))
        .num("fingerprint.key_us", med(&|o| o.key_ns))
        .num("fingerprint.key_bytes", mean(&|o| o.key_bytes as f64))
        .num("canonize.nf_us", med(&|o| o.canonize_ns))
        .num(
            "canonize.iters",
            recs.canon.counter(Counter::CanonizeIters) as f64 / n,
        )
        .num("prove.decide_us", med(&|o| o.decide_ns))
        .num("prove.steps", mean(&|o| o.steps as f64));
    let pipeline: u64 = outs.iter().map(|o| o.pipeline_ns).sum();
    let decide: u64 = outs.iter().map(|o| o.decide_ns).sum();
    let snap = recs.decide.snapshot();
    let stage_ns = |s: Stage| snap.stage(s).map_or(0, |st| st.wall_ns);
    let share = |ns: u64| {
        if pipeline == 0 {
            0.0
        } else {
            ns as f64 / pipeline as f64
        }
    };
    m.num("prove.share", share(decide))
        .num(
            "prove.canonize_core_share",
            share(stage_ns(Stage::CanonizeCore)),
        )
        .num("prove.congruence_share", share(stage_ns(Stage::Congruence)))
        .num(
            "congruence.unions",
            snap.counter(Counter::CongruenceUnions) as f64 / n,
        )
        .num(
            "congruence.finds",
            snap.counter(Counter::CongruenceFinds) as f64 / n,
        );
}

/// Shares of goals whose cache key repeats an earlier goal's (a cache hit
/// today), whose key is new but whose canonized form repeats (equal only
/// after `canonize`), and the rest (fresh).
fn repeat_shares(m: &mut Obj, outs: &[&GoalOut]) {
    let (mut keys, mut canon) = (HashSet::new(), HashSet::new());
    let (mut key_rep, mut canon_only) = (0usize, 0usize);
    for o in outs {
        let key_seen = o.key.as_ref().is_some_and(|k| keys.contains(k));
        let canon_seen = o.canon_key.as_ref().is_some_and(|k| canon.contains(k));
        if key_seen {
            key_rep += 1;
        } else if canon_seen {
            canon_only += 1;
        }
        keys.extend(o.key.clone());
        canon.extend(o.canon_key.clone());
    }
    let n = outs.len().max(1) as f64;
    m.num("fingerprint.repeat_share", key_rep as f64 / n)
        .num("canonize.repeat_gain_share", canon_only as f64 / n);
}

// ---------------------------------------------------------------- serve

fn serve(schema_path: &str, goals_path: &str, jobs: usize, spans_out: &str) -> String {
    let schema = read(schema_path);
    let mut chunks: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for line in read(goals_path).lines() {
        match line.split_once('\t') {
            Some((class, goal)) => chunks.last_mut().unwrap().push((class.into(), goal.into())),
            None if chunks.last().is_some_and(|c| !c.is_empty()) => chunks.push(Vec::new()),
            None => {}
        }
    }
    chunks.retain(|c| !c.is_empty());
    let goals: Vec<&(String, String)> = chunks.iter().flatten().collect();
    let wall = SessionConfig::default()
        .wall
        .expect("the shipped session has a wall budget");

    let mut prepare_us = Vec::new();
    let mut base = None;
    for _ in 0..25 {
        let t = Instant::now();
        let fe = udp_sql::prepare_program_in(&schema, Dialect::Paper).expect("schema prepares");
        prepare_us.push(t.elapsed().as_secs_f64() * 1e6);
        base = Some(fe);
    }
    let base = base.expect("prepared at least once");

    // Untraced, traced, untraced: the traced pass's wall against the mean
    // of the two untraced ones is the tracing overhead.
    let pass = |trace: bool, tr: &mut Tracer, recs: &Recs| {
        let mut fe = base.clone();
        let t = Instant::now();
        let outs: Vec<GoalOut> = goals
            .iter()
            .enumerate()
            .map(|(i, (_, g))| {
                run_goal(&mut fe, g, Dialect::Paper, wall, tr, i as u32, recs, trace)
            })
            .collect();
        (outs, t.elapsed().as_secs_f64())
    };
    let (_, untraced1) = pass(false, &mut Tracer::new(false), &Recs::new(false));
    let mut tr = Tracer::new(true);
    let recs = Recs::new(true);
    let (outs, traced) = pass(true, &mut tr, &recs);
    let traced = traced - outs.iter().map(|o| o.classify_ns as f64 / 1e9).sum::<f64>();
    let (_, untraced2) = pass(false, &mut Tracer::new(false), &Recs::new(false));
    tr.write(spans_out);

    let wrong_layers = outs
        .iter()
        .zip(&goals)
        .filter(|(o, (class, _))| o.class != class.as_str())
        .count();

    // Session passes over the same chunks: untraced for scheduler and
    // protocol figures, then with an enabled recorder for stage shares.
    let session_pass = |recorder: Recorder| -> SessionRun {
        let config = SessionConfig {
            workers: jobs,
            recorder,
            ..SessionConfig::default()
        };
        let session = Session::new(&schema, config).expect("schema prepares");
        let parsed: Vec<Vec<_>> = chunks
            .iter()
            .map(|c| {
                c.iter()
                    .map(|(_, g)| session.parse_goal(g).expect("goal parses"))
                    .collect()
            })
            .collect();
        let (mut batch_us, mut overhead_us) = (Vec::new(), Vec::new());
        let (mut busy, mut capacity, mut hits, mut wrong) = (0.0, 0.0, 0usize, 0usize);
        for (chunk, batch) in chunks.iter().zip(&parsed) {
            let t = Instant::now();
            let reports = session.verify_batch(batch);
            let w = t.elapsed().as_secs_f64() * 1e6;
            let work: f64 = reports.iter().map(|r| r.wall.as_secs_f64() * 1e6).sum();
            let workers = jobs.clamp(1, batch.len()) as f64;
            batch_us.push(w);
            overhead_us.push(w * workers - work);
            busy += work;
            capacity += w * workers;
            for (r, (class, _)) in reports.iter().zip(chunk) {
                hits += r.cached as usize;
                let seen = r.verdict().map_or("error", |v| class_of(&v.decision));
                wrong += (seen != class.as_str()) as usize;
            }
        }
        SessionRun {
            session,
            batch_us,
            overhead_us,
            busy_share: busy / capacity,
            hits,
            wrong,
        }
    };
    // Best of two untraced passes: on a small shared host one pass is
    // often disturbed.
    let (first, second) = (
        session_pass(Recorder::disabled()),
        session_pass(Recorder::disabled()),
    );
    let recorder = Recorder::enabled();
    let traced_run = session_pass(recorder.clone());
    let snap = recorder.snapshot();
    let wrong_session = first.wrong + second.wrong + traced_run.wrong;
    let total = |r: &SessionRun| r.batch_us.iter().sum::<f64>();
    let best = if total(&first) <= total(&second) {
        first
    } else {
        second
    };

    // Chunk figures skip the warm-up chunk, as the end-to-end run does.
    let mut goal_offset = chunks[0].len();
    let mut chunk_us = Vec::new();
    for (c, w) in chunks.iter().zip(&best.batch_us).skip(1) {
        let parse: u64 = outs[goal_offset..goal_offset + c.len()]
            .iter()
            .map(|o| o.parse_ns)
            .sum();
        chunk_us.push(w + us(parse));
        goal_offset += c.len();
    }

    let all: Vec<&GoalOut> = outs.iter().skip(chunks[0].len()).collect();
    let mut m = Obj::default();
    m.num("sql.prepare_us", median(&prepare_us));
    layer_metrics(&mut m, &all, &recs);
    repeat_shares(&mut m, &all);
    m.num("cache.hit_ratio", best.hits as f64 / goals.len() as f64)
        .num(
            "cache.resident_bytes",
            best.session.cache_resident_bytes() as f64,
        )
        .num(
            "scheduler.batch_overhead_us",
            median(&best.overhead_us[1..]),
        )
        .num("scheduler.busy_share", best.busy_share)
        .num(
            "obs.trace_overhead",
            traced / ((untraced1 + untraced2) / 2.0) - 1.0,
        );

    let mut session_shares = Obj::default();
    for s in [
        Stage::Lower,
        Stage::Canonize,
        Stage::Fingerprint,
        Stage::CacheLookup,
        Stage::UdpProve,
        Stage::CanonizeCore,
        Stage::Congruence,
    ] {
        session_shares.num(s.name(), snap.share(s));
    }
    let mut o = Obj::default();
    o.raw("metrics", m.render())
        .raw("session_shares", session_shares.render())
        .raw("self_us", totals_json(&tr))
        .num("goals", goals.len() as f64)
        .num("wrong", (wrong_layers + wrong_session) as f64)
        .raw(
            "product_us",
            num_list(&outs.iter().map(|o| us(o.product_ns)).collect::<Vec<_>>()),
        )
        .raw("chunk_us", num_list(&chunk_us));
    o.render()
}

/// One `Session` replay of the chunked stream.
struct SessionRun {
    session: Session,
    /// `verify_batch` wall per chunk, µs.
    batch_us: Vec<f64>,
    /// Per chunk: wall × workers − Σ `GoalReport.wall`, µs.
    overhead_us: Vec<f64>,
    busy_share: f64,
    hits: usize,
    wrong: usize,
}

fn totals_json(tr: &Tracer) -> String {
    let mut o = Obj::default();
    for (k, v) in tr.totals_us() {
        o.num(&k, v);
    }
    o.render()
}

// ---------------------------------------------------------------- corpus

struct Rule {
    family: String,
    dialect: Dialect,
    expect: String,
    name: String,
    ddl: String,
    goal: String,
}

fn prepare(ddl: &str, dialect: Dialect) -> Frontend {
    let mut fe = udp_sql::prepare_program_in(ddl, dialect).expect("rule DDL prepares");
    if dialect == Dialect::Full {
        udp_ext::desugar_views(&mut fe).expect("rule views desugar");
    }
    fe
}

fn corpus(rules_path: &str, passes: usize, timeout_secs: u64, spans_out: &str) -> String {
    let rules: Vec<Rule> = read(rules_path)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.splitn(6, '\t').collect();
            assert_eq!(f.len(), 6, "malformed rule line: {l}");
            Rule {
                family: f[0].into(),
                dialect: match f[1] {
                    "extended" => Dialect::Extended,
                    "full" => Dialect::Full,
                    _ => Dialect::Paper,
                },
                expect: f[2].into(),
                name: f[3].into(),
                ddl: read(f[4]),
                goal: f[5].into(),
            }
        })
        .collect();
    let timeout = Duration::from_secs(timeout_secs);
    // Rules of the `pathological` family are the generated c39-shape goals,
    // not corpus rules; they run under the shipped wall budget.
    let shipped = SessionConfig::default()
        .wall
        .expect("the shipped session has a wall budget");
    let shapes: Vec<&Rule> = rules
        .iter()
        .filter(|r| r.family == "pathological")
        .collect();
    let (regular, slow): (Vec<&Rule>, Vec<&Rule>) = rules
        .iter()
        .filter(|r| r.family != "pathological")
        .partition(|r| r.expect != "timeout");

    // One pass: prepare + goal per rule. Returns per-rule outputs and the
    // per-rule in-process wall (prepare + what udp-verify runs), µs.
    let run = |rules: &[&Rule], tr: &mut Tracer, recs: &Recs, trace: bool, gid0: u32| {
        rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let gid = gid0 + i as u32;
                let wall = if r.family == "pathological" {
                    shipped
                } else {
                    timeout
                };
                let (mut fe, prep_ns) =
                    tr.time("sql.prepare", gid, 0, || prepare(&r.ddl, r.dialect));
                let t = Instant::now();
                let o = run_goal(&mut fe, &r.goal, r.dialect, wall, tr, gid, recs, trace);
                let product = if trace {
                    o.product_ns
                } else {
                    t.elapsed().as_nanos() as u64
                };
                (o, us(prep_ns), us(prep_ns + product))
            })
            .collect::<Vec<_>>()
    };

    let t = Instant::now();
    run(
        &regular,
        &mut Tracer::new(false),
        &Recs::new(false),
        false,
        0,
    );
    let untraced1 = t.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true);
    let recs = Recs::new(true);
    let mut samples: Vec<Vec<(GoalOut, f64, f64)>> = Vec::new();
    let mut traced = 0.0;
    for p in 0..passes {
        let t = Instant::now();
        let pass = run(&regular, &mut tr, &recs, true, (p * rules.len()) as u32);
        traced += t.elapsed().as_secs_f64()
            - pass
                .iter()
                .map(|s| s.0.classify_ns as f64 / 1e9)
                .sum::<f64>();
        samples.push(pass);
    }
    let t = Instant::now();
    run(
        &regular,
        &mut Tracer::new(false),
        &Recs::new(false),
        false,
        0,
    );
    let untraced2 = t.elapsed().as_secs_f64();
    let totals = totals_json(&tr);
    // Timeout-expected rules: once, with their own recorders, so their
    // counters stay out of the typical-goal figures.
    let slow_out = run(
        &slow,
        &mut tr,
        &Recs::new(true),
        true,
        (passes * rules.len()) as u32,
    );
    let shape_out = run(
        &shapes,
        &mut tr,
        &Recs::new(true),
        true,
        (passes * rules.len() + slow.len()) as u32,
    );
    tr.write(spans_out);

    let mut wrong = 0usize;
    let mut rule_us = Obj::default();
    let mut per_rule_median = Vec::new();
    for (i, r) in regular.iter().enumerate() {
        let walls: Vec<f64> = samples.iter().map(|s| s[i].2).collect();
        per_rule_median.push(median(&walls));
        rule_us.num(&r.name, median(&walls));
        wrong += samples.iter().filter(|s| s[i].0.class != r.expect).count();
    }
    for ((o, _, w), r) in slow_out
        .iter()
        .chain(&shape_out)
        .zip(slow.iter().chain(&shapes))
    {
        wrong += (o.class != r.expect) as usize;
        rule_us.num(&r.name, *w);
    }

    let mut m = Obj::default();
    let prepares: Vec<f64> = samples.iter().flatten().map(|s| s.1).collect();
    m.num("sql.prepare_us", median(&prepares));
    let all: Vec<&GoalOut> = samples.iter().flatten().map(|s| &s.0).collect();
    layer_metrics(&mut m, &all, &recs);
    let first: Vec<&GoalOut> = samples[0].iter().map(|s| &s.0).collect();
    repeat_shares(&mut m, &first);

    // Per-rule sessions: the batch path `udp-verify --jobs N` takes.
    let (mut hits, mut resident, mut overhead, mut busy, mut capacity) =
        (0usize, Vec::new(), Vec::new(), 0.0, 0.0);
    let mut session_us = Obj::default();
    for (i, r) in regular.iter().enumerate() {
        let config = SessionConfig {
            dialect: r.dialect,
            wall: Some(timeout),
            ..SessionConfig::default()
        };
        let session = Session::new(&r.ddl, config).expect("rule DDL prepares");
        let parsed = match session.parse_goal(&r.goal) {
            Ok(g) => g,
            Err(_) => continue, // rejected by the parser: no batch to run
        };
        let t = Instant::now();
        let reports = session.verify_batch(&[parsed]);
        let w = t.elapsed().as_secs_f64() * 1e6;
        let work: f64 = reports.iter().map(|r| r.wall.as_secs_f64() * 1e6).sum();
        hits += reports.iter().filter(|r| r.cached).count();
        wrong += reports
            .iter()
            .filter(|rep| rep.verdict().map_or("error", |v| class_of(&v.decision)) != r.expect)
            .count();
        resident.push(session.cache_resident_bytes() as f64);
        overhead.push(w - work);
        busy += work;
        capacity += w;
        session_us.num(&r.name, w + us(samples[0][i].0.parse_ns));
    }
    m.num("cache.hit_ratio", hits as f64 / regular.len() as f64)
        .num(
            "cache.resident_bytes",
            resident.iter().sum::<f64>() / resident.len().max(1) as f64,
        )
        .num("scheduler.batch_overhead_us", median(&overhead))
        .num("scheduler.busy_share", busy / capacity)
        .num(
            "obs.trace_overhead",
            traced / passes as f64 / ((untraced1 + untraced2) / 2.0) - 1.0,
        );

    // Per-family table: median over every (rule, pass) sample, and the
    // slowest rule by its median across passes.
    let mut families: BTreeMap<&str, (Vec<f64>, f64, usize)> = BTreeMap::new();
    for (i, r) in regular.iter().enumerate() {
        let e = families.entry(r.family.as_str()).or_default();
        e.0.extend(samples.iter().map(|s| s[i].2));
        e.1 = e.1.max(per_rule_median[i]);
        e.2 += 1;
    }
    let mut fam = Obj::default();
    for (name, (walls, max, n)) in &families {
        m.num(&format!("family.{name}.p50_us"), median(walls))
            .num(&format!("family.{name}.max_us"), *max);
        let mut row = Obj::default();
        row.num("rules", *n as f64)
            .num("p50_us", median(walls))
            .num("p90_us", quantile(walls, 0.9))
            .num("max_us", *max);
        fam.raw(name, row.render());
    }
    // The timeout row's wall is the configured timeout, so it is printed
    // but is no metric; the c39-shape goals' decide time is.
    let mut row = Obj::default();
    row.num("rules", slow_out.len() as f64)
        .num("wall_us", slow_out.iter().map(|s| s.2).sum());
    fam.raw("timeout", row.render());
    let shape_decide: Vec<f64> = shape_out.iter().map(|s| us(s.0.decide_ns)).collect();
    let shape_steps: Vec<f64> = shape_out.iter().map(|s| s.0.steps as f64).collect();
    m.num("pathological.decide_us", median(&shape_decide));
    let mut row = Obj::default();
    row.num("rules", shape_out.len() as f64)
        .num("decide_us", median(&shape_decide))
        .num("steps", median(&shape_steps));
    fam.raw("pathological", row.render());

    let mut o = Obj::default();
    o.raw("metrics", m.render())
        .raw("families", fam.render())
        .raw("self_us", totals)
        .num(
            "goals",
            (regular.len() * passes + slow.len() + shapes.len()) as f64,
        )
        .num("wrong", wrong as f64)
        .raw("rule_us", rule_us.render())
        .raw("session_us", session_us.render());
    o.render()
}
