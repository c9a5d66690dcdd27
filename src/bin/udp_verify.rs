//! `udp-verify` — command-line front end for the prover.
//!
//! ```text
//! udp-verify FILE.sql [--trace] [--check-trace] [--counterexample]
//!                     [--spnf] [--extended] [--full] [--timeout SECS] [--jobs N]
//!                     [--cache-bytes N] [--backend udp|sym|cascade|race|crosscheck]
//!                     [--stats] [--metrics-json PATH] [--trace-goals N]
//!                     [--trace-out PATH] [--chaos [SPEC]]
//! ```
//!
//! Reads an input program (schema/table/key/foreign key/view/index
//! declarations plus `verify q1 == q2;` goals), runs the configured proving
//! backend on each goal, and reports the verdict. `--trace` prints the
//! recorded proof script, `--check-trace` replays it through the independent
//! checker, `--counterexample` hunts for a refuting database when no proof
//! is found, `--spnf` prints each goal's lowered U-expressions in
//! sum-product normal form, `--extended` enables the Sec 6.4 dialect
//! extensions (set-semantics UNION, INTERSECT, VALUES, CASE, NATURAL JOIN),
//! `--full` additionally enables the udp-ext fragment extensions (NULL
//! semantics, outer joins, ORDER BY stripping — stripped clauses surface as
//! warnings on stderr), and `--jobs N` verifies the goals on an `N`-worker
//! `udp-service` session with fingerprint caching (diagnostic modes —
//! `--spnf`, `--check-trace`, `--counterexample` — stay sequential so they
//! can share one frontend).
//!
//! `--backend` selects the `udp-solve` portfolio mode: the UDP pipeline
//! alone (default), the symbolic SPJ/UCQ backend alone, or the two composed
//! as `cascade` (symbolic first, UDP on Unknown), `race` (parallel, first
//! definite verdict wins), or `crosscheck` (both always; any definite
//! disagreement is a hard error). `--stats` prints a per-backend summary
//! (calls, definite verdicts, Unknown fall-throughs, p50/p99) to stderr at
//! exit.
//!
//! Observability: `--metrics-json PATH` enables the `udp-obs` stage
//! recorder and writes the machine-readable snapshot (schema version 3 —
//! per-stage totals, shares, p50/p99, intra-prover counters, per-backend
//! breakdowns with exit-kind wall splits, and a memory section with
//! per-stage allocation attribution from the binary's tracking allocator)
//! to `PATH` on exit;
//! `--trace-goals N` prints the N slowest goals with their stage waterfalls
//! to stderr; `--trace-out PATH` additionally buffers per-thread event
//! traces and writes them as Chrome Trace Event JSON (loadable in
//! Perfetto / `chrome://tracing`, one lane per worker thread) at exit. Any
//! of these flags turns recording on; with none of them, the
//! instrumentation stays in its free disabled mode.
//!
//! Chaos testing: `--chaos [seed=N,rate=P,...]` arms the deterministic
//! fault injector (seeded panics, forced budget exhaustion, artificial
//! delays at named probes — see `udp_obs::FaultPlan`) and forces the
//! supervised service path so contained faults degrade goals instead of
//! killing the process; pair with `--stats` to see fault counts.
//!
//! The frontend (parse + catalog) is built once and reused by every mode;
//! each goal is lowered exactly once on the sequential path, feeding both
//! the `--spnf` printer and the decision procedure.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use udp_core::budget::Budget;
use udp_core::DecideConfig;
use udp_obs::{Counter, Recorder, Stage, TrackingAlloc};
use udp_service::ServiceStats;
use udp_solve::SolveMode;

/// Route every heap allocation through the `udp-obs` tracking wrapper so
/// `--metrics-json` runs can attribute bytes to pipeline stages; without an
/// active memory session each call costs one relaxed load.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut trace = false;
    let mut check_trace = false;
    let mut counterexample = false;
    let mut spnf = false;
    let mut dialect = udp_sql::Dialect::Paper;
    let mut timeout = 30u64;
    let mut jobs = 1usize;
    let mut mode = SolveMode::Udp;
    let mut cache_bytes: Option<usize> = None;
    let mut show_stats = false;
    let mut metrics_json: Option<String> = None;
    let mut trace_goals = 0usize;
    let mut trace_out: Option<String> = None;
    let mut chaos: Option<udp_obs::FaultPlan> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--check-trace" => {
                trace = true;
                check_trace = true;
            }
            "--counterexample" => counterexample = true,
            "--extended" => dialect = udp_sql::Dialect::Extended,
            "--full" => dialect = udp_sql::Dialect::Full,
            "--spnf" => spnf = true,
            "--stats" => show_stats = true,
            "--backend" => {
                mode = it
                    .next()
                    .and_then(|s| SolveMode::parse(s))
                    .unwrap_or_else(|| usage("missing or unknown value for --backend"));
            }
            "--timeout" => {
                timeout = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --timeout"));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --jobs"));
            }
            "--cache-bytes" => {
                cache_bytes = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("missing value for --cache-bytes")),
                );
            }
            "--metrics-json" => {
                metrics_json = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("missing value for --metrics-json")),
                );
            }
            "--trace-goals" => {
                trace_goals = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --trace-goals"));
            }
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("missing value for --trace-out")),
                );
            }
            "--chaos" => {
                // Optional spec: `--chaos` alone runs the default campaign;
                // `--chaos seed=N,rate=P,...` overrides it.
                let spec = match it.peek() {
                    Some(s) if !s.starts_with('-') && s.contains('=') => {
                        it.next().map(|s| s.as_str()).unwrap_or("")
                    }
                    _ => "",
                };
                chaos = Some(
                    udp_obs::FaultPlan::parse(spec)
                        .unwrap_or_else(|e| usage(&format!("bad --chaos spec: {e}"))),
                );
            }
            "--help" | "-h" => {
                usage("");
            }
            other if other.starts_with('-') => usage(&format!("unknown flag `{other}`")),
            other if file.is_none() => file = Some(other.to_string()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(file) = file else {
        usage("missing input file")
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Any observability flag enables the recorder; otherwise every
    // instrumentation point in the pipeline stays a no-op.
    let recorder = if trace_out.is_some() {
        Recorder::with_trace(
            trace_goals.max(udp_obs::DEFAULT_SLOW_CAPACITY),
            udp_obs::DEFAULT_TRACE_CAPACITY,
        )
    } else if metrics_json.is_some() || trace_goals > 0 {
        Recorder::with_slow_capacity(trace_goals.max(udp_obs::DEFAULT_SLOW_CAPACITY))
    } else {
        Recorder::disabled()
    };
    if metrics_json.is_some() {
        recorder.track_memory();
    }

    // Trace replay validates an actual UDP proof script; goals settled by
    // the symbolic backend carry no trace, so the check would be vacuous
    // (and race-mode output nondeterministic). Force the UDP path.
    if check_trace && mode != SolveMode::Udp {
        eprintln!("note: --check-trace replays UDP proof traces; ignoring --backend {mode}");
        mode = SolveMode::Udp;
    }
    let sequential_only = spnf || check_trace || counterexample;
    // `--chaos` needs the supervised service path (worker containment)
    // even at one worker, so it forces the session route.
    if (jobs > 1 || chaos.is_some()) && !sequential_only {
        return run_parallel(
            &text,
            dialect,
            jobs,
            timeout,
            trace,
            mode,
            cache_bytes,
            show_stats,
            recorder,
            metrics_json.as_deref(),
            trace_goals,
            trace_out.as_deref(),
            chaos,
        );
    }
    if jobs > 1 {
        eprintln!("note: --spnf/--check-trace/--counterexample run sequentially; ignoring --jobs");
    }
    if chaos.is_some() {
        eprintln!("note: --spnf/--check-trace/--counterexample run unsupervised; ignoring --chaos");
    }
    if cache_bytes.is_some() {
        eprintln!("note: the sequential path has no verdict cache; ignoring --cache-bytes");
    }

    // Sequential path: one frontend build, one lowering per goal, shared by
    // the SPNF printer and the decision procedure. The full dialect routes
    // through udp-ext (outer-join elimination + NULL encoding) and may
    // carry parser warnings (stripped ORDER BY clauses).
    let prepared = recorder.time(Stage::Parse, || {
        if dialect == udp_sql::Dialect::Full {
            udp_ext::prepare_program(&text).map(|(fe, warnings)| {
                for w in &warnings {
                    eprintln!("{w}");
                }
                fe
            })
        } else {
            udp_sql::prepare_program_in(&text, dialect).map_err(udp_ext::FullError::Sql)
        }
    });
    let mut fe = match prepared {
        Ok(fe) => fe,
        Err(e) => {
            if let Some(f) = e.unsupported_feature() {
                println!("unsupported: {f}");
                return ExitCode::from(3);
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    fe.recorder = recorder.clone();
    let goals = fe.goals.clone();
    let config = DecideConfig {
        budget: Some(Budget::new(
            Some(20_000_000),
            Some(Duration::from_secs(timeout)),
        )),
        record_trace: trace,
        recorder: recorder.clone(),
        ..Default::default()
    };
    let solve_config = udp_solve::SolveConfig {
        steps: Some(20_000_000),
        wall: Some(Duration::from_secs(timeout)),
        record_trace: trace,
        recorder: recorder.clone(),
        ..Default::default()
    };

    // The sequential path aggregates into the same `ServiceStats` shape the
    // service session uses, so `--stats` and the metrics snapshot report
    // identically from either path.
    let batch_start = Instant::now();
    let mut results = Vec::with_capacity(goals.len());
    let mut stats = ServiceStats::default();
    for (i, goal) in goals.iter().enumerate() {
        let goal_start = Instant::now();
        let mut obs = recorder.goal();
        // Lowering records its global stage totals inside `udp-sql`;
        // `time_local` adds it to this goal's waterfall only.
        let lowered = obs.time_local(Stage::Lower, || udp_sql::lower_goal(&mut fe, goal));
        let (q1, q2) = match lowered {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error lowering goal {}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        // Deterministic size counter for the lowered pair; the service path
        // counts the same quantity in `process_goal` (the two paths are
        // mutually exclusive in one run, so the single-writer rule holds).
        if recorder.is_enabled() {
            recorder.count(
                Counter::TermBytes,
                (q1.body.deep_size() + q2.body.deep_size()) as u64,
            );
        }
        if spnf {
            for (side, q) in [("lhs", &q1), ("rhs", &q2)] {
                let nf = udp_core::spnf::normalize(&q.body);
                println!("goal {} {side}: λ{}. {nf}", i + 1, q.out);
            }
        }
        // The historical UDP mode keeps the direct `decide_with` path (its
        // stats report pre-SPNF sizes); portfolio modes route through
        // udp-solve over the same lowered pair. The goal's wall ends when
        // its verdict exists: the `--stats` and metrics bookkeeping after it
        // is reporting, not deciding.
        let mut steps = 0u64;
        let (verdict, wall) = if mode == SolveMode::Udp {
            let v = {
                let _t = recorder.trace_span("udp-prove");
                udp_core::decide_with(&fe.catalog, &fe.constraints, &q1, &q2, config.clone())
            };
            let wall = goal_start.elapsed();
            let definite = !matches!(v.decision, udp_core::Decision::Timeout);
            stats.record_backend(
                "udp",
                definite,
                v.decision.is_proved(),
                v.stats.wall,
                true,
                false,
            );
            // Exit-kind counters: this direct `decide_with` path bypasses the
            // udp-solve portfolio (whose `record_attempt` is the primary
            // write site); the two paths are mutually exclusive within one
            // run, so the single-writer rule holds.
            let (exits, wall_ns) = if definite {
                (Counter::UdpExitDefinite, Counter::UdpDefiniteWallNs)
            } else {
                (Counter::UdpExitUnknown, Counter::UdpUnknownWallNs)
            };
            recorder.count(exits, 1);
            recorder.count(wall_ns, v.stats.wall.as_nanos() as u64);
            obs.add(Stage::UdpProve, v.stats.wall, v.stats.steps_used);
            steps = v.stats.steps_used;
            (v, wall)
        } else {
            // Normalize explicitly (rather than inside `solve_queries`) so
            // the SPNF/canonize cost lands in the `canonize` stage exactly
            // as it does on the service path.
            let (nf1, nf2) = obs.time(Stage::Canonize, || udp_solve::normalize_pair(&q1, &q2));
            // SPNF size counter lands here, where the normal forms exist
            // explicitly; the direct UDP branch normalizes inside
            // `decide_with` and deliberately reports term-bytes only.
            if recorder.is_enabled() {
                recorder.count(
                    Counter::SpnfBytes,
                    (nf1.deep_size() + nf2.deep_size()) as u64,
                );
            }
            let goal = udp_solve::Goal {
                catalog: &fe.catalog,
                constraints: &fe.constraints,
                out: q1.out,
                schema1: q1.schema,
                schema2: q2.schema,
                nf1: &nf1,
                nf2: &nf2,
                config: solve_config.clone(),
            };
            let report = udp_solve::solve_normalized(&goal, mode);
            let wall = goal_start.elapsed();
            if let Some(d) = report.disagreement {
                eprintln!("goal {}: backend disagreement: {d}", i + 1);
                return ExitCode::FAILURE;
            }
            if let Some(reason) = &report.fault {
                eprintln!("goal {} aborted: {reason}", i + 1);
            }
            for a in &report.attempts {
                stats.record_backend(
                    a.backend,
                    a.outcome.is_definite(),
                    matches!(a.outcome, udp_solve::BackendOutcome::Proved),
                    a.wall,
                    a.backend == report.settled_by,
                    a.outcome.is_faulted(),
                );
                let stage = if a.backend == "sym" {
                    Stage::SymProve
                } else {
                    Stage::UdpProve
                };
                obs.add(stage, a.wall, a.steps);
                steps += a.steps;
            }
            (report.verdict, wall)
        };
        stats.record(wall, false, verdict.decision.is_proved(), false);
        obs.finish(|| format!("goal {}", i + 1), wall, steps);
        results.push(verdict);
    }
    stats.batch_wall = batch_start.elapsed();

    let mut all_proved = true;
    for (i, v) in results.iter().enumerate() {
        print_verdict(i, v);
        if trace && v.decision.is_proved() {
            println!("{}", v.trace.render());
        }
        if !v.decision.is_proved() {
            all_proved = false;
        }
    }
    if show_stats {
        eprintln!("{}", stats.render());
    }

    if check_trace && all_proved {
        for v in &results {
            let report = udp_core::proof::check_trace(&fe.catalog, &fe.constraints, &v.trace, 8);
            if report.ok() {
                println!(
                    "trace check: {} steps revalidated over {} random models each",
                    report.steps_checked, report.models_per_step
                );
            } else {
                for f in &report.failures {
                    eprintln!("trace check FAILURE: {f}");
                }
                return ExitCode::FAILURE;
            }
        }
    }

    if counterexample && !all_proved {
        // The search records `Stage::Counterexample` inside udp-eval itself
        // (single-writer rule) — no wrapper timing here.
        match udp_eval::check_program_in_with(&text, dialect, 500, &recorder) {
            Ok(udp_eval::SearchResult::Refuted(ce)) => {
                println!("{}", ce.render(&fe));
            }
            Ok(udp_eval::SearchResult::NoCounterexample { trials }) => {
                println!("no counterexample in {trials} random databases (inconclusive)");
            }
            Ok(udp_eval::SearchResult::Inconclusive(e)) => {
                println!("model checker inconclusive: {e}");
            }
            Err(e) => eprintln!("model checker error: {e}"),
        }
    }

    if let Err(e) = emit_observability(
        &recorder,
        &stats,
        metrics_json.as_deref(),
        trace_goals,
        trace_out.as_deref(),
    ) {
        eprintln!("error writing metrics: {e}");
        return ExitCode::FAILURE;
    }

    if all_proved {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Write the `--metrics-json` snapshot, print the `--trace-goals`
/// waterfalls, and/or write the `--trace-out` Chrome trace; no-ops when the
/// recorder is disabled.
fn emit_observability(
    recorder: &Recorder,
    stats: &ServiceStats,
    metrics_json: Option<&str>,
    trace_goals: usize,
    trace_out: Option<&str>,
) -> std::io::Result<()> {
    if !recorder.is_enabled() {
        return Ok(());
    }
    let snapshot = recorder.snapshot();
    if trace_goals > 0 {
        eprint!("{}", snapshot.render_slow_goals(trace_goals));
    }
    if let Some(path) = metrics_json {
        std::fs::write(path, snapshot.to_json(&stats.backend_summaries()))?;
    }
    if let Some(path) = trace_out {
        if let Some(trace) = recorder.chrome_trace() {
            std::fs::write(path, trace)?;
        }
    }
    Ok(())
}

/// Batch mode: verify the program's goals on an N-worker service session
/// with fingerprint caching. Output format matches the sequential path.
#[allow(clippy::too_many_arguments)]
fn run_parallel(
    text: &str,
    dialect: udp_sql::Dialect,
    jobs: usize,
    timeout: u64,
    trace: bool,
    mode: SolveMode,
    cache_bytes: Option<usize>,
    show_stats: bool,
    recorder: Recorder,
    metrics_json: Option<&str>,
    trace_goals: usize,
    trace_out: Option<&str>,
    chaos: Option<udp_obs::FaultPlan>,
) -> ExitCode {
    let config = udp_service::SessionConfig {
        workers: jobs,
        steps: Some(20_000_000),
        wall: Some(Duration::from_secs(timeout)),
        dialect,
        record_trace: trace,
        mode,
        cache_bytes,
        recorder: recorder.clone(),
        chaos,
        ..Default::default()
    };
    let session = match udp_service::Session::new(text, config) {
        Ok(s) => s,
        Err(e) => {
            if let Some(f) = e.unsupported_feature() {
                println!("unsupported: {f}");
                return ExitCode::from(3);
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reports = session.verify_program_goals();
    let mut all_proved = true;
    let mut any_error = false;
    for r in &reports {
        match &r.outcome {
            Ok(v) => {
                print_verdict(r.index, v);
                if trace && v.decision.is_proved() {
                    println!("{}", v.trace.render());
                }
                if !v.decision.is_proved() {
                    all_proved = false;
                }
            }
            // A goal-level failure (front-end error, contained panic,
            // crosscheck disagreement) degrades that goal only — the
            // remaining goals still report.
            Err(e) => {
                eprintln!("error on goal {}: {e}", r.index + 1);
                all_proved = false;
                any_error = true;
            }
        }
    }
    if show_stats {
        eprintln!("{}", session.stats().render());
    }
    if let Err(e) = emit_observability(
        &recorder,
        &session.stats(),
        metrics_json,
        trace_goals,
        trace_out,
    ) {
        eprintln!("error writing metrics: {e}");
        return ExitCode::FAILURE;
    }
    if any_error {
        ExitCode::FAILURE
    } else if all_proved {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn print_verdict(i: usize, v: &udp_core::Verdict) {
    println!(
        "goal {}: {:?}  ({:.2} ms, {} steps, SPNF sizes {:?} → {:?})",
        i + 1,
        v.decision,
        v.stats.wall.as_secs_f64() * 1e3,
        v.stats.steps_used,
        v.stats.size_before,
        v.stats.size_after,
    );
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: udp-verify FILE.sql [--trace] [--check-trace] [--counterexample] \
         [--spnf] [--extended] [--full] [--timeout SECS] [--jobs N] [--cache-bytes N] \
         [--backend udp|sym|cascade|race|crosscheck] [--stats] \
         [--metrics-json PATH] [--trace-goals N] [--trace-out PATH] \
         [--chaos [seed=N,rate=P,exhaust=P,delay=P,goal-rate=P,probe=NAME]]"
    );
    std::process::exit(64);
}
