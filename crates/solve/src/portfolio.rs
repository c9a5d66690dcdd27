//! The portfolio executor: compose the symbolic and UDP backends under a
//! [`SolveMode`] and produce one pipeline-compatible [`udp_core::Verdict`].
//!
//! This module is also the workspace's *backend containment boundary*:
//! every `Backend::prove` call runs under `catch_unwind`, so a panicking
//! backend (a real defect or an injected chaos fault) degrades into a
//! [`BackendOutcome::Faulted`] answer instead of unwinding through the
//! worker pool. Cascade falls through a faulted attempt, race ignores it,
//! crosscheck treats it as non-disagreement; only when *no* backend
//! produces any verdict does the portfolio return a fault report
//! ([`SolveReport::fault`]) — which callers surface as an error and never
//! cache.

use crate::{
    normalize_pair, Backend, BackendOutcome, BackendVerdict, Goal, SolveConfig, SolveMode,
    SymBackend, UdpBackend,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use udp_core::constraints::ConstraintSet;
use udp_core::decide::{Decision, Stats};
use udp_core::expr::VarId;
use udp_core::schema::{Catalog, SchemaId};
use udp_core::spnf::Nf;
use udp_core::trace::Trace;
use udp_core::{QueryU, Verdict};
use udp_obs::fault::{FaultAction, PROBE_BACKEND_SYM, PROBE_BACKEND_UDP};
use udp_obs::{Counter, Stage};

/// One backend's attempt, kept for per-backend statistics (the heavy
/// [`udp_core::Verdict`] with its trace is dropped; the final verdict keeps
/// its own).
#[derive(Debug, Clone)]
pub struct BackendAttempt {
    /// Backend name (`"sym"` / `"udp"`).
    pub backend: &'static str,
    /// What it concluded.
    pub outcome: BackendOutcome,
    /// Wall-clock time of the attempt.
    pub wall: Duration,
    /// Search steps consumed.
    pub steps: u64,
    /// Human-readable reason string.
    pub reason: String,
}

impl From<&BackendVerdict> for BackendAttempt {
    fn from(v: &BackendVerdict) -> Self {
        BackendAttempt {
            backend: v.backend,
            outcome: v.outcome.clone(),
            wall: v.wall,
            steps: v.steps,
            reason: v.reason.clone(),
        }
    }
}

/// Outcome of a portfolio run.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The final verdict, decision-compatible with the plain UDP pipeline.
    pub verdict: Verdict,
    /// The backend whose answer became the final verdict (`"none"` when
    /// every backend faulted).
    pub settled_by: &'static str,
    /// Every backend attempt that completed before the portfolio settled
    /// (in race mode the losing backend may be absent).
    pub attempts: Vec<BackendAttempt>,
    /// Crosscheck only: a definite symbolic/UDP disagreement. This is a
    /// *hard error* — it means one of the engines is wrong — and callers
    /// must surface it as a failure, never as a verdict.
    pub disagreement: Option<String>,
    /// Set when no backend produced a verdict at all (every attempt
    /// faulted). The attached verdict is a synthesized `Timeout`
    /// placeholder; callers must report the goal as aborted and never cache
    /// it.
    pub fault: Option<String>,
}

/// Synthesize a pipeline verdict from a backend answer that carries no core
/// verdict of its own (the symbolic backend, or a fault placeholder).
fn synthesize(goal_sizes: (usize, usize), bv: &BackendVerdict) -> Verdict {
    let (decision, exhausted) = match &bv.outcome {
        BackendOutcome::Proved => (Decision::Proved, None),
        BackendOutcome::Disproved(r) => (Decision::NotProved(r.clone()), None),
        BackendOutcome::Unknown(crate::UnknownReason::Budget(kind)) => {
            (Decision::Timeout, Some(*kind))
        }
        BackendOutcome::Unknown(_) | BackendOutcome::Faulted(_) => (Decision::Timeout, None),
    };
    Verdict {
        decision,
        trace: Trace::disabled(),
        stats: Stats {
            size_before: goal_sizes,
            size_after: goal_sizes,
            steps_used: bv.steps,
            wall: bv.wall,
            exhausted,
        },
    }
}

/// Tally one completed backend attempt and convert it to its report entry.
/// This is the *single write site* for the per-backend exit-kind counters
/// (`sym-exit-definite` … `udp-unknown-wall-ns`) and for `backend-fault`:
/// every attempt in every [`SolveMode`] flows through here exactly once, on
/// the portfolio thread, so counter totals stay worker-count invariant.
/// Also drops the trace instants marking each backend's verdict, budget
/// exhaustion, and contained faults.
fn record_attempt(config: &SolveConfig, bv: &BackendVerdict) -> BackendAttempt {
    let definite = bv.outcome.is_definite();
    let (exits, wall_ns, verdict_mark) = match (bv.backend, definite) {
        ("sym", true) => (
            Counter::SymExitDefinite,
            Counter::SymDefiniteWallNs,
            "sym-definite",
        ),
        ("sym", false) => (
            Counter::SymExitUnknown,
            Counter::SymUnknownWallNs,
            "sym-unknown",
        ),
        (_, true) => (
            Counter::UdpExitDefinite,
            Counter::UdpDefiniteWallNs,
            "udp-definite",
        ),
        (_, false) => (
            Counter::UdpExitUnknown,
            Counter::UdpUnknownWallNs,
            "udp-unknown",
        ),
    };
    let recorder = &config.recorder;
    recorder.count(exits, 1);
    recorder.count(wall_ns, bv.wall.as_nanos() as u64);
    recorder.instant(verdict_mark);
    if matches!(
        bv.outcome,
        BackendOutcome::Unknown(crate::UnknownReason::Budget(_))
    ) {
        recorder.instant("budget-exhausted");
    }
    if bv.outcome.is_faulted() {
        recorder.count(Counter::BackendFault, 1);
        recorder.instant("backend-fault");
    }
    BackendAttempt::from(bv)
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one backend under a live trace span so per-attempt intervals show
/// up in `--trace-out` lanes (the stage table gets the same wall later via
/// the service's `GoalObs::add`, which deliberately does not re-emit trace).
/// Allocations made inside the attempt are tagged with the backend's stage
/// so memory sessions attribute them to `sym-prove` / `udp-prove` rather
/// than to whatever stage the caller happens to be in — crucial in race
/// mode, where attempts run on threads that never saw a `GoalObs` span.
///
/// This is the panic containment boundary: the prove call (and any chaos
/// injection aimed at it) runs under `catch_unwind`, so an unwinding
/// backend becomes a [`BackendOutcome::Faulted`] verdict instead of killing
/// the worker. `AssertUnwindSafe` is sound here because a panicking attempt
/// contributes nothing afterwards — its context, budget, and partial state
/// are all dropped with the unwound stack, and the shared recorder is
/// updated only through atomics.
fn run_traced(goal: &Goal, backend: &dyn Backend, span: &'static str) -> BackendVerdict {
    let (stage, probe, name) = if span == "sym-prove" {
        (Stage::SymProve, PROBE_BACKEND_SYM, "sym")
    } else {
        (Stage::UdpProve, PROBE_BACKEND_UDP, "udp")
    };
    let _tag = goal.config.recorder.alloc_scope(stage);
    let _t = goal.config.recorder.trace_span(span);
    let action = goal
        .config
        .faults
        .fire(&goal.config.recorder, probe, goal.config.fault_key);
    if let Some(FaultAction::Delay(d)) = action {
        std::thread::sleep(d);
    }
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match action {
        Some(FaultAction::Panic) => panic!(
            "chaos: injected panic at {probe} (goal {})",
            goal.config.fault_key
        ),
        Some(FaultAction::Exhaust) => {
            // Forced budget exhaustion: rerun the attempt with a
            // zero-step budget, so the backend reports a deterministic
            // `Unknown(Budget(Steps))` through its ordinary exit path.
            let mut config = goal.config.clone();
            config.steps = Some(0);
            let starved = Goal {
                catalog: goal.catalog,
                constraints: goal.constraints,
                out: goal.out,
                schema1: goal.schema1,
                schema2: goal.schema2,
                nf1: goal.nf1,
                nf2: goal.nf2,
                config,
            };
            backend.prove(&starved)
        }
        _ => backend.prove(goal),
    }));
    match result {
        Ok(bv) => bv,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            BackendVerdict {
                backend: name,
                outcome: BackendOutcome::Faulted(msg.clone()),
                wall: started.elapsed(),
                steps: 0,
                reason: format!("panic contained: {msg}"),
                verdict: None,
            }
        }
    }
}

/// Turn a backend verdict into the final report entry, preferring the
/// backend's own core verdict (with trace) when it has one.
fn finalize(goal: &Goal, bv: BackendVerdict, attempts: Vec<BackendAttempt>) -> SolveReport {
    let sizes = (goal.nf1.size(), goal.nf2.size());
    let verdict = bv.verdict.clone().unwrap_or_else(|| synthesize(sizes, &bv));
    SolveReport {
        verdict,
        settled_by: bv.backend,
        attempts,
        disagreement: None,
        fault: None,
    }
}

/// The degraded terminal report when no backend produced any verdict:
/// a synthesized `Timeout` placeholder that callers must surface as an
/// aborted goal and never cache.
fn fault_report(goal: &Goal, attempts: Vec<BackendAttempt>, reason: String) -> SolveReport {
    let sizes = (goal.nf1.size(), goal.nf2.size());
    SolveReport {
        verdict: Verdict {
            decision: Decision::Timeout,
            trace: Trace::disabled(),
            stats: Stats {
                size_before: sizes,
                size_after: sizes,
                ..Stats::default()
            },
        },
        settled_by: "none",
        attempts,
        disagreement: None,
        fault: Some(reason),
    }
}

/// The fault-report reason for a faulted backend verdict.
fn fault_reason(bv: &BackendVerdict) -> String {
    match &bv.outcome {
        BackendOutcome::Faulted(msg) => format!("{} backend faulted: {msg}", bv.backend),
        _ => format!("{} backend produced no verdict", bv.backend),
    }
}

/// Solve a normalized goal under the given portfolio mode.
pub fn solve_normalized(goal: &Goal, mode: SolveMode) -> SolveReport {
    match mode {
        SolveMode::Udp => solo(goal, &UdpBackend, "udp-prove"),
        SolveMode::Sym => solo(goal, &SymBackend, "sym-prove"),
        SolveMode::Cascade => {
            let sym = run_traced(goal, &SymBackend, "sym-prove");
            let mut attempts = vec![record_attempt(&goal.config, &sym)];
            if sym.outcome.is_definite() {
                return finalize(goal, sym, attempts);
            }
            // Unknown *or* faulted: degrade to the UDP fallback.
            let udp = run_traced(goal, &UdpBackend, "udp-prove");
            attempts.push(record_attempt(&goal.config, &udp));
            if udp.outcome.is_faulted() {
                let reason = fault_reason(&udp);
                return fault_report(goal, attempts, reason);
            }
            finalize(goal, udp, attempts)
        }
        SolveMode::Race => race(goal),
        SolveMode::Crosscheck => crosscheck(goal),
    }
}

/// A single-backend mode.
fn solo(goal: &Goal, backend: &dyn Backend, span: &'static str) -> SolveReport {
    let bv = run_traced(goal, backend, span);
    let attempts = vec![record_attempt(&goal.config, &bv)];
    if bv.outcome.is_faulted() {
        let reason = fault_reason(&bv);
        return fault_report(goal, attempts, reason);
    }
    finalize(goal, bv, attempts)
}

/// Lower-free convenience: normalize a lowered goal pair and run the
/// portfolio (the sequential `udp-verify` path).
pub fn solve_queries(
    catalog: &Catalog,
    constraints: &ConstraintSet,
    q1: &QueryU,
    q2: &QueryU,
    mode: SolveMode,
    config: SolveConfig,
) -> SolveReport {
    let (nf1, nf2) = normalize_pair(q1, q2);
    let goal = Goal {
        catalog,
        constraints,
        out: q1.out,
        schema1: q1.schema,
        schema2: q2.schema,
        nf1: &nf1,
        nf2: &nf2,
        config,
    };
    solve_normalized(&goal, mode)
}

/// An owned copy of a goal, shareable across the race threads.
struct OwnedGoal {
    catalog: Catalog,
    constraints: ConstraintSet,
    out: VarId,
    schema1: SchemaId,
    schema2: SchemaId,
    nf1: Nf,
    nf2: Nf,
    config: SolveConfig,
}

impl OwnedGoal {
    fn from_goal(g: &Goal) -> Self {
        OwnedGoal {
            catalog: g.catalog.clone(),
            constraints: g.constraints.clone(),
            out: g.out,
            schema1: g.schema1,
            schema2: g.schema2,
            nf1: g.nf1.clone(),
            nf2: g.nf2.clone(),
            config: g.config.clone(),
        }
    }

    fn as_goal(&self) -> Goal<'_> {
        Goal {
            catalog: &self.catalog,
            constraints: &self.constraints,
            out: self.out,
            schema1: self.schema1,
            schema2: self.schema2,
            nf1: &self.nf1,
            nf2: &self.nf2,
            config: self.config.clone(),
        }
    }
}

/// Between two non-definite verdicts, pick the better fallback: a
/// non-faulted one over a faulted one, then one carrying a core verdict
/// (UDP's `Timeout` with its stats) over a bare symbolic answer.
fn prefer_unknown(a: BackendVerdict, b: BackendVerdict) -> BackendVerdict {
    match (a.outcome.is_faulted(), b.outcome.is_faulted()) {
        (true, false) => b,
        (false, true) => a,
        _ => {
            if b.verdict.is_some() && a.verdict.is_none() {
                b
            } else {
                a
            }
        }
    }
}

/// Race mode: both backends start in parallel; the first *definite* verdict
/// wins, and the loser is cancelled cooperatively (its budget shares an
/// `AtomicBool` that flips on settlement, so the abandoned search exits
/// within one budget stride instead of running out its own limits). The
/// reported decision is deterministic even though the winner varies —
/// definite verdicts agree across backends (the crosscheck invariant); only
/// the timing-flavored `attempts`/`settled_by` metadata depends on
/// scheduling. A faulted attempt is simply ignored while the other backend
/// is still running; panics are contained inside [`run_traced`] on the race
/// threads, so every spawned backend always reports back.
fn race(goal: &Goal) -> SolveReport {
    let cancel = Arc::new(AtomicBool::new(false));
    let mut owned = OwnedGoal::from_goal(goal);
    owned.config.cancel.push(Arc::clone(&cancel));
    let owned = Arc::new(owned);
    let (tx, rx) = mpsc::channel::<BackendVerdict>();
    for which in ["sym", "udp"] {
        let owned = Arc::clone(&owned);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let g = owned.as_goal();
            let bv = if which == "sym" {
                run_traced(&g, &SymBackend, "sym-prove")
            } else {
                run_traced(&g, &UdpBackend, "udp-prove")
            };
            let _ = tx.send(bv);
        });
    }
    drop(tx);
    let mut attempts = Vec::new();
    let mut fallback: Option<BackendVerdict> = None;
    while let Ok(bv) = rx.recv() {
        attempts.push(record_attempt(&goal.config, &bv));
        if bv.outcome.is_definite() {
            cancel.store(true, Ordering::Relaxed);
            return finalize(goal, bv, attempts);
        }
        fallback = Some(match fallback.take() {
            None => bv,
            Some(prev) => prefer_unknown(prev, bv),
        });
    }
    match fallback {
        Some(bv) if !bv.outcome.is_faulted() => finalize(goal, bv, attempts),
        Some(bv) => {
            let reason = fault_reason(&bv);
            fault_report(goal, attempts, reason)
        }
        None => fault_report(goal, attempts, "no backend reported".to_string()),
    }
}

/// Crosscheck mode: run both backends to completion and compare. A definite
/// disagreement is reported in [`SolveReport::disagreement`]; the UDP
/// verdict is still attached so diagnostics can show both sides. A faulted
/// side is *not* a disagreement — it produced no answer to disagree with —
/// so the surviving backend's verdict stands alone (degraded
/// cross-validation, surfaced through the fault counters and stats, never
/// through a spurious hard error).
fn crosscheck(goal: &Goal) -> SolveReport {
    let sym = run_traced(goal, &SymBackend, "sym-prove");
    let udp = run_traced(goal, &UdpBackend, "udp-prove");
    let attempts = vec![
        record_attempt(&goal.config, &sym),
        record_attempt(&goal.config, &udp),
    ];
    // Faulted outcomes can't reach these arms (they are never definite).
    let disagreement = match (&sym.outcome, &udp.outcome) {
        (BackendOutcome::Proved, BackendOutcome::Disproved(r)) => Some(format!(
            "sym proved ({}) but udp found no proof ({r:?})",
            sym.reason
        )),
        (BackendOutcome::Disproved(_), BackendOutcome::Proved) => Some(format!(
            "sym disproved ({}) but udp proved ({})",
            sym.reason, udp.reason
        )),
        _ => None,
    };
    if sym.outcome.is_faulted() && udp.outcome.is_faulted() {
        let reason = format!("{}; {}", fault_reason(&sym), fault_reason(&udp));
        return fault_report(goal, attempts, reason);
    }
    // Prefer the UDP verdict (it carries the trace); fall back to the
    // symbolic answer when UDP faulted or ran out of budget while sym
    // reached a definite verdict.
    let mut report = if udp.outcome.is_faulted() {
        finalize(goal, sym, attempts)
    } else if sym.outcome.is_faulted() {
        finalize(goal, udp, attempts)
    } else if udp.outcome.is_definite() || !sym.outcome.is_definite() {
        finalize(goal, udp, attempts)
    } else {
        finalize(goal, sym, attempts)
    };
    report.disagreement = disagreement;
    report
}
