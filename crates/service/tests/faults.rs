//! Fault isolation and graceful degradation through a full service session:
//!
//! * a backend that panics on every call degrades the portfolio but never
//!   the process, and the batch output is byte-identical across worker
//!   counts (the chaos schedule is a pure function of the goal index);
//! * goals whose every backend faulted — and goals whose budget was
//!   injected to exhaustion — are provably never inserted into the verdict
//!   cache;
//! * worker-level panics (the `goal` probe) are supervised: the batch
//!   completes, the poisoned goal reports an abort, its slot stays
//!   order-preserved;
//! * a deterministic step-cap timeout on a goal that still exhausts the
//!   matching search maps to `AbortReason::BudgetExhausted` — distinct from
//!   `Panicked` — and is never cached.

use std::time::Duration;
use udp_obs::fault::{PROBE_BACKEND_SYM, PROBE_GOAL};
use udp_obs::{Counter, FaultPlan, Recorder};
use udp_service::{AbortReason, Session, SessionConfig, SolveMode};

const DDL: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                   table r(rs);\ntable s(ss);\nkey r(k);\n";

const GOAL_LINES: [&str; 6] = [
    "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1",
    "SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = 3 \
     == SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = 3) u, s w \
        WHERE u.k = w.k2",
    "SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) \
     == SELECT DISTINCT x.a AS a FROM r x, s y WHERE y.k2 = x.k",
    "SELECT x.k AS k, SUM(x.a) AS t FROM r x GROUP BY x.k \
     == SELECT q.k AS k, SUM(q.a) AS t FROM r q GROUP BY q.k",
    "SELECT x.a AS a FROM r x WHERE x.a = 2 == SELECT y.a AS a FROM r y WHERE y.a = 7",
    "SELECT x.a AS a FROM r x WHERE x.b = 5 == SELECT y.a AS a FROM r y WHERE y.b = 5",
];

/// A plan that fires exactly one kind of fault, everywhere its probe
/// filter allows, and nothing else.
fn plan(panic_rate: f64, exhaust_rate: f64, goal_rate: f64, probe: Option<&str>) -> FaultPlan {
    FaultPlan {
        seed: 7,
        panic_rate,
        exhaust_rate,
        delay_rate: 0.0,
        delay_us: 0,
        goal_rate,
        probe: probe.map(str::to_string),
        uncontained: false,
    }
}

fn chaos_session(workers: usize, plan: FaultPlan) -> (Recorder, Session, Vec<String>) {
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        workers,
        cache_capacity: 64,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(30)),
        mode: SolveMode::Cascade,
        recorder: recorder.clone(),
        chaos: Some(plan),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    let reports = session.verify_batch(&goals);
    assert_eq!(reports.len(), GOAL_LINES.len(), "order-preserving batch");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.index, i, "report slots must stay in batch order");
    }
    let rendered = reports.iter().map(|r| r.render_verdict()).collect();
    (recorder, session, rendered)
}

/// Every `sym` call panics: cascade degrades each goal to the UDP backend,
/// all verdicts stay definite, the output is identical across worker
/// counts, and the faults show up in the stats render.
#[test]
fn sym_panics_degrade_but_never_flip_and_are_worker_invariant() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(1.0, 0.0, 0.0, Some(PROBE_BACKEND_SYM))))
        .collect();
    let (recorder, session, base) = &runs[0];
    for line in base {
        assert!(
            !line.starts_with("error:"),
            "degraded goal must still decide: {line}"
        );
    }
    for (_, _, rendered) in &runs[1..] {
        assert_eq!(rendered, base, "verdicts must not depend on worker count");
    }
    // The clean goals were all decided by udp and cached as usual.
    assert_eq!(session.cache_len(), GOAL_LINES.len());
    // The operator can see the contained sym faults.
    let stats = session.stats();
    assert!(
        stats
            .render()
            .contains(&format!("| {} faults", GOAL_LINES.len())),
        "{}",
        stats.render()
    );
    let snap = recorder.snapshot();
    assert!(snap.counter(Counter::BackendFault) > 0);
    assert!(snap.counter(Counter::FaultsInjected) >= snap.counter(Counter::BackendFault));
    assert_eq!(
        snap.counter(Counter::GoalAborted),
        0,
        "degraded-but-decided goals are not aborts"
    );
}

/// Every backend call panics: each goal aborts (`Panicked`), nothing is
/// ever inserted into the verdict cache, and the batch output is still
/// byte-identical across worker counts.
#[test]
fn fully_faulted_goals_abort_and_are_never_cached() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(1.0, 0.0, 0.0, None)))
        .collect();
    let (recorder, session, base) = &runs[0];
    let reports = {
        let goals: Vec<_> = GOAL_LINES
            .iter()
            .map(|l| session.parse_goal(l).unwrap())
            .collect();
        session.verify_batch(&goals)
    };
    for r in &reports {
        assert_eq!(r.aborted, Some(AbortReason::Panicked), "goal {}", r.index);
        assert!(
            r.outcome.is_err(),
            "an aborted goal never carries a verdict"
        );
        assert!(!r.cached);
    }
    for line in base {
        assert!(line.starts_with("error:"), "{line}");
    }
    for (_, run_session, rendered) in &runs {
        assert_eq!(rendered, base, "aborts must not depend on worker count");
        assert_eq!(
            run_session.cache_len(),
            0,
            "a faulted goal must never reach the verdict cache"
        );
    }
    let snap = recorder.snapshot();
    assert!(snap.counter(Counter::GoalAborted) >= GOAL_LINES.len() as u64);
}

/// Injected budget exhaustion at every backend probe: goals degrade to
/// deterministic `Timeout` verdicts tagged `BudgetExhausted` (not
/// `Panicked` — no abort counter traffic), and exhausted goals are never
/// cached.
#[test]
fn injected_exhaustion_times_out_and_is_never_cached() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(0.0, 1.0, 0.0, None)))
        .collect();
    let (recorder, session, base) = &runs[0];
    for line in base {
        assert_eq!(line, "Timeout");
    }
    for (_, run_session, rendered) in &runs {
        assert_eq!(rendered, base);
        assert_eq!(
            run_session.cache_len(),
            0,
            "an exhausted goal must never reach the verdict cache"
        );
    }
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    for r in session.verify_batch(&goals) {
        assert_eq!(r.aborted, Some(AbortReason::BudgetExhausted));
        assert!(matches!(&r.outcome, Ok(v) if !v.decision.is_definite()));
    }
    let snap = recorder.snapshot();
    assert_eq!(
        snap.counter(Counter::GoalAborted),
        0,
        "budget exhaustion is degradation, not a panic-abort"
    );
    assert_eq!(snap.counter(Counter::BackendFault), 0);
}

/// Every goal panics at the worker-level `goal` probe (outside backend
/// containment): the supervisor contains each unwind, the batch completes
/// in order with per-goal aborts, and nothing is cached.
#[test]
fn worker_panics_are_supervised_and_worker_invariant() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(0.0, 0.0, 1.0, Some(PROBE_GOAL))))
        .collect();
    let (recorder, session, base) = &runs[0];
    for line in base {
        assert!(
            line.starts_with("error: goal panicked: chaos:"),
            "supervised worker panic must surface as a per-goal error: {line}"
        );
    }
    for (_, run_session, rendered) in &runs {
        assert_eq!(rendered, base);
        assert_eq!(run_session.cache_len(), 0);
    }
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    for r in session.verify_batch(&goals) {
        assert_eq!(r.aborted, Some(AbortReason::Panicked));
    }
    assert!(recorder.snapshot().counter(Counter::GoalAborted) >= GOAL_LINES.len() as u64);
}

/// The step-cap regression: a steps-only budget trips
/// deterministically, the verdict maps to `BudgetExhausted` (never
/// `Panicked`), and the timeout is not cached — two identical runs both
/// re-execute and agree.
#[test]
fn step_cap_timeout_is_budget_exhausted_deterministic_and_uncached() {
    const JOIN_DDL: &str = "schema emp_s(empno:int, deptno:int, sal:int);\ntable emp(emp_s);\n";
    // The same 9-way cyclic self-join on both sides, with one extra `<>` on
    // the left only: every pairing passes the forward predicate checks and
    // fails only the leaf's backward check, so the search visits them all
    // (773,578 steps without a cap). c39, whose cycles run over different
    // columns, is decided in 146 steps and cannot serve here.
    const GOAL: &str = "SELECT a1.sal AS v FROM emp a1, emp a2, emp a3, emp a4, emp a5, \
         emp a6, emp a7, emp a8, emp a9 \
         WHERE a1.deptno = a2.deptno AND a2.deptno = a3.deptno AND a3.deptno = a4.deptno \
         AND a4.deptno = a5.deptno AND a5.deptno = a6.deptno AND a6.deptno = a7.deptno \
         AND a7.deptno = a8.deptno AND a8.deptno = a9.deptno AND a9.deptno = a1.deptno \
         AND a1.sal <> a2.sal \
         == SELECT b1.sal AS v FROM emp b1, emp b2, emp b3, emp b4, emp b5, \
         emp b6, emp b7, emp b8, emp b9 \
         WHERE b1.deptno = b2.deptno AND b2.deptno = b3.deptno AND b3.deptno = b4.deptno \
         AND b4.deptno = b5.deptno AND b5.deptno = b6.deptno AND b6.deptno = b7.deptno \
         AND b7.deptno = b8.deptno AND b8.deptno = b9.deptno AND b9.deptno = b1.deptno";
    let config = SessionConfig {
        workers: 1,
        cache_capacity: 64,
        steps: Some(20_000),
        wall: None, // steps-only: deterministic
        mode: SolveMode::Udp,
        ..SessionConfig::default()
    };
    let session = Session::new(JOIN_DDL, config).unwrap();
    let goal = session.parse_goal(GOAL).unwrap();
    let first = session.verify_batch(std::slice::from_ref(&goal));
    let second = session.verify_batch(std::slice::from_ref(&goal));
    for r in first.iter().chain(second.iter()) {
        assert_eq!(r.aborted, Some(AbortReason::BudgetExhausted));
        assert!(!r.cached, "a timeout must never be served from the cache");
        match &r.outcome {
            Ok(v) => assert!(!v.decision.is_definite(), "{:?}", v.decision),
            Err(e) => panic!("timeout is a verdict, not an error: {e}"),
        }
    }
    assert_eq!(
        first[0].render_verdict(),
        second[0].render_verdict(),
        "a steps-only timeout must be deterministic"
    );
    assert_eq!(session.cache_len(), 0);
}
