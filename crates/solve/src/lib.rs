//! # udp-solve
//!
//! A multi-backend proving subsystem. Every verdict in the workspace used to
//! flow through the single UDP pipeline (SPNF → canonize → term matching);
//! this crate abstracts "something that can settle a goal" behind a
//! [`Backend`] trait and runs a *portfolio* of backends with different
//! fragments and cost profiles behind one verdict interface:
//!
//! * [`UdpBackend`] — the paper's decision procedure
//!   ([`udp_core::decide::decide_normalized_with`]), sound on the whole
//!   supported fragment, never `Unknown` short of budget exhaustion;
//! * [`SymBackend`] — a symbolic decision procedure for the SPJ/UCQ
//!   bag-semantics fragment (in the style of SPES): both sides are reduced
//!   to a canonical symbolic form — one summand per conjunctive query, each
//!   carrying its atom multiset and congruence-closed predicate signature —
//!   and equivalence is decided by a bijection search between summands with
//!   signature-bucketed pruning. Sound and complete for bag-semantics
//!   conjunctive queries without integrity constraints; outside the fragment
//!   it answers [`BackendOutcome::Unknown`] instead of guessing;
//! * a [portfolio executor](solve_normalized) with three composition modes —
//!   [`SolveMode::Cascade`] (cheap symbolic first, fall through to UDP on
//!   Unknown), [`SolveMode::Race`] (both in parallel, first definite verdict
//!   wins; output is deterministic because definite verdicts agree), and
//!   [`SolveMode::Crosscheck`] (always run both, flag any disagreement as a
//!   hard error).
//!
//! ## Verdict compatibility
//!
//! The portfolio's final answer is an ordinary [`udp_core::Verdict`], and by
//! construction every mode agrees with plain UDP on *definite* decisions
//! (`Proved` / `NotProved`): the symbolic backend reuses the exact same
//! `canonize` and congruence/isomorphism hooks of `udp-core`, so a symbolic
//! `Proved`/`Disproved` coincides with what UDP would compute on the same
//! canonized forms. This is what keeps the service's fingerprint cache
//! *mode-agnostic* — a verdict cached under one mode can be served under any
//! other (see the regression tests in `udp-service`). `Timeout` verdicts are
//! budget artifacts and are neither cached nor required to agree.

#![warn(missing_docs)]

pub mod portfolio;
pub mod sym;
pub mod udp;

pub use portfolio::{solve_normalized, solve_queries, BackendAttempt, SolveReport};
pub use sym::SymBackend;
pub use udp::UdpBackend;

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;
use udp_core::budget::{Budget, Exhausted};
use udp_core::constraints::ConstraintSet;
use udp_core::ctx::Options;
use udp_core::decide::NotProvedReason;
use udp_core::expr::{Expr, VarGen, VarId};
use udp_core::schema::{Catalog, SchemaId};
use udp_core::spnf::{normalize_with, Nf};
use udp_core::QueryU;

/// Per-goal resource and feature configuration shared by every backend of a
/// portfolio run. Each backend gets a *fresh* budget built from these limits
/// (a cascade's UDP fallback is not penalized for the symbolic attempt).
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Step budget per backend (`None` = unlimited on that axis).
    pub steps: Option<u64>,
    /// Wall-clock budget per backend (`None` = unlimited on that axis).
    pub wall: Option<Duration>,
    /// Prover feature switches (shared so backends stay verdict-compatible).
    pub options: Options,
    /// Record a proof trace where the backend supports it (UDP only; the
    /// symbolic backend's certificate is the summand bijection itself,
    /// reported in [`BackendVerdict::reason`]).
    pub record_trace: bool,
    /// Cooperative cancellation hooks: when any of the shared flags flips,
    /// the backend's budget reports exhaustion at the next strided check.
    /// The race executor *appends* its own flag here to stop the losing
    /// backend as soon as a definite verdict arrives — caller-supplied
    /// flags keep working alongside it.
    pub cancel: Vec<Arc<AtomicBool>>,
    /// Stage-metrics sink passed down to backends (nested canonize-core /
    /// congruence spans). The default disabled handle is free.
    pub recorder: udp_obs::Recorder,
    /// Deterministic chaos injection at the backend probe points; the
    /// default disabled injector is one `Option` check per attempt.
    pub faults: udp_obs::FaultInjector,
    /// Goal key fed to the fault injector — the goal's batch index, so an
    /// injection schedule is a pure function of the input batch and stays
    /// byte-identical across worker counts.
    pub fault_key: u64,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            steps: Some(20_000_000),
            wall: Some(Duration::from_secs(30)),
            options: Options::default(),
            record_trace: false,
            cancel: Vec::new(),
            recorder: udp_obs::Recorder::disabled(),
            faults: udp_obs::FaultInjector::default(),
            fault_key: 0,
        }
    }
}

impl SolveConfig {
    /// A fresh budget honoring the configured limits (and sharing every
    /// attached cancellation flag).
    pub fn budget(&self) -> Budget {
        self.cancel
            .iter()
            .fold(Budget::new(self.steps, self.wall), |b, flag| {
                b.with_cancel(Arc::clone(flag))
            })
    }
}

/// A fully lowered and SPNF-normalized verification goal, the common input
/// of every [`Backend`]. Both normal forms must denote their query bodies
/// with the *same* output variable `out` free (align the right side's output
/// variable by substitution before normalizing — [`normalize_pair`] does
/// this).
pub struct Goal<'a> {
    /// Declared schemas and relations.
    pub catalog: &'a Catalog,
    /// Integrity constraints in scope.
    pub constraints: &'a ConstraintSet,
    /// The shared output tuple variable, free in both normal forms.
    pub out: VarId,
    /// Output schema of the left query.
    pub schema1: SchemaId,
    /// Output schema of the right query.
    pub schema2: SchemaId,
    /// Left side in SPNF.
    pub nf1: &'a Nf,
    /// Right side in SPNF.
    pub nf2: &'a Nf,
    /// Budgets and feature switches.
    pub config: SolveConfig,
}

/// What a backend concluded about a goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendOutcome {
    /// The queries are equivalent.
    Proved,
    /// Equivalence is ruled out within the backend's completeness envelope
    /// (the symbolic backend on constraint-free SPJ/UCQ goals), or — for the
    /// UDP backend — the complete search space was exhausted without a
    /// proof. Maps to [`udp_core::Decision::NotProved`] downstream, exactly
    /// matching what the plain UDP pipeline reports.
    Disproved(NotProvedReason),
    /// The backend cannot settle this goal; another backend should try.
    Unknown(UnknownReason),
    /// The backend *panicked* and the portfolio contained the unwind (the
    /// payload message is carried for diagnostics). Never definite: cascade
    /// degrades past it, race ignores it, crosscheck treats it as
    /// non-disagreement, and the verdict cache never stores it.
    Faulted(String),
}

impl BackendOutcome {
    /// Is this a definite (portfolio-terminating) answer?
    pub fn is_definite(&self) -> bool {
        matches!(self, BackendOutcome::Proved | BackendOutcome::Disproved(_))
    }

    /// Did the backend panic (and get contained)?
    pub fn is_faulted(&self) -> bool {
        matches!(self, BackendOutcome::Faulted(_))
    }
}

/// Why a backend answered [`BackendOutcome::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// The goal lies outside the backend's decidable fragment.
    OutsideFragment,
    /// The budget ran out first — carrying *which* limit tripped (step cap,
    /// wall deadline, or cooperative cancellation by a race winner).
    Budget(Exhausted),
}

/// One backend's answer: outcome, timing, and a human-readable reason.
#[derive(Debug, Clone)]
pub struct BackendVerdict {
    /// Which backend produced this (stable name, e.g. `"sym"` / `"udp"`).
    pub backend: &'static str,
    /// The conclusion.
    pub outcome: BackendOutcome,
    /// Wall-clock time of this backend's attempt.
    pub wall: Duration,
    /// Search steps consumed by this backend.
    pub steps: u64,
    /// Why: fragment rejection, bijection summary, proof search result, …
    pub reason: String,
    /// The full core verdict when the backend ran `decide` (carries the
    /// proof trace); `None` for the symbolic backend.
    pub verdict: Option<udp_core::Verdict>,
}

/// A decision procedure that can attempt a normalized goal.
///
/// Implementations must be deterministic given the goal and a step-only
/// budget, and *verdict-compatible*: two backends may differ in `Unknown`
/// coverage and cost, never on a definite answer (the crosscheck mode and
/// the corpus sweep enforce this empirically).
pub trait Backend: Sync {
    /// Stable backend name (used for stats keys and CLI selection).
    fn name(&self) -> &'static str;
    /// Attempt the goal.
    fn prove(&self, goal: &Goal) -> BackendVerdict;
}

/// Portfolio composition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// The UDP pipeline alone (the historical behavior).
    #[default]
    Udp,
    /// The symbolic backend alone (out-of-fragment goals report `Timeout`,
    /// the pipeline's "no answer" decision — use for measurement only).
    Sym,
    /// Symbolic first; fall through to UDP when it answers `Unknown`.
    Cascade,
    /// Both backends in parallel; the first definite verdict wins. Output
    /// is deterministic because definite verdicts agree across backends.
    Race,
    /// Both backends always; a definite disagreement is a hard error.
    Crosscheck,
}

impl SolveMode {
    /// Every mode, in CLI display order.
    pub const ALL: [SolveMode; 5] = [
        SolveMode::Udp,
        SolveMode::Sym,
        SolveMode::Cascade,
        SolveMode::Race,
        SolveMode::Crosscheck,
    ];

    /// Parse a CLI `--backend` value.
    pub fn parse(s: &str) -> Option<SolveMode> {
        Some(match s {
            "udp" => SolveMode::Udp,
            "sym" => SolveMode::Sym,
            "cascade" => SolveMode::Cascade,
            "race" => SolveMode::Race,
            "crosscheck" => SolveMode::Crosscheck,
            _ => return None,
        })
    }

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SolveMode::Udp => "udp",
            SolveMode::Sym => "sym",
            SolveMode::Cascade => "cascade",
            SolveMode::Race => "race",
            SolveMode::Crosscheck => "crosscheck",
        }
    }
}

impl fmt::Display for SolveMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SPNF-normalize a lowered goal pair the way `decide` does internally: the
/// right side's output variable is aligned onto the left's by substitution,
/// then both bodies are normalized with one shared fresh-variable generator
/// (globally fresh binders are an invariant the matchers rely on).
///
/// This is *the* normalization every consumer must share — the service's
/// fingerprint cache keys, the portfolio backends, and the batch decision
/// path all operate on its output, which is what makes their verdicts (and
/// the cache) interchangeable.
pub fn normalize_pair(q1: &QueryU, q2: &QueryU) -> (Nf, Nf) {
    let body2 = if q2.out == q1.out {
        q2.body.clone()
    } else {
        q2.body.subst(q2.out, &Expr::Var(q1.out))
    };
    let mut gen = VarGen::above(q1.body.max_var().max(body2.max_var()).max(q1.out.0) + 1);
    let nf1 = normalize_with(&q1.body, &mut gen);
    let nf2 = normalize_with(&body2, &mut gen);
    (nf1, nf2)
}
