//! The counter taxonomy: monotonic event tallies from *inside* the
//! provers, complementing the wall-clock [`crate::Stage`] tables.
//!
//! Stages answer "where did the time go?"; counters answer "what did the
//! algorithm *do* with it?" — how many canonize fixpoint iterations ran,
//! which axiom families fired, how much congruence-closure traffic the
//! rewrites generated, how many summand-pair isomorphism attempts the
//! symbolic backend burned per signature bucket. They share the recorder's
//! cost contract (a disabled handle pays one branch per increment, no
//! atomics) and its single-writer discipline: every counter has exactly one
//! increment site in the workspace, named below, which is what makes totals
//! worker-count-invariant.
//!
//! The `*-exit-*` group splits backend attempts by how they ended
//! (definite verdict vs unknown), with wall-nanosecond twins, so cascade's
//! wasted-sym-time — the time the symbolic backend spends on goals it then
//! hands to UDP anyway — is directly measurable from one snapshot.

use std::fmt;

/// One monotonic profiling counter. Each variant documents its unit and its
/// single global increment site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Term nodes interned into a congruence-closure graph
    /// (`udp_core::congruence::Congruence::intern_node`).
    TermNodes,
    /// Canonize fixpoint iterations (`udp_core::canonize::canonize_term`,
    /// one per pass over the rewrite loop).
    CanonizeIters,
    /// Congruence-closure class unions (`Congruence::merge`, counted when
    /// two distinct classes fuse).
    CongruenceUnions,
    /// Congruence-closure root lookups (`Congruence::root`), the find side
    /// of union-find.
    CongruenceFinds,
    /// Eq.(15) variable eliminations (axiom family 5, `canonize_term`).
    RwEq15Elim,
    /// Record-pinning substitutions from unification (`canonize_term`).
    RwRecordPin,
    /// Key-based duplicate-summand removals (Def 4.1, `key_chase_step`).
    RwKeyDedup,
    /// Key-based variable merges (Def 4.1, `key_chase_step`).
    RwKeyMerge,
    /// Foreign-key expansions (Def 4.4, `fk_chase_step`).
    RwFkExpand,
    /// Squash absorptions/flattenings (`‖x‖·x → x` and nested-squash
    /// collapse, `canonize_term`).
    RwSquashFlatten,
    /// Generalized-Theorem-4.3 squash introductions (`canonize_term`).
    RwSquashIntro,
    /// Signature buckets built while matching summand multisets
    /// (`udp_solve::sym::decide_sym`).
    SymBuckets,
    /// Summands placed into signature buckets (bucket-size mass; divide by
    /// `sym-buckets` for the mean bucket width).
    SymBucketSummands,
    /// Summand-pair isomorphism attempts inside bucket bijection search
    /// (`udp_solve::sym` `assign`, one per memo miss).
    SymIsoAttempts,
    /// Bytes hashed into goal fingerprints (`udp_service` `process_goal`).
    FingerprintBytes,
    /// Verdict-cache probes (`udp_service` `process_goal`).
    CacheProbes,
    /// Summed LRU recency depth of cache hits (0 = hit at the
    /// most-recently-used slot; divide by hits for the mean depth).
    CacheHitDepth,
    /// Sym-backend attempts ending in a definite verdict
    /// (`udp_solve::portfolio::solve_normalized`).
    SymExitDefinite,
    /// Sym-backend attempts ending `Unknown` (outside fragment or budget).
    SymExitUnknown,
    /// UDP-backend attempts ending in a definite verdict.
    UdpExitDefinite,
    /// UDP-backend attempts ending `Unknown` (budget exhaustion).
    UdpExitUnknown,
    /// Wall nanoseconds of definite-exit sym attempts.
    SymDefiniteWallNs,
    /// Wall nanoseconds of unknown-exit sym attempts — cascade's
    /// wasted-sym-time.
    SymUnknownWallNs,
    /// Wall nanoseconds of definite-exit UDP attempts.
    UdpDefiniteWallNs,
    /// Wall nanoseconds of unknown-exit UDP attempts.
    UdpUnknownWallNs,
    /// Deep size in bytes (`UExpr::deep_size`) of the lowered U-expression
    /// pair, summed per goal (`udp_service` `process_goal`; the sequential
    /// `udp-verify` loop mirrors it — the paths are mutually exclusive).
    TermBytes,
    /// Deep size in bytes (`Nf::deep_size`) of the canonical SPNF pair,
    /// summed per goal (same single writer as `term-bytes`).
    SpnfBytes,
    /// Verdict-cache resident bytes — a *gauge* (last stored value, not a
    /// monotone tally), set under the cache lock after every insert/evict
    /// (`udp_service` `process_goal`).
    CacheResidentBytes,
    /// Backend attempts that panicked and were contained into a `Faulted`
    /// outcome (`udp_solve::portfolio::record_attempt`). Includes
    /// chaos-injected panics and real defects alike.
    BackendFault,
    /// Goals whose report was aborted — worker panic, backend fault with
    /// no surviving verdict — rather than decided
    /// (`udp_service::Session::note_aborted`).
    GoalAborted,
    /// Fault actions fired by the chaos injector
    /// (`crate::fault::FaultInjector::fire`): panics, forced exhaustions,
    /// and delays combined.
    FaultsInjected,
}

impl Counter {
    /// Number of counters (the recorder's fixed-size counter table).
    pub const COUNT: usize = 31;

    /// Every counter; index in this array == `as_index`.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::TermNodes,
        Counter::CanonizeIters,
        Counter::CongruenceUnions,
        Counter::CongruenceFinds,
        Counter::RwEq15Elim,
        Counter::RwRecordPin,
        Counter::RwKeyDedup,
        Counter::RwKeyMerge,
        Counter::RwFkExpand,
        Counter::RwSquashFlatten,
        Counter::RwSquashIntro,
        Counter::SymBuckets,
        Counter::SymBucketSummands,
        Counter::SymIsoAttempts,
        Counter::FingerprintBytes,
        Counter::CacheProbes,
        Counter::CacheHitDepth,
        Counter::SymExitDefinite,
        Counter::SymExitUnknown,
        Counter::UdpExitDefinite,
        Counter::UdpExitUnknown,
        Counter::SymDefiniteWallNs,
        Counter::SymUnknownWallNs,
        Counter::UdpDefiniteWallNs,
        Counter::UdpUnknownWallNs,
        Counter::TermBytes,
        Counter::SpnfBytes,
        Counter::CacheResidentBytes,
        Counter::BackendFault,
        Counter::GoalAborted,
        Counter::FaultsInjected,
    ];

    /// Dense index for table lookups.
    pub fn as_index(self) -> usize {
        match self {
            Counter::TermNodes => 0,
            Counter::CanonizeIters => 1,
            Counter::CongruenceUnions => 2,
            Counter::CongruenceFinds => 3,
            Counter::RwEq15Elim => 4,
            Counter::RwRecordPin => 5,
            Counter::RwKeyDedup => 6,
            Counter::RwKeyMerge => 7,
            Counter::RwFkExpand => 8,
            Counter::RwSquashFlatten => 9,
            Counter::RwSquashIntro => 10,
            Counter::SymBuckets => 11,
            Counter::SymBucketSummands => 12,
            Counter::SymIsoAttempts => 13,
            Counter::FingerprintBytes => 14,
            Counter::CacheProbes => 15,
            Counter::CacheHitDepth => 16,
            Counter::SymExitDefinite => 17,
            Counter::SymExitUnknown => 18,
            Counter::UdpExitDefinite => 19,
            Counter::UdpExitUnknown => 20,
            Counter::SymDefiniteWallNs => 21,
            Counter::SymUnknownWallNs => 22,
            Counter::UdpDefiniteWallNs => 23,
            Counter::UdpUnknownWallNs => 24,
            Counter::TermBytes => 25,
            Counter::SpnfBytes => 26,
            Counter::CacheResidentBytes => 27,
            Counter::BackendFault => 28,
            Counter::GoalAborted => 29,
            Counter::FaultsInjected => 30,
        }
    }

    /// Stable machine-readable name (metrics JSON, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TermNodes => "term-nodes",
            Counter::CanonizeIters => "canonize-iters",
            Counter::CongruenceUnions => "congruence-unions",
            Counter::CongruenceFinds => "congruence-finds",
            Counter::RwEq15Elim => "rw-eq15-elim",
            Counter::RwRecordPin => "rw-record-pin",
            Counter::RwKeyDedup => "rw-key-dedup",
            Counter::RwKeyMerge => "rw-key-merge",
            Counter::RwFkExpand => "rw-fk-expand",
            Counter::RwSquashFlatten => "rw-squash-flatten",
            Counter::RwSquashIntro => "rw-squash-intro",
            Counter::SymBuckets => "sym-buckets",
            Counter::SymBucketSummands => "sym-bucket-summands",
            Counter::SymIsoAttempts => "sym-iso-attempts",
            Counter::FingerprintBytes => "fingerprint-bytes",
            Counter::CacheProbes => "cache-probes",
            Counter::CacheHitDepth => "cache-hit-depth",
            Counter::SymExitDefinite => "sym-exit-definite",
            Counter::SymExitUnknown => "sym-exit-unknown",
            Counter::UdpExitDefinite => "udp-exit-definite",
            Counter::UdpExitUnknown => "udp-exit-unknown",
            Counter::SymDefiniteWallNs => "sym-definite-wall-ns",
            Counter::SymUnknownWallNs => "sym-unknown-wall-ns",
            Counter::UdpDefiniteWallNs => "udp-definite-wall-ns",
            Counter::UdpUnknownWallNs => "udp-unknown-wall-ns",
            Counter::TermBytes => "term-bytes",
            Counter::SpnfBytes => "spnf-bytes",
            Counter::CacheResidentBytes => "cache-resident-bytes",
            Counter::BackendFault => "backend-fault",
            Counter::GoalAborted => "goal-aborted",
            Counter::FaultsInjected => "faults-injected",
        }
    }

    /// Parse a stable name back into a counter (JSON round-trips, the
    /// prof-diff tool's `--inflate` flag).
    pub fn parse(s: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Is this counter a wall-nanosecond tally (rendered as µs) rather
    /// than an event count?
    pub fn is_wall_ns(self) -> bool {
        matches!(
            self,
            Counter::SymDefiniteWallNs
                | Counter::SymUnknownWallNs
                | Counter::UdpDefiniteWallNs
                | Counter::UdpUnknownWallNs
        )
    }

    /// Is this counter a gauge — a last-stored level rather than a
    /// monotone tally? Gauges can decrease, so delta-based consumers (the
    /// bench's per-family sweep) must not subtract successive readings.
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::CacheResidentBytes)
    }

    /// Is this counter's total deterministic for a fixed goal set — i.e.
    /// independent of worker count, machine speed, and scheduling? Wall
    /// tallies, cache-order-dependent depths, gauges whose level depends
    /// on eviction interleaving, and the fault family (race-mode faults
    /// depend on which backend loses the race) are
    /// excluded; everything else is pinned across 1/2/4 workers by the
    /// service metrics test.
    pub fn is_deterministic(self) -> bool {
        !self.is_wall_ns()
            && !self.is_gauge()
            && !matches!(
                self,
                Counter::CacheHitDepth
                    | Counter::BackendFault
                    | Counter::GoalAborted
                    | Counter::FaultsInjected
            )
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_agree_with_all() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.as_index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::parse(c.name()), Some(c));
        }
        assert_eq!(Counter::parse("nosuch"), None);
    }

    #[test]
    fn wall_counters_are_the_exit_wall_quartet() {
        let walls: Vec<Counter> = Counter::ALL
            .into_iter()
            .filter(|c| c.is_wall_ns())
            .collect();
        assert_eq!(walls.len(), 4);
        assert!(walls.iter().all(|c| c.name().ends_with("-wall-ns")));
        assert!(!Counter::SymIsoAttempts.is_wall_ns());
    }

    #[test]
    fn deterministic_excludes_walls_cache_depth_and_gauges() {
        assert!(Counter::CanonizeIters.is_deterministic());
        assert!(Counter::SymIsoAttempts.is_deterministic());
        assert!(Counter::TermBytes.is_deterministic());
        assert!(Counter::SpnfBytes.is_deterministic());
        assert!(!Counter::SymUnknownWallNs.is_deterministic());
        assert!(!Counter::CacheHitDepth.is_deterministic());
        assert!(!Counter::CacheResidentBytes.is_deterministic());
        assert!(!Counter::BackendFault.is_deterministic());
        assert!(!Counter::GoalAborted.is_deterministic());
        assert!(!Counter::FaultsInjected.is_deterministic());
    }

    #[test]
    fn the_only_gauge_is_cache_residency() {
        let gauges: Vec<Counter> = Counter::ALL.into_iter().filter(|c| c.is_gauge()).collect();
        assert_eq!(gauges, [Counter::CacheResidentBytes]);
    }
}
