//! Aggregate measurements for a verification session.
//!
//! Latency bucketing and percentile estimation live in [`udp_obs`] (shared
//! with the stage recorder, so service stats and stage metrics can never
//! disagree on bucket boundaries); this module aggregates them per goal and
//! per backend.

use std::collections::BTreeMap;
use std::time::Duration;
use udp_obs::{BackendSummary, Histogram};

pub use udp_obs::LATENCY_BUCKETS;

/// Per-backend breakdown of the portfolio attempts a session has made
/// (cache hits never reach a backend and are not counted here).
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Attempts routed to this backend.
    pub calls: u64,
    /// Attempts that produced a definite verdict (Proved / Disproved).
    pub definite: u64,
    /// …of which Proved.
    pub proved: u64,
    /// Unknown fall-throughs (fragment rejection or budget exhaustion).
    pub unknown: u64,
    /// Attempts whose answer became the goal's final verdict.
    pub settled: u64,
    /// Total wall time spent inside this backend.
    pub wall: Duration,
    /// Wall time of attempts that ended in a definite verdict.
    pub definite_wall: Duration,
    /// Wall time of attempts that fell through as Unknown — in cascade
    /// mode, the price paid before the next backend even starts.
    pub unknown_wall: Duration,
    /// Attempts that panicked and were contained (a subset of `unknown`:
    /// faulted attempts are never definite and never settle a goal).
    pub faults: u64,
    /// Log₂ histogram of per-attempt latency in microseconds.
    pub latency_us: Histogram,
}

impl BackendStats {
    /// Latency percentile estimate for this backend's attempts.
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        self.latency_us.percentile_us(q)
    }

    /// Share of attempts settled definitely by this backend (0.0 when it
    /// was never called).
    pub fn definite_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.definite as f64 / self.calls as f64
        }
    }
}

/// Running aggregate over every goal a [`crate::Session`] has processed.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Goals processed (including cache hits and front-end errors).
    pub goals: u64,
    /// Goals answered from the fingerprint cache.
    pub cache_hits: u64,
    /// Goals that ran the full decision procedure.
    pub cache_misses: u64,
    /// Goals rejected by the front end (parse/lower errors) or flagged by a
    /// crosscheck disagreement.
    pub errors: u64,
    /// Goals whose verdict was `Proved`.
    pub proved: u64,
    /// Sum of per-goal wall time (lower + cache probe + decide).
    pub goal_wall: Duration,
    /// Wall time of the batches as observed by the caller (parallel time,
    /// not the per-goal sum).
    pub batch_wall: Duration,
    /// Log₂ histogram of per-goal latency in microseconds.
    pub latency_us: Histogram,
    /// Per-backend portfolio breakdown, keyed by backend name.
    pub backends: BTreeMap<&'static str, BackendStats>,
    /// Live verdict-cache entries at snapshot time (filled by
    /// [`crate::Session::stats`] from the cache itself).
    pub cache_entries: u64,
    /// Summed byte cost of those entries — key lengths plus
    /// `Verdict::deep_size` (what `--cache-bytes` bounds).
    pub cache_resident_bytes: u64,
}

impl ServiceStats {
    /// Record one finished goal. Public so drivers that bypass
    /// [`crate::Session`] (the sequential `udp-verify` path) can aggregate
    /// with the exact same classification.
    pub fn record(&mut self, wall: Duration, cached: bool, proved: bool, error: bool) {
        self.goals += 1;
        if error {
            self.errors += 1;
        } else if cached {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        if proved {
            self.proved += 1;
        }
        self.goal_wall += wall;
        self.latency_us.record(wall);
    }

    /// Record one backend attempt from a portfolio run. A `faulted` attempt
    /// (contained panic) also counts as `unknown` — it produced no verdict —
    /// so `calls == definite + unknown` stays an invariant and clean runs
    /// are byte-identical to the pre-fault-tracking accounting.
    pub fn record_backend(
        &mut self,
        backend: &'static str,
        definite: bool,
        proved: bool,
        wall: Duration,
        settled: bool,
        faulted: bool,
    ) {
        let b = self.backends.entry(backend).or_default();
        b.calls += 1;
        if definite {
            b.definite += 1;
            b.definite_wall += wall;
        } else {
            b.unknown += 1;
            b.unknown_wall += wall;
        }
        if faulted {
            b.faults += 1;
        }
        if proved {
            b.proved += 1;
        }
        if settled {
            b.settled += 1;
        }
        b.wall += wall;
        b.latency_us.record(wall);
    }

    /// Cache hit rate over goals that reached the cache (0.0 when none did).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Goals per second of batch wall time (0.0 before any batch ran).
    pub fn throughput(&self) -> f64 {
        let secs = self.batch_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.goals as f64 / secs
        }
    }

    /// Latency percentile estimate from the histogram (`q` in `0.0..=1.0`),
    /// as the upper bound of the bucket containing the q-quantile.
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        self.latency_us.percentile_us(q)
    }

    /// The per-backend breakdown as [`udp_obs::BackendSummary`] rows, the
    /// shape the metrics JSON snapshot embeds.
    pub fn backend_summaries(&self) -> Vec<BackendSummary> {
        self.backends
            .iter()
            .map(|(name, b)| BackendSummary {
                name: (*name).to_string(),
                calls: b.calls,
                definite: b.definite,
                proved: b.proved,
                unknown: b.unknown,
                settled: b.settled,
                wall_us: b.wall.as_nanos() as f64 / 1_000.0,
                definite_wall_us: b.definite_wall.as_nanos() as f64 / 1_000.0,
                unknown_wall_us: b.unknown_wall.as_nanos() as f64 / 1_000.0,
                p50_us: b.latency_percentile_us(0.5),
                p99_us: b.latency_percentile_us(0.99),
                faults: b.faults,
            })
            .collect()
    }

    /// Human-readable one-stop report (one extra line per backend the
    /// portfolio touched).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} goals in {:.3} s ({:.1} goals/s) | {} proved, {} errors | \
             cache: {} hits / {} misses ({:.1}% hit rate) | \
             latency p50 < {} µs, p99 < {} µs",
            self.goals,
            self.batch_wall.as_secs_f64(),
            self.throughput(),
            self.proved,
            self.errors,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.latency_percentile_us(0.5),
            self.latency_percentile_us(0.99),
        );
        if self.cache_entries > 0 {
            out.push_str(&format!(
                " | resident {} entries / {} B",
                self.cache_entries, self.cache_resident_bytes
            ));
        }
        for (name, b) in &self.backends {
            out.push_str(&format!(
                "\nbackend {name}: {} calls ({} definite, {} proved, {} unknown), \
                 settled {} | wall {:.1} ms = {:.1} definite + {:.1} unknown | \
                 p50 < {} µs, p99 < {} µs",
                b.calls,
                b.definite,
                b.proved,
                b.unknown,
                b.settled,
                b.wall.as_secs_f64() * 1_000.0,
                b.definite_wall.as_secs_f64() * 1_000.0,
                b.unknown_wall.as_secs_f64() * 1_000.0,
                b.latency_percentile_us(0.5),
                b.latency_percentile_us(0.99),
            ));
            if b.faults > 0 {
                out.push_str(&format!(" | {} faults", b.faults));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_outcomes() {
        let mut s = ServiceStats::default();
        s.record(Duration::from_micros(3), false, true, false);
        s.record(Duration::from_micros(300), true, true, false);
        s.record(Duration::from_micros(30), false, false, true);
        assert_eq!(s.goals, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.proved, 2);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut s = ServiceStats::default();
        for _ in 0..99 {
            s.record(Duration::from_micros(10), false, true, false);
        }
        s.record(Duration::from_millis(100), false, true, false);
        assert!(s.latency_percentile_us(0.5) <= 16);
        assert!(s.latency_percentile_us(0.999) > 50_000);
    }

    #[test]
    fn render_mentions_the_essentials() {
        let mut s = ServiceStats::default();
        s.record(Duration::from_micros(5), false, true, false);
        s.batch_wall = Duration::from_millis(1);
        let r = s.render();
        assert!(r.contains("goals/s"), "{r}");
        assert!(r.contains("hit rate"), "{r}");
    }

    #[test]
    fn backend_breakdown_tracks_calls_and_percentiles() {
        let mut s = ServiceStats::default();
        s.record_backend("sym", true, true, Duration::from_micros(4), true, false);
        s.record_backend("sym", false, false, Duration::from_micros(8), false, false);
        s.record_backend("udp", true, false, Duration::from_micros(900), true, false);
        let sym = &s.backends["sym"];
        assert_eq!(sym.calls, 2);
        assert_eq!(sym.definite, 1);
        assert_eq!(sym.proved, 1);
        assert_eq!(sym.unknown, 1);
        assert_eq!(sym.settled, 1);
        assert!(sym.definite_rate() > 0.49 && sym.definite_rate() < 0.51);
        let udp = &s.backends["udp"];
        assert_eq!(udp.calls, 1);
        assert!(udp.latency_percentile_us(0.5) >= 512);
        let r = s.render();
        assert!(r.contains("backend sym:"), "{r}");
        assert!(r.contains("backend udp:"), "{r}");
    }

    #[test]
    fn backend_wall_splits_by_exit_kind() {
        let mut s = ServiceStats::default();
        s.record_backend("sym", true, true, Duration::from_micros(100), true, false);
        s.record_backend("sym", false, false, Duration::from_micros(40), false, false);
        let sym = &s.backends["sym"];
        assert_eq!(sym.definite_wall, Duration::from_micros(100));
        assert_eq!(sym.unknown_wall, Duration::from_micros(40));
        assert_eq!(sym.wall, sym.definite_wall + sym.unknown_wall);
        let rows = s.backend_summaries();
        let row = rows.iter().find(|r| r.name == "sym").unwrap();
        assert!((row.definite_wall_us - 100.0).abs() < 0.5, "{row:?}");
        assert!((row.unknown_wall_us - 40.0).abs() < 0.5, "{row:?}");
        let r = s.render();
        assert!(r.contains("definite +"), "{r}");
    }

    #[test]
    fn faulted_attempts_count_as_unknown_and_render() {
        let mut s = ServiceStats::default();
        s.record_backend("sym", false, false, Duration::from_micros(7), false, true);
        s.record_backend("sym", true, true, Duration::from_micros(3), true, false);
        let sym = &s.backends["sym"];
        assert_eq!(sym.calls, 2);
        assert_eq!(sym.unknown, 1, "a fault is an unknown exit");
        assert_eq!(sym.faults, 1);
        assert_eq!(sym.calls, sym.definite + sym.unknown);
        let rows = s.backend_summaries();
        let row = rows.iter().find(|r| r.name == "sym").unwrap();
        assert_eq!(row.faults, 1);
        let r = s.render();
        assert!(r.contains("1 faults"), "{r}");
    }

    #[test]
    fn backend_summaries_mirror_the_breakdown() {
        let mut s = ServiceStats::default();
        s.record_backend("sym", true, true, Duration::from_micros(4), true, false);
        s.record_backend("udp", false, false, Duration::from_micros(40), false, false);
        let rows = s.backend_summaries();
        assert_eq!(rows.len(), 2);
        let sym = rows.iter().find(|r| r.name == "sym").unwrap();
        assert_eq!(sym.calls, 1);
        assert_eq!(sym.proved, 1);
        assert!(sym.wall_us > 3.0);
        let udp = rows.iter().find(|r| r.name == "udp").unwrap();
        assert_eq!(udp.unknown, 1);
    }
}
