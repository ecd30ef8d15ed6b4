//! Concrete scenarios for the differential shard-equivalence fuzzer.
//!
//! [`arppath_netsim::difftest`] supplies the engine-agnostic harness
//! (check, multiset trace compare, delta-debugging minimizer); this
//! module supplies the scenario space — randomized E9-style congested
//! fat-tree runs spanning every axis the sharded engine must get
//! right:
//!
//! * fat-tree arity `k` ∈ {4, 6, 8} and hosts per edge switch,
//! * the jitter/workload seed (which decides where same-nanosecond
//!   flood collisions land),
//! * traffic pattern (permutation / hotspot incast),
//! * queue policy (infinite / drop-tail / PFC) and the pause watchdog,
//! * shard count (2–4) and partition strategy (rack-major /
//!   round-robin),
//! * station churn (E11-style arrivals, departures and rack moves on
//!   undersized tables — link-admin events, eviction storms and
//!   mass-expiry sweeps all cross the engines' event order).
//!
//! A [`Spec`] serializes to one `key=value` line and parses back, so a
//! divergence found by `repro -- difftest` lands in a bug report as a
//! string that `tests/sharded_equivalence.rs` replays verbatim — that
//! is exactly how the k=6 reproducer pinned there was produced.

use crate::experiments::e11_churn::{self, E11Params, TableRegime};
use crate::experiments::e9_congestion::{self, CcMode, E9Params, QueueMode};
use crate::experiments::{rack_major, run_to};
use arppath_host::TrafficPattern;
use arppath_netsim::{difftest::DiffScenario, Engine, PauseWatchdog, SimDuration};
use arppath_topo::Partition;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// How the fabric is split across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Pods atomic, racks local — the production partition.
    RackMajor,
    /// Node `i` → shard `i mod N` — maximum cut, the stress partition.
    RoundRobin,
}

impl PartitionKind {
    fn label(self) -> &'static str {
        match self {
            PartitionKind::RackMajor => "rack",
            PartitionKind::RoundRobin => "round-robin",
        }
    }
}

/// One fuzzable scenario, serializable to a single `key=value` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Fat-tree arity (even).
    pub k: usize,
    /// Hosts attached per edge switch.
    pub hosts_per_edge: usize,
    /// Segments per closed-loop flow.
    pub segments: u64,
    /// Jitter + workload seed.
    pub seed: u64,
    /// `true` = hotspot incast, `false` = permutation.
    pub hotspot: bool,
    /// Queueing regime.
    pub mode: QueueMode,
    /// Pause watchdog armed (only meaningful under PFC).
    pub watchdog: bool,
    /// Worker shards for the candidate run (≥ 2; the reference is
    /// always the single-threaded engine).
    pub shards: usize,
    /// Partition strategy for the candidate run. Ignored when
    /// `churn > 0`: churn scenarios carry host link-admin events,
    /// which are only legal intra-shard, so they always run
    /// rack-major (the production partition).
    pub partition: PartitionKind,
    /// Per-slot departure probability (‰) of an E11 churn scenario;
    /// `0` selects the E9 congested-flow scenario family instead.
    pub churn: u32,
    /// Fraction of departures that are rack moves (‰); only
    /// meaningful when `churn > 0`.
    pub mobility: u32,
}

impl Spec {
    /// Draw one scenario from the fuzzer's seed stream. Geometry stays
    /// quick (k ≤ 8, ≤ 2 hosts per edge, short flows) so a 100-seed
    /// sweep finishes in CI time; the axes that historically hid bugs
    /// — the jitter seed and the partition — get the full range.
    pub fn generate(seed: u64) -> Spec {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let k = [4, 6, 8][rng.gen_range(0..3usize)];
        let shards = rng.gen_range(2..=4usize);
        let mut spec = Spec {
            k,
            hosts_per_edge: rng.gen_range(1..=2usize),
            segments: [4, 8, 16][rng.gen_range(0..3usize)],
            seed: rng.gen_range(0..1u64 << 32),
            hotspot: rng.gen_range(0..4u32) == 0,
            mode: QueueMode::ALL[rng.gen_range(0..3usize)],
            watchdog: rng.gen_range(0..2u32) == 0,
            shards,
            partition: if rng.gen_range(0..2u32) == 0 {
                PartitionKind::RackMajor
            } else {
                PartitionKind::RoundRobin
            },
            churn: 0,
            mobility: 0,
        };
        // The retired window-computation axis drew here; keep drawing
        // so every seed still yields the same scenario on every other
        // axis (CI's seed range fuzzes the fabrics it always has).
        let _ = rng.gen_range(0..2u32);
        // One in four scenarios exercises the churn family instead:
        // link flaps, evictions and aging sweeps replace queue
        // pressure as the thing the engines must order identically.
        if rng.gen_range(0..4u32) == 0 {
            spec.churn = [10, 25, 50][rng.gen_range(0..3usize)];
            spec.mobility = [0, 300, 500][rng.gen_range(0..3usize)];
            spec.partition = PartitionKind::RackMajor;
        }
        spec
    }

    /// Serialize to the one-line reproducer format of [`Spec::parse`].
    pub fn render(&self) -> String {
        format!(
            "k={} hosts_per_edge={} segments={} seed={} pattern={} mode={} \
             watchdog={} shards={} partition={} churn={} mobility={}",
            self.k,
            self.hosts_per_edge,
            self.segments,
            self.seed,
            if self.hotspot { "hotspot" } else { "permutation" },
            self.mode.label(),
            if self.watchdog { "on" } else { "off" },
            self.shards,
            self.partition.label(),
            self.churn,
            self.mobility,
        )
    }

    /// Parse the `key=value` line [`Spec::render`] emits.
    ///
    /// # Panics
    /// On any malformed or unknown field — a reproducer that does not
    /// round-trip is worse than none.
    pub fn parse(line: &str) -> Spec {
        let mut spec = Spec {
            k: 4,
            hosts_per_edge: 1,
            segments: 4,
            seed: 0,
            hotspot: false,
            mode: QueueMode::Infinite,
            watchdog: false,
            shards: 2,
            partition: PartitionKind::RackMajor,
            churn: 0,
            mobility: 0,
        };
        for field in line.split_whitespace() {
            let (key, value) =
                field.split_once('=').unwrap_or_else(|| panic!("malformed field {field:?}"));
            match key {
                "k" => spec.k = value.parse().expect("k"),
                "hosts_per_edge" => spec.hosts_per_edge = value.parse().expect("hosts_per_edge"),
                "segments" => spec.segments = value.parse().expect("segments"),
                "seed" => spec.seed = value.parse().expect("seed"),
                "pattern" => spec.hotspot = value == "hotspot",
                "mode" => {
                    spec.mode = QueueMode::ALL
                        .into_iter()
                        .find(|m| m.label() == value)
                        .unwrap_or_else(|| panic!("unknown mode {value:?}"))
                }
                "watchdog" => spec.watchdog = value == "on",
                "shards" => spec.shards = value.parse().expect("shards"),
                "partition" => {
                    spec.partition = match value {
                        "rack" => PartitionKind::RackMajor,
                        "round-robin" => PartitionKind::RoundRobin,
                        other => panic!("unknown partition {other:?}"),
                    }
                }
                "churn" => spec.churn = value.parse().expect("churn"),
                "mobility" => spec.mobility = value.parse().expect("mobility"),
                other => panic!("unknown field {other:?}"),
            }
        }
        spec
    }

    /// The E9 parameter block this spec maps onto.
    fn e9(&self, shards: usize) -> E9Params {
        E9Params {
            k: self.k,
            hosts_per_edge: self.hosts_per_edge,
            segments: self.segments,
            seed: self.seed,
            shards,
            watchdog: if self.watchdog { E9Params::default().watchdog } else { PauseWatchdog::Off },
            ..E9Params::default()
        }
    }

    fn pattern(&self) -> TrafficPattern {
        if self.hotspot {
            TrafficPattern::Hotspot { hot_receivers: 2 }
        } else {
            TrafficPattern::Permutation
        }
    }

    /// The E11 parameter block this spec maps onto when `churn > 0`.
    /// A short horizon keeps a fuzz sweep in CI time; the undersized
    /// table regime is implied — it is the one where churn reaches the
    /// eviction and sweep machinery, the event kinds this family
    /// exists to cross-check.
    fn e11(&self, shards: usize) -> E11Params {
        E11Params {
            k: self.k,
            horizon: SimDuration::millis(60),
            departure_per_mille: self.churn,
            mobility_per_mille: self.mobility,
            seed: self.seed,
            shards,
            ..E11Params::for_k(self.k)
        }
    }

    /// Run one engine and render its merged, timestamp-sorted delivery
    /// trace. `shards = 1` is the single-threaded reference; `≥ 2`
    /// builds the sharded engine under this spec's partition strategy.
    fn trace(&self, shards: usize) -> Vec<String> {
        if self.churn > 0 {
            // The churn family carries host link-admin events, legal
            // only intra-shard: `delivery_trace` partitions rack-major
            // internally, so `self.partition` does not apply here.
            return e11_churn::delivery_trace(&self.e11(shards), TableRegime::Undersized);
        }
        let params = self.e9(shards);
        let (t, ft, _pairs, deadline) =
            e9_congestion::scenario(&params, self.mode, CcMode::Fixed, self.pattern());
        if shards > 1 {
            let hosts = ft.host_capacity(self.hosts_per_edge);
            let bridges = ft.core.len() + ft.aggregation.len() + ft.edge.len();
            let partition = match self.partition {
                PartitionKind::RackMajor => rack_major(&ft, self.hosts_per_edge, shards),
                PartitionKind::RoundRobin => Partition::round_robin(bridges, hosts, shards),
            };
            run_to(t.build_sharded(&partition, true), deadline).net.delivery_trace()
        } else {
            run_to(t.build_single(true), deadline).net.delivery_trace()
        }
    }
}

impl DiffScenario for Spec {
    fn run_reference(&self) -> Vec<String> {
        self.trace(1)
    }

    fn run_candidate(&self) -> Vec<String> {
        self.trace(self.shards)
    }

    /// The shrink lattice, most aggressive first: cut the workload
    /// (segments, hosts), then the fabric (k), then simplify the
    /// configuration one axis at a time toward the quiet defaults
    /// (permutation, infinite queues, watchdog off, 2 shards,
    /// rack-major). The seed is never shrunk — it is
    /// what makes the scenario reproduce.
    fn shrink(&self) -> Vec<Spec> {
        let mut out = Vec::new();
        if self.segments > 1 {
            out.push(Spec { segments: self.segments / 2, ..*self });
        }
        if self.hosts_per_edge > 1 {
            out.push(Spec { hosts_per_edge: self.hosts_per_edge - 1, ..*self });
        }
        if self.k > 4 {
            out.push(Spec { k: self.k - 2, ..*self });
        }
        if self.hotspot {
            out.push(Spec { hotspot: false, ..*self });
        }
        if self.watchdog {
            out.push(Spec { watchdog: false, ..*self });
        }
        if self.mode != QueueMode::Infinite {
            out.push(Spec { mode: QueueMode::Infinite, ..*self });
        }
        if self.churn > 0 && self.mobility > 0 {
            out.push(Spec { mobility: 0, ..*self });
        }
        if self.churn > 0 {
            // Dropping churn entirely falls back to the quiet E9
            // family: if the divergence survives, churn was incidental.
            out.push(Spec { churn: 0, mobility: 0, ..*self });
        }
        if self.shards > 2 {
            out.push(Spec { shards: self.shards - 1, ..*self });
        }
        if self.partition != PartitionKind::RackMajor {
            out.push(Spec { partition: PartitionKind::RackMajor, ..*self });
        }
        out
    }

    fn describe(&self) -> String {
        self.render()
    }
}

/// Shrink executions the minimizer may spend on one failure.
const MINIMIZE_BUDGET: usize = 400;

/// Run the scenarios generated from seeds `0..seeds`; on the first
/// failure, minimize and return the report. `log` receives one
/// progress line per scenario.
pub fn fuzz(seeds: u64, log: &mut dyn FnMut(&str)) -> Option<arppath_netsim::Minimized<Spec>> {
    for seed in 0..seeds {
        let spec = Spec::generate(seed);
        let outcome = arppath_netsim::difftest::check(&spec);
        match &outcome {
            arppath_netsim::Outcome::Identical => {
                log(&format!("seed {seed}: ok ({})", spec.render()));
            }
            arppath_netsim::Outcome::Diverged(d) => {
                log(&format!("seed {seed}: DIVERGED ({d}) — minimizing..."));
                return arppath_netsim::difftest::minimize(spec, outcome, MINIMIZE_BUDGET);
            }
            arppath_netsim::Outcome::Crashed { engine, message } => {
                log(&format!("seed {seed}: CRASHED in {engine} ({message}) — minimizing..."));
                return arppath_netsim::difftest::minimize(spec, outcome, MINIMIZE_BUDGET);
            }
        }
    }
    None
}

/// The injected-bug self-check: widen every shard's horizon beyond the
/// sound CMB bound (`set_unsound_horizon_widen` — only the sharded
/// networks this thread builds see it, so concurrent runs elsewhere
/// stay sound), prove the fuzzer catches it within `seeds` scenarios
/// and minimizes the failure, then restore soundness and prove the
/// minimized spec passes again. Returns an error description on any
/// step that does not behave.
pub fn self_check(seeds: u64, log: &mut dyn FnMut(&str)) -> Result<(), String> {
    // 30 µs dwarfs every fabric propagation delay (1–10 µs), so some
    // cross-shard frame lands in a neighbour's already-executed past.
    arppath_netsim::sharded::set_unsound_horizon_widen(30_000);
    let found = fuzz(seeds, log);
    arppath_netsim::sharded::set_unsound_horizon_widen(0);
    let report = match found {
        Some(r) => r,
        None => {
            return Err(format!("harness MISSED the injected unsound horizon across {seeds} seeds"))
        }
    };
    log(&format!(
        "self-check: injected bug detected and minimized in {} attempts: {}",
        report.attempts,
        report.scenario.render()
    ));
    // The minimized spec must implicate the injected bug, not a real
    // one: with the horizon sound again it has to pass.
    match arppath_netsim::difftest::check(&report.scenario) {
        arppath_netsim::Outcome::Identical => Ok(()),
        other => Err(format!(
            "minimized spec still fails with a sound horizon ({other:?}) — \
             a real divergence: {}",
            report.scenario.render()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_its_line_format() {
        for seed in 0..64 {
            let spec = Spec::generate(seed);
            assert_eq!(Spec::parse(&spec.render()), spec, "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_covers_the_axes() {
        let a: Vec<Spec> = (0..64).map(Spec::generate).collect();
        let b: Vec<Spec> = (0..64).map(Spec::generate).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|s| s.k == 6) && a.iter().any(|s| s.k == 8));
        assert!(a.iter().any(|s| s.partition == PartitionKind::RoundRobin));
        assert!(a.iter().any(|s| s.mode == QueueMode::Pfc));
        assert!(a.iter().any(|s| s.shards == 3) && a.iter().any(|s| s.shards == 4));
        assert!(a.iter().any(|s| s.churn > 0), "the churn family must be drawn");
        assert!(
            a.iter().filter(|s| s.churn > 0).all(|s| s.partition == PartitionKind::RackMajor),
            "churn scenarios must stay rack-major (host link admin is intra-shard only)"
        );
    }

    #[test]
    fn shrink_strictly_reduces_or_simplifies() {
        let spec = Spec::parse(
            "k=8 hosts_per_edge=2 segments=16 seed=7 pattern=hotspot mode=pfc \
             watchdog=on shards=3 partition=round-robin churn=25 mobility=500",
        );
        let shrunk = spec.shrink();
        assert_eq!(shrunk.len(), 10, "every axis has somewhere to go");
        for s in &shrunk {
            assert_ne!(*s, spec);
        }
        // A fully minimal spec has nowhere left to shrink.
        let minimal = Spec::parse(
            "k=4 hosts_per_edge=1 segments=1 seed=7 pattern=permutation mode=infinite \
             watchdog=off shards=2 partition=rack",
        );
        assert!(minimal.shrink().is_empty());
    }

    #[test]
    fn retiring_an_axis_keeps_the_seed_stream() {
        // `Spec::generate` for seeds 0–9 as rendered before the
        // window-computation axis was dropped, minus that axis's
        // field: every remaining axis must draw the same value, so a
        // seed range fuzzes the same fabrics it always has. (Seeds 8
        // and 9 draw the churn family, which a skipped draw changes.)
        let before = [
            "k=6 hosts_per_edge=2 segments=8 seed=1369994395 pattern=permutation mode=pfc \
             watchdog=on shards=2 partition=round-robin churn=0 mobility=0",
            "k=4 hosts_per_edge=1 segments=8 seed=1954456298 pattern=permutation mode=pfc \
             watchdog=off shards=3 partition=rack churn=0 mobility=0",
            "k=6 hosts_per_edge=2 segments=4 seed=524628705 pattern=hotspot mode=pfc \
             watchdog=on shards=3 partition=round-robin churn=0 mobility=0",
            "k=6 hosts_per_edge=1 segments=16 seed=3373706044 pattern=permutation mode=pfc \
             watchdog=off shards=3 partition=rack churn=0 mobility=0",
            "k=6 hosts_per_edge=2 segments=16 seed=1103727299 pattern=permutation \
             mode=drop-tail watchdog=on shards=2 partition=round-robin churn=0 mobility=0",
            "k=4 hosts_per_edge=1 segments=16 seed=915189926 pattern=permutation \
             mode=drop-tail watchdog=off shards=4 partition=round-robin churn=0 mobility=0",
            "k=8 hosts_per_edge=2 segments=16 seed=1018248457 pattern=permutation \
             mode=infinite watchdog=off shards=4 partition=round-robin churn=0 mobility=0",
            "k=8 hosts_per_edge=1 segments=8 seed=89906934 pattern=permutation mode=infinite \
             watchdog=off shards=4 partition=round-robin churn=0 mobility=0",
            "k=8 hosts_per_edge=2 segments=8 seed=3770407803 pattern=permutation mode=pfc \
             watchdog=off shards=4 partition=rack churn=25 mobility=0",
            "k=8 hosts_per_edge=1 segments=4 seed=2553981231 pattern=permutation \
             mode=drop-tail watchdog=off shards=3 partition=rack churn=10 mobility=0",
        ];
        for (seed, line) in before.iter().enumerate() {
            assert_eq!(Spec::generate(seed as u64).render(), *line, "seed {seed}");
        }
    }

    #[test]
    fn injected_unsound_horizon_is_detected_and_minimized() {
        // The fuzzer's own regression test: `self_check` widens every
        // shard past its conservative (CMB) lookahead bound — the bug
        // class the fuzzer exists to catch — requires a detected and
        // minimized failure, then a clean replay once sound again. The
        // widening is scoped to this thread, so sibling tests' sharded
        // runs stay sound.
        let mut lines = Vec::new();
        self_check(16, &mut |l| lines.push(l.to_string()))
            .unwrap_or_else(|e| panic!("difftest self-check failed: {e}"));
        assert!(
            lines.iter().any(|l| l.contains("detected and minimized")),
            "self-check must report the minimized reproducer; got: {lines:?}"
        );
    }
}
