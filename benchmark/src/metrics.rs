//! The benchmark's metric tables: names, units, directions and bounds.
//! `BENCHMARK.json` repeats them for the driver; a test keeps the two
//! in step.

use crate::json::{valid_name, Json};
use crate::scenario::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator sees, reported on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression
    /// when seeds differ between runs (the driver's rule).
    pub bound: f64,
    /// A simulated quantity, deterministic in `(workload, seed)`:
    /// `compare`, which holds the seed fixed, demands equality.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10, exact: false },
    EndToEnd {
        name: "table_bytes_per_station",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "sim_frame_hops",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "sim_delivered_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
];

/// A metric of one layer (layer = module), from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

const WIRE: &str = "wall_s on k8_unicast (host parse per datagram); netsim.sharded.slowdown";
const CALQ: &str =
    "wall_s on k8_perm and k16_perm (dense ring); k8_incast_pfc is the annex-heavy counter-case";
const ENGINE: &str = "wall_s on every workload";
const LINK: &str = "wall_s and host.fct_p99_ms on k8_incast_pfc; zero elsewhere";
const SHARDED: &str =
    "no end-to-end metric yet: ROADMAP 3's win-or-demote decision (k8_perm twin only)";
const DLEFT_GET: &str = "wall_s on k8_unicast";
const DLEFT_CHURN: &str = "wall_s and host.correction_p99_ms on k8_churn";
const DLEFT_SIZE: &str = "table_bytes_per_station and peak_rss_mb on k16_perm";
const WHEEL: &str = "wall_s on k8_churn only";
const BRIDGE_BCAST: &str = "wall_s on k8_perm and k16_perm";
const BRIDGE_UCAST: &str = "wall_s on k8_unicast";
const BRIDGE_HOPS: &str = "sim_frame_hops on k8_churn";
const HOST: &str = "wall_s on k8_unicast and k8_incast_pfc; negligible on k8_perm";
const TOPO: &str = "setup_s on k16_perm";

pub const PER_LAYER: [PerLayer; 56] = [
    layer("wire.parse_ns_per_frame", "ns", Lower, WIRE),
    layer("wire.encode_ns_per_frame", "ns", Lower, WIRE),
    layer("wire.bcast_share", "ratio", Lower, "sim_frame_hops: the flooded share of all hops"),
    layer("netsim.calq.ns_per_event", "ns", Lower, CALQ),
    layer("netsim.calq.vs_heap_ratio", "ratio", Higher, CALQ),
    layer("netsim.calq.share", "ratio", Lower, CALQ),
    layer("netsim.engine.events", "count", Lower, ENGINE),
    layer("netsim.engine.events_per_s", "1/s", Higher, ENGINE),
    layer("netsim.engine.events_per_hop", "ratio", Lower, ENGINE),
    layer("netsim.engine.self_share", "ratio", Lower, ENGINE),
    layer("netsim.engine.self_ns_per_event", "ns", Lower, ENGINE),
    layer("netsim.link.peak_queue_bytes", "B", Lower, LINK),
    layer("netsim.link.drops_queue_full", "count", Lower, LINK),
    layer("netsim.link.pause_events", "count", Lower, LINK),
    layer("netsim.link.paused_ms", "ms", Lower, LINK),
    layer("netsim.link.watchdog_fires", "count", Lower, LINK),
    layer(
        "netsim.trace.overhead_ratio",
        "ratio",
        Lower,
        "nothing end to end: the cost of the traced run itself",
    ),
    layer("netsim.sharded.wall_s_min", "s", Lower, SHARDED),
    layer("netsim.sharded.wall_s_median", "s", Lower, SHARDED),
    layer("netsim.sharded.wall_s_max", "s", Lower, SHARDED),
    layer("netsim.sharded.slowdown", "ratio", Lower, SHARDED),
    layer("netsim.sharded.sync_rounds", "count", Lower, SHARDED),
    layer("netsim.sharded.rounds_per_sim_ms", "1/ms", Lower, SHARDED),
    layer("netsim.sharded.cross_frames", "count", Lower, SHARDED),
    layer("netsim.sharded.event_imbalance", "ratio", Lower, SHARDED),
    layer("netsim.sharded.boundary_codec_share", "ratio", Lower, SHARDED),
    layer("netsim.sharded.trace_equal", "count", Higher, SHARDED),
    layer("switch.dleft.get_hit_ns", "ns", Lower, DLEFT_GET),
    layer("switch.dleft.get_miss_ns", "ns", Lower, DLEFT_GET),
    layer("switch.dleft.insert_ns", "ns", Lower, DLEFT_CHURN),
    layer("switch.dleft.sweep_ns_per_expired", "ns", Lower, DLEFT_CHURN),
    layer("switch.dleft.hit_ratio", "ratio", Higher, DLEFT_GET),
    layer("switch.dleft.occupancy_ratio", "ratio", Lower, DLEFT_SIZE),
    layer("switch.dleft.evictions", "count", Lower, DLEFT_CHURN),
    layer("switch.dleft.swept_total", "count", Lower, DLEFT_CHURN),
    layer("switch.dleft.swept_max", "count", Lower, DLEFT_CHURN),
    layer("switch.dleft.share", "ratio", Lower, DLEFT_GET),
    layer("switch.wheel.insert_ns", "ns", Lower, WHEEL),
    layer("switch.wheel.advance_ns_per_due", "ns", Lower, WHEEL),
    layer("core.bridge.busy_share", "ratio", Lower, ENGINE),
    layer("core.bridge.ns_per_frame_bcast", "ns", Lower, BRIDGE_BCAST),
    layer("core.bridge.ns_per_frame_ucast", "ns", Lower, BRIDGE_UCAST),
    layer("core.bridge.fanout", "ratio", Lower, BRIDGE_HOPS),
    layer("core.bridge.frames_in", "count", Lower, BRIDGE_HOPS),
    layer("core.bridge.lost_race_drops", "count", Lower, BRIDGE_BCAST),
    layer("core.bridge.repairs", "count", Lower, BRIDGE_HOPS),
    layer("host.busy_share", "ratio", Lower, HOST),
    layer("host.ns_per_callback", "ns", Lower, HOST),
    layer("host.retransmits", "count", Lower, "host.fct_p99_ms on k8_incast_pfc"),
    layer("host.arp_requests", "count", Lower, HOST),
    layer("host.fct_p99_ms", "ms", Lower, "simulated p99 flow completion time; k8_incast_pfc only"),
    layer(
        "host.correction_p99_ms",
        "ms",
        Lower,
        "simulated p99 stale-path correction; k8_churn only",
    ),
    layer("topo.build_ns_per_node", "ns", Lower, TOPO),
    layer("topo.nodes", "count", Lower, TOPO),
    layer("topo.links", "count", Lower, TOPO),
    layer("topo.cut_links", "count", Lower, SHARDED),
];

/// Seconds one run measures for, as the driver passes `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// The `BENCHMARK.json` these tables imply.
///
/// # Panics
/// If a table holds a name the contract would refuse.
pub fn manifest() -> Json {
    let names = WORKLOADS.iter().map(|w| w.name);
    let names =
        names.chain(END_TO_END.iter().map(|m| m.name)).chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "invalid name {name:?}");
    }
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program reports. They must say the same thing.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("BENCHMARK.json parses"), manifest());
    }

    #[test]
    fn the_manifest_stays_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
            .all(unit_ok));
    }
}
