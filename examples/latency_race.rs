//! The demo's §3.1 scenario, interactively: the same Figure-2 network
//! is run once with ARP-Path bridges and once per STP root placement,
//! and the A↔B round-trip times are compared.
//!
//! ARP-Path always rides the minimum-latency path (the flood race
//! found it); STP pays whatever detour its tree imposes.
//!
//! ```text
//! cargo run --release --example latency_race
//! ```

use arppath::ArpPathConfig;
use arppath_host::{PingConfig, PingHost};
use arppath_netsim::{SimDuration, SimTime};
use arppath_stp::StpConfig;
use arppath_topo::{BridgeKind, Fig2, TopoBuilder};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;

/// Heterogeneous propagation delays (µs) in Fig-2 wiring order; the
/// fastest A↔B route is NICA—NF2—NF3—NICB.
const DELAYS_US: [u64; 8] = [5, 1, 1, 1, 2, 1, 1, 5];

fn run_once(kind: BridgeKind, root: Option<usize>, warmup: SimDuration) -> (String, f64) {
    let mut t = TopoBuilder::new(kind);
    let fig = Fig2::build_with_delays(&mut t, &DELAYS_US);
    if let Some(r) = root {
        t.stp_priority(fig.all_bridges()[r], 0x1000);
    }
    let ip_a = Ipv4Addr::new(10, 0, 0, 1);
    let ip_b = Ipv4Addr::new(10, 0, 0, 2);
    let a = PingHost::new(
        "A",
        MacAddr::from_index(1, 1),
        ip_a,
        1,
        PingConfig {
            target: ip_b,
            start_at: warmup,
            interval: SimDuration::millis(10),
            count: 50,
            ..Default::default()
        },
    );
    let b = PingHost::new("B", MacAddr::from_index(1, 2), ip_b, 2, PingConfig::default());
    let a_ix = t.host(fig.nic_a, Box::new(a));
    t.host(fig.nic_b, Box::new(b));
    let mut built = t.build();
    built.net.run_until(SimTime((warmup + SimDuration::secs(1)).as_nanos()));
    let prober = built.net.device::<PingHost>(built.host_nodes[a_ix]);
    let rtt = prober.rtt.clone();
    let label = match root {
        None => "ARP-Path".to_string(),
        Some(r) => format!("STP, root {}", ["NF1", "NF2", "NF3", "NF4", "NICA", "NICB"][r]),
    };
    (label, rtt.percentile(50.0) as f64 / 1e3)
}

fn main() {
    println!("A<->B median RTT on the Figure-2 fabric (heterogeneous link delays):\n");
    let (label, ap) =
        run_once(BridgeKind::ArpPath(ArpPathConfig::default()), None, SimDuration::millis(100));
    println!("  {label:<16} {ap:7.2} us   <- the race's choice");
    for root in 0..6 {
        let (label, rtt) = run_once(
            BridgeKind::Stp(StpConfig::default()),
            Some(root),
            SimDuration::secs(35), // let the tree converge
        );
        let delta = (rtt / ap - 1.0) * 100.0;
        println!("  {label:<16} {rtt:7.2} us   ({delta:+.0}% vs ARP-Path)");
    }
    println!("\nSTP's tree blocks links; pairs whose tree path detours pay for it.");
    println!("ARP-Path uses whatever path won the flood race — no tree, no blocking.");
}
