//! The simulator's determinism contract, end to end: identical
//! scenarios produce bit-identical traces, and every experiment table
//! in `docs/EXPERIMENTS.md` is therefore exactly reproducible.

use arppath::ArpPathConfig;
use arppath_bench::experiments::e9_congestion::{self, CcMode, E9Params, QueueMode};
use arppath_host::{PingConfig, PingHost, TrafficPattern};
use arppath_netsim::{CollectingTracer, SimDuration, SimTime};
use arppath_topo::{BridgeKind, Fig2, TopoBuilder};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

fn run_fig2_scenario(with_failure: bool) -> (Vec<String>, u64, u64) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let fig = Fig2::build(&mut t);
    let prober = PingHost::new(
        "A",
        MacAddr::from_index(1, 1),
        Ipv4Addr::new(10, 0, 0, 1),
        1,
        PingConfig {
            target: Ipv4Addr::new(10, 0, 0, 2),
            start_at: SimDuration::millis(5),
            interval: SimDuration::millis(7),
            count: 20,
            ..Default::default()
        },
    );
    let responder = PingHost::new(
        "B",
        MacAddr::from_index(1, 2),
        Ipv4Addr::new(10, 0, 0, 2),
        2,
        PingConfig::default(),
    );
    let p = t.host(fig.nic_a, Box::new(prober));
    t.host(fig.nic_b, Box::new(responder));
    let sink = Arc::new(Mutex::new(CollectingTracer::default()));
    t.set_tracer(Box::new(sink.clone()));
    let mut built = t.build();
    if with_failure {
        let l = built.link_between(fig.nic_a, fig.nf[0]).unwrap();
        built.net.schedule_link_down(l, SimTime(SimDuration::millis(40).as_nanos()));
        built.net.schedule_link_up(l, SimTime(SimDuration::millis(90).as_nanos()));
    }
    built.net.run_until(SimTime(SimDuration::millis(250).as_nanos()));
    let prober = built.net.device::<PingHost>(built.host_nodes[p]);
    let lines = sink.lock().unwrap().lines.clone();
    (lines, prober.received, built.net.stats().events)
}

#[test]
fn identical_runs_produce_identical_traces() {
    let (a, rx_a, ev_a) = run_fig2_scenario(false);
    let (b, rx_b, ev_b) = run_fig2_scenario(false);
    assert_eq!(rx_a, rx_b);
    assert_eq!(ev_a, ev_b);
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b, "trace divergence breaks reproducibility");
}

#[test]
fn failure_scenarios_are_deterministic_too() {
    let (a, rx_a, _) = run_fig2_scenario(true);
    let (b, rx_b, _) = run_fig2_scenario(true);
    assert_eq!(rx_a, rx_b);
    assert_eq!(a, b);
}

#[test]
fn different_scenarios_diverge() {
    let (a, _, _) = run_fig2_scenario(false);
    let (b, _, _) = run_fig2_scenario(true);
    assert_ne!(a, b, "the tracer must actually observe the failure");
}

#[test]
fn e9_congested_runs_are_seed_stable() {
    // E9 adds two new event sources on top of E8's fabric — queue
    // admission drops and PFC pause/resume control frames — and both
    // must replay bit-identically from the seed.
    let params =
        |seed| E9Params { k: 4, hosts_per_edge: 2, segments: 8, seed, ..Default::default() };
    for mode in [QueueMode::DropTail, QueueMode::Pfc] {
        let pattern = TrafficPattern::Hotspot { hot_receivers: 2 };
        let a = e9_congestion::delivery_trace_cc(&params(0xE9), mode, CcMode::Fixed, pattern);
        let b = e9_congestion::delivery_trace_cc(&params(0xE9), mode, CcMode::Fixed, pattern);
        assert!(!a.is_empty(), "{mode:?}: congested scenario must produce traffic");
        assert_eq!(a, b, "{mode:?}: identical seeds diverged");
        let c = e9_congestion::delivery_trace_cc(&params(7), mode, CcMode::Fixed, pattern);
        assert_ne!(a, c, "{mode:?}: the seed must actually steer the workload");
    }
}

#[test]
fn e11_churned_runs_are_seed_stable() {
    // E11 adds the churn event sources — scheduled host link flips,
    // d-left eviction storms in the undersized regime, aging
    // mass-expiry sweeps — and the whole stack must replay
    // bit-identically from the seed, with the seed actually steering
    // the script (different arrivals, departures and rack moves).
    use arppath_bench::experiments::e11_churn::{self, E11Params, TableRegime};
    let params = |seed| E11Params { horizon: SimDuration::millis(60), seed, ..E11Params::for_k(4) };
    let a = e11_churn::delivery_trace(&params(0xE11), TableRegime::Undersized);
    let b = e11_churn::delivery_trace(&params(0xE11), TableRegime::Undersized);
    assert!(!a.is_empty(), "churn scenario must produce traffic");
    assert_eq!(a, b, "identical churn seeds diverged");
    let c = e11_churn::delivery_trace(&params(7), TableRegime::Undersized);
    assert_ne!(a, c, "the seed must actually steer the churn script");
}
