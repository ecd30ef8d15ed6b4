//! Experiment E4: the paper's Figure 1 discovery walkthrough.
//!
//! One ARP exchange between S (on B2) and D (on B5) must leave exactly
//! the state §2.1.1 describes: a chain of ports locked to S tracing the
//! reverse path of the winning flood copies, rival copies discarded,
//! and — after the reply — confirmed bidirectional entries on the
//! winning path. No frame may circulate forever (loop freedom).

use arppath::EntryState;
use arppath_host::{PingConfig, PingHost};
use arppath_netsim::{PortNo, SimDuration, SimTime};
use arppath_topo::{BridgeKind, Fig1, TopoBuilder};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;

const IP_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_D: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(1, i)
}

struct World {
    built: arppath_topo::BuiltTopology,
    fig: Fig1,
    host_s: arppath_netsim::NodeId,
    host_d: arppath_netsim::NodeId,
}

fn build() -> World {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(arppath::ArpPathConfig::default()));
    let fig = Fig1::build(&mut t);
    let s = PingHost::new(
        "S",
        mac(1),
        IP_S,
        1,
        PingConfig {
            target: IP_D,
            start_at: SimDuration::millis(10),
            interval: SimDuration::millis(5),
            count: 2,
            ..Default::default()
        },
    );
    let d = PingHost::new("D", mac(2), IP_D, 2, PingConfig::default());
    let s_ix = t.host(fig.host_s_bridge(), Box::new(s));
    let d_ix = t.host(fig.host_d_bridge(), Box::new(d));
    let built = t.build();
    let host_s = built.host_nodes[s_ix];
    let host_d = built.host_nodes[d_ix];
    World { built, fig, host_s, host_d }
}

#[test]
fn discovery_locks_trace_the_reverse_path() {
    let mut w = build();
    // Run just past the ARP Request flood (first ping at 10 ms;
    // resolution + flood take microseconds).
    w.built.net.run_until(SimTime(11_000_000));
    let now = w.built.net.now();
    let [b1, b2, b3, b4, b5] = w.fig.bridges;

    // Every bridge holds an entry for S (the flood reached everywhere).
    for (i, b) in [b1, b2, b3, b4, b5].iter().enumerate() {
        assert!(
            w.built.arppath(*b).entry_of(mac(1), now).is_some(),
            "bridge B{} must know S after the flood",
            i + 1
        );
    }

    // B2 locked S on its host port. With homogeneous links, the
    // winning copies arrived: B1, B3 directly from B2; B4 via B1; B5
    // via B3 — i.e. each bridge's S-entry port faces toward B2.
    let e_b2 = w.built.arppath(b2).entry_of(mac(1), now).unwrap();
    let e_b1 = w.built.arppath(b1).entry_of(mac(1), now).unwrap();
    let e_b3 = w.built.arppath(b3).entry_of(mac(1), now).unwrap();

    // Port identities: builder allocates bridge-link ports in
    // declaration order (B2—B1, B2—B3, B1—B3, B1—B4, B3—B5, B4—B5),
    // then host ports. So B1's port 0 faces B2; B3's port 0 faces B2.
    assert_eq!(e_b1.port, PortNo(0), "B1 locked S toward B2");
    assert_eq!(e_b3.port, PortNo(0), "B3 locked S toward B2");
    // B2's host port is its last allocated port (after links to B1, B3).
    assert_eq!(e_b2.port, PortNo(2), "B2 locked S on the host port");

    // Rival copies were discarded (B1 and B3 flood into each other; B4
    // and B5 likewise), exactly as many as the flood oracle says: one
    // isolated broadcast loses 2·(E − B + 1) copies, twice the fabric's
    // cyclomatic number, whatever the link delays. Fig. 1 has E = 6
    // bridge links (every bridge link of this topology is Fig. 1's) and
    // B = 5 bridges, so 4.
    let (e, b) = (w.built.bridge_links.len() as u64, w.fig.bridges.len() as u64);
    let total_race_drops: u64 =
        [b1, b2, b3, b4, b5].iter().map(|&b| w.built.arppath(b).ap_counters().race_drops).sum();
    assert_eq!(
        total_race_drops,
        2 * (e - b + 1),
        "each duplicate flood copy loses the race exactly once (E = {e}, B = {b})"
    );
}

#[test]
fn reply_confirms_bidirectional_path_and_ping_completes() {
    let mut w = build();
    w.built.net.run_until(SimTime(100_000_000)); // 100 ms: both pings done
    let now = w.built.net.now();
    let [b1, _b2, b3, b4, b5] = w.fig.bridges;

    // The reply traveled D→B5→B3→B2→S (the locked chain), leaving
    // Learnt entries for D along it.
    for b in [b5, b3] {
        let e = w.built.arppath(b).entry_of(mac(2), now).expect("entry for D on reply path");
        assert_eq!(e.state, EntryState::Learnt, "reply must confirm D's direction");
    }
    // B1/B4 never saw the (unicast) reply: no Learnt entry for D.
    for b in [b1, b4] {
        let e = w.built.arppath(b).entry_of(mac(2), now);
        assert!(
            e.is_none() || e.unwrap().state == EntryState::Locked,
            "off-path bridges must not hold confirmed D entries"
        );
    }

    // And S's entries on the path are Learnt too (promoted by the reply).
    for b in [b5, b3] {
        let e = w.built.arppath(b).entry_of(mac(1), now).unwrap();
        assert_eq!(e.state, EntryState::Learnt);
    }

    // The ping itself succeeded, twice.
    let s_host = w.built.net.device::<PingHost>(w.host_s);
    assert_eq!(s_host.sent(), 2);
    assert_eq!(s_host.received, 2, "both echo replies must arrive");
    // RTT sanity: 3 bridge hops + host links each way at ~1 µs/hop
    // scale — single-digit microseconds, far under a millisecond.
    let max_rtt = s_host.rtt.max();
    assert!(max_rtt > 1_000, "RTT must be nonzero (got {max_rtt} ns)");
    assert!(max_rtt < 1_000_000, "RTT must be microsecond-scale (got {max_rtt} ns)");
}

#[test]
fn flood_terminates_no_storm() {
    let mut w = build();
    let drained = w.built.net.run_until_idle(SimTime(60_000_000_000));
    // Periodic hellos keep the queue non-empty forever, so the run hits
    // the time limit; what must NOT happen is frame amplification: the
    // total frames sent must stay linear in (hellos + pings), far from
    // a broadcast storm.
    assert!(!drained, "hello beacons keep the network alive by design");
    let stats = w.built.net.stats();
    // 5 bridges × ~14 ports... generous bound: a storm would be
    // millions within 60 s of simulated time.
    assert!(
        stats.frames_sent < 2_000_000,
        "frame count {} suggests a broadcast storm",
        stats.frames_sent
    );
    let d_host = w.built.net.device::<PingHost>(w.host_d);
    // D's stack answered the pings (echo replies) and nothing else
    // damaged it.
    assert_eq!(d_host.stack.counters().echo_replies_tx, 2);
}
