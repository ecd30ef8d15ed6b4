//! The demo's §3.2 scenario: host A streams "video" to host B through
//! the Figure-3 fabric while links on the path get cut. ARP-Path's
//! PathFail/PathRequest/PathReply repair re-routes in a couple of
//! network round trips; the viewer barely notices.
//!
//! ```text
//! cargo run --release --example video_failover
//! ```

use arppath::ArpPathConfig;
use arppath_host::{StreamClient, StreamConfig, StreamServer};
use arppath_netsim::{SimDuration, SimTime};
use arppath_topo::{fig3_topology, BridgeIx, BridgeKind};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;

fn main() {
    // The paper's demo configuration: ARP-Path inside the NetFPGA
    // pipeline model.
    let kind = BridgeKind::ArpPathNetFpga(ArpPathConfig::default());
    let (mut t, fig) = fig3_topology(kind);

    let ip_a = Ipv4Addr::new(10, 0, 0, 1);
    let ip_b = Ipv4Addr::new(10, 0, 0, 2);
    let server = StreamServer::new(
        "A",
        MacAddr::from_index(1, 1),
        ip_a,
        StreamConfig {
            client: ip_b,
            start_at: SimDuration::millis(100),
            rate_pps: 500, // ~4 Mbit/s at 1000-byte chunks
            chunk_len: 1000,
            total_chunks: 15_000, // 30 s of video
        },
    );
    let client = StreamClient::new("B", MacAddr::from_index(1, 2), ip_b, ip_a);
    let a_ix = t.host(fig.host_a_bridge(), Box::new(server));
    let b_ix = t.host(fig.host_b_bridge(), Box::new(client));
    let mut built = t.build();

    // Two successive cable cuts, each hitting the then-active path.
    let cut1 = built.link_between(fig.nf[1], fig.nf[3]).unwrap(); // NF2—NF4
    let cut2 = built.link_between(fig.nf[0], fig.nf[2]).unwrap(); // NF1—NF3
    built.net.schedule_link_down(cut1, SimTime(SimDuration::secs(10).as_nanos()));
    built.net.schedule_link_down(cut2, SimTime(SimDuration::secs(20).as_nanos()));
    println!(
        "streaming 30s of video at 500 chunks/s; cutting NF2-NF4 at t=10s, NF1-NF3 at t=20s...\n"
    );

    built.net.run_until(SimTime(SimDuration::secs(32).as_nanos()));

    let server = built.net.device::<StreamServer>(built.host_nodes[a_ix]);
    let sent = server.sent;
    let client = built.net.device::<StreamClient>(built.host_nodes[b_ix]);
    println!("chunks sent      : {sent}");
    println!("chunks received  : {}", client.received);
    println!("chunks lost      : {}", client.lost());
    if let Some((at, gap)) = client.arrivals.max_gap() {
        println!("longest stall    : {:.2} ms (at t={:.3} s)", gap as f64 / 1e6, at as f64 / 1e9);
    }
    let stalls = client.stalls_over(SimDuration::millis(50));
    println!("stalls > 50 ms   : {}", stalls.len());

    println!("\nrepair activity per bridge:");
    for (i, name) in ["NF1", "NF2", "NF3", "NF4"].iter().enumerate() {
        let ap = built.arppath(BridgeIx(i)).ap_counters();
        println!(
            "  {name}: misses={} repairs={} path-requests={} path-replies={} flushes={}",
            ap.unicast_misses,
            ap.repairs_initiated,
            ap.path_requests_originated,
            ap.path_replies_sent,
            ap.link_down_flushes,
        );
    }
    println!("\n(run the STP baseline via `cargo run -p arppath-bench --bin repro -- e2`");
    println!(" to see the same failures cost tens of seconds instead)");
}
