//! The paper's three figures as ready-made topologies.
//!
//! The demo paper's figures are wiring diagrams, not data plots; their
//! exact cabling is partially described in prose. Where the figure
//! itself is ambiguous the realization below documents its assumption —
//! the property each experiment needs (redundant paths for the latency
//! race, an alternate route for repair) is what matters, not the exact
//! drawing.

use crate::builder::{BridgeIx, BridgeKind, TopoBuilder};
use arppath_netsim::{LinkParams, SimDuration};

/// Handles to the Figure-1 network: five bridges, hosts S and D.
///
/// Wiring (from the §2.1.1 narrative): `S—B2`, `B2—B1`, `B2—B3`,
/// `B1—B3` (they "send duplicate copies to each other"), `B1—B4`,
/// `B3—B5`, `B4—B5`, `D—B5`. Attach hosts S and D yourself via
/// [`Fig1::host_s_bridge`]/[`Fig1::host_d_bridge`] so the experiment
/// chooses the host devices.
#[derive(Debug, Clone, Copy)]
pub struct Fig1 {
    /// Bridges B1..B5 (index 0 = B1).
    pub bridges: [BridgeIx; 5],
}

impl Fig1 {
    /// Build the Figure-1 bridge fabric into `t`.
    pub fn build(t: &mut TopoBuilder) -> Fig1 {
        let b: Vec<BridgeIx> = (1..=5).map(|i| t.bridge(format!("B{i}"))).collect();
        let bridges = [b[0], b[1], b[2], b[3], b[4]];
        let [b1, b2, b3, b4, b5] = bridges;
        t.connect(b2, b1);
        t.connect(b2, b3);
        t.connect(b1, b3);
        t.connect(b1, b4);
        t.connect(b3, b5);
        t.connect(b4, b5);
        Fig1 { bridges }
    }

    /// The ingress bridge for host S (B2, per the paper).
    pub fn host_s_bridge(&self) -> BridgeIx {
        self.bridges[1]
    }

    /// The egress bridge for host D (B5).
    pub fn host_d_bridge(&self) -> BridgeIx {
        self.bridges[4]
    }
}

/// Handles to the Figure-2 network: four NetFPGAs plus the two NIC
/// bridges ("NICs operating as separate STP bridges"), with redundant
/// cabling so the spanning tree must block links.
///
/// Assumed wiring (the figure is a photograph-style diagram in the
/// original): `NICA—NF1`, `NICA—NF2`, `NF1—NF2`, `NF1—NF4`, `NF2—NF3`,
/// `NF3—NF4`, `NICB—NF3`, `NICB—NF4`. Host A hangs off NICA, host B
/// off NICB. Every cycle in this graph gives the ARP race a choice.
#[derive(Debug, Clone, Copy)]
pub struct Fig2 {
    /// NF1..NF4.
    pub nf: [BridgeIx; 4],
    /// The NIC bridge in front of host A.
    pub nic_a: BridgeIx,
    /// The NIC bridge in front of host B.
    pub nic_b: BridgeIx,
}

impl Fig2 {
    /// Build with homogeneous default (1 Gbit/s, 500 ns) links.
    pub fn build(t: &mut TopoBuilder) -> Fig2 {
        Self::build_with_delays(t, &[1, 1, 1, 1, 1, 1, 1, 1])
    }

    /// Build with per-link propagation delays in microseconds, in the
    /// wiring order listed in the type docs (8 links). Heterogeneous
    /// delays make the minimum-latency path differ from the
    /// minimum-hop path — the situation where ARP-Path's race shines.
    pub fn build_with_delays(t: &mut TopoBuilder, delays_us: &[u64; 8]) -> Fig2 {
        let nf1 = t.bridge("NF1");
        let nf2 = t.bridge("NF2");
        let nf3 = t.bridge("NF3");
        let nf4 = t.bridge("NF4");
        let nic_a = t.bridge("NICA");
        let nic_b = t.bridge("NICB");
        let wiring = [
            (nic_a, nf1),
            (nic_a, nf2),
            (nf1, nf2),
            (nf1, nf4),
            (nf2, nf3),
            (nf3, nf4),
            (nic_b, nf3),
            (nic_b, nf4),
        ];
        for (i, &(a, b)) in wiring.iter().enumerate() {
            t.connect_with(a, b, LinkParams::gigabit(SimDuration::micros(delays_us[i])));
        }
        Fig2 { nf: [nf1, nf2, nf3, nf4], nic_a, nic_b }
    }

    /// All six bridges, in the order used for the E1 root sweep.
    pub fn all_bridges(&self) -> [BridgeIx; 6] {
        [self.nf[0], self.nf[1], self.nf[2], self.nf[3], self.nic_a, self.nic_b]
    }
}

/// Handles to the Figure-3 network: hosts A and B connected through
/// the four-NetFPGA fabric, with enough redundancy that every on-path
/// link has an alternative — the path-repair demo (§3.2).
///
/// Assumed wiring: `NF1—NF2`, `NF2—NF4`, `NF1—NF3`, `NF3—NF4`,
/// `NF2—NF3`; host A on NF1, host B on NF4.
#[derive(Debug, Clone, Copy)]
pub struct Fig3 {
    /// NF1..NF4.
    pub nf: [BridgeIx; 4],
}

impl Fig3 {
    /// Build the Figure-3 fabric.
    pub fn build(t: &mut TopoBuilder) -> Fig3 {
        let nf1 = t.bridge("NF1");
        let nf2 = t.bridge("NF2");
        let nf3 = t.bridge("NF3");
        let nf4 = t.bridge("NF4");
        t.connect(nf1, nf2);
        t.connect(nf2, nf4);
        t.connect(nf1, nf3);
        t.connect(nf3, nf4);
        t.connect(nf2, nf3);
        Fig3 { nf: [nf1, nf2, nf3, nf4] }
    }

    /// Host A's bridge (NF1).
    pub fn host_a_bridge(&self) -> BridgeIx {
        self.nf[0]
    }

    /// Host B's bridge (NF4).
    pub fn host_b_bridge(&self) -> BridgeIx {
        self.nf[3]
    }
}

/// Convenience: a fresh builder of `kind` with the Figure-3 fabric.
pub fn fig3_topology(kind: BridgeKind) -> (TopoBuilder, Fig3) {
    let mut t = TopoBuilder::new(kind);
    let fig = Fig3::build(&mut t);
    (t, fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath::ArpPathConfig;

    #[test]
    fn fig1_has_five_bridges_seven_links() {
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let fig = Fig1::build(&mut t);
        assert_eq!(t.bridge_count(), 5);
        let built = t.build();
        assert_eq!(built.bridge_links.len(), 6);
        assert_eq!(fig.host_s_bridge().0, 1);
        assert_eq!(fig.host_d_bridge().0, 4);
    }

    #[test]
    fn fig2_has_six_bridges_eight_links() {
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let fig = Fig2::build(&mut t);
        assert_eq!(t.bridge_count(), 6);
        let built = t.build();
        assert_eq!(built.bridge_links.len(), 8);
        assert_eq!(fig.all_bridges().len(), 6);
        // The redundancy that matters: NICA reaches NF1 and NF2.
        assert!(built.link_between(fig.nic_a, fig.nf[0]).is_some());
        assert!(built.link_between(fig.nic_a, fig.nf[1]).is_some());
    }

    #[test]
    fn fig3_every_nf_pair_has_alternatives() {
        let (t, fig) = fig3_topology(BridgeKind::ArpPath(ArpPathConfig::default()));
        let built = t.build();
        assert_eq!(built.bridge_links.len(), 5);
        // A–B shortest is NF1–NF2–NF4 or NF1–NF3–NF4: both exist.
        assert!(built.link_between(fig.nf[0], fig.nf[1]).is_some());
        assert!(built.link_between(fig.nf[1], fig.nf[3]).is_some());
        assert!(built.link_between(fig.nf[0], fig.nf[2]).is_some());
        assert!(built.link_between(fig.nf[2], fig.nf[3]).is_some());
    }
}
