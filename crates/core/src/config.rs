//! ARP-Path bridge configuration.

use arppath_netsim::SimDuration;

/// Tunables of an ARP-Path bridge.
///
/// The two-timer scheme follows the paper's protocol description
/// (§2.1.1): a *short* lock timer bounds the race window during which a
/// source's ingress port is pinned and rival flood copies are
/// discarded, and a *long* learning timer ages confirmed paths. Exact
/// values were testbed-tuned in the original work; the defaults here
/// are in the ranges the ARP-Path papers report, and experiment E7
/// sweeps them.
#[derive(Debug, Clone, Copy)]
pub struct ArpPathConfig {
    /// Lifetime of a `Locked` entry — the race window. Must exceed the
    /// network's ARP round-trip (so the Reply finds the lock) and stay
    /// well under `learn_time`.
    pub lock_time: SimDuration,
    /// Lifetime of a `Learnt` (confirmed) entry; refreshed by use.
    pub learn_time: SimDuration,
    /// Enable the PathFail/PathRequest/PathReply repair protocol
    /// (§2.1.4). Disabling it is the E7 ablation: failures then heal
    /// only by entry expiry.
    pub repair: bool,
    /// Suppression window for duplicate repairs of the same
    /// (source, destination) flow.
    pub repair_hold: SimDuration,
    /// Enable the in-switch ARP proxy (§2.2 "Scalability", ref \[5\]).
    pub proxy: bool,
    /// Optional hardware table capacity (entries). `None` models an
    /// unbounded software table; `Some(n)` models the NetFPGA's bounded
    /// SRAM table — when full, new locks are refused and the frame is
    /// dropped (the safe overflow behaviour: flooding without a lock
    /// could loop). Experiment E7 sweeps this.
    pub table_capacity: Option<usize>,
    /// log2 of d-left buckets per way for the path table's physical
    /// geometry (see `arppath_switch::dleft`). `None` derives it: from
    /// `table_capacity` when set (2× slot headroom over the capacity),
    /// the library default otherwise. `TopoBuilder` sets it from the
    /// host count through
    /// [`autosize_for_stations`](ArpPathConfig::autosize_for_stations).
    pub table_bucket_bits: Option<u32>,
}

impl Default for ArpPathConfig {
    fn default() -> Self {
        ArpPathConfig {
            lock_time: SimDuration::millis(500),
            learn_time: SimDuration::secs(120),
            repair: true,
            repair_hold: SimDuration::millis(100),
            proxy: false,
            table_capacity: None,
            table_bucket_bits: None,
        }
    }
}

impl ArpPathConfig {
    /// Default configuration with the proxy enabled (experiment E6).
    pub fn with_proxy(mut self) -> Self {
        self.proxy = true;
        self
    }

    /// Default configuration with repair disabled (E7 ablation).
    pub fn without_repair(mut self) -> Self {
        self.repair = false;
        self
    }

    /// Bounded-table configuration (E7 hardware-table ablation).
    pub fn with_table_capacity(mut self, entries: usize) -> Self {
        self.table_capacity = Some(entries);
        self
    }

    /// Derive the physical geometry from a declared station count when
    /// neither [`table_bucket_bits`](ArpPathConfig::table_bucket_bits)
    /// nor [`table_capacity`](ArpPathConfig::table_capacity) was set
    /// explicitly; a no-op otherwise. The derived geometry never drops
    /// below the library default, so small topologies keep the exact
    /// tables (and traces) they had before autosizing existed.
    ///
    /// `TopoBuilder` calls this at build time with the number of
    /// attached hosts — the way a NetFPGA build sizes its BRAM for the
    /// target network — so fabric experiments never size it by hand.
    pub fn autosize_for_stations(mut self, stations: usize) -> Self {
        if self.table_bucket_bits.is_none() && self.table_capacity.is_none() {
            self.table_bucket_bits = Some(
                arppath_switch::bucket_bits_for(stations)
                    .max(arppath_switch::dleft::DEFAULT_BUCKET_BITS),
            );
        }
        self
    }

    /// The d-left geometry the path table is built with.
    pub fn geometry_bits(&self) -> u32 {
        match (self.table_bucket_bits, self.table_capacity) {
            (Some(bits), _) => bits,
            (None, Some(cap)) => arppath_switch::bucket_bits_for(cap),
            (None, None) => arppath_switch::dleft::DEFAULT_BUCKET_BITS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_lock_well_under_learn() {
        let c = ArpPathConfig::default();
        assert!(c.lock_time.as_nanos() * 10 <= c.learn_time.as_nanos());
        assert!(c.repair);
        assert!(!c.proxy);
        assert!(c.table_capacity.is_none());
    }

    #[test]
    fn builders_flip_flags() {
        assert!(ArpPathConfig::default().with_proxy().proxy);
        assert!(!ArpPathConfig::default().without_repair().repair);
        assert_eq!(ArpPathConfig::default().with_table_capacity(512).table_capacity, Some(512));
    }

    #[test]
    fn autosize_derives_only_when_nothing_is_explicit() {
        // Small fabrics keep the library default geometry (and thus the
        // exact pre-autosizing traces); big ones grow with the station
        // count (2x slot headroom, `bucket_bits_for`).
        let small = ArpPathConfig::default().autosize_for_stations(2);
        assert_eq!(small.geometry_bits(), arppath_switch::dleft::DEFAULT_BUCKET_BITS);
        let big = ArpPathConfig::default().autosize_for_stations(10_000);
        assert_eq!(big.geometry_bits(), arppath_switch::bucket_bits_for(10_000));
        assert!(big.geometry_bits() > small.geometry_bits());

        // Explicit knobs win: autosizing is a no-op on top of either.
        let manual = ArpPathConfig {
            table_bucket_bits: Some(arppath_switch::bucket_bits_for(64)),
            ..ArpPathConfig::default()
        }
        .autosize_for_stations(10_000);
        assert_eq!(manual.geometry_bits(), arppath_switch::bucket_bits_for(64));
        let capped =
            ArpPathConfig::default().with_table_capacity(512).autosize_for_stations(10_000);
        assert_eq!(capped.table_bucket_bits, None, "capacity-derived geometry left alone");
    }
}
