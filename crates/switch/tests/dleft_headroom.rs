//! The sizing rule's worst case never evicts.
//!
//! [`bucket_bits_for`] sizes a table for at most 50 % occupancy, and a
//! table sized for a power-of-two station count sits exactly at that
//! bound. These tests fill such tables with the keys the workloads
//! learn (sequential host MACs) and with seeded random MACs, and
//! require that d-left placement finds every key a free slot. The
//! ignored Monte-Carlo twin repeats the random fill on 100,000 tables
//! of 1,024 keys (`cargo test --release -p arppath_switch --test
//! dleft_headroom -- --ignored`).

use arppath_netsim::SimTime;
use arppath_switch::dleft::{DEFAULT_BUCKET_BITS, SLOTS_PER_BUCKET, WAYS};
use arppath_switch::{bucket_bits_for, DLeftTable};
use arppath_wire::MacAddr;
use std::collections::BTreeSet;

/// xorshift64*: a seeded stream independent of the table's own
/// splitmix64 key mixing.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `n` distinct random unicast MACs from `seed`.
fn random_macs(n: usize, seed: u64) -> Vec<MacAddr> {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut seen = BTreeSet::new();
    let mut macs = Vec::with_capacity(n);
    while macs.len() < n {
        let b = rng.next().to_le_bytes();
        let mac = MacAddr::new(b[0] & !0x01, b[1], b[2], b[3], b[4], b[5]);
        if seen.insert(mac) {
            macs.push(mac);
        }
    }
    macs
}

/// Fill a table sized by the rule for `keys.len()` stations; returns
/// its evictions.
fn fill_evictions(keys: &[MacAddr]) -> u64 {
    let mut table: DLeftTable<MacAddr, u32> =
        DLeftTable::with_bucket_bits(bucket_bits_for(keys.len()));
    for (i, &key) in keys.iter().enumerate() {
        table.insert(key, i as u32, SimTime(1_000_000));
    }
    table.evictions()
}

#[test]
fn power_of_two_station_counts_fill_at_half_load_without_evicting() {
    let floor = (WAYS * SLOTS_PER_BUCKET) << DEFAULT_BUCKET_BITS;
    for exp in 7..=14 {
        let stations = 1usize << exp;
        let capacity = (WAYS * SLOTS_PER_BUCKET) << bucket_bits_for(stations);
        assert_eq!(
            capacity,
            floor.max(2 * stations),
            "{stations} stations: 50 % load or the floor"
        );
        let sequential: Vec<MacAddr> =
            (0..stations as u32).map(|i| MacAddr::from_index(1, i)).collect();
        assert_eq!(fill_evictions(&sequential), 0, "{stations} sequential host MACs");
        for seed in 0..4 {
            let random = random_macs(stations, seed);
            assert_eq!(fill_evictions(&random), 0, "{stations} random MACs, seed {seed}");
        }
    }
}

#[test]
#[ignore = "Monte-Carlo: 100,000 tables, run in release with --ignored"]
fn one_hundred_thousand_random_tables_at_half_load_never_evict() {
    const TABLES: u64 = 100_000;
    const KEYS: usize = 1_024;
    let overflowed: Vec<u64> =
        (0..TABLES).filter(|&seed| fill_evictions(&random_macs(KEYS, seed)) > 0).collect();
    assert!(overflowed.is_empty(), "tables that evicted (seeds): {overflowed:?}");
}
