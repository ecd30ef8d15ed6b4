//! The d-left table against its reference oracle.
//!
//! [`AgingMap`] (BTreeMap, lazy expiry) is the executable
//! specification; [`DLeftTable`] (fixed-geometry d-left hashing, timer
//! wheel) must be observationally equivalent through every API call on
//! every op schedule — as long as it does not evict, which the
//! in-repo workloads never trigger (pinned below). Divergences the
//! equivalence deliberately ignores: raw `len()` (the d-left scrubber
//! may vacate expired entries earlier than the oracle's lazy path —
//! only *live* views must agree), and `retain`'s visit order.
//!
//! The keyed accessors (`get`/`touch`/`insert`) are wrappers over the
//! slot-handle primitive (`probe` + `value_at`/`touch_at`/`replace_at`/
//! `insert_absent`); a bridge that probes once per frame must leave
//! the table in *physically* the same state as one that looks the key
//! up again for every step — same slots, same scrubs, same evictions —
//! and that too is pinned here, on geometries small enough to evict.

use arppath_netsim::{SimDuration, SimTime};
use arppath_switch::{AgingMap, DLeftTable};
use proptest::prelude::*;

fn t(ns: u64) -> SimTime {
    SimTime(ns)
}

/// One randomized op against both tables, asserting agreement of every
/// observable result.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key: u32, val: u64, ttl: u64 },
    Get { key: u32 },
    Peek { key: u32 },
    Touch { key: u32, ttl: u64 },
    Remove { key: u32 },
    Sweep,
    RetainOdd,
}

fn op_from(raw: (u8, u32, u64, u64)) -> Op {
    let (sel, key, val, ttl) = raw;
    match sel % 7 {
        0 => Op::Insert { key, val, ttl },
        1 => Op::Get { key },
        2 => Op::Peek { key },
        3 => Op::Touch { key, ttl },
        4 => Op::Remove { key },
        5 => Op::Sweep,
        _ => Op::RetainOdd,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn dleft_matches_aging_map_oracle(
        raw_ops in proptest::collection::vec(
            ((0u8..7, 0u32..24, 0u64..1000, 1u64..400), 0u64..200),
            1..120,
        ),
    ) {
        let mut oracle: AgingMap<u32, u64> = AgingMap::new();
        let mut dleft: DLeftTable<u32, u64> = DLeftTable::new();
        let mut now = SimTime::ZERO;
        for (raw, dt) in raw_ops {
            now += SimDuration::nanos(dt);
            match op_from(raw) {
                Op::Insert { key, val, ttl } => {
                    let expires = now + SimDuration::nanos(ttl);
                    oracle.insert(key, val, expires);
                    let evicted = dleft.insert(key, val, expires);
                    prop_assert_eq!(evicted, None, "default geometry must never evict here");
                }
                Op::Get { key } => {
                    prop_assert_eq!(oracle.get(&key, now), dleft.get(&key, now));
                }
                Op::Peek { key } => {
                    prop_assert_eq!(oracle.peek(&key, now), dleft.peek(&key, now));
                    // The d-left table returns Aged<&V> (SoA layout has
                    // no contiguous Aged to borrow); reshape the
                    // oracle's &Aged<V> to match.
                    prop_assert_eq!(
                        oracle
                            .peek_aged(&key, now)
                            .map(|a| arppath_switch::Aged { value: &a.value, expires: a.expires }),
                        dleft.peek_aged(&key, now)
                    );
                }
                Op::Touch { key, ttl } => {
                    let expires = now + SimDuration::nanos(ttl);
                    prop_assert_eq!(
                        oracle.touch(&key, expires, now),
                        dleft.touch(&key, expires, now)
                    );
                }
                Op::Remove { key } => {
                    prop_assert_eq!(oracle.remove(&key), dleft.remove(&key));
                }
                Op::Sweep => {
                    // Counts may differ (the d-left background scrubber
                    // may have removed some expired entries already);
                    // the post-state live views must not.
                    oracle.sweep(now);
                    dleft.sweep(now);
                    prop_assert_eq!(oracle.len(), dleft.len(),
                        "after an explicit sweep both tables hold exactly the live set");
                }
                Op::RetainOdd => {
                    oracle.retain(|_, v| *v % 2 == 1);
                    dleft.retain(|_, v| *v % 2 == 1);
                }
            }
            // Full live view agrees after every op, in the same
            // (key-sorted) order.
            let o: Vec<(u32, u64)> = oracle.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            let d: Vec<(u32, u64)> = dleft.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(o, d);
        }
        prop_assert_eq!(dleft.evictions(), 0);
    }

    /// Probe-once ≡ look-up-every-time ≡ the oracle. `keyed` drives
    /// the table the way the bridge did before it had slot handles
    /// (`get`, then `touch` or `insert` by key); `probed` probes once
    /// and finishes on the handle. Both see the same schedule at every
    /// geometry from 8 slots (constant eviction) up to the default;
    /// every observable — results, evicted victims, `len`, `stats`,
    /// footprint — must agree after every op, and at the default
    /// geometry both must agree with `AgingMap`. TTLs and time steps
    /// overlap, so lookups land on, one before and one after expiry
    /// instants.
    #[test]
    fn probe_path_matches_keyed_path_and_oracle(
        bucket_bits in 0u32..7,
        raw_ops in proptest::collection::vec(
            ((0u8..6, 0u32..24, 0u64..1000, 1u64..400), 0u64..200),
            1..160,
        ),
    ) {
        let with_oracle = bucket_bits == arppath_switch::dleft::DEFAULT_BUCKET_BITS;
        let mut oracle: AgingMap<u32, u64> = AgingMap::new();
        let mut keyed: DLeftTable<u32, u64> = DLeftTable::with_bucket_bits(bucket_bits);
        let mut probed: DLeftTable<u32, u64> = DLeftTable::with_bucket_bits(bucket_bits);
        let mut now = SimTime::ZERO;
        for ((sel, key, val, ttl), dt) in raw_ops {
            now += SimDuration::nanos(dt);
            let expires = now + SimDuration::nanos(ttl);
            match sel {
                // Upsert: look the key up, then replace or insert —
                // the lock-promotion and first-lock shapes.
                0 | 1 => {
                    let was = keyed.get(&key, now).copied();
                    let k_evicted = keyed.insert(key, val, expires);
                    let p_evicted = match probed.probe(&key, now) {
                        Some(slot) => {
                            prop_assert_eq!(Some(*probed.value_at(slot)), was);
                            probed.replace_at(slot, val, expires);
                            None
                        }
                        None => {
                            prop_assert_eq!(was, None);
                            probed.insert_absent(key, val, expires)
                        }
                    };
                    prop_assert_eq!(k_evicted, p_evicted);
                    if with_oracle {
                        prop_assert_eq!(oracle.get(&key, now).copied(), was);
                        oracle.insert(key, val, expires);
                    }
                }
                // Hit-then-refresh: the unicast data shape.
                2 | 3 => {
                    let was = keyed.get(&key, now).copied();
                    let touched = was.is_some() && keyed.touch(&key, expires, now);
                    let slot = probed.probe(&key, now);
                    prop_assert_eq!(slot.map(|s| *probed.value_at(s)), was);
                    if let Some(slot) = slot {
                        probed.touch_at(slot, expires);
                    }
                    prop_assert_eq!(touched, slot.is_some());
                    if with_oracle {
                        prop_assert_eq!(oracle.get(&key, now).copied(), was);
                        prop_assert_eq!(oracle.touch(&key, expires, now), touched);
                    }
                }
                4 => {
                    prop_assert_eq!(keyed.sweep(now), probed.sweep(now));
                    oracle.sweep(now);
                }
                _ => {
                    prop_assert_eq!(keyed.remove(&key), probed.remove(&key));
                    oracle.remove(&key);
                }
            }
            prop_assert_eq!(keyed.len(), probed.len());
            prop_assert_eq!(keyed.stats(), probed.stats());
            prop_assert_eq!(keyed.heap_bytes(), probed.heap_bytes());
            let k: Vec<(u32, u64, SimTime)> = keyed
                .iter_live(now)
                .map(|(k, v)| (*k, *v, keyed.peek_aged(k, now).expect("live").expires))
                .collect();
            let p: Vec<(u32, u64, SimTime)> = probed
                .iter_live(now)
                .map(|(k, v)| (*k, *v, probed.peek_aged(k, now).expect("live").expires))
                .collect();
            prop_assert_eq!(&k, &p);
            if with_oracle {
                let o: Vec<(u32, u64, SimTime)> = oracle
                    .iter_live(now)
                    .map(|(k, v)| (*k, *v, oracle.peek_aged(k, now).expect("live").expires))
                    .collect();
                prop_assert_eq!(&o, &p);
                prop_assert_eq!(probed.evictions(), 0);
            }
        }
    }

    /// Timer-wheel stress: long-lived entries repeatedly touched across
    /// many sweep horizons must behave exactly like the oracle — the
    /// re-filing path (stale wheel entries revalidating against
    /// extended deadlines) is the part a naive wheel gets wrong.
    #[test]
    fn touch_extension_across_sweeps_matches_oracle(
        schedule in proptest::collection::vec((0u32..8, 1u64..5_000_000), 1..60),
    ) {
        let mut oracle: AgingMap<u32, u32> = AgingMap::new();
        let mut dleft: DLeftTable<u32, u32> = DLeftTable::new();
        let mut now = SimTime::ZERO;
        let ttl = SimDuration::micros(800);
        for (key, dt) in schedule {
            now += SimDuration::nanos(dt);
            // Insert-or-touch, the FIB refresh pattern.
            if oracle.get(&key, now).is_some() {
                oracle.touch(&key, now + ttl, now);
            } else {
                oracle.insert(key, key, now + ttl);
            }
            if dleft.get(&key, now).is_some() {
                dleft.touch(&key, now + ttl, now);
            } else {
                dleft.insert(key, key, now + ttl);
            }
            // Removal *counts* may differ between the two sweeps: the
            // d-left background scrubber (riding on insert) may have
            // vacated expired entries already. Post-sweep state may not.
            oracle.sweep(now);
            dleft.sweep(now);
            prop_assert_eq!(oracle.len(), dleft.len());
            let o: Vec<u32> = oracle.iter_live(now).map(|(k, _)| *k).collect();
            let d: Vec<u32> = dleft.iter_live(now).map(|(k, _)| *k).collect();
            prop_assert_eq!(o, d);
        }
    }
}

#[test]
fn expiry_boundary_is_shared() {
    // The d-left twin of the boundary test in aging.rs: `expires <=
    // now` is dead on every accessor, pinned against the same
    // Aged::is_live predicate so the implementations cannot drift.
    let mut m: DLeftTable<u32, &str> = DLeftTable::new();
    m.insert(1, "x", t(100));
    assert_eq!(m.peek(&1, t(99)), Some(&"x"));
    assert_eq!(m.peek(&1, t(100)), None, "peek: the expiry instant itself is dead");
    assert!(m.touch(&1, t(200), t(99)), "touch sees the entry live at t-1");
    assert!(!m.touch(&1, t(300), t(200)), "touch sees it dead at the new boundary");
    m.insert(2, "y", t(100));
    assert_eq!(m.sweep(t(100)), 1, "sweep removes exactly the boundary-dead entry");
    assert_eq!(m.get(&2, t(100)), None, "get agrees with sweep at the boundary");
    m.insert_absent(3, "z", t(400));
    assert!(m.probe(&3, t(399)).is_some(), "probe sees the entry live at t-1");
    assert_eq!(m.probe(&3, t(400)), None, "probe: the expiry instant itself is dead");

    // And the oracle gives byte-for-byte the same answers.
    let mut o: AgingMap<u32, &str> = AgingMap::new();
    o.insert(1, "x", t(100));
    assert_eq!(o.peek(&1, t(99)), Some(&"x"));
    assert_eq!(o.peek(&1, t(100)), None);
    assert!(o.touch(&1, t(200), t(99)));
    assert!(!o.touch(&1, t(300), t(200)));
    o.insert(2, "y", t(100));
    assert_eq!(o.sweep(t(100)), 1);
    assert_eq!(o.get(&2, t(100)), None);
}

#[test]
fn overflow_eviction_is_explicit_and_counted() {
    // Tiny geometry: 1 bucket per way × 4 ways × 2 slots = 8 physical
    // slots. The 9th key must evict the earliest-expiring candidate —
    // the documented CAM divergence — and say so.
    let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
    for i in 0..8u64 {
        assert_eq!(m.insert(i, 100 + i, t(10_000 + i)), None);
    }
    assert_eq!(m.evictions(), 0);
    let evicted = m.insert(1000, 0, t(99_000));
    assert_eq!(evicted, Some((0, 100)), "victim is the earliest expiry with its value");
    assert_eq!(m.evictions(), 1);
    assert_eq!(m.len(), 8);
    // The survivors and the newcomer are all reachable.
    for i in 1..8u64 {
        assert_eq!(m.peek(&i, t(0)), Some(&(100 + i)));
    }
    assert_eq!(m.peek(&1000, t(0)), Some(&0));
}

#[test]
fn experiment_scale_load_never_evicts() {
    // The E8 worst case: one core bridge learns every host in a
    // 1024-host fat-tree, plus repair bookkeeping. Default geometry
    // must hold it with zero evictions or trace identity would be at
    // the mercy of hash luck.
    let mut m: DLeftTable<arppath_wire::MacAddr, u32> =
        DLeftTable::with_bucket_bits(arppath_switch::bucket_bits_for(2048));
    for i in 0..2048u32 {
        let evicted = m.insert(arppath_wire::MacAddr::from_index(1, i), i, t(1_000_000_000));
        assert_eq!(evicted, None, "eviction at entry {i} of 2048");
    }
    assert_eq!(m.len(), 2048);
    assert_eq!(m.evictions(), 0);
}
