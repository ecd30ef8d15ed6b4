//! A deterministic aging map: the small-table type.
//!
//! The repository has two expiring-table types, split by role:
//!
//! * [`DLeftTable`](crate::DLeftTable) is the per-station,
//!   hardware-shaped table — the ARP-Path path table and the
//!   [`LearningSwitch`](crate::LearningSwitch) FIB.
//! * [`AgingMap`] is the small-table type — the STP baseline's FIB,
//!   host ARP caches, and the ARP-Path bridge's `recent_repairs`,
//!   `seen_waves` and `proxy_cache`. It is also the oracle the
//!   `DLeftTable` property suite (`tests/dleft_oracle.rs`) checks
//!   against.
//!
//! Built on `BTreeMap` rather than `HashMap` deliberately: iteration
//! order is part of the simulator's determinism contract (a flood that
//! walks table entries must walk them in the same order every run).

use arppath_netsim::SimTime;
use std::collections::BTreeMap;

/// One stored value plus its expiry instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aged<V> {
    /// The stored value.
    pub value: V,
    /// Absolute instant the entry stops being valid.
    pub expires: SimTime,
}

impl<V> Aged<V> {
    /// The one expiry-boundary predicate every table implementation
    /// shares: an entry is live strictly *before* its expiry instant
    /// and dead from the instant onward (`expires <= now` is dead).
    ///
    /// Both [`AgingMap`] and [`DLeftTable`](crate::DLeftTable) route
    /// every liveness decision (`get`, `peek`, `touch`, `sweep`,
    /// `iter_live`) through this method, so the boundary cannot drift
    /// between the reference oracle and the hardware-shaped table; the
    /// `expiry_boundary_is_shared` tests in both modules pin it.
    #[inline]
    pub fn is_live(&self, now: SimTime) -> bool {
        self.expires > now
    }
}

/// A key-value map whose entries expire at absolute instants.
///
/// Expiry is *lazy* (checked on access) plus an explicit [`AgingMap::sweep`]
/// for callers that need accurate counts; both styles are how real
/// switch tables behave (hardware ages entries with a background
/// scrubber, lookups double-check timestamps).
#[derive(Debug, Clone, Default)]
pub struct AgingMap<K: Ord + Copy, V> {
    entries: BTreeMap<K, Aged<V>>,
}

impl<K: Ord + Copy, V> AgingMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        AgingMap { entries: BTreeMap::new() }
    }

    /// Insert or replace `key`, valid until `expires`.
    pub fn insert(&mut self, key: K, value: V, expires: SimTime) {
        self.entries.insert(key, Aged { value, expires });
    }

    /// Live value for `key` at `now`; expired entries are removed on
    /// the way.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<&V> {
        if let Some(aged) = self.entries.get(key) {
            if !aged.is_live(now) {
                self.entries.remove(key);
                return None;
            }
        }
        self.entries.get(key).map(|a| &a.value)
    }

    /// Mutable live value for `key` at `now`.
    pub fn get_mut(&mut self, key: &K, now: SimTime) -> Option<&mut V> {
        if let Some(aged) = self.entries.get(key) {
            if !aged.is_live(now) {
                self.entries.remove(key);
                return None;
            }
        }
        self.entries.get_mut(key).map(|a| &mut a.value)
    }

    /// Peek without removing expired entries (for read-only inspection
    /// in tests and reports).
    pub fn peek(&self, key: &K, now: SimTime) -> Option<&V> {
        self.entries.get(key).filter(|a| a.is_live(now)).map(|a| &a.value)
    }

    /// The full aged entry (value + expiry), live at `now`.
    pub fn peek_aged(&self, key: &K, now: SimTime) -> Option<&Aged<V>> {
        self.entries.get(key).filter(|a| a.is_live(now))
    }

    /// Extend the expiry of `key` to `expires` if present and live.
    /// Returns whether the entry existed.
    pub fn touch(&mut self, key: &K, expires: SimTime, now: SimTime) -> bool {
        match self.entries.get_mut(key) {
            Some(aged) if aged.is_live(now) => {
                aged.expires = aged.expires.max(expires);
                true
            }
            Some(_) => {
                self.entries.remove(key);
                false
            }
            None => false,
        }
    }

    /// Remove `key`, returning its value if it was present (live or
    /// not).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|a| a.value)
    }

    /// Drop every entry for which `pred` *fails* (live ones included)
    /// — i.e. keep exactly the entries `pred` accepts, like
    /// `BTreeMap::retain`. Used to flush table entries pointing at a
    /// failed port.
    pub fn retain<F: FnMut(&K, &V) -> bool>(&mut self, mut pred: F) {
        self.entries.retain(|k, a| pred(k, &a.value));
    }

    /// Remove entries expired at `now`; returns how many were removed.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, a| a.is_live(now));
        before - self.entries.len()
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entry count including not-yet-swept expired entries (callers
    /// wanting exact live counts should `sweep` first).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate live entries at `now`, in key order.
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().filter(move |(_, a)| a.is_live(now)).map(|(k, a)| (k, &a.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::SimDuration;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn get_honours_expiry() {
        let mut m = AgingMap::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.get(&1, t(50)), Some(&"x"));
        assert_eq!(m.get(&1, t(100)), None, "expiry instant itself is dead");
        assert!(m.is_empty(), "lazy removal happened");
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut m = AgingMap::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.peek(&1, t(200)), None);
        assert_eq!(m.len(), 1, "peek leaves expired entry in place");
    }

    #[test]
    fn touch_extends_but_never_shrinks() {
        let mut m = AgingMap::new();
        m.insert(1u32, "x", t(100));
        assert!(m.touch(&1, t(300), t(50)));
        assert_eq!(m.peek_aged(&1, t(50)).unwrap().expires, t(300));
        assert!(m.touch(&1, t(200), t(50)), "shorter touch succeeds");
        assert_eq!(m.peek_aged(&1, t(50)).unwrap().expires, t(300), "but keeps later expiry");
        assert!(!m.touch(&2, t(300), t(50)), "absent key");
    }

    #[test]
    fn expiry_boundary_is_shared() {
        // `expires <= now` is dead, `expires > now` is live — the one
        // boundary (Aged::is_live) every accessor of BOTH table
        // implementations must agree on. The d-left twin of this test
        // lives in tests/dleft_oracle.rs.
        let aged = Aged { value: (), expires: t(100) };
        assert!(aged.is_live(t(99)));
        assert!(!aged.is_live(t(100)), "the expiry instant itself is dead");
        assert!(!aged.is_live(t(101)));
        let mut m = AgingMap::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.peek(&1, t(99)), Some(&"x"));
        assert_eq!(m.peek(&1, t(100)), None, "peek agrees with is_live at the boundary");
        assert!(m.touch(&1, t(200), t(99)), "touch sees the entry live at t-1");
        assert!(!m.touch(&1, t(300), t(200)), "touch sees it dead at the new boundary");
        m.insert(2u32, "y", t(100));
        assert_eq!(m.sweep(t(100)), 1, "sweep removes exactly the boundary-dead entry");
        assert_eq!(m.get(&2, t(100)), None, "get agrees with sweep at the boundary");
    }

    #[test]
    fn touch_of_expired_entry_removes_it() {
        let mut m = AgingMap::new();
        m.insert(1u32, "x", t(100));
        assert!(!m.touch(&1, t(300), t(150)));
        assert!(m.is_empty());
    }

    #[test]
    fn sweep_counts_removals() {
        let mut m = AgingMap::new();
        m.insert(1u32, "a", t(10));
        m.insert(2u32, "b", t(20));
        m.insert(3u32, "c", t(30));
        assert_eq!(m.sweep(t(20)), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_filters_by_value() {
        let mut m = AgingMap::new();
        m.insert(1u32, 10, t(100));
        m.insert(2u32, 20, t(100));
        m.retain(|_, v| *v != 10);
        assert_eq!(m.peek(&1, t(0)), None);
        assert_eq!(m.peek(&2, t(0)), Some(&20));
    }

    #[test]
    fn iter_live_is_key_ordered_and_filtered() {
        let mut m = AgingMap::new();
        m.insert(3u32, "c", t(100));
        m.insert(1u32, "a", t(100));
        m.insert(2u32, "dead", t(5));
        let keys: Vec<u32> = m.iter_live(t(10)).map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn reinsert_replaces_value_and_expiry() {
        let mut m = AgingMap::new();
        m.insert(1u32, "old", t(10));
        m.insert(1u32, "new", t(100));
        assert_eq!(m.get(&1, t(50)), Some(&"new"));
    }

    proptest! {
        #[test]
        fn lazy_and_eager_expiry_agree(
            ops in proptest::collection::vec((0u8..3, 0u32..8, 0u64..100), 0..64),
        ) {
            // Apply a random op sequence twice, once sweeping eagerly,
            // once relying on lazy expiry; live views must agree.
            let mut lazy = AgingMap::new();
            let mut eager = AgingMap::new();
            let mut now = SimTime::ZERO;
            for (op, key, dt) in ops {
                now += SimDuration::nanos(dt);
                match op {
                    0 => {
                        lazy.insert(key, dt, now + SimDuration::nanos(50));
                        eager.insert(key, dt, now + SimDuration::nanos(50));
                    }
                    1 => {
                        lazy.remove(&key);
                        eager.remove(&key);
                    }
                    _ => {
                        eager.sweep(now);
                    }
                }
                prop_assert_eq!(lazy.peek(&key, now), eager.peek(&key, now));
            }
            let l: Vec<_> = lazy.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            let e: Vec<_> = eager.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(l, e);
        }
    }
}
