//! The ARP-Path bridge: path discovery by broadcast race, confirmation
//! by unicast, loop-free flooding, and on-demand path repair.
//!
//! This is the paper's contribution, implemented as a
//! [`SwitchLogic`] so it runs identically under the ideal (software)
//! timing wrapper and the NetFPGA pipeline model.
//!
//! # Protocol walkthrough (paper §2.1)
//!
//! * **Broadcast discovery** — the first copy of a flooded ARP Request
//!   from host `S` to reach this bridge *locks* `S` to its ingress
//!   port; later copies of the flood arriving on other ports lost the
//!   latency race and are discarded. The discard rule is also what
//!   makes flooding loop-free without a spanning tree.
//! * **Unicast confirmation** — the ARP Reply from `D` travels the
//!   locked chain back to `S`, promoting each lock to a long-lived
//!   `Learnt` entry and simultaneously learning `D`'s direction.
//! * **Data** — unicast frames follow `Learnt` entries; use refreshes
//!   them (configurable).
//! * **Other broadcast/multicast** — accepted only on the port that
//!   heard the source's first broadcast (same race rule), flooded, but
//!   never promoted to paths.
//! * **Path repair** (§2.1.4) — a unicast miss triggers `PathFail`
//!   toward the source's edge bridge, which floods a `PathRequest`
//!   (processed exactly like an ARP Request, but allowed to overwrite
//!   stale `Learnt` state); the destination's edge bridge answers with
//!   a `PathReply` (processed like an ARP Reply). Hosts see none of it.
//!
//! Edge-vs-core port classification uses one-hop `BridgeHello` beacons
//! (see `arppath_wire::pathctl` and DESIGN.md §5 for why this is
//! faithful to the paper's transparency claims).

use crate::config::ArpPathConfig;
use crate::counters::ArpPathCounters;
use crate::entry::{EntryState, PackedEntry, PathEntry, MAX_PORTS};
use arppath_netsim::{Ctx, PortNo, SimTime, TimerToken};
use arppath_switch::{
    AgingMap, DLeftTable, DropReason, ProcessingClass, Slot, SwitchCounters, SwitchLogic,
};
use arppath_wire::{ArpOp, ArpPacket, EthernetFrame, MacAddr, PathCtl, PathCtlKind, Payload};
use std::net::Ipv4Addr;

/// Timer cookie: periodic BridgeHello beacon.
const TOKEN_HELLO: TimerToken = TimerToken(0x4150_1001);

/// Where the path table sends a unicast frame ([`ArpPathBridge::next_hop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextHop {
    /// Out this port.
    Out(PortNo),
    /// The entry points back out the ingress port: dropped.
    Bounce,
    /// No live entry.
    Miss,
}

/// The ARP-Path (FastPath) bridge decision plane.
pub struct ArpPathBridge {
    name: String,
    /// The bridge's own MAC, used as `origin` in control messages.
    mac: MacAddr,
    num_ports: usize,
    config: ArpPathConfig,
    /// The path table: station MAC → (port, Locked/Learnt). This is
    /// the structure the paper implements in NetFPGA block RAM: a
    /// fixed-geometry d-left hash table with background aging, checked
    /// against the [`AgingMap`] oracle by the `DLeftTable` property
    /// suite. Entries are stored packed, one word each.
    table: DLeftTable<MacAddr, PackedEntry>,
    /// Per-port instant until which the port counts as *core*
    /// (a neighbouring bridge's hello was heard recently).
    core_until: Vec<SimTime>,
    /// Beacon sequence number.
    hello_seq: u32,
    /// Monotonic repair-nonce source.
    nonce_counter: u32,
    /// Recently started repairs, keyed by (source, destination).
    recent_repairs: AgingMap<(MacAddr, MacAddr), u32>,
    /// First-arrival port of every repair wave seen recently, keyed by
    /// (source host, wave nonce). Duplicate suppression for repair
    /// floods lives *only* here, decoupled from the forwarding table
    /// (path entries carry no wave stamp): the table entry a wave
    /// created may legitimately be rewritten by a concurrent wave or
    /// its reply, but a late copy of an old wave must still be
    /// recognized and discarded, or it re-floods. A record lasts
    /// `lock_time`, so a copy later than that is not recognized.
    seen_waves: AgingMap<(MacAddr, u32), PortNo>,
    /// Proxy cache: IP → MAC gleaned from ARP traffic. Filled only
    /// when [`ArpPathConfig::proxy`] is on — nothing else reads it.
    proxy_cache: AgingMap<Ipv4Addr, MacAddr>,
    counters: SwitchCounters,
    ap: ArpPathCounters,
}

impl ArpPathBridge {
    /// Create a bridge named `name` with `num_ports` ports. `mac` is
    /// the bridge's own address (control-message origin; never learned
    /// by peers, since path state is only created for hosts).
    ///
    /// # Panics
    ///
    /// With more than 65,536 ports: a path-table entry names its port
    /// in 16 bits.
    pub fn new(
        name: impl Into<String>,
        mac: MacAddr,
        num_ports: usize,
        config: ArpPathConfig,
    ) -> Self {
        assert!(num_ports <= MAX_PORTS, "{num_ports} ports do not fit a path-table entry");
        ArpPathBridge {
            name: name.into(),
            mac,
            num_ports,
            table: DLeftTable::with_bucket_bits(config.geometry_bits()),
            config,
            core_until: vec![SimTime::ZERO; num_ports],
            hello_seq: 0,
            nonce_counter: 0,
            recent_repairs: AgingMap::new(),
            seen_waves: AgingMap::new(),
            proxy_cache: AgingMap::new(),
            counters: SwitchCounters::default(),
            ap: ArpPathCounters::default(),
        }
    }

    /// The bridge's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// ARP-Path protocol counters.
    pub fn ap_counters(&self) -> ArpPathCounters {
        self.ap
    }

    /// Live path-table entry for `mac` (inspection; does not mutate).
    pub fn entry_of(&self, mac: MacAddr, now: SimTime) -> Option<PathEntry> {
        self.table.peek(&mac, now).map(|packed| packed.unpack())
    }

    /// Number of (possibly stale) table entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Bucket-overflow evictions in the path table since construction.
    /// Nonzero means the d-left geometry is undersized for the fabric
    /// (a real CAM would have dropped the entry silently instead).
    pub fn table_evictions(&self) -> u64 {
        self.table.evictions()
    }

    /// Physical slot capacity of the path table — what the configured
    /// (or [`ArpPathConfig::autosize_for_stations`]-derived) geometry
    /// actually allocated.
    pub fn table_slot_capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Heap bytes the path table spends (SoA planes + generation
    /// stamps + timer wheel). Summed across a fabric's bridges and
    /// divided by the station count this is the bytes-per-station
    /// figure experiment E12 reports and holds under its ceiling.
    pub fn table_heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Entries in the proxy IP → MAC cache (possibly stale ones
    /// included); stays zero on a bridge whose proxy is off.
    pub fn proxy_cache_len(&self) -> usize {
        self.proxy_cache.len()
    }

    /// Churn/aging instrumentation snapshot of the path table
    /// (occupancy high-water, mass-expiry sweep shape, eviction-victim
    /// age histogram) — the E11 observables.
    pub fn table_stats(&self) -> arppath_switch::TableStats {
        self.table.stats()
    }

    /// Whether `port` currently classifies as core (bridge-facing).
    pub fn is_core_port(&self, port: PortNo, now: SimTime) -> bool {
        self.core_until.get(port.0).is_some_and(|&t| t > now)
    }

    fn is_edge_port(&self, port: PortNo, now: SimTime) -> bool {
        !self.is_core_port(port, now)
    }

    // ---- table helpers ----

    /// Live entry for `mac`, expired ones vacated on the way.
    fn lookup(&mut self, mac: MacAddr, now: SimTime) -> Option<PathEntry> {
        self.table.get(&mac, now).map(|packed| packed.unpack())
    }

    /// One walk of the table for `mac`: its live entry and the slot
    /// handle to refresh or rewrite it through, so a frame pays for
    /// one probe per address however much it then does to the entry.
    fn probe(&mut self, mac: MacAddr, now: SimTime) -> Option<(Slot, PathEntry)> {
        let slot = self.table.probe(&mac, now)?;
        Some((slot, self.table.value_at(slot).unpack()))
    }

    /// Whether the optional hardware capacity bound admits one more
    /// key, sweeping expired entries first if it looks full; counts the
    /// rejection otherwise.
    fn has_room(&mut self, now: SimTime) -> bool {
        let Some(cap) = self.config.table_capacity else { return true };
        if self.table.len() >= cap {
            self.table.sweep(now);
            if self.table.len() >= cap {
                self.ap.table_full_rejections += 1;
                return false;
            }
        }
        true
    }

    /// Insert honouring the capacity bound. Existing keys always
    /// replace in place; new keys are refused when the table is full
    /// even after sweeping expired entries.
    fn try_insert(
        &mut self,
        mac: MacAddr,
        entry: PathEntry,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        let bounded = self.config.table_capacity.is_some();
        if bounded && self.table.peek(&mac, now).is_none() && !self.has_room(now) {
            return false;
        }
        self.table.insert(mac, entry.into(), expires);
        true
    }

    // ---- discovery ----

    /// Apply the first-copy-wins lock rule to a flooded frame from
    /// `src` arriving on `port`; `wave` is a repair flood's nonce
    /// (`None` for host broadcasts). Returns `true` when the copy won
    /// (caller floods / answers), `false` when it lost (caller drops).
    fn accept_discovery(
        &mut self,
        src: MacAddr,
        port: PortNo,
        wave: Option<u32>,
        now: SimTime,
    ) -> bool {
        let lock_expiry = now + self.config.lock_time;
        // Repair waves resolve their race in `seen_waves`, not the
        // forwarding table: the first copy of wave `n` records its port
        // and may take the entry over; every other copy of the same
        // wave loses, whatever concurrent waves or replies have since
        // done to the forwarding entry. This dedup lasts `lock_time`.
        let mut takeover = false;
        if let Some(n) = wave {
            match self.seen_waves.get(&(src, n), now).copied() {
                None => {
                    self.seen_waves.insert((src, n), port, lock_expiry);
                    takeover = true;
                }
                Some(p) if p == port => {
                    // Re-origination of the same episode (e.g. a second
                    // PathFail converted after the hold expired): refresh.
                    self.seen_waves.touch(&(src, n), lock_expiry, now);
                    return true;
                }
                Some(_) => return self.lose_race(),
            }
        }
        match self.probe(src, now) {
            Some((slot, e)) if e.port == port => {
                // Same port as the standing entry: a retry or refresh.
                // A repair wave keeps it too — downgrading a confirmed
                // entry to a short lock would seed an expiry miss.
                self.table.touch_at(slot, self.refreshed_expiry(e, now));
                true
            }
            Some((slot, _)) if takeover => {
                // A repair wave's first copy displaces stale learnt
                // state (the very thing repair exists to fix) or an
                // older wave's lock.
                self.table.replace_at(slot, PathEntry::locked(port).into(), lock_expiry);
                self.ap.locks_created += 1;
                true
            }
            // Lost the race (or off-path broadcast while a path
            // stands): the paper's discard rule.
            Some(_) => self.lose_race(),
            None if self.has_room(now) => {
                self.table.insert_absent(src, PathEntry::locked(port).into(), lock_expiry);
                self.ap.locks_created += 1;
                true
            }
            None => {
                self.counters.drop_frame(DropReason::TableFull);
                false
            }
        }
    }

    /// Count a broadcast copy that lost the race; always `false`.
    fn lose_race(&mut self) -> bool {
        self.ap.race_drops += 1;
        self.counters.drop_frame(DropReason::LostRace);
        false
    }

    /// The expiry a standing entry is refreshed to: its own state's
    /// lifetime from `now`.
    fn refreshed_expiry(&self, entry: PathEntry, now: SimTime) -> SimTime {
        match entry.state {
            EntryState::Locked => now + self.config.lock_time,
            EntryState::Learnt => now + self.config.learn_time,
        }
    }

    fn handle_arp_request(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        arp: ArpPacket,
        ctx: &mut Ctx,
    ) -> ProcessingClass {
        let now = ctx.now();
        if !self.accept_discovery(frame.src, port, None, now) {
            return ProcessingClass::Hardware;
        }
        if self.config.proxy {
            // Snoop the sender mapping for the proxy cache.
            if arp.sha.is_unicast() {
                self.proxy_cache.insert(arp.spa, arp.sha, now + self.config.proxy_cache_time);
            }
            // Answer locally iff we know the mapping *and* hold a live
            // confirmed path to the target — the ARP-Path + EtherProxy
            // combination (§2.2, ref [5]): the suppressed flood is only
            // safe when unicast toward the target can actually be
            // forwarded from here.
            if let Some(&target_mac) = self.proxy_cache.get(&arp.tpa, now) {
                let has_path =
                    self.lookup(target_mac, now).is_some_and(|e| e.state == EntryState::Learnt);
                if has_path {
                    let reply = ArpPacket::reply_to(&arp, target_mac, arp.tpa);
                    ctx.send(port, EthernetFrame::arp_reply(reply));
                    self.ap.proxy_replies += 1;
                    return ProcessingClass::Software;
                }
            }
            self.ap.proxy_passthrough += 1;
        }
        self.counters.flooded += 1;
        self.ap.arp_request_floods += 1;
        ctx.flood(&frame, port);
        ProcessingClass::Hardware
    }

    /// Path-establishing unicast (ARP Reply; PathReply has its own
    /// handler): learn the sender's direction as confirmed, then
    /// forward along the destination's entry, promoting it.
    fn handle_arp_reply(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        arp: ArpPacket,
        ctx: &mut Ctx,
    ) -> ProcessingClass {
        let now = ctx.now();
        if self.config.proxy && arp.sha.is_unicast() {
            self.proxy_cache.insert(arp.spa, arp.sha, now + self.config.proxy_cache_time);
        }
        // The replier D is reachable via the reply's ingress port.
        self.try_insert(frame.src, PathEntry::learnt(port), now + self.config.learn_time, now);
        self.forward_unicast(port, frame, true, ctx)
    }

    /// The one unicast forwarding rule: where a frame toward `dst` that
    /// arrived on `ingress` goes. A hit pointing back out the ingress
    /// port is a bounce. A path-establishing frame (`establishing`:
    /// ARP Reply, PathReply) promotes a `Locked` entry; it and — with
    /// `refresh_on_data` — any other hit refresh a `Learnt` one (the
    /// hardware hit-bit: one-way flows keep their path alive).
    fn next_hop(
        &mut self,
        dst: MacAddr,
        ingress: PortNo,
        establishing: bool,
        now: SimTime,
    ) -> NextHop {
        let Some((slot, e)) = self.probe(dst, now) else { return NextHop::Miss };
        if e.port == ingress {
            return NextHop::Bounce;
        }
        let learnt_expiry = now + self.config.learn_time;
        match e.state {
            EntryState::Locked if establishing => {
                self.table.replace_at(slot, PathEntry::learnt(e.port).into(), learnt_expiry);
                self.ap.promotions += 1;
            }
            EntryState::Learnt if establishing || self.config.refresh_on_data => {
                self.table.touch_at(slot, learnt_expiry);
            }
            _ => {}
        }
        NextHop::Out(e.port)
    }

    /// Forward a host unicast (data, or an ARP Reply when
    /// `establishing`) along [`Self::next_hop`].
    fn forward_unicast(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        establishing: bool,
        ctx: &mut Ctx,
    ) -> ProcessingClass {
        match self.next_hop(frame.dst, port, establishing, ctx.now()) {
            NextHop::Out(out) => {
                self.counters.forwarded += 1;
                ctx.send(out, frame);
                ProcessingClass::Hardware
            }
            NextHop::Bounce => {
                self.counters.drop_frame(DropReason::NoPath);
                ProcessingClass::Hardware
            }
            NextHop::Miss => {
                // The paper's bridges do not flood unknown unicast —
                // without a spanning tree that could loop. Drop and
                // repair (§2.1.4); for an ARP Reply the reverse lock
                // evaporated (slow reply or failure), a miss like any
                // other.
                self.ap.unicast_misses += 1;
                self.counters.drop_frame(DropReason::NoPath);
                self.maybe_repair(frame.src, frame.dst, ctx);
                ProcessingClass::Software
            }
        }
    }

    fn handle_unicast_data(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        ctx: &mut Ctx,
    ) -> ProcessingClass {
        if self.config.refresh_on_data {
            // A frame from S on S's own entry port proves the path is
            // in use: refresh confirmed entries.
            let now = ctx.now();
            if let Some((slot, e)) = self.probe(frame.src, now) {
                if e.port == port && e.state == EntryState::Learnt {
                    self.table.touch_at(slot, now + self.config.learn_time);
                }
            }
        }
        self.forward_unicast(port, frame, false, ctx)
    }

    fn handle_other_broadcast(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        ctx: &mut Ctx,
    ) -> ProcessingClass {
        let now = ctx.now();
        if self.accept_discovery(frame.src, port, None, now) {
            self.counters.flooded += 1;
            ctx.flood(&frame, port);
        }
        ProcessingClass::Hardware
    }

    // ---- repair ----

    fn next_nonce(&mut self) -> u32 {
        self.nonce_counter = self.nonce_counter.wrapping_add(1);
        // Mix the bridge identity into the nonce: two bridges starting
        // repairs simultaneously (e.g. both sides of one failure) must
        // not mint the same wave id, or their waves' race detection
        // would interfere.
        ((self.mac.to_u64() as u32 & 0xffff) << 16) | (self.nonce_counter & 0xffff)
    }

    /// A unicast miss for `dst` in a frame from `src` happened here:
    /// start (or suppress) a repair episode.
    fn maybe_repair(&mut self, src: MacAddr, dst: MacAddr, ctx: &mut Ctx) {
        if !self.config.repair || !src.is_unicast() || !dst.is_unicast() {
            return;
        }
        let now = ctx.now();
        let Some(nonce) = self.start_episode(src, dst, None, now) else {
            self.counters.drop_frame(DropReason::RepairPending);
            return;
        };
        let Some(src_entry) = self.lookup(src, now) else {
            // We cannot even route a PathFail toward the source; give
            // up and let host-level timeouts recover.
            return;
        };
        self.ap.repairs_initiated += 1;
        if self.is_edge_port(src_entry.port, now) {
            // We are the source's edge bridge: skip the PathFail leg
            // and flood the re-discovery directly.
            self.originate_path_request(src, dst, nonce, src_entry.port, ctx);
        } else {
            let ctl = PathCtl::fail(src, dst, self.mac, nonce);
            let frame = EthernetFrame::new(src, self.mac, Payload::PathCtl(ctl));
            ctx.send(src_entry.port, frame);
        }
    }

    /// Open a repair episode for `(src, dst)` under `nonce` (a fresh
    /// one when `None`) and return it — unless one is already pending
    /// within `repair_hold`, which counts as suppressed.
    fn start_episode(
        &mut self,
        src: MacAddr,
        dst: MacAddr,
        nonce: Option<u32>,
        now: SimTime,
    ) -> Option<u32> {
        if self.recent_repairs.get(&(src, dst), now).is_some() {
            self.ap.repairs_suppressed += 1;
            return None;
        }
        let nonce = nonce.unwrap_or_else(|| self.next_nonce());
        self.recent_repairs.insert((src, dst), nonce, now + self.config.repair_hold);
        Some(nonce)
    }

    /// Flood a PathRequest on behalf of `src` (we are its edge bridge).
    fn originate_path_request(
        &mut self,
        src: MacAddr,
        dst: MacAddr,
        nonce: u32,
        src_port: PortNo,
        ctx: &mut Ctx,
    ) {
        let now = ctx.now();
        if let Some(e) = self.lookup(dst, now) {
            if self.is_edge_port(e.port, now) {
                // Source and destination are both our edge stations;
                // our own table already carries the (one-bridge) path,
                // so there is nothing to re-discover.
                return;
            }
        }
        // Pin the source's entry as confirmed on its edge port for the
        // duration of the episode.
        self.table.insert(src, PathEntry::learnt(src_port).into(), now + self.config.learn_time);
        let ctl = PathCtl::request(src, dst, self.mac, nonce);
        // Spoof the source host so the flood locks `src`, exactly as an
        // ARP Request from the host would.
        let frame = EthernetFrame::new(MacAddr::BROADCAST, src, Payload::PathCtl(ctl));
        self.ap.path_requests_originated += 1;
        ctx.flood(&frame, src_port);
    }

    fn handle_path_fail(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        ctl: PathCtl,
        ctx: &mut Ctx,
    ) {
        self.ap.path_fails_rx += 1;
        let now = ctx.now();
        let Some(src_entry) = self.lookup(ctl.src_host, now) else {
            self.counters.drop_frame(DropReason::NoPath);
            return;
        };
        if src_entry.port == port {
            // Would bounce straight back where it came from: the state
            // is inconsistent; drop rather than loop.
            self.counters.drop_frame(DropReason::NoPath);
            return;
        }
        if self.is_edge_port(src_entry.port, now) {
            // We are the source's edge bridge: convert to a flood.
            if self.start_episode(ctl.src_host, ctl.dst_host, Some(ctl.nonce), now).is_some() {
                self.ap.repairs_initiated += 1;
                let src_port = src_entry.port;
                self.originate_path_request(ctl.src_host, ctl.dst_host, ctl.nonce, src_port, ctx);
            }
        } else if let Some(relayed) = ctl.decremented() {
            // Relay hop-by-hop toward the source's edge.
            let mut frame = frame;
            frame.payload = Payload::PathCtl(relayed);
            ctx.send(src_entry.port, frame);
        } else {
            self.counters.drop_frame(DropReason::NoPath);
        }
    }

    fn handle_path_request(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        ctl: PathCtl,
        ctx: &mut Ctx,
    ) {
        self.ap.path_requests_rx += 1;
        let now = ctx.now();
        if !self.accept_discovery(ctl.src_host, port, Some(ctl.nonce), now) {
            return;
        }
        // Are we the destination's edge bridge? Then answer on its
        // behalf — the host never participates.
        if let Some(e) = self.lookup(ctl.dst_host, now) {
            if e.state == EntryState::Learnt && self.is_edge_port(e.port, now) {
                let reply = PathCtl::reply(ctl.src_host, ctl.dst_host, self.mac, ctl.nonce);
                let reply_frame =
                    EthernetFrame::new(ctl.src_host, ctl.dst_host, Payload::PathCtl(reply));
                self.ap.path_replies_sent += 1;
                // Back along the port this winning request came from —
                // the freshly locked reverse path toward the source.
                ctx.send(port, reply_frame);
                return;
            }
        }
        if let Some(relayed) = ctl.decremented() {
            let mut frame = frame;
            frame.payload = Payload::PathCtl(relayed);
            ctx.flood(&frame, port);
        }
    }

    fn handle_path_reply(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        ctl: PathCtl,
        ctx: &mut Ctx,
    ) {
        self.ap.path_replies_rx += 1;
        let now = ctx.now();
        // The destination host is reachable via this reply's ingress.
        self.try_insert(ctl.dst_host, PathEntry::learnt(port), now + self.config.learn_time, now);
        match self.next_hop(ctl.src_host, port, true, now) {
            // We are the source's edge: the repair is complete; the
            // host needs nothing (and would ignore it).
            NextHop::Out(out) if self.is_edge_port(out, now) => self.counters.consumed += 1,
            NextHop::Out(out) => match ctl.decremented() {
                Some(relayed) => {
                    let mut frame = frame;
                    frame.payload = Payload::PathCtl(relayed);
                    ctx.send(out, frame);
                }
                None => self.counters.drop_frame(DropReason::NoPath),
            },
            NextHop::Bounce | NextHop::Miss => self.counters.drop_frame(DropReason::NoPath),
        }
    }

    fn handle_hello(&mut self, port: PortNo, ctx: &mut Ctx) {
        self.ap.hellos_rx += 1;
        self.core_until[port.0] = ctx.now() + self.config.hello_hold;
        self.counters.consumed += 1;
    }

    /// The next BridgeHello beacon, under a fresh sequence number.
    fn next_hello(&mut self) -> EthernetFrame {
        self.hello_seq = self.hello_seq.wrapping_add(1);
        let ctl = PathCtl::hello(self.mac, self.hello_seq);
        EthernetFrame::new(MacAddr::BROADCAST, self.mac, Payload::PathCtl(ctl))
    }

    /// One beacon out of every up port.
    fn send_hellos(&mut self, ctx: &mut Ctx) {
        let hello = self.next_hello();
        for port in (0..self.num_ports).map(PortNo) {
            if ctx.is_port_up(port) {
                ctx.send(port, hello.clone());
                self.ap.hellos_tx += 1;
            }
        }
    }
}

impl SwitchLogic for ArpPathBridge {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_ports(&self) -> usize {
        self.num_ports
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_hellos(ctx);
        ctx.schedule(self.config.hello_interval, TOKEN_HELLO);
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) -> ProcessingClass {
        // Control messages first: they may carry spoofed host source
        // addresses by design.
        if let Payload::PathCtl(ctl) = frame.payload {
            self.counters.consumed += 1;
            match ctl.kind {
                PathCtlKind::BridgeHello => self.handle_hello(port, ctx),
                PathCtlKind::PathFail => self.handle_path_fail(port, frame, ctl, ctx),
                PathCtlKind::PathRequest => self.handle_path_request(port, frame, ctl, ctx),
                PathCtlKind::PathReply => self.handle_path_reply(port, frame, ctl, ctx),
            }
            return ProcessingClass::Software;
        }
        if !frame.src.is_unicast() {
            self.counters.drop_frame(DropReason::Malformed);
            return ProcessingClass::Hardware;
        }
        match (&frame.payload, frame.is_flooded()) {
            (Payload::Arp(arp), true) if arp.op == ArpOp::Request => {
                let arp = *arp;
                self.handle_arp_request(port, frame, arp, ctx)
            }
            (Payload::Arp(arp), false) if arp.op == ArpOp::Reply => {
                let arp = *arp;
                self.handle_arp_reply(port, frame, arp, ctx)
            }
            (_, true) => self.handle_other_broadcast(port, frame, ctx),
            (_, false) => self.handle_unicast_data(port, frame, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token == TOKEN_HELLO {
            self.send_hellos(ctx);
            ctx.schedule(self.config.hello_interval, TOKEN_HELLO);
        }
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        if up {
            // Fast core re-detection on the revived segment.
            let hello = self.next_hello();
            ctx.send(port, hello);
            self.ap.hellos_tx += 1;
        } else {
            // Hardware link-loss: flush every entry pointing at the
            // dead port so the next unicast triggers repair instead of
            // black-holing until expiry.
            let before = self.table.len();
            self.table.retain(|_, e| e.port() != port);
            self.ap.link_down_flushes += (before - self.table.len()) as u64;
            self.core_until[port.0] = SimTime::ZERO;
        }
    }

    fn counters(&self) -> &SwitchCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId, SimDuration};
    use bytes::Bytes;

    const N: usize = 4;

    fn host(i: u32) -> MacAddr {
        MacAddr::from_index(1, i)
    }

    fn bridge_mac() -> MacAddr {
        MacAddr::from_index(2, 1)
    }

    fn ip(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, i)
    }

    fn mk(config: ArpPathConfig) -> ArpPathBridge {
        ArpPathBridge::new("nf1", bridge_mac(), N, config)
    }

    fn arp_request_frame(src_i: u32, dst_ip: u8) -> EthernetFrame {
        EthernetFrame::arp_request(
            host(src_i),
            ArpPacket::request(host(src_i), ip(src_i as u8), ip(dst_ip)),
        )
    }

    fn arp_reply_frame(replier: u32, to: u32) -> EthernetFrame {
        let req = ArpPacket::request(host(to), ip(to as u8), ip(replier as u8));
        EthernetFrame::arp_reply(ArpPacket::reply_to(&req, host(replier), ip(replier as u8)))
    }

    fn data_frame(src_i: u32, dst_i: u32) -> EthernetFrame {
        EthernetFrame::new(
            host(dst_i),
            host(src_i),
            Payload::Raw {
                ethertype: arppath_wire::EtherType(0x88B6),
                data: Bytes::from(vec![0u8; 46]),
            },
        )
    }

    /// Run one frame through the bridge; returns the egress ports used.
    fn feed(br: &mut ArpPathBridge, port: usize, f: EthernetFrame, now: SimTime) -> Vec<usize> {
        feed_frames(br, port, f, now).into_iter().map(|(p, _)| p).collect()
    }

    /// Like `feed` but returning the full output frames.
    fn feed_frames(
        br: &mut ArpPathBridge,
        port: usize,
        f: EthernetFrame,
        now: SimTime,
    ) -> Vec<(usize, EthernetFrame)> {
        let ports_up = vec![true; N];
        let mut commands = Vec::new();
        br.on_frame(PortNo(port), f, &mut Ctx::new(now, NodeId(0), &ports_up, &mut commands));
        commands.iter().filter_map(Command::as_send).map(|(p, f)| (p.0, f.clone())).collect()
    }

    /// Mark `port` as core by feeding a hello from a peer bridge.
    fn make_core(br: &mut ArpPathBridge, port: usize, now: SimTime) {
        let hello = PathCtl::hello(MacAddr::from_index(2, 99), 1);
        let f = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(2, 99),
            Payload::PathCtl(hello),
        );
        feed(br, port, f, now);
    }

    #[test]
    fn first_arp_request_locks_and_floods() {
        let mut br = mk(ArpPathConfig::default());
        let out = feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        assert_eq!(out, vec![0, 2, 3], "flooded everywhere but ingress");
        let e = br.entry_of(host(1), SimTime(1)).unwrap();
        assert_eq!(e.port, PortNo(1));
        assert_eq!(e.state, EntryState::Locked);
        assert_eq!(br.ap_counters().locks_created, 1);
    }

    #[test]
    fn rival_copy_on_other_port_loses_race() {
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        let out = feed(&mut br, 3, arp_request_frame(1, 2), SimTime(100));
        assert!(out.is_empty(), "loser copy must be discarded");
        assert_eq!(br.ap_counters().race_drops, 1);
        // The lock still points at the winning port.
        assert_eq!(br.entry_of(host(1), SimTime(200)).unwrap().port, PortNo(1));
    }

    #[test]
    fn retry_on_same_port_refreshes_and_refloods() {
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        let out = feed(&mut br, 1, arp_request_frame(1, 2), SimTime(1000));
        assert_eq!(out.len(), 3, "same-port retry floods again");
        assert_eq!(br.ap_counters().race_drops, 0);
    }

    #[test]
    fn lock_expires_and_port_can_move() {
        let cfg = ArpPathConfig { lock_time: SimDuration::millis(1), ..Default::default() };
        let mut br = mk(cfg);
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        let later = SimTime(0) + SimDuration::millis(2);
        let out = feed(&mut br, 3, arp_request_frame(1, 2), later);
        assert_eq!(out.len(), 3, "after lock expiry a new race starts");
        assert_eq!(br.entry_of(host(1), later).unwrap().port, PortNo(3));
    }

    #[test]
    fn arp_reply_promotes_lock_and_learns_replier() {
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        // Reply from host 2 arrives on port 2, destined to host 1.
        let out = feed(&mut br, 2, arp_reply_frame(2, 1), SimTime(1000));
        assert_eq!(out, vec![1], "reply follows the locked port toward the requester");
        let e1 = br.entry_of(host(1), SimTime(2000)).unwrap();
        assert_eq!(e1.state, EntryState::Learnt, "lock confirmed");
        let e2 = br.entry_of(host(2), SimTime(2000)).unwrap();
        assert_eq!((e2.port, e2.state), (PortNo(2), EntryState::Learnt));
        assert_eq!(br.ap_counters().promotions, 1);
    }

    #[test]
    fn established_path_forwards_data_both_ways() {
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        feed(&mut br, 2, arp_reply_frame(2, 1), SimTime(1000));
        assert_eq!(feed(&mut br, 1, data_frame(1, 2), SimTime(2000)), vec![2]);
        assert_eq!(feed(&mut br, 2, data_frame(2, 1), SimTime(3000)), vec![1]);
        assert_eq!(br.counters().forwarded, 3); // reply + 2 data
    }

    #[test]
    fn data_refreshes_learnt_entries() {
        let cfg = ArpPathConfig { learn_time: SimDuration::millis(10), ..Default::default() };
        let mut br = mk(cfg);
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        feed(&mut br, 2, arp_reply_frame(2, 1), SimTime(1000));
        // Keep sending data every 5 ms for 50 ms: entry must survive.
        let mut t = SimTime(1000);
        for _ in 0..10 {
            t += SimDuration::millis(5);
            let out = feed(&mut br, 1, data_frame(1, 2), t);
            assert_eq!(out, vec![2], "path must stay alive under traffic at {t}");
        }
    }

    #[test]
    fn unicast_miss_drops_not_floods() {
        let mut br = mk(ArpPathConfig::default().without_repair());
        let out = feed(&mut br, 0, data_frame(1, 2), SimTime(0));
        assert!(out.is_empty(), "unknown unicast must not be flooded");
        assert_eq!(br.ap_counters().unicast_misses, 1);
        assert_eq!(br.counters().dropped(DropReason::NoPath), 1);
    }

    #[test]
    fn miss_with_core_source_port_sends_pathfail() {
        let mut br = mk(ArpPathConfig::default());
        make_core(&mut br, 1, SimTime(0));
        // Learn source host 1 via core port 1 (simulates mid-path bridge).
        feed(&mut br, 1, arp_request_frame(1, 9), SimTime(10));
        // Data to an unknown destination 2.
        let out = feed_frames(&mut br, 1, data_frame(1, 2), SimTime(1000));
        assert_eq!(out.len(), 1);
        let (p, f) = &out[0];
        assert_eq!(*p, 1, "PathFail goes back toward the source");
        match &f.payload {
            Payload::PathCtl(c) => {
                assert_eq!(c.kind, PathCtlKind::PathFail);
                assert_eq!(c.src_host, host(1));
                assert_eq!(c.dst_host, host(2));
                assert_eq!(c.origin, bridge_mac());
            }
            other => panic!("expected PathFail, got {other:?}"),
        }
        assert_eq!(f.dst, host(1), "routed like a frame to the source");
        assert_eq!(br.ap_counters().repairs_initiated, 1);
    }

    #[test]
    fn miss_at_source_edge_floods_pathrequest_directly() {
        let mut br = mk(ArpPathConfig::default());
        make_core(&mut br, 2, SimTime(0));
        make_core(&mut br, 3, SimTime(0));
        // Host 1 on edge port 0.
        feed(&mut br, 0, arp_request_frame(1, 9), SimTime(10));
        let out = feed_frames(&mut br, 0, data_frame(1, 2), SimTime(1000));
        // PathRequest flooded on every port except the source's.
        assert_eq!(out.len(), 3);
        for (p, f) in &out {
            assert_ne!(*p, 0);
            match &f.payload {
                Payload::PathCtl(c) => {
                    assert_eq!(c.kind, PathCtlKind::PathRequest);
                    assert_eq!(f.src, host(1), "spoofs the source so locks form");
                    assert!(f.is_flooded());
                }
                other => panic!("expected PathRequest, got {other:?}"),
            }
        }
        assert_eq!(br.ap_counters().path_requests_originated, 1);
    }

    #[test]
    fn repeated_misses_within_hold_are_suppressed() {
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 0, arp_request_frame(1, 9), SimTime(10));
        feed(&mut br, 0, data_frame(1, 2), SimTime(1000));
        feed(&mut br, 0, data_frame(1, 2), SimTime(2000));
        feed(&mut br, 0, data_frame(1, 2), SimTime(3000));
        assert_eq!(br.ap_counters().repairs_initiated, 1);
        assert_eq!(br.ap_counters().repairs_suppressed, 2);
    }

    #[test]
    fn pathfail_relays_toward_source_on_core_path() {
        let mut br = mk(ArpPathConfig::default());
        make_core(&mut br, 1, SimTime(0));
        feed(&mut br, 1, arp_request_frame(1, 9), SimTime(10)); // source via core port 1
        let fail = PathCtl::fail(host(1), host(2), MacAddr::from_index(2, 50), 42);
        let f = EthernetFrame::new(host(1), MacAddr::from_index(2, 50), Payload::PathCtl(fail));
        let out = feed_frames(&mut br, 2, f, SimTime(1000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1, "relayed along the source's entry");
        assert!(
            matches!(&out[0].1.payload, Payload::PathCtl(c) if c.kind == PathCtlKind::PathFail)
        );
    }

    #[test]
    fn pathfail_at_source_edge_converts_to_flood() {
        let mut br = mk(ArpPathConfig::default());
        make_core(&mut br, 2, SimTime(0));
        feed(&mut br, 0, arp_request_frame(1, 9), SimTime(10)); // source on edge port 0
        let fail = PathCtl::fail(host(1), host(2), MacAddr::from_index(2, 50), 42);
        let f = EthernetFrame::new(host(1), MacAddr::from_index(2, 50), Payload::PathCtl(fail));
        let out = feed_frames(&mut br, 2, f, SimTime(1000));
        assert_eq!(out.len(), 3, "request flooded except toward the host");
        assert!(out.iter().all(|(p, _)| *p != 0));
        assert!(out.iter().all(
            |(_, f)| matches!(&f.payload, Payload::PathCtl(c) if c.kind == PathCtlKind::PathRequest)
        ));
    }

    #[test]
    fn pathrequest_overwrites_stale_learnt_entry() {
        let mut br = mk(ArpPathConfig::default());
        // Port 2 faces another bridge, so the host-9 entry learned
        // there does not make us host 9's edge bridge.
        make_core(&mut br, 2, SimTime(0));
        // Establish host 1 Learnt via port 1 (old path).
        feed(&mut br, 1, arp_request_frame(1, 9), SimTime(0));
        feed(&mut br, 1, arp_request_frame(1, 9), SimTime(10));
        // Promote via a reply.
        feed(&mut br, 2, arp_reply_frame(9, 1), SimTime(20));
        assert_eq!(br.entry_of(host(1), SimTime(30)).unwrap().state, EntryState::Learnt);
        // Repair flood for host 1 arrives on port 3 (new path after a
        // failure elsewhere).
        let req = PathCtl::request(host(1), host(9), MacAddr::from_index(2, 50), 7);
        let f = EthernetFrame::new(MacAddr::BROADCAST, host(1), Payload::PathCtl(req));
        let out = feed(&mut br, 3, f, SimTime(1000));
        assert_eq!(out.len(), 3, "request flooded onward");
        let e = br.entry_of(host(1), SimTime(1001)).unwrap();
        assert_eq!(e.port, PortNo(3), "repair may overwrite stale learnt state");
        assert_eq!(e.state, EntryState::Locked);
    }

    #[test]
    fn rival_copies_of_same_repair_wave_race() {
        let mut br = mk(ArpPathConfig::default());
        let req = PathCtl::request(host(1), host(9), MacAddr::from_index(2, 50), 7);
        let f = EthernetFrame::new(MacAddr::BROADCAST, host(1), Payload::PathCtl(req));
        feed(&mut br, 1, f.clone(), SimTime(0));
        let out = feed(&mut br, 2, f, SimTime(10));
        assert!(out.is_empty(), "same-nonce rival copy must lose");
        assert_eq!(br.entry_of(host(1), SimTime(20)).unwrap().port, PortNo(1));
    }

    #[test]
    fn destination_edge_answers_pathreply() {
        let mut br = mk(ArpPathConfig::default());
        make_core(&mut br, 3, SimTime(0));
        // Destination host 2 confirmed on edge port 1.
        feed(&mut br, 1, arp_request_frame(2, 9), SimTime(0));
        feed(&mut br, 3, arp_reply_frame(9, 2), SimTime(10)); // promotes host2? no: learns host9
                                                              // Promote host 2's entry by replying to it.
        feed(&mut br, 1, data_frame(2, 9), SimTime(20));
        // Simplest: force-promote via reply travelling to host 2.
        // (host2's entry may still be Locked; send a unicast destined
        // to host 2 that follows establishment semantics.)
        let req = PathCtl::request(host(1), host(2), MacAddr::from_index(2, 50), 7);
        let f = EthernetFrame::new(MacAddr::BROADCAST, host(1), Payload::PathCtl(req));
        let out = feed_frames(&mut br, 3, f, SimTime(1000));
        // If host 2's entry is Learnt on an edge port we must see a
        // PathReply back out port 3; otherwise the request floods.
        let replied = out.iter().any(|(p, f)| {
            *p == 3 && matches!(&f.payload, Payload::PathCtl(c) if c.kind == PathCtlKind::PathReply)
        });
        let e2 = br.entry_of(host(2), SimTime(1000)).unwrap();
        if e2.state == EntryState::Learnt {
            assert!(replied, "destination edge must answer");
        } else {
            assert!(!replied, "unconfirmed destination must not be answered for");
        }
    }

    #[test]
    fn pathreply_promotes_and_consumes_at_source_edge() {
        let mut br = mk(ArpPathConfig::default());
        make_core(&mut br, 2, SimTime(0));
        // Source host 1 locked on edge port 0 by a repair wave.
        let req = PathCtl::request(host(1), host(2), bridge_mac(), 7);
        let rf = EthernetFrame::new(MacAddr::BROADCAST, host(1), Payload::PathCtl(req));
        feed(&mut br, 0, rf, SimTime(0));
        // Reply arrives from the core.
        let rep = PathCtl::reply(host(1), host(2), MacAddr::from_index(2, 50), 7);
        let f = EthernetFrame::new(host(1), host(2), Payload::PathCtl(rep));
        let out = feed(&mut br, 2, f, SimTime(1000));
        assert!(out.is_empty(), "consumed at the source edge, host sees nothing");
        let e1 = br.entry_of(host(1), SimTime(2000)).unwrap();
        assert_eq!(e1.state, EntryState::Learnt, "lock promoted by the reply");
        let e2 = br.entry_of(host(2), SimTime(2000)).unwrap();
        assert_eq!((e2.port, e2.state), (PortNo(2), EntryState::Learnt));
    }

    #[test]
    fn hello_marks_port_core_and_expires() {
        let mut br = mk(ArpPathConfig::default());
        assert!(br.is_edge_port(PortNo(1), SimTime(0)));
        make_core(&mut br, 1, SimTime(0));
        assert!(br.is_core_port(PortNo(1), SimTime(1)));
        let past_hold = SimTime(0) + ArpPathConfig::default().hello_hold + SimDuration::nanos(1);
        assert!(br.is_edge_port(PortNo(1), past_hold), "core status must decay");
        assert_eq!(br.ap_counters().hellos_rx, 1);
    }

    #[test]
    fn link_down_flushes_entries_on_that_port() {
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        feed(&mut br, 2, arp_request_frame(2, 1), SimTime(10));
        let ports_up = [true, false, true, true];
        let mut commands = Vec::new();
        let mut ctx = Ctx::new(SimTime(100), NodeId(0), &ports_up, &mut commands);
        br.on_link_status(PortNo(1), false, &mut ctx);
        assert_eq!(br.entry_of(host(1), SimTime(101)), None, "flushed");
        assert!(br.entry_of(host(2), SimTime(101)).is_some(), "other port untouched");
        assert_eq!(br.ap_counters().link_down_flushes, 1);
    }

    #[test]
    fn departed_station_relocks_on_new_port_after_link_down() {
        // Churn-mobility regression (E11): when a station's access link
        // drops, its table entry must be released *immediately* by the
        // link-down flush — not left to age out — so a fast re-arrival
        // of the same MAC behind a different port wins a fresh lock
        // instead of being discarded as a rival copy of the stale path.
        let mut br = mk(ArpPathConfig::default());
        feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
        assert_eq!(br.entry_of(host(1), SimTime(1)).unwrap().port, PortNo(1));

        let ports_up = [true, false, true, true];
        let mut commands = Vec::new();
        let mut ctx = Ctx::new(SimTime(10), NodeId(0), &ports_up, &mut commands);
        br.on_link_status(PortNo(1), false, &mut ctx);
        assert!(br.entry_of(host(1), SimTime(11)).is_none(), "slot released at once");
        assert_eq!(br.ap_counters().link_down_flushes, 1);

        // Re-arrival well inside the old lock window: must re-lock on
        // the new ingress with zero race drops.
        let out = feed(&mut br, 2, arp_request_frame(1, 2), SimTime(20));
        assert_eq!(out, vec![0, 1, 3], "flooded from the new ingress, not dropped");
        let e = br.entry_of(host(1), SimTime(21)).unwrap();
        assert_eq!(e.port, PortNo(2), "fresh lock points at the new rack-side port");
        assert_eq!(e.state, EntryState::Locked);
        assert_eq!(br.ap_counters().race_drops, 0, "no stale-path race");
    }

    #[test]
    fn broadcast_non_arp_locks_but_reply_does_not_promote_it() {
        let mut br = mk(ArpPathConfig::default());
        let bcast = EthernetFrame::new(
            MacAddr::BROADCAST,
            host(5),
            Payload::Raw {
                ethertype: arppath_wire::EtherType(0x88B6),
                data: Bytes::from(vec![0u8; 46]),
            },
        );
        let out = feed(&mut br, 2, bcast.clone(), SimTime(0));
        assert_eq!(out.len(), 3, "flooded");
        let e = br.entry_of(host(5), SimTime(1)).unwrap();
        assert_eq!(e.state, EntryState::Locked);
        // A rival copy on another port is discarded (loop-free rule).
        let out2 = feed(&mut br, 3, bcast, SimTime(10));
        assert!(out2.is_empty());
    }

    #[test]
    fn table_capacity_bounds_locks() {
        let mut br = mk(ArpPathConfig::default().with_table_capacity(1));
        assert_eq!(feed(&mut br, 0, arp_request_frame(1, 9), SimTime(0)).len(), 3);
        let out = feed(&mut br, 1, arp_request_frame(2, 9), SimTime(10));
        assert!(out.is_empty(), "no lock space → frame dropped, not flooded unlocked");
        assert_eq!(br.ap_counters().table_full_rejections, 1);
        assert_eq!(br.counters().dropped(DropReason::TableFull), 1);
    }

    #[test]
    fn repair_floods_respect_table_capacity() {
        let mut br = mk(ArpPathConfig::default().with_table_capacity(1));
        for i in 1..=6u32 {
            let req = PathCtl::request(host(i), host(99), MacAddr::from_index(2, 50), i);
            let f = EthernetFrame::new(MacAddr::BROADCAST, host(i), Payload::PathCtl(req));
            let out = feed(&mut br, 1, f, SimTime(u64::from(i)));
            assert_eq!(out.is_empty(), i > 1, "only the first wave finds room");
        }
        assert_eq!(br.table_len(), 1);
        assert_eq!(br.counters().dropped(DropReason::TableFull), 5);
    }

    #[test]
    fn unicast_toward_its_own_ingress_bounces_and_leaves_the_entry_alone() {
        // Host 1 is locked (or, after host 2's reply, learnt) on port 1;
        // each frame toward host 1 arrives on port 1 itself.
        let path_reply = PathCtl::reply(host(1), host(2), MacAddr::from_index(2, 50), 7);
        let cases = [
            ("data", true, data_frame(2, 1)),
            ("ARP reply", false, arp_reply_frame(2, 1)),
            (
                "PathReply",
                false,
                EthernetFrame::new(host(1), host(2), Payload::PathCtl(path_reply)),
            ),
        ];
        for (case, learnt, frame) in cases {
            let mut br = mk(ArpPathConfig::default());
            feed(&mut br, 1, arp_request_frame(1, 2), SimTime(0));
            if learnt {
                feed(&mut br, 2, arp_reply_frame(2, 1), SimTime(10));
            }
            let now = SimTime(1_000);
            let entry = |br: &ArpPathBridge| {
                br.table.peek_aged(&host(1), now).map(|a| (a.value.unpack(), a.expires))
            };
            let before = entry(&br);
            assert_eq!(before.map(|(e, _)| (e.port, e.is_locked())), Some((PortNo(1), !learnt)));
            let no_path = br.counters().dropped(DropReason::NoPath);
            assert!(feed(&mut br, 1, frame, now).is_empty(), "{case}: nothing sent");
            assert_eq!(br.counters().dropped(DropReason::NoPath), no_path + 1, "{case}");
            assert_eq!(entry(&br), before, "{case}: port, state and expiry unchanged");
        }
    }

    #[test]
    fn proxy_answers_when_mapping_and_path_known() {
        let mut br = mk(ArpPathConfig::default().with_proxy());
        // Host 2's mapping + confirmed path: request from 2, reply from 2
        // (travelling through us) teaches both.
        feed(&mut br, 2, arp_request_frame(2, 1), SimTime(0));
        // Host 1 replies; that confirms host 2's path *and* caches 1's
        // mapping.
        feed(&mut br, 1, arp_reply_frame(1, 2), SimTime(10));
        // Now host 3 asks for host 1 (mapping cached, path Learnt via
        // the reply above).
        let out = feed_frames(&mut br, 3, arp_request_frame(3, 1), SimTime(1000));
        assert_eq!(out.len(), 1, "proxy answers, no flood");
        let (p, f) = &out[0];
        assert_eq!(*p, 3, "reply goes straight back to the asker");
        match &f.payload {
            Payload::Arp(a) => {
                assert_eq!(a.op, ArpOp::Reply);
                assert_eq!(a.sha, host(1));
                assert_eq!(a.tha, host(3));
            }
            other => panic!("expected proxied ARP reply, got {other:?}"),
        }
        assert_eq!(br.ap_counters().proxy_replies, 1);
    }

    #[test]
    fn proxy_passes_through_when_unknown() {
        let mut br = mk(ArpPathConfig::default().with_proxy());
        let out = feed(&mut br, 0, arp_request_frame(1, 9), SimTime(0));
        assert_eq!(out.len(), 3, "unknown mapping floods normally");
        assert_eq!(br.ap_counters().proxy_passthrough, 1);
        assert_eq!(br.ap_counters().proxy_replies, 0);
    }

    #[test]
    fn proxy_off_bridge_keeps_no_proxy_cache() {
        // Nothing reads the cache when the proxy is off, so ARP traffic
        // — winning requests and replies alike — must not fill it.
        let mut br = mk(ArpPathConfig::default());
        for i in 1..=20u32 {
            feed(&mut br, (i % 3) as usize, arp_request_frame(i, 99), SimTime(u64::from(i)));
            feed(&mut br, 3, arp_reply_frame(99, i), SimTime(1_000 + u64::from(i)));
        }
        assert!(br.ap_counters().arp_request_floods >= 20);
        assert_eq!(br.proxy_cache_len(), 0);
        // The same traffic through a proxy-on bridge does fill it.
        let mut proxy = mk(ArpPathConfig::default().with_proxy());
        feed(&mut proxy, 0, arp_request_frame(1, 99), SimTime(1));
        feed(&mut proxy, 3, arp_reply_frame(99, 1), SimTime(1_001));
        assert_eq!(proxy.proxy_cache_len(), 2);
    }

    #[test]
    #[should_panic(expected = "do not fit a path-table entry")]
    fn more_ports_than_an_entry_can_name_are_refused() {
        ArpPathBridge::new("wide", bridge_mac(), 65_537, ArpPathConfig::default());
    }

    #[test]
    fn hellos_emitted_on_start_and_tick() {
        let mut br = mk(ArpPathConfig::default());
        let ports_up = vec![true; N];
        let mut commands = Vec::new();
        br.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports_up, &mut commands));
        let sends = |commands: &[Command]| commands.iter().filter_map(Command::as_send).count();
        assert_eq!(sends(&commands), N, "hello on every up port");
        assert_eq!(commands.len(), N + 1, "periodic hello scheduled");
        commands.clear();
        br.on_timer(
            TOKEN_HELLO,
            &mut Ctx::new(SimTime(1_000_000_000), NodeId(0), &ports_up, &mut commands),
        );
        assert_eq!(sends(&commands), N);
        assert_eq!(br.ap_counters().hellos_tx, 2 * N as u64);
    }

    #[test]
    fn multicast_source_is_malformed() {
        let mut br = mk(ArpPathConfig::default());
        let bad = EthernetFrame::new(
            host(1),
            MacAddr::BROADCAST,
            Payload::Raw { ethertype: arppath_wire::EtherType(0x88B6), data: Bytes::new() },
        );
        let out = feed(&mut br, 0, bad, SimTime(0));
        assert!(out.is_empty());
        assert_eq!(br.counters().dropped(DropReason::Malformed), 1);
    }
}
