//! Capture-and-replay: the per-layer numbers, measured from outside.
//!
//! A traced run records every device callback the engine made (frame
//! deliveries, timer fires, carrier changes) through the public
//! [`Tracer`] hook. Devices are deterministic functions of their
//! callback history, so feeding that history to the devices of an
//! un-run twin fabric re-executes exactly the bridge and host work of
//! the run — with no engine around it to share the clock with. The
//! check that makes this trustworthy: the replayed callbacks must ask
//! to send exactly as many frames as the traced run saw sent.

use crate::scenario::{Bridge, Fabric, Scenario, Shape};
use crate::stats::clock_read_ns;
use arppath_host::{ChurnHost, FlowHost, TrafficHost};
use arppath_netsim::{
    pfc, Command, Ctx, Device, LinkId, Network, NodeId, PortNo, SimTime, TimerToken, TraceEvent,
    Tracer,
};
use arppath_wire::EthernetFrame;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One device callback the engine made, in the order it made them.
#[derive(Debug, Clone)]
pub enum Rec {
    Frame { at: SimTime, node: NodeId, port: PortNo, frame: EthernetFrame },
    Timer { at: SimTime, node: NodeId, token: TimerToken },
    Link { at: SimTime, link: LinkId, up: bool },
}

/// The capture tracer: keeps every record a device callback follows,
/// counts the sends.
#[derive(Debug, Default)]
pub struct Capture {
    pub recs: Vec<Rec>,
    /// Frames each node handed to a transmitter. Pause/resume frames
    /// are the engine's own sends, not a device's, and are left out.
    pub sent: Vec<u64>,
}

/// Flow-control frames never reach a device: the engine intercepts
/// pause/resume, and a watchdog marker is a trace-only artifact.
fn is_control(frame: &EthernetFrame) -> bool {
    frame.dst == pfc::PAUSE_DST
}

impl Tracer for Capture {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        match event {
            TraceEvent::Sent { node, frame, .. } => {
                if !is_control(frame) {
                    if self.sent.len() <= node.0 {
                        self.sent.resize(node.0 + 1, 0);
                    }
                    self.sent[node.0] += 1;
                }
            }
            TraceEvent::Delivered { node, port, frame } => {
                if !is_control(frame) {
                    self.recs.push(Rec::Frame { at: now, node, port, frame: frame.clone() });
                }
            }
            TraceEvent::TimerFired { node, token } => {
                self.recs.push(Rec::Timer { at: now, node, token })
            }
            TraceEvent::LinkStatus { link, up } => self.recs.push(Rec::Link { at: now, link, up }),
            TraceEvent::DropQueueFull { .. }
            | TraceEvent::DropLinkDown { .. }
            | TraceEvent::DropNoCable { .. } => {}
        }
    }
}

impl Capture {
    /// Instantiate `scenario` with a fresh capture installed from t = 0,
    /// so the sends of `on_start` are counted too.
    pub fn install(mut scenario: Scenario) -> (Fabric, Arc<Mutex<Capture>>) {
        let capture = Arc::new(Mutex::new(Capture::default()));
        scenario.topo.set_tracer(Box::new(capture.clone()));
        (scenario.build(), capture)
    }

    /// Take the capture out of the handle [`Capture::install`] returned.
    pub fn take(handle: &Arc<Mutex<Capture>>) -> Capture {
        std::mem::take(&mut *handle.lock().expect("capture lock"))
    }

    /// `Sent` summed over the nodes `mine` selects.
    pub fn sent_by(&self, mine: &[bool]) -> u64 {
        self.sent.iter().zip(mine).filter(|(_, &m)| m).map(|(n, _)| n).sum()
    }
}

/// Callback classes a replay times apart.
pub const BCAST: usize = 0;
pub const UCAST: usize = 1;
pub const OTHER: usize = 2;

/// What replaying one device class measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Host nanoseconds inside callbacks, by class (flooded frame,
    /// unicast frame, timer or carrier change), clock reads deducted.
    pub busy_ns: [f64; 3],
    pub callbacks: [u64; 3],
    /// `Command::Send`s the callbacks issued.
    pub sends: u64,
    /// Every timer the callbacks armed, as `(node, armed at, fires at)`.
    pub timers: Vec<(usize, u64, u64)>,
}

impl Replay {
    pub fn total_busy_ns(&self) -> f64 {
        self.busy_ns.iter().sum()
    }

    pub fn total_callbacks(&self) -> u64 {
        self.callbacks.iter().sum()
    }

    /// Fold in another replay of the same records: keep each class's
    /// shorter busy time (noise only adds). `Err` if the two replays did
    /// not do the same work — they are replays of one history.
    pub fn keep_fastest(&mut self, other: &Replay) -> Result<(), String> {
        if (self.callbacks, self.sends, &self.timers)
            != (other.callbacks, other.sends, &other.timers)
        {
            return Err("two replays of one capture made different callbacks or sends".to_owned());
        }
        for (mine, theirs) in self.busy_ns.iter_mut().zip(other.busy_ns) {
            *mine = mine.min(theirs);
        }
        Ok(())
    }

    /// Account one finished callback of `node` and consume what it
    /// asked the engine to do.
    fn absorb(&mut self, class: usize, node: NodeId, at: SimTime, commands: &mut Vec<Command>) {
        self.callbacks[class] += 1;
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { .. } => self.sends += 1,
                Command::Schedule { after, .. } => {
                    self.timers.push((node.0, at.as_nanos(), (at + after).as_nanos()))
                }
            }
        }
    }
}

/// Replay `recs` into the devices of `net` that `mine` selects, all of
/// concrete type `D`. `net` must be a freshly built, un-run twin of the
/// fabric the records came from, and `recs` one half of [`split`]: the
/// frames and timers of `mine` nodes only, plus every carrier change
/// (which updates the port-state mirror for everyone). The records are
/// only read, so a capture can be replayed into several twins.
pub fn replay<D: Device>(net: &mut Network, recs: &[Rec], mine: &[bool]) -> Replay {
    // The engine's `ports_up`, rebuilt: every cabled port starts up.
    let mut ports_up: Vec<Vec<bool>> = vec![Vec::new(); net.node_count()];
    let ends: Vec<_> = net.links().map(|(_, l)| (l.a, l.b)).collect();
    for ep in ends.iter().flat_map(|&(a, b)| [a, b]) {
        let v = &mut ports_up[ep.node.0];
        if v.len() <= ep.port.0 {
            v.resize(ep.port.0 + 1, false);
        }
        v[ep.port.0] = true;
    }

    let clock_ns = clock_read_ns();
    let mut out = Replay::default();
    let mut commands: Vec<Command> = Vec::new();
    let mut class = usize::MAX;
    let mut mark = Instant::now();
    let mut reads = [0u64; 3];
    for rec in recs {
        let next = match rec {
            Rec::Frame { frame, .. } if frame.is_flooded() => BCAST,
            Rec::Frame { .. } => UCAST,
            Rec::Timer { .. } | Rec::Link { .. } => OTHER,
        };
        // One clock read per change of class, not per callback: the
        // callbacks are a few hundred nanoseconds each.
        if next != class {
            let now = Instant::now();
            if class != usize::MAX {
                out.busy_ns[class] += (now - mark).as_nanos() as f64;
                reads[class] += 1;
            }
            mark = now;
            class = next;
        }
        match *rec {
            Rec::Frame { at, node, port, ref frame } => {
                let mut ctx = Ctx::new(at, node, &ports_up[node.0], &mut commands);
                // The engine hands the frame over by value; here the
                // capture keeps its copy for the next replay.
                net.device_mut::<D>(node).on_frame(port, frame.clone(), &mut ctx);
                out.absorb(next, node, at, &mut commands);
            }
            Rec::Timer { at, node, token } => {
                let mut ctx = Ctx::new(at, node, &ports_up[node.0], &mut commands);
                net.device_mut::<D>(node).on_timer(token, &mut ctx);
                out.absorb(next, node, at, &mut commands);
            }
            Rec::Link { at, link, up } => {
                // The engine's order: both port states flip, then the
                // A end hears of it, then the B end.
                let (a, b) = ends[link.0];
                for ep in [a, b] {
                    ports_up[ep.node.0][ep.port.0] = up;
                }
                for ep in [a, b] {
                    if mine[ep.node.0] {
                        let mut ctx = Ctx::new(at, ep.node, &ports_up[ep.node.0], &mut commands);
                        net.device_mut::<D>(ep.node).on_link_status(ep.port, up, &mut ctx);
                        out.absorb(next, ep.node, at, &mut commands);
                    }
                }
            }
        }
    }
    if class != usize::MAX {
        out.busy_ns[class] += mark.elapsed().as_nanos() as f64;
        reads[class] += 1;
    }
    for (busy, reads) in out.busy_ns.iter_mut().zip(reads) {
        *busy = (*busy - reads as f64 * clock_ns).max(0.0);
    }
    out
}

/// Split a capture into the bridges' history and the hosts' history.
/// Devices only interact through frames, so each half replays alone.
pub fn split(recs: Vec<Rec>, is_bridge: &[bool]) -> (Vec<Rec>, Vec<Rec>) {
    let (mut bridges, mut hosts) = (Vec::new(), Vec::new());
    for rec in recs {
        match &rec {
            Rec::Frame { node, .. } | Rec::Timer { node, .. } => {
                if is_bridge[node.0] { &mut bridges } else { &mut hosts }.push(rec)
            }
            Rec::Link { .. } => {
                bridges.push(rec.clone());
                hosts.push(rec);
            }
        }
    }
    (bridges, hosts)
}

/// Replay the host side of `recs` into `twin`, whatever host type the
/// workload attaches.
pub fn replay_hosts(twin: &mut Fabric, recs: &[Rec], mine: &[bool]) -> Replay {
    let net = &mut twin.built.net;
    match twin.shape {
        Shape::PermUdp { .. } => replay::<TrafficHost>(net, recs, mine),
        Shape::IncastPfc { .. } => replay::<FlowHost>(net, recs, mine),
        Shape::Churn { .. } => replay::<ChurnHost>(net, recs, mine),
    }
}

/// Replay the bridge side of `recs` into `twin`.
pub fn replay_bridges(twin: &mut Fabric, recs: &[Rec], mine: &[bool]) -> Replay {
    replay::<Bridge>(&mut twin.built.net, recs, mine)
}

/// The determinism check behind every replayed number: what the twin's
/// devices sent at start-up plus what the replay made them send must
/// equal what the traced run saw them send. A truncated or reordered
/// capture fails here.
pub fn sends_match(captured: u64, twin_on_start: u64, replayed: u64) -> Result<(), String> {
    if captured == twin_on_start + replayed {
        Ok(())
    } else {
        Err(format!(
            "replay sent {replayed} frames (+{twin_on_start} at start) but the traced run saw {captured}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{smoke_shape, WORKLOADS};

    /// Capture a k=4 run, replay all of it or only its first `keep`
    /// records into a twin, and run the sends-match check on bridges.
    fn bridge_check(keep: impl Fn(usize) -> usize) -> Result<(), String> {
        let shape = smoke_shape(WORKLOADS[0].shape);
        let (mut fabric, handle) = Capture::install(Scenario::new(shape, 3));
        fabric.run();
        let mut capture = Capture::take(&handle);
        capture.recs.truncate(keep(capture.recs.len()));

        let (mut twin, start) = Capture::install(Scenario::new(shape, 3));
        let start = Capture::take(&start);
        let mut is_bridge = vec![false; twin.built.net.node_count()];
        for b in &twin.built.bridge_nodes {
            is_bridge[b.0] = true;
        }
        let sent = capture.sent_by(&is_bridge);
        let (bridge_recs, _) = split(capture.recs, &is_bridge);
        let replayed = replay_bridges(&mut twin, &bridge_recs, &is_bridge);
        sends_match(sent, start.sent_by(&is_bridge), replayed.sends)
    }

    #[test]
    fn a_full_capture_replays_to_the_same_send_count() {
        assert_eq!(bridge_check(|n| n), Ok(()));
    }

    #[test]
    fn a_truncated_capture_is_rejected() {
        let err = bridge_check(|n| n * 2 / 3).expect_err("a third of the history is missing");
        assert!(err.contains("traced run saw"), "{err}");
    }

    #[test]
    fn control_frames_are_neither_counted_nor_replayed() {
        let mut c = Capture::default();
        let pause = pfc::pause_frame();
        c.record(SimTime(5), TraceEvent::Sent { node: NodeId(2), port: PortNo(0), frame: &pause });
        c.record(
            SimTime(9),
            TraceEvent::Delivered { node: NodeId(3), port: PortNo(1), frame: &pause },
        );
        let marker = pfc::watchdog_resume_frame();
        c.record(
            SimTime(9),
            TraceEvent::Delivered { node: NodeId(3), port: PortNo(1), frame: &marker },
        );
        assert!(c.recs.is_empty() && c.sent.iter().all(|&n| n == 0));
    }
}
