//! Station-churn placement for the table-pressure study (E11): lay a
//! set of station lifecycles (arrive / move racks / depart) out on a
//! built fat-tree as a **rack × slot grid** of host attachments, each
//! with the carrier-up and carrier-down instants that drive the churn
//! (E11 schedules them itself).
//!
//! Two constraints shape the design:
//!
//! * **Attachment is static, presence is carrier.** The simulator
//!   builds its node and link tables once; hosts cannot be added or
//!   removed mid-run. So every station *instance* that will ever
//!   exist — including the second attachment a rack-mover occupies
//!   after its move, and inert fillers padding each rack to a uniform
//!   width — is attached up front, and arrival/departure/mobility are
//!   expressed purely as scheduled link up/down events on host access
//!   links ([`arppath_netsim::Network::schedule_link_up`] /
//!   `schedule_link_down`).
//! * **Rack-major numbering must survive.** [`crate::Partition::
//!   rack_major`] maps host `i` to the shard of edge switch
//!   `i / hosts_per_edge`; keeping host index equal to
//!   `rack * slots_per_rack + slot` means every access link stays
//!   intra-shard, so the same churn script is legal on the sharded
//!   engine — the byte-identity suite depends on it.

use arppath_netsim::SimDuration;

/// One station's lifecycle, in experiment-relative time — the
/// topology-facing mirror of `arppath_host`'s churn plan (kept as a
/// separate type so the topology layer stays independent of the host
/// crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationLife {
    /// Station index (drives MAC/IP assignment; both instances of a
    /// mover share it).
    pub station: usize,
    /// Rack of the first appearance.
    pub home_rack: usize,
    /// First link-up; `None` means present from the start.
    pub arrive_at: Option<SimDuration>,
    /// Mid-life rack move: `(instant, destination rack)`.
    pub move_to: Option<(SimDuration, usize)>,
    /// Final departure; `None` means the station stays to the end.
    pub depart_at: Option<SimDuration>,
}

/// What a grid cell holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridRole {
    /// A station's first (home-rack) attachment.
    Home {
        /// The station occupying the cell.
        station: usize,
    },
    /// The attachment a rack-mover occupies after its move — same MAC
    /// and IP as the station's [`GridRole::Home`] instance, different
    /// rack.
    MoveTarget {
        /// The station occupying the cell.
        station: usize,
    },
    /// Inert padding: carrier down from t = 0, never up. Exists only
    /// so every rack attaches exactly `slots_per_rack` hosts.
    Filler,
}

/// One host attachment of the grid, with its carrier lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridInstance {
    /// Host attachment index: `rack * slots_per_rack + slot`.
    pub host_index: usize,
    /// Rack (edge switch position) of the attachment.
    pub rack: usize,
    /// Slot within the rack.
    pub slot: usize,
    /// What the cell holds.
    pub role: GridRole,
    /// Whether the access link must be administratively downed at
    /// t = 0 (late arrivals, move targets, fillers).
    pub starts_down: bool,
    /// Scheduled carrier-up instant, if any.
    pub up_at: Option<SimDuration>,
    /// Scheduled carrier-down instant, if any.
    pub down_at: Option<SimDuration>,
}

/// The laid-out churn grid: a uniform `racks × slots_per_rack` host
/// attachment plan plus per-instance carrier lifecycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnGrid {
    /// Rack count of the target fabric.
    pub racks: usize,
    /// Uniform attachments per rack (= `hosts_per_edge` for the
    /// partition).
    pub slots_per_rack: usize,
    /// Every attachment, host-index order.
    pub instances: Vec<GridInstance>,
}

impl ChurnGrid {
    /// Place `lives` on a `racks`-rack fabric.
    ///
    /// Placement is deterministic: racks fill in the order lifecycles
    /// are given (home instance first; a mover's target instance is
    /// appended to its destination rack when the mover is reached), and
    /// every rack is padded with [`GridRole::Filler`] cells to the
    /// width of the fullest rack.
    ///
    /// # Panics
    /// If a lifecycle names a rack out of range, moves to its own home
    /// rack, or orders its instants inconsistently (arrival after move
    /// or departure, move after departure).
    pub fn layout(racks: usize, lives: &[StationLife]) -> ChurnGrid {
        assert!(racks > 0, "need at least one rack");
        #[derive(Clone, Copy)]
        struct Cell {
            role: GridRole,
            starts_down: bool,
            up_at: Option<SimDuration>,
            down_at: Option<SimDuration>,
        }
        let mut rack_cells: Vec<Vec<Cell>> = vec![Vec::new(); racks];
        for life in lives {
            assert!(life.home_rack < racks, "station {} homes off-fabric", life.station);
            let born = life.arrive_at.unwrap_or(SimDuration::nanos(0));
            if let Some((at, to)) = life.move_to {
                assert!(to < racks, "station {} moves off-fabric", life.station);
                assert_ne!(to, life.home_rack, "station {} moves to its own rack", life.station);
                assert!(at >= born, "station {} moves before arriving", life.station);
                if let Some(dep) = life.depart_at {
                    assert!(dep >= at, "station {} departs before its move", life.station);
                }
            }
            if let Some(dep) = life.depart_at {
                assert!(dep >= born, "station {} departs before arriving", life.station);
            }
            // Home instance: up until the move (if any) or the final
            // departure.
            let home_down = life.move_to.map(|(at, _)| at).or(life.depart_at);
            rack_cells[life.home_rack].push(Cell {
                role: GridRole::Home { station: life.station },
                starts_down: life.arrive_at.is_some(),
                up_at: life.arrive_at,
                down_at: home_down,
            });
            // Move target: comes up at the move instant, stays until
            // the final departure.
            if let Some((at, to)) = life.move_to {
                rack_cells[to].push(Cell {
                    role: GridRole::MoveTarget { station: life.station },
                    starts_down: true,
                    up_at: Some(at),
                    down_at: life.depart_at,
                });
            }
        }
        let slots_per_rack = rack_cells.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut instances = Vec::with_capacity(racks * slots_per_rack);
        for (rack, cells) in rack_cells.into_iter().enumerate() {
            for slot in 0..slots_per_rack {
                let host_index = rack * slots_per_rack + slot;
                let cell = cells.get(slot).copied().unwrap_or(Cell {
                    role: GridRole::Filler,
                    starts_down: true,
                    up_at: None,
                    down_at: None,
                });
                instances.push(GridInstance {
                    host_index,
                    rack,
                    slot,
                    role: cell.role,
                    starts_down: cell.starts_down,
                    up_at: cell.up_at,
                    down_at: cell.down_at,
                });
            }
        }
        ChurnGrid { racks, slots_per_rack, instances }
    }

    /// Total host attachments (`racks × slots_per_rack`).
    pub fn hosts(&self) -> usize {
        self.racks * self.slots_per_rack
    }

    /// The station a grid cell carries, if it is not a filler.
    pub fn station_of(&self, host_index: usize) -> Option<usize> {
        match self.instances[host_index].role {
            GridRole::Home { station } | GridRole::MoveTarget { station } => Some(station),
            GridRole::Filler => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::millis(n)
    }

    fn lives() -> Vec<StationLife> {
        vec![
            // Present from the start, stays: rack 0.
            StationLife {
                station: 0,
                home_rack: 0,
                arrive_at: None,
                move_to: None,
                depart_at: None,
            },
            // Present, departs at 50 ms: rack 1.
            StationLife {
                station: 1,
                home_rack: 1,
                arrive_at: None,
                move_to: None,
                depart_at: Some(ms(50)),
            },
            // Arrives at 10 ms, moves 0→2 at 30 ms, departs at 90 ms.
            StationLife {
                station: 2,
                home_rack: 0,
                arrive_at: Some(ms(10)),
                move_to: Some((ms(30), 2)),
                depart_at: Some(ms(90)),
            },
        ]
    }

    #[test]
    fn grid_is_uniform_and_rack_major() {
        let g = ChurnGrid::layout(3, &lives());
        // Rack 0 holds two cells (stations 0 and 2), so every rack
        // pads to width 2.
        assert_eq!((g.racks, g.slots_per_rack, g.hosts()), (3, 2, 6));
        assert_eq!(g.instances.len(), 6);
        for (i, inst) in g.instances.iter().enumerate() {
            assert_eq!(inst.host_index, i);
            assert_eq!((inst.rack, inst.slot), (i / 2, i % 2));
        }
        // Rack-major cell contents.
        assert_eq!(g.station_of(0), Some(0));
        assert_eq!(g.station_of(1), Some(2)); // home instance
        assert_eq!(g.station_of(2), Some(1));
        assert_eq!(g.station_of(3), None); // filler pads rack 1
        assert_eq!(g.station_of(4), Some(2)); // move target
        assert_eq!(g.station_of(5), None);
        assert_eq!(g.instances[4].role, GridRole::MoveTarget { station: 2 });
    }

    #[test]
    fn mover_lifecycle_splits_across_two_instances() {
        let g = ChurnGrid::layout(3, &lives());
        let home = g.instances[1];
        assert_eq!(home.role, GridRole::Home { station: 2 });
        assert!(home.starts_down, "late arrival starts carrier-down");
        assert_eq!((home.up_at, home.down_at), (Some(ms(10)), Some(ms(30))));
        let target = g.instances[4];
        assert!(target.starts_down);
        assert_eq!((target.up_at, target.down_at), (Some(ms(30)), Some(ms(90))));
        // Fillers never come up.
        let filler = g.instances[3];
        assert!(filler.starts_down && filler.up_at.is_none() && filler.down_at.is_none());
    }

    #[test]
    fn layout_is_deterministic() {
        assert_eq!(ChurnGrid::layout(3, &lives()), ChurnGrid::layout(3, &lives()));
    }

    #[test]
    fn empty_input_still_yields_one_slot_per_rack() {
        let g = ChurnGrid::layout(2, &[]);
        assert_eq!((g.slots_per_rack, g.hosts()), (1, 2));
        assert!(g.instances.iter().all(|i| i.role == GridRole::Filler));
    }

    #[test]
    #[should_panic(expected = "moves to its own rack")]
    fn self_move_is_rejected() {
        let life = StationLife {
            station: 0,
            home_rack: 1,
            arrive_at: None,
            move_to: Some((ms(5), 1)),
            depart_at: None,
        };
        let _ = ChurnGrid::layout(2, &[life]);
    }

    #[test]
    #[should_panic(expected = "departs before its move")]
    fn inconsistent_instants_are_rejected() {
        let life = StationLife {
            station: 0,
            home_rack: 0,
            arrive_at: None,
            move_to: Some((ms(20), 1)),
            depart_at: Some(ms(10)),
        };
        let _ = ChurnGrid::layout(2, &[life]);
    }
}
