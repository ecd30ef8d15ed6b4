//! Topology construction for the ARP-Path reproduction: the paper's
//! figure topologies, generic families (line/ring/grid/mesh/fat-tree/
//! random), and the [`TopoBuilder`] that instantiates any of them with
//! any bridge protocol + timing model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod churn;
pub mod figures;
pub mod generic;
pub mod partition;

pub use builder::{BridgeIx, BridgeKind, BuiltTopology, ShardedTopology, TopoBuilder, Topology};
pub use churn::{ChurnGrid, GridInstance, GridRole, LinkAdminEvent, StationLife};
pub use figures::{fig2_topology, fig3_topology, Fig1, Fig2, Fig3};
pub use generic::{
    fat_tree, fat_tree_jittered, full_mesh, grid, line, random_connected, ring, FatTree,
};
pub use partition::Partition;
