//! # ftb — the CIFTS Fault Tolerance Backplane
//!
//! A reproduction of the FTB as the paper uses it: a tree of per-node
//! agent daemons over the cluster's GigE maintenance network, with a
//! client API for components (Job Manager, Node Launch Agents, the C/R
//! thread inside each MPI process) to publish and subscribe to
//! fault-tolerance events (`FTB_MIGRATE`, `FTB_MIGRATE_PIIC`,
//! `FTB_RESTART`, health reports).
//!
//! Faithful to the paper's description:
//!
//! * **Three layers** — the client layer ([`FtbClient`]), the manager
//!   layer (subscription bookkeeping and event matching inside each
//!   agent), and the network layer (datagrams over [`ibfabric::Net`]).
//! * **Tree topology with self-healing** — an agent that loses its parent
//!   re-attaches to its grandparent, so events keep flowing after a node
//!   death ([`FtbBackplane`] tests exercise this).
//! * Events are **flooded along the tree** (up to the parent and down to
//!   every child except the arrival direction), so delivery is exactly
//!   -once per node in a stable tree.

mod agent;
mod client;
mod event;

pub use agent::{FtbBackplane, FtbConfig};
pub use client::FtbClient;
pub use event::{EventFilter, FtbEvent, FtbEventBody, Severity};

/// UDP-style port the FTB agents listen on (one agent per node).
pub const FTB_AGENT_PORT: u16 = 6000;
