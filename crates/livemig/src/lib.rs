//! # livemig — iterative pre-copy live migration
//!
//! The paper's four-phase protocol is pure stop-and-copy: the whole job
//! sits in the migration barrier for the entire image transfer, so
//! downtime scales with image size. This crate supplies the three pieces
//! that turn it into a *live* migration with bounded downtime:
//!
//! * [`DirtyTracker`] — per-segment dirty-page bitmaps with epoch
//!   snapshots ([`DirtyTracker::take`]), armed over a running rank's
//!   memory by the MPI layer's write interception;
//! * [`delta`] — the wire format of rounds 1..N (dirty page runs packed
//!   into an ordinary checkpoint image so the RDMA buffer-pool pipeline
//!   carries them unchanged) and the target-side [`ImageAccumulator`]
//!   that keeps a restart-ready merged image at all times;
//! * [`DowntimeBudget`] — the convergence controller deciding after each
//!   round whether to [`Decision::Continue`], [`Decision::CutOver`] to a
//!   short stop-and-copy of the residual once it fits the downtime budget,
//!   or [`Decision::Fallback`] to classic stop-and-copy when the dirty
//!   rate never converges.
//!
//! The protocol itself (round scheduling, WAL records, FTB messages,
//! cutover into Phase 1–4) lives in `jobmig-core`; this crate is the pure
//! data-plane and policy layer, testable without a simulation.

pub mod delta;
mod dirty;
mod policy;

pub use delta::{Delta, DeltaError, DeltaRun, ImageAccumulator};
pub use dirty::{DirtySnapshot, DirtyTracker, PageRun, SegRuns};
pub use policy::{Decision, DowntimeBudget, LiveConfig, RoundReport};
