//! # simkit — deterministic discrete-event simulation kernel
//!
//! `simkit` provides the virtual-time substrate on which the rest of this
//! workspace simulates an InfiniBand cluster: a scheduler with a nanosecond
//! virtual clock, *coroutine processes* (each simulated process is a
//! stackful coroutine with its own stack, run on the thread that drives the
//! simulation), timers, one-shot events, FIFO queues, counting semaphores,
//! and fluid-flow (processor sharing) bandwidth links.
//!
//! ## Model
//!
//! * Exactly **one** process executes at any instant; the scheduler pops
//!   the earliest `(time, seq)` timer and switches onto its owner's stack.
//!   A blocking call switches back. Given a fixed seed, a simulation is
//!   fully deterministic, and it runs on one OS thread however many
//!   processes it holds.
//! * A process blocks by calling a primitive ([`Ctx::sleep`],
//!   [`Event::wait`], [`Queue::pop`], [`Link::transfer`], ...). Each block
//!   has a single *canonical wake*: a timer in the kernel heap. Wakers
//!   replace the pending timer, so retiming (e.g. a bandwidth share change)
//!   and spurious-wake suppression are uniform.
//! * Killing a process ([`SimHandle::kill`]) raises a [`Killed`] unwind on
//!   its own stack when it is next dispatched; the coroutine base catches
//!   the sentinel and records a clean death. This mirrors how signal-driven
//!   teardown interrupts real processes without forcing error plumbing
//!   through application code.
//! * Process stacks are 512 KiB, mmap'd with a guard page. The kernel
//!   supports x86_64 and aarch64 Linux; a [`Simulation`] is `!Send`.
//!
//! ## Quick start
//!
//! ```
//! use simkit::{Simulation, Event};
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new(7);
//! let done = Event::new(&sim.handle(), "done");
//! let done2 = done.clone();
//! sim.spawn("worker", move |ctx| {
//!     ctx.sleep(Duration::from_millis(250));
//!     done2.set();
//! });
//! let d3 = done.clone();
//! sim.spawn("watcher", move |ctx| {
//!     d3.wait(ctx);
//!     assert_eq!(ctx.now().as_micros(), 250_000);
//! });
//! sim.run().unwrap();
//! ```

#![deny(unsafe_code)]

mod coro;
mod error;
mod flownet;
mod hotstats;
mod kernel;
mod link;
mod process;
mod sync;
mod time;
mod trace;

pub use error::{Killed, SimError};
pub use flownet::{FlowNet, LinkId};
pub use hotstats::HotStats;
pub use kernel::{ProcId, RunOutcome, SimHandle, Simulation};
pub use link::{Link, LinkStats, Sharing};
pub use process::{Ctx, ProcHandle, Span};
pub use sync::{Countdown, Event, Gate, Queue, Semaphore};
pub use time::SimTime;
pub use trace::{ArgValue, Args, EventKind, TraceDigest, TraceEvent, TraceRecord, Tracer};

/// Convenience constructors for [`std::time::Duration`] used pervasively in
/// simulation code and tests.
pub mod dur {
    use std::time::Duration;

    /// Duration of `n` nanoseconds.
    pub fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
    /// Duration of `n` microseconds.
    pub fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }
    /// Duration of `n` milliseconds.
    pub fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }
    /// Duration of `n` seconds.
    pub fn secs(n: u64) -> Duration {
        Duration::from_secs(n)
    }
    /// Duration of `s` seconds given as floating point.
    pub fn secs_f64(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }
}
