//! The event-heap scheduler and the coroutine drive loop.
//!
//! # Scheduling model
//!
//! Every blocked process has at most one *canonical wake*: an entry in the
//! global timer heap identified by a sequence number stored in the process
//! slot (`pending_seq`). Waking, retiming and killing all go through the
//! same mechanism — push a fresh timer and overwrite `pending_seq` — so
//! stale heap entries are recognised and skipped when popped. Cancelling a
//! wake clears `pending_seq`, which turns its heap entry stale too. This
//! gives a single, easily-audited source of truth for "who runs next" and
//! makes the simulation deterministic: ties at equal virtual time are
//! broken by insertion sequence.
//!
//! # Coroutine dispatch
//!
//! Each simulated process is a stackful coroutine (see `coro.rs`) owned by
//! the [`Simulation`]. The thread that calls `Simulation::run*` pops the
//! next valid timer and switches straight onto the owner's stack; the
//! process switches back when it blocks or finishes. Exactly one stack
//! runs at a time and no OS thread is ever created, so a dispatch costs a
//! heap pop plus two user-space stack switches.

use crate::coro::{Coro, StackPool};
use crate::error::{Killed, SimError};
use crate::hotstats::{Counts, Hot, HotCat, HotStats};
use crate::process::{Ctx, ProcHandle, Span};
use crate::time::SimTime;
use crate::trace::{Args, Tracer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl std::fmt::Debug for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Timer {
    time: SimTime,
    seq: u64,
    pid: u32,
}

impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How a process finished.
enum Fin {
    Ok,
    Killed,
    Panic(String),
}

/// A process body waiting for its first dispatch.
type Body = Box<dyn FnOnce(&Ctx) + Send>;

struct Slot {
    name: Arc<str>,
    /// The body until the first dispatch moves it onto a coroutine.
    body: Option<Body>,
    dead: bool,
    killed: bool,
    daemon: bool,
    /// Sequence number of the canonical pending wake timer, if any.
    pending_seq: Option<u64>,
    /// Processes blocked in `join()` on this process.
    join_waiters: Vec<u32>,
}

pub(crate) struct KState {
    next_seq: u64,
    heap: BinaryHeap<Reverse<Timer>>,
    // Dense slab indexed by pid (pids are allocated 0,1,2,… and slots are
    // never removed, only marked dead). Index order doubles as pid order,
    // keeping deadlock-report listings deterministic.
    procs: Vec<Slot>,
    rng: StdRng,
    /// Event counters; plain integers, since every bump happens under
    /// this lock anyway.
    pub(crate) counts: Counts,
}

impl KState {
    /// Core of [`Kernel::schedule_wake`], callable with the state lock
    /// already held (the batch-retime path). Returns the wake's sequence
    /// number, or `None` if `pid` is dead.
    fn schedule_wake_locked(&mut self, now: SimTime, pid: ProcId, time: SimTime) -> Option<u64> {
        let time = time.max(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.procs.get_mut(pid.0 as usize)?;
        if slot.dead {
            return None;
        }
        slot.pending_seq = Some(seq);
        self.heap.push(Reverse(Timer {
            time,
            seq,
            pid: pid.0,
        }));
        self.counts.timer_pushes += 1;
        self.counts.heap_peak = self.counts.heap_peak.max(self.heap.len() as u64);
        Some(seq)
    }

    /// Pop the next valid timer at or before `limit_ns`, skipping stale
    /// entries, and consume the owner's canonical wake. The caller advances
    /// the clock to the popped time. This is the single dispatch-selection
    /// point.
    fn pop_next(&mut self, limit_ns: u64) -> Popped {
        loop {
            match self.heap.peek() {
                None => return Popped::Quiescent,
                Some(Reverse(t)) if t.time.as_nanos() > limit_ns => return Popped::Limit,
                Some(_) => {}
            }
            let Reverse(t) = self.heap.pop().unwrap();
            let valid = self
                .procs
                .get(t.pid as usize)
                .map(|s| !s.dead && s.pending_seq == Some(t.seq))
                .unwrap_or(false);
            if valid {
                self.procs[t.pid as usize].pending_seq = None;
                self.counts.dispatches += 1;
                return Popped::Ready(t.pid, t.time);
            }
            self.counts.stale_skips += 1;
        }
    }

    /// `(pid, name)` of every live non-daemon process, in pid order.
    fn blocked(&self) -> Vec<(ProcId, String)> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.dead && !s.daemon)
            .map(|(pid, s)| (ProcId(pid as u32), s.name.to_string()))
            .collect()
    }
}

/// Outcome of [`KState::pop_next`].
enum Popped {
    Quiescent,
    Limit,
    Ready(u32, SimTime),
}

/// Shared kernel: the scheduler state, the clock, the tracer and the
/// self-profile.
pub(crate) struct Kernel {
    pub(crate) st: Mutex<KState>,
    /// Virtual time in ns. Outside the lock so reading the clock — the
    /// most frequent kernel call — costs one load; only the driving
    /// thread advances it.
    now_ns: AtomicU64,
    pub(crate) tracer: Tracer,
    pub(crate) hot: Hot,
}

impl Kernel {
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Relaxed))
    }

    fn set_now(&self, t: SimTime) {
        self.now_ns.store(t.as_nanos(), Ordering::Relaxed);
    }

    /// Push a fresh canonical wake for `pid` at `time` (replacing any
    /// pending one). No-op on dead processes. Returns whether a wake was
    /// actually scheduled.
    pub(crate) fn schedule_wake(&self, pid: ProcId, time: SimTime) -> bool {
        self.st
            .lock()
            .schedule_wake_locked(self.now(), pid, time)
            .is_some()
    }

    /// Run `f` against a [`WakeBatch`]: the scheduler lock is taken once
    /// for any number of wake queries, pushes and cancels. Used by
    /// FlowNet's recompute.
    pub(crate) fn with_wake_batch<R>(&self, f: impl FnOnce(&mut WakeBatch) -> R) -> R {
        let mut st = self.st.lock();
        f(&mut WakeBatch {
            st: &mut st,
            now: self.now(),
        })
    }

    /// Wake `pid` at the current instant. Returns false if it is dead.
    pub(crate) fn wake_now(&self, pid: ProcId) -> bool {
        let now = self.now();
        self.schedule_wake(pid, now)
    }

    /// Mark `pid` killed and schedule an immediate wake so it unwinds when
    /// it is next dispatched.
    pub(crate) fn kill(&self, pid: ProcId) {
        {
            let mut st = self.st.lock();
            match st.procs.get_mut(pid.0 as usize) {
                Some(s) if !s.dead => s.killed = true,
                _ => return,
            }
        }
        self.wake_now(pid);
        self.tracer.rec(self.now(), Some(pid), "killed");
    }

    pub(crate) fn is_killed(&self, pid: ProcId) -> bool {
        self.st
            .lock()
            .procs
            .get(pid.0 as usize)
            .map(|s| s.killed)
            .unwrap_or(true)
    }

    pub(crate) fn is_dead(&self, pid: ProcId) -> bool {
        self.st
            .lock()
            .procs
            .get(pid.0 as usize)
            .map(|s| s.dead)
            .unwrap_or(true)
    }

    /// Register `waiter` to be woken when `target` dies. Returns `false`
    /// (and does not register) if the target is already dead.
    pub(crate) fn add_join_waiter(&self, target: ProcId, waiter: ProcId) -> bool {
        let mut st = self.st.lock();
        match st.procs.get_mut(target.0 as usize) {
            Some(s) if !s.dead => {
                s.join_waiters.push(waiter.0);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        f(&mut self.st.lock().rng)
    }

    /// The process's interned name. Cheap: names are `Arc<str>`, cloned
    /// by reference count (deadlock reports, trace labels, and kernel
    /// diagnostics all share the one allocation made at spawn).
    pub(crate) fn proc_name(&self, pid: ProcId) -> Arc<str> {
        self.st
            .lock()
            .procs
            .get(pid.0 as usize)
            .map(|s| Arc::clone(&s.name))
            .unwrap_or_else(|| Arc::from("<gone>"))
    }

    /// Spawn a new simulated process; it will first run at the current
    /// virtual instant, after already-scheduled same-time timers. The body
    /// waits in the slot until that first dispatch.
    pub(crate) fn spawn_inner(
        self: &Arc<Self>,
        name: &str,
        daemon: bool,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ProcHandle {
        let t0 = self.hot.clock();
        let pid = {
            let mut st = self.st.lock();
            st.counts.spawns += 1;
            let pid = st.procs.len() as u32;
            st.procs.push(Slot {
                name: Arc::from(name),
                body: Some(Box::new(f)),
                dead: false,
                killed: false,
                daemon,
                pending_seq: None,
                join_waiters: Vec::new(),
            });
            ProcId(pid)
        };
        self.schedule_wake(pid, self.now());
        self.tracer.name_proc(pid, name);
        if self.tracer.armed() {
            self.tracer
                .rec(self.now(), Some(pid), &format!("spawned '{name}'"));
        }
        self.hot.lap(t0, HotCat::Spawn);
        ProcHandle::new(pid, Arc::clone(self))
    }

    /// Mark a process dead and return its name and join waiters.
    fn finish_proc(&self, pid: u32) -> (Arc<str>, Vec<u32>) {
        let mut st = self.st.lock();
        let slot = st
            .procs
            .get_mut(pid as usize)
            .expect("finish of unknown proc");
        slot.dead = true;
        slot.pending_seq = None;
        (
            Arc::clone(&slot.name),
            std::mem::take(&mut slot.join_waiters),
        )
    }

    /// Profile snapshot, with run time grouped by proc-name prefix.
    fn hot_stats(&self) -> HotStats {
        let st = self.st.lock();
        self.hot.snapshot(&st.counts, |pid| {
            st.procs.get(pid as usize).map(|s| &*s.name)
        })
    }
}

/// A single-lock window onto the scheduler, handed out by
/// [`Kernel::with_wake_batch`]. Wake pushes through it are identical —
/// same sequence-number allocation, same heap discipline — to individual
/// [`Kernel::schedule_wake`] calls; only the locking is batched.
pub(crate) struct WakeBatch<'a> {
    st: &'a mut KState,
    now: SimTime,
}

impl WakeBatch<'_> {
    /// Push a canonical wake for `pid` at `time`, as
    /// [`Kernel::schedule_wake`] does, and return its sequence number
    /// (`None` if `pid` is dead).
    pub(crate) fn push_wake(&mut self, pid: ProcId, time: SimTime) -> Option<u64> {
        self.st.schedule_wake_locked(self.now, pid, time)
    }

    /// Sequence number of `pid`'s pending wake, if it has one.
    pub(crate) fn pending_seq(&self, pid: ProcId) -> Option<u64> {
        self.st.procs.get(pid.0 as usize)?.pending_seq
    }

    /// Clear `pid`'s pending wake if it is still the one numbered `seq`.
    /// A wake pushed since (a kill, say) stays in place. The heap entry
    /// is left behind and skipped as stale when popped.
    pub(crate) fn cancel_wake(&mut self, pid: ProcId, seq: u64) {
        if let Some(slot) = self.st.procs.get_mut(pid.0 as usize) {
            if slot.pending_seq == Some(seq) {
                slot.pending_seq = None;
            }
        }
    }

    /// The kernel's event counters.
    pub(crate) fn counts(&mut self) -> &mut Counts {
        &mut self.st.counts
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A cloneable handle onto a running (or not-yet-run) simulation.
///
/// `SimHandle` is how code *outside* a process context (test setup, the main
/// thread between [`Simulation::run_until`] calls) and primitives interact
/// with the kernel: reading the clock, spawning processes, killing them,
/// tracing.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Arc<Kernel>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Spawn a process that participates in deadlock detection.
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.kernel.spawn_inner(name, false, f)
    }

    /// Spawn a *daemon* process: a service that legitimately blocks forever
    /// (e.g. an FTB agent waiting for events) and is ignored by deadlock
    /// detection and by [`Simulation::run`] completion.
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.kernel.spawn_inner(name, true, f)
    }

    /// Kill a process: it unwinds at its next (or current) blocking call.
    pub fn kill(&self, pid: ProcId) {
        self.kernel.kill(pid)
    }

    /// Whether the process has terminated (finished, killed, or panicked).
    pub fn is_dead(&self, pid: ProcId) -> bool {
        self.kernel.is_dead(pid)
    }

    /// Draw from the simulation-global deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        self.kernel.with_rng(f)
    }

    /// Append a trace record (no-op unless tracing is enabled).
    pub fn trace(&self, msg: &str) {
        self.kernel.tracer.rec(self.now(), None, msg);
    }

    /// Access the tracer (enable, drain records).
    pub fn tracer(&self) -> &Tracer {
        &self.kernel.tracer
    }

    /// Whether telemetry collection is on. Check before building an
    /// expensive event payload (formatted names, argument vectors).
    #[inline]
    pub fn telemetry_on(&self) -> bool {
        self.kernel.tracer.is_enabled()
    }

    /// Open a telemetry span not attributed to any process; it ends when
    /// the returned guard drops (or at an explicit [`Span::end`]).
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Span {
        self.span_with(cat, name, Vec::new)
    }

    /// Open a telemetry span with arguments attached to its begin event.
    /// `args` is only invoked when telemetry is on.
    pub fn span_with(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        args: impl FnOnce() -> Args,
    ) -> Span {
        Span::open(Arc::clone(&self.kernel), None, cat, name, args)
    }

    /// Emit a point-in-time telemetry event not attributed to any process.
    pub fn instant(&self, cat: &'static str, name: impl Into<String>) {
        self.instant_with(cat, name, Vec::new);
    }

    /// Emit an instant event with arguments; `args` is only invoked when
    /// telemetry is on.
    pub fn instant_with(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        args: impl FnOnce() -> Args,
    ) {
        if self.kernel.tracer.armed() {
            self.kernel
                .tracer
                .instant(self.now(), None, cat, name, args());
        }
    }

    /// Emit a telemetry counter sample not attributed to any process.
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, value: f64) {
        self.kernel
            .tracer
            .counter(self.now(), None, cat, name, value);
    }

    /// Snapshot the kernel self-profile (see [`HotStats`]). Counters are
    /// always live; wall-clock categories need profiling armed.
    pub fn hot_stats(&self) -> HotStats {
        self.kernel.hot_stats()
    }

    /// Arm or disarm wall-clock profiling at runtime (equivalent to the
    /// `SIMKIT_PROF=1` environment variable at construction).
    pub fn set_prof(&self, on: bool) {
        self.kernel.hot.set_prof(on)
    }
}

enum StepResult {
    Ran,
    Quiescent,
    LimitReached,
}

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The heap drained: nothing left to do before (or after) the limit.
    Quiescent,
    /// The time limit was reached with future work still pending.
    LimitReached,
}

/// A discrete-event simulation: owns the scheduler loop and every
/// process's coroutine.
///
/// Construct with [`Simulation::new`], spawn processes, then drive with
/// [`Simulation::run`] (to quiescence) or [`Simulation::run_until`].
///
/// A `Simulation` is `!Send`: process stacks belong to the thread that
/// drives them.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<simkit::Simulation>();
/// ```
pub struct Simulation {
    kernel: Arc<Kernel>,
    /// Coroutine of each started, unfinished process, indexed by pid.
    coros: Vec<Option<Coro>>,
    stacks: StackPool,
    /// Set once a process panic has aborted the run; further use is a bug.
    poisoned: bool,
}

impl Simulation {
    /// Create a simulation whose RNG is seeded with `seed`. Identical seeds
    /// and identical process logic produce identical event sequences.
    pub fn new(seed: u64) -> Self {
        // Kill-unwinds are routine control flow here; stop the default
        // panic hook from spamming stderr with them (installed once).
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().is::<Killed>() {
                    return;
                }
                prev(info);
            }));
        });
        let kernel = Arc::new(Kernel {
            st: Mutex::new(KState {
                next_seq: 0,
                heap: BinaryHeap::new(),
                procs: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                counts: Counts::default(),
            }),
            now_ns: AtomicU64::new(0),
            tracer: Tracer::new(),
            hot: Hot::new(),
        });
        Simulation {
            kernel,
            coros: Vec::new(),
            stacks: StackPool::default(),
            poisoned: false,
        }
    }

    /// A cloneable handle for spawning/killing/tracing.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Arc::clone(&self.kernel),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Spawn a process (see [`SimHandle::spawn`]).
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.handle().spawn(name, f)
    }

    /// Spawn a daemon process (see [`SimHandle::spawn_daemon`]).
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.handle().spawn_daemon(name, f)
    }

    /// Snapshot the kernel self-profile (see [`HotStats`]).
    pub fn hot_stats(&self) -> HotStats {
        self.kernel.hot_stats()
    }

    /// Run until `event` fires. Use this to drive simulations containing
    /// perpetual daemons (heartbeats, monitors) that would otherwise keep
    /// the heap non-empty forever. Errors if the heap drains or the clock
    /// passes `limit` without the event firing.
    pub fn run_until_set(
        &mut self,
        event: &crate::sync::Event,
        limit: SimTime,
    ) -> Result<(), SimError> {
        loop {
            if event.is_set() {
                return Ok(());
            }
            match self.step_one(limit)? {
                StepResult::Ran => continue,
                StepResult::Quiescent | StepResult::LimitReached => {
                    if event.is_set() {
                        return Ok(());
                    }
                    return Err(SimError::Deadlock {
                        at: self.now(),
                        blocked: self.kernel.st.lock().blocked(),
                    });
                }
            }
        }
    }

    /// Run until the event heap drains. Returns an error on protocol
    /// deadlock (non-daemon processes blocked forever) or a process panic.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.drive(SimTime::MAX)?;
        // Heap drained: any live, blocked, non-daemon process is deadlocked.
        let blocked = self.kernel.st.lock().blocked();
        if blocked.is_empty() {
            Ok(())
        } else {
            Err(SimError::Deadlock {
                at: self.now(),
                blocked,
            })
        }
    }

    /// Run until virtual time `limit` (inclusive of events at `limit`).
    /// On success the clock reads exactly `limit` unless the heap drained
    /// earlier (then it reads the last event time).
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunOutcome, SimError> {
        let outcome = self.drive(limit)?;
        if outcome == RunOutcome::LimitReached {
            self.kernel.set_now(limit);
        }
        Ok(outcome)
    }

    /// Run for `d` more virtual time from the current instant.
    pub fn run_for(&mut self, d: std::time::Duration) -> Result<RunOutcome, SimError> {
        let limit = self.now() + d;
        self.run_until(limit)
    }

    fn drive(&mut self, limit: SimTime) -> Result<RunOutcome, SimError> {
        loop {
            match self.step_one(limit)? {
                StepResult::Ran => {}
                StepResult::Quiescent => return Ok(RunOutcome::Quiescent),
                StepResult::LimitReached => return Ok(RunOutcome::LimitReached),
            }
        }
    }

    /// Dispatch the next event: switch onto its owner's stack and run it
    /// until it blocks or finishes, then do the finish bookkeeping.
    fn step_one(&mut self, limit: SimTime) -> Result<StepResult, SimError> {
        assert!(!self.poisoned, "simulation used after a process panic");
        let hot = &self.kernel.hot;
        let t_sched = hot.clock();
        let popped = self.kernel.st.lock().pop_next(limit.as_nanos());
        let pid = match popped {
            Popped::Quiescent => return Ok(StepResult::Quiescent),
            Popped::Limit => return Ok(StepResult::LimitReached),
            Popped::Ready(pid, time) => {
                self.kernel.set_now(time);
                pid
            }
        };
        hot.lap(t_sched, HotCat::Sched);
        let t_run = hot.clock();
        let fin = self.resume(pid);
        self.kernel.hot.lap_run(pid, t_run);
        let Some(fin) = fin else {
            return Ok(StepResult::Ran);
        };
        let fin_pid = ProcId(pid);
        let (name, waiters) = self.kernel.finish_proc(pid);
        for w in waiters {
            self.kernel.wake_now(ProcId(w));
        }
        let tracer = &self.kernel.tracer;
        match fin {
            Fin::Ok => tracer.rec(self.now(), Some(fin_pid), "finished"),
            Fin::Killed => tracer.rec(self.now(), Some(fin_pid), "died (killed)"),
            Fin::Panic(message) => {
                self.poisoned = true;
                return Err(SimError::ProcPanic {
                    pid: fin_pid,
                    name: name.to_string(),
                    message,
                });
            }
        }
        Ok(StepResult::Ran)
    }

    /// Run `pid` on its coroutine (creating it at the first dispatch)
    /// until it blocks (`None`) or finishes. A process killed before its
    /// first dispatch never runs: its body is dropped here.
    fn resume(&mut self, pid: u32) -> Option<Fin> {
        let idx = pid as usize;
        if idx >= self.coros.len() {
            self.coros.resize_with(idx + 1, || None);
        }
        if self.coros[idx].is_none() {
            let (body, killed) = {
                let mut st = self.kernel.st.lock();
                let slot = &mut st.procs[idx];
                (slot.body.take(), slot.killed)
            };
            let body = body.expect("dispatched a process with no body");
            if killed {
                drop(body);
                return Some(Fin::Killed);
            }
            let kernel = Arc::clone(&self.kernel);
            let run = Box::new(move || body(&Ctx::new(kernel, ProcId(pid))));
            self.coros[idx] = Some(Coro::new(&mut self.stacks, run));
        }
        let result = self.coros[idx].as_mut()?.resume()?;
        if let Some(coro) = self.coros[idx].take() {
            coro.recycle(&mut self.stacks);
        }
        Some(match result {
            Ok(()) => Fin::Ok,
            Err(p) if p.is::<Killed>() => Fin::Killed,
            Err(p) => Fin::Panic(panic_message(&*p)),
        })
    }
}

impl Drop for Simulation {
    /// Kill every live process, then unwind them one at a time in pid
    /// order, each on its own stack, so its guards run exactly once. A
    /// process that never started just drops its body. Processes spawned
    /// during the teardown are torn down the same way.
    fn drop(&mut self) {
        for slot in self.kernel.st.lock().procs.iter_mut() {
            if !slot.dead {
                slot.killed = true;
            }
        }
        let mut idx = 0;
        loop {
            let body = {
                let mut st = self.kernel.st.lock();
                let Some(slot) = st.procs.get_mut(idx) else {
                    break;
                };
                if slot.dead {
                    idx += 1;
                    continue;
                }
                slot.killed = true;
                slot.body.take()
            };
            // Outside the lock: dropping a body may touch the kernel.
            drop(body);
            if let Some(mut coro) = self.coros.get_mut(idx).and_then(Option::take) {
                while coro.resume().is_none() {}
                coro.recycle(&mut self.stacks);
            }
            self.kernel.finish_proc(idx as u32);
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A simulation with one proc asleep until t = 1 s, run to t = 1 ms.
    fn sleeper() -> (Simulation, ProcId) {
        let mut sim = Simulation::new(0);
        let pid = sim
            .spawn("sleeper", |ctx| ctx.sleep(Duration::from_secs(1)))
            .pid();
        sim.run_until(SimTime::from_nanos(1_000_000)).unwrap();
        (sim, pid)
    }

    #[test]
    fn cancel_leaves_a_later_kill_wake_in_place() {
        let (mut sim, pid) = sleeper();
        let armed = sim
            .kernel
            .with_wake_batch(|b| b.push_wake(pid, SimTime::from_nanos(5_000_000)))
            .unwrap();
        sim.handle().kill(pid);
        let pending = sim.kernel.with_wake_batch(|b| {
            b.cancel_wake(pid, armed);
            b.pending_seq(pid)
        });
        assert!(pending.is_some_and(|s| s > armed), "the kill wake survives");
        sim.run_until(SimTime::from_nanos(1_000_000)).unwrap();
        assert!(sim.handle().is_dead(pid), "unwound at the kill instant");
    }

    #[test]
    fn cancel_of_the_pending_wake_leaves_no_timer() {
        let (mut sim, pid) = sleeper();
        let pending = sim.kernel.with_wake_batch(|b| {
            let seq = b.push_wake(pid, SimTime::from_nanos(5_000_000));
            assert_eq!(b.pending_seq(pid), seq);
            b.cancel_wake(pid, seq.unwrap());
            b.pending_seq(pid)
        });
        assert_eq!(pending, None);
        let before = sim.hot_stats();
        assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
        let d = sim.hot_stats().since(&before);
        assert_eq!((d.events_dispatched, d.stale_timers_skipped), (0, 2));
    }
}
