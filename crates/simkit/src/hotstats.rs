//! Kernel self-profiling: where the simulator's *wall-clock* time goes.
//!
//! The simulation is the workspace's own hot path — fleet soaks and
//! live-migration round sweeps push millions of scheduler events through
//! the kernel — so the kernel profiles itself. Two tiers:
//!
//! * **Counters** (events dispatched, timer-heap pushes, stale timers
//!   skipped, process spawns, FlowNet recomputes and per-flow
//!   evaluations) are always maintained: plain integers in the scheduler
//!   state, bumped under the lock the counted operation already holds.
//! * **Wall-clock timing** (ns per kernel category, per-process dispatch
//!   counts and run time, run time per proc-name prefix) reads the host
//!   monotonic clock twice per event and is off
//!   unless the `SIMKIT_PROF=1` environment variable is set when the
//!   [`Simulation`](crate::Simulation) is created (or
//!   [`SimHandle::set_prof`](crate::SimHandle::set_prof) is called).
//!
//! Neither tier affects virtual time or the trace stream: profiling a
//! run and not profiling it produce byte-identical traces.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Event counters, kept in the scheduler state.
#[derive(Default)]
pub(crate) struct Counts {
    /// Dispatches: timers popped as valid and run on their process.
    pub(crate) dispatches: u64,
    /// Heap entries popped and discarded as stale (superseded wakes).
    pub(crate) stale_skips: u64,
    /// Timer-heap pushes (canonical wake replacements included).
    pub(crate) timer_pushes: u64,
    /// Peak timer-heap length observed at push time.
    pub(crate) heap_peak: u64,
    /// Simulated processes spawned.
    pub(crate) spawns: u64,
    /// FlowNet rate recomputations (flow add/remove/wake).
    pub(crate) flow_recomputes: u64,
    /// Per-flow rate and completion evaluations in FlowNet recomputes
    /// (not timer pushes).
    pub(crate) flow_retimes: u64,
}

/// Wall-clock profile owned by the kernel. Interior-mutable; off unless
/// armed.
pub(crate) struct Hot {
    /// Wall-clock timing armed (`SIMKIT_PROF=1` or `set_prof(true)`).
    prof: AtomicBool,
    /// ns the scheduler spent selecting timers (heap pop loop). Prof only.
    sched_ns: AtomicU64,
    /// ns processes ran, from resume to yield. Prof only.
    run_ns: AtomicU64,
    /// ns spent in `spawn_inner` (slot setup). Prof only.
    spawn_ns: AtomicU64,
    /// (dispatches, run ns) per process. Prof only.
    per_proc: Mutex<BTreeMap<u32, (u64, u64)>>,
}

impl Hot {
    pub(crate) fn new() -> Self {
        let prof = std::env::var("SIMKIT_PROF")
            .map(|v| v == "1")
            .unwrap_or(false);
        Hot {
            prof: AtomicBool::new(prof),
            sched_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            spawn_ns: AtomicU64::new(0),
            per_proc: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn set_prof(&self, on: bool) {
        self.prof.store(on, Ordering::Relaxed);
    }

    /// Start a wall-clock measurement, `None` when profiling is off.
    #[inline]
    pub(crate) fn clock(&self) -> Option<Instant> {
        if self.prof.load(Ordering::Relaxed) {
            Some(Instant::now()) // jmlint: allow(wall_clock) — the profiler measures host time by design
        } else {
            None
        }
    }

    /// Close a measurement opened with [`Hot::clock`] into a category.
    #[inline]
    pub(crate) fn lap(&self, t0: Option<Instant>, cat: HotCat) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let counter = match cat {
                HotCat::Sched => &self.sched_ns,
                HotCat::Spawn => &self.spawn_ns,
            };
            counter.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Close the run measurement of one dispatch of `pid` (opened with
    /// [`Hot::clock`] at resume) into the run total and the process's
    /// dispatch count and run time.
    #[inline]
    pub(crate) fn lap_run(&self, pid: u32, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.run_ns.fetch_add(ns, Ordering::Relaxed);
            let mut per_proc = self.per_proc.lock();
            let e = per_proc.entry(pid).or_insert((0, 0));
            e.0 += 1;
            e.1 += ns;
        }
    }

    /// Snapshot `counts` and the profile. `name` resolves a pid to its
    /// process name, for grouping run time by name prefix.
    pub(crate) fn snapshot<'a>(
        &self,
        counts: &Counts,
        name: impl Fn(u32) -> Option<&'a str>,
    ) -> HotStats {
        let table = self.per_proc.lock();
        let mut per_proc: Vec<(u32, u64)> = table.iter().map(|(&p, &(n, _))| (p, n)).collect();
        per_proc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut by_prefix: BTreeMap<&str, u64> = BTreeMap::new();
        for (&pid, &(_, ns)) in table.iter() {
            *by_prefix
                .entry(name_prefix(name(pid).unwrap_or("?")))
                .or_insert(0) += ns;
        }
        let mut run_ns_by_prefix: Vec<(String, u64)> = by_prefix
            .into_iter()
            .map(|(p, ns)| (p.to_string(), ns))
            .collect();
        run_ns_by_prefix.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        HotStats {
            events_dispatched: counts.dispatches,
            stale_timers_skipped: counts.stale_skips,
            timer_pushes: counts.timer_pushes,
            heap_peak: counts.heap_peak,
            procs_spawned: counts.spawns,
            flow_recomputes: counts.flow_recomputes,
            flow_retimes: counts.flow_retimes,
            sched_ns: self.sched_ns.load(Ordering::Relaxed),
            run_ns: self.run_ns.load(Ordering::Relaxed),
            spawn_ns: self.spawn_ns.load(Ordering::Relaxed),
            per_proc,
            run_ns_by_prefix,
        }
    }
}

/// The leading run of letters and `-` in a process name: the subsystem
/// key (`ftb-agent@node3` → `ftb-agent`, `app-r12` → `app-r`).
pub(crate) fn name_prefix(name: &str) -> &str {
    let end = name
        .find(|c: char| !(c.is_alphabetic() || c == '-'))
        .unwrap_or(name.len());
    &name[..end]
}

/// Wall-clock categories closed by [`Hot::lap`].
#[derive(Clone, Copy)]
pub(crate) enum HotCat {
    Sched,
    Spawn,
}

/// A point-in-time snapshot of the kernel's self-profile (see
/// [`Simulation::hot_stats`](crate::Simulation::hot_stats)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Dispatches: timers popped as valid and run on their process.
    /// This is the kernel's fundamental unit of work — "events/sec" in
    /// the wall-clock benches is this counter over elapsed host time.
    pub events_dispatched: u64,
    /// Heap entries popped and discarded as stale (superseded wakes).
    pub stale_timers_skipped: u64,
    /// Timer-heap pushes.
    pub timer_pushes: u64,
    /// Peak timer-heap length observed.
    pub heap_peak: u64,
    /// Simulated processes spawned.
    pub procs_spawned: u64,
    /// FlowNet rate recomputations.
    pub flow_recomputes: u64,
    /// Per-flow rate and completion evaluations, summed over FlowNet
    /// recomputes. Each flow in a net is evaluated on every recompute,
    /// but only the net's earliest completion gets a timer push (plus any
    /// owner holding a wake the net did not push), so this is not a count
    /// of timer pushes; those are in [`timer_pushes`](Self::timer_pushes).
    pub flow_retimes: u64,
    /// Wall ns the scheduler spent selecting timers (prof only).
    pub sched_ns: u64,
    /// Wall ns processes ran, from resume to yield (prof only).
    pub run_ns: u64,
    /// Wall ns spent spawning processes (prof only).
    pub spawn_ns: u64,
    /// Dispatch counts per process id, busiest first (prof only).
    pub per_proc: Vec<(u32, u64)>,
    /// Run ns per process-name prefix (the leading run of letters and
    /// `-`, e.g. `ftb-agent`), busiest first (prof only).
    pub run_ns_by_prefix: Vec<(String, u64)>,
}

impl HotStats {
    /// Difference against an earlier snapshot (for profiling one phase of
    /// a longer run). `per_proc` and `run_ns_by_prefix` are left empty.
    pub fn since(&self, earlier: &HotStats) -> HotStats {
        HotStats {
            events_dispatched: self.events_dispatched - earlier.events_dispatched,
            stale_timers_skipped: self.stale_timers_skipped - earlier.stale_timers_skipped,
            timer_pushes: self.timer_pushes - earlier.timer_pushes,
            heap_peak: self.heap_peak,
            procs_spawned: self.procs_spawned - earlier.procs_spawned,
            flow_recomputes: self.flow_recomputes - earlier.flow_recomputes,
            flow_retimes: self.flow_retimes - earlier.flow_retimes,
            sched_ns: self.sched_ns - earlier.sched_ns,
            run_ns: self.run_ns - earlier.run_ns,
            spawn_ns: self.spawn_ns - earlier.spawn_ns,
            per_proc: Vec::new(),
            run_ns_by_prefix: Vec::new(),
        }
    }

    /// Human-readable profile. `names` (e.g. from
    /// [`Tracer::proc_names`](crate::Tracer::proc_names)) labels the
    /// busiest processes when per-process counts were collected.
    pub fn report(&self, names: &HashMap<u32, String>) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str(&format!(
            "events dispatched   {:>12}\n\
             timer pushes        {:>12}\n\
             stale timers        {:>12}\n\
             heap peak           {:>12}\n\
             procs spawned       {:>12}\n\
             flow recomputes     {:>12}\n\
             flow evaluations    {:>12}\n",
            self.events_dispatched,
            self.timer_pushes,
            self.stale_timers_skipped,
            self.heap_peak,
            self.procs_spawned,
            self.flow_recomputes,
            self.flow_retimes,
        ));
        if self.sched_ns + self.run_ns + self.spawn_ns > 0 {
            out.push_str(&format!(
                "sched wall          {:>12.1} ms\n\
                 proc run wall       {:>12.1} ms\n\
                 spawn wall          {:>12.1} ms\n",
                ms(self.sched_ns),
                ms(self.run_ns),
                ms(self.spawn_ns),
            ));
        }
        if !self.run_ns_by_prefix.is_empty() {
            out.push_str("proc run wall by name prefix:\n");
            for (prefix, ns) in &self.run_ns_by_prefix {
                out.push_str(&format!("  {prefix:<16} {:>12.1} ms\n", ms(*ns)));
            }
        }
        if !self.per_proc.is_empty() {
            out.push_str("busiest processes:\n");
            for (pid, n) in self.per_proc.iter().take(12) {
                let name = names.get(pid).map(String::as_str).unwrap_or("?");
                out.push_str(&format!("  p{pid:<6} {n:>10}  {name}\n"));
            }
        }
        out
    }
}
