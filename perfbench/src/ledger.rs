//! Per-layer ledger: folds a traced run's spans and instants and the
//! kernel's `HotStats` into named metrics.
//!
//! Nothing here instruments the program; it reads the spans and instants
//! the modules already emit (`rdma`, `store`, `ckpt`, `mpi`, `pool`,
//! `live`, `ftb`, `phase`, `wal`).

use crate::workloads::Trace;
use simkit::{ArgValue, EventKind, HotStats, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Spans of one `(cat, name)`: how many closed, their summed virtual
/// duration (busy time, summed over procs) and their summed `bytes` arg.
#[derive(Default, Clone, Copy)]
pub struct SpanAgg {
    pub count: u64,
    pub busy_ns: u64,
    pub bytes: u64,
}

fn arg_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find_map(|(k, v)| match (*k, v) {
        (k, ArgValue::U64(x)) if k == key => Some(*x),
        _ => None,
    })
}

/// Span and instant tallies of one trace.
#[derive(Default)]
pub struct Tally {
    spans: HashMap<(&'static str, String), SpanAgg>,
    instants: HashMap<(&'static str, String), u64>,
}

impl Tally {
    /// Pair each `End` with the latest open `Begin` of the same
    /// `(pid, cat, name)`, as `telemetry::Timeline` does for phases.
    pub fn of(events: &[TraceEvent]) -> Tally {
        type Key<'a> = (Option<simkit::ProcId>, &'static str, &'a str);
        let mut open: HashMap<Key, Vec<(u64, u64)>> = HashMap::new();
        let mut t = Tally::default();
        for ev in events {
            match ev.kind {
                EventKind::Begin => open
                    .entry((ev.pid, ev.cat, ev.name.as_str()))
                    .or_default()
                    .push((ev.time.as_nanos(), arg_u64(ev, "bytes").unwrap_or(0))),
                EventKind::End => {
                    if let Some((t0, bytes)) = open
                        .get_mut(&(ev.pid, ev.cat, ev.name.as_str()))
                        .and_then(Vec::pop)
                    {
                        let agg = t.spans.entry((ev.cat, ev.name.clone())).or_default();
                        agg.count += 1;
                        agg.busy_ns += ev.time.as_nanos() - t0;
                        agg.bytes += bytes;
                    }
                }
                EventKind::Instant => {
                    *t.instants.entry((ev.cat, ev.name.clone())).or_default() += 1;
                }
                _ => {}
            }
        }
        t
    }

    pub fn span(&self, cat: &'static str, name: &str) -> SpanAgg {
        self.spans
            .get(&(cat, name.to_string()))
            .copied()
            .unwrap_or_default()
    }

    pub fn instants(&self, cat: &'static str, name: &str) -> u64 {
        self.instants
            .get(&(cat, name.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

/// Metric name → value, in name order.
pub type Metrics = BTreeMap<String, f64>;

/// The per-layer metrics that come from spans and instants, summed over
/// every traced simulation of the workload.
pub fn trace_layers(m: &mut Metrics, traces: &[&Trace]) {
    let tallies: Vec<Tally> = traces.iter().map(|t| Tally::of(&t.events)).collect();
    let span = |cat, name| {
        tallies.iter().fold(SpanAgg::default(), |a, t| {
            let s = t.span(cat, name);
            SpanAgg {
                count: a.count + s.count,
                busy_ns: a.busy_ns + s.busy_ns,
                bytes: a.bytes + s.bytes,
            }
        })
    };
    let inst = |cat, name| tallies.iter().map(|t| t.instants(cat, name)).sum::<u64>() as f64;
    let secs = |a: SpanAgg| a.busy_ns as f64 / 1e9;
    let mb = |b: u64| b as f64 / 1e6;

    let read = span("rdma", "read");
    m.insert("ibfabric.read_ops".into(), read.count as f64);
    m.insert("ibfabric.read_mb".into(), mb(read.bytes));
    m.insert("ibfabric.read_busy_s".into(), secs(read));
    m.insert("ibfabric.qp_connects".into(), inst("rdma", "qp_connect"));
    m.insert(
        "ibfabric.mr_registers".into(),
        span("rdma", "mr_register").count as f64,
    );

    let (sync, append) = (span("store", "write_sync"), span("store", "pvfs_append"));
    m.insert("storesim.write_sync_s".into(), secs(sync));
    m.insert("storesim.pvfs_append_s".into(), secs(append));
    m.insert(
        "storesim.pvfs_read_s".into(),
        secs(span("store", "pvfs_read")),
    );
    m.insert("storesim.write_mb".into(), mb(sync.bytes + append.bytes));

    m.insert("blcrsim.dump_s".into(), secs(span("ckpt", "dump")));
    m.insert("blcrsim.restart_s".into(), secs(span("ckpt", "restart")));
    m.insert("blcrsim.dump_retries".into(), inst("ckpt", "dump_retry"));

    m.insert(
        "mpisim.drain_s".into(),
        secs(span("mpi", "suspend_and_drain")),
    );
    m.insert(
        "mpisim.rebuild_s".into(),
        secs(span("mpi", "rebuild_endpoints")),
    );

    m.insert("bufpool.chunks".into(), inst("pool", "chunk_pull"));
    m.insert("bufpool.reissues".into(), inst("pool", "chunk_reissue"));
    m.insert(
        "bufpool.pull_aborts".into(),
        inst("pool", "pull_aborted") + inst("pool", "precopy_pull_aborted"),
    );
    m.insert("wal.appends".into(), inst("wal", "wal_append"));
    m.insert("ftb.events_dropped".into(), inst("ftb", "event_dropped"));
    m.insert(
        "telemetry.trace_events".into(),
        traces.iter().map(|t| t.events.len()).sum::<usize>() as f64,
    );
}

/// Kernel counters summed over the workload's simulations. The FTB share
/// needs the per-proc dispatch counts only a profiled run keeps.
pub fn kernel_layers(m: &mut Metrics, hot: &[&HotStats], traces: &[&Trace]) {
    let sum = |f: fn(&HotStats) -> u64| hot.iter().map(|h| f(h)).sum::<u64>() as f64;
    let events = sum(|h| h.events_dispatched);
    let pushes = sum(|h| h.timer_pushes);
    let stale = sum(|h| h.stale_timers_skipped);
    let recomputes = sum(|h| h.flow_recomputes);
    let retimes = sum(|h| h.flow_retimes);
    m.insert("simkit.events".into(), events);
    m.insert("simkit.procs_spawned".into(), sum(|h| h.procs_spawned));
    m.insert(
        "simkit.heap_peak".into(),
        hot.iter().map(|h| h.heap_peak).max().unwrap_or(0) as f64,
    );
    m.insert("simkit.timer_pushes".into(), pushes);
    m.insert("simkit.stale_pops".into(), stale);
    m.insert("simkit.stale_frac".into(), ratio(stale, pushes));
    m.insert("flownet.recomputes".into(), recomputes);
    m.insert("flownet.retimes".into(), retimes);
    m.insert(
        "flownet.retimes_per_recompute".into(),
        ratio(retimes, recomputes),
    );

    // Dispatches made by FTB agents, over all dispatches (prof only).
    let (mut ftb, mut all) = (0u64, 0u64);
    for (h, t) in hot.iter().zip(traces) {
        for (pid, n) in &h.per_proc {
            all += n;
            if t.names.get(pid).is_some_and(|s| s.starts_with("ftb-agent")) {
                ftb += n;
            }
        }
    }
    m.insert("ftb.dispatch_share".into(), ratio(ftb as f64, all as f64));
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
