//! Structured execution tracing: the workspace-wide telemetry event bus.
//!
//! Every simulation [`Kernel`](crate::Simulation) owns one [`Tracer`].
//! Instrumented code emits [`TraceEvent`]s — spans ([`EventKind::Begin`]/
//! [`EventKind::End`]), point-in-time instants, numeric counter samples,
//! and free-form log messages — stamped with virtual time and the emitting
//! process id. Collection is **off by default**; when disabled, an emit is
//! a single relaxed atomic load and no event payload is constructed
//! (span/instant helpers take `impl Into<String>` and only materialise the
//! name when armed).
//!
//! Downstream, the `telemetry` crate aggregates the event stream into
//! counters/histograms and exports it as chrome://tracing JSON; the
//! `jobmig-core` `Timeline` rebuilds per-phase stacks (paper Fig. 4) from
//! `cat = "phase"` spans.
//!
//! Because the kernel is deterministic, the event sequence for a given
//! seed is bit-for-bit reproducible — traces are comparable across runs.

use crate::kernel::ProcId;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};

/// A single legacy trace record (free-form message view of the stream).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Virtual time of the record.
    pub time: SimTime,
    /// Process the record is attributed to, if any.
    pub pid: Option<ProcId>,
    /// Free-form message.
    pub msg: String,
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Start of a span; paired with the next [`EventKind::End`] of the
    /// same `(pid, cat, name)`.
    Begin,
    /// End of a span.
    End,
    /// A point-in-time marker.
    Instant,
    /// A sampled numeric series value (queue depth, bytes in flight, ...).
    Counter(f64),
    /// A free-form log message (the legacy [`Ctx::trace`](crate::Ctx::trace) path).
    Message,
}

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (ids, byte counts, chunk indexes).
    U64(u64),
    /// Floating point (rates, fractions).
    F64(f64),
    /// Text (names, transport kinds).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Key–value pairs attached to an event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One structured telemetry event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time the event was emitted.
    pub time: SimTime,
    /// Emitting process, if emitted from process context.
    pub pid: Option<ProcId>,
    /// Category: a short static label grouping related events
    /// (`"phase"`, `"rdma"`, `"ckpt"`, `"ftb"`, `"store"`, `"mpi"`, `"log"`).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: String,
    /// What the event marks.
    pub kind: EventKind,
    /// Optional structured arguments.
    pub args: Args,
}

/// Running digest over the full trace-event stream.
///
/// FNV-1a-64 folded over a stable byte encoding of every event (time,
/// pid, category, name, kind, args) in emission order. Because the
/// kernel is deterministic, two runs of the same scenario produce the
/// same digest **iff** their trace streams are byte-identical — this is
/// the oracle the wall-clock optimization work is gated on: an optimized
/// kernel must reproduce the pre-optimization digest bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceDigest {
    /// FNV-1a-64 over the encoded event stream (`0xcbf29ce484222325`
    /// when no event has been folded).
    pub hash: u64,
    /// Number of events folded in.
    pub events: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl TraceDigest {
    fn new() -> Self {
        TraceDigest {
            hash: FNV_OFFSET,
            events: 0,
        }
    }

    #[inline]
    fn fold_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }

    fn fold_event(&mut self, ev: &TraceEvent) {
        self.fold_bytes(&ev.time.as_nanos().to_le_bytes());
        match ev.pid {
            Some(p) => {
                self.fold_bytes(&[0x01]);
                self.fold_bytes(&p.0.to_le_bytes());
            }
            None => self.fold_bytes(&[0xFF]),
        }
        self.fold_bytes(ev.cat.as_bytes());
        self.fold_bytes(&[0]);
        self.fold_bytes(ev.name.as_bytes());
        self.fold_bytes(&[0]);
        match &ev.kind {
            EventKind::Begin => self.fold_bytes(&[1]),
            EventKind::End => self.fold_bytes(&[2]),
            EventKind::Instant => self.fold_bytes(&[3]),
            EventKind::Counter(v) => {
                self.fold_bytes(&[4]);
                self.fold_bytes(&v.to_bits().to_le_bytes());
            }
            EventKind::Message => self.fold_bytes(&[5]),
        }
        for (k, v) in &ev.args {
            self.fold_bytes(k.as_bytes());
            self.fold_bytes(&[0]);
            match v {
                ArgValue::U64(u) => {
                    self.fold_bytes(&[1]);
                    self.fold_bytes(&u.to_le_bytes());
                }
                ArgValue::F64(f) => {
                    self.fold_bytes(&[2]);
                    self.fold_bytes(&f.to_bits().to_le_bytes());
                }
                ArgValue::Str(s) => {
                    self.fold_bytes(&[3]);
                    self.fold_bytes(s.as_bytes());
                    self.fold_bytes(&[0]);
                }
            }
        }
        self.events += 1;
    }
}

/// Collects [`TraceEvent`]s when enabled; optionally echoes them to stderr
/// as they are produced (useful when a test deadlocks before it can drain).
///
/// Disabled by default; an emit is a single relaxed atomic load when off.
pub struct Tracer {
    /// `ENABLED | ECHO | DIGEST` bits, one word so the disabled check is
    /// one load.
    flags: AtomicU8,
    digest: Mutex<TraceDigest>,
    events: Mutex<Vec<TraceEvent>>,
    proc_names: Mutex<HashMap<u32, String>>,
}

const ENABLED: u8 = 1;
const ECHO: u8 = 2;
const DIGEST: u8 = 4;

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            flags: AtomicU8::new(0),
            digest: Mutex::new(TraceDigest::new()),
            events: Mutex::new(Vec::new()),
            proc_names: Mutex::new(HashMap::new()),
        }
    }

    /// Fold every subsequent event into a running [`TraceDigest`] instead
    /// of (or in addition to) collecting it. Digesting arms event
    /// construction like `set_enabled` but stores nothing per event, so
    /// soak-length runs can be digested in O(1) memory.
    pub fn set_digest_enabled(&self, on: bool) {
        self.set_flag(DIGEST, on);
    }

    /// The running digest over every event folded so far.
    pub fn digest(&self) -> TraceDigest {
        *self.digest.lock()
    }

    /// Turn event collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.set_flag(ENABLED, on);
    }

    /// Also print each event to stderr as it is recorded.
    pub fn set_echo(&self, on: bool) {
        self.set_flag(ECHO, on);
    }

    fn set_flag(&self, bit: u8, on: bool) {
        if on {
            self.flags.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.flags.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    fn flag(&self, bit: u8) -> bool {
        self.flags.load(Ordering::Relaxed) & bit != 0
    }

    /// Whether collection is enabled. Check this before building an
    /// expensive event payload (formatted names, argument vectors).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.flag(ENABLED)
    }

    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.flags.load(Ordering::Relaxed) != 0
    }

    /// Record a process name so exporters can label its track. Called by
    /// the kernel on every spawn; names survive `drain_events`.
    pub(crate) fn name_proc(&self, pid: ProcId, name: &str) {
        self.proc_names.lock().insert(pid.0, name.to_string());
    }

    /// Known process names, by raw pid.
    pub fn proc_names(&self) -> HashMap<u32, String> {
        self.proc_names.lock().clone()
    }

    /// Append a structured event (no-op unless enabled, digesting or
    /// echoing).
    pub fn emit(&self, ev: TraceEvent) {
        if !self.armed() {
            return;
        }
        if self.flag(DIGEST) {
            self.digest.lock().fold_event(&ev);
        }
        if self.flag(ECHO) {
            let t = ev.time;
            let what = match &ev.kind {
                EventKind::Begin => format!("[{}] {} begin", ev.cat, ev.name),
                EventKind::End => format!("[{}] {} end", ev.cat, ev.name),
                EventKind::Instant => format!("[{}] {}", ev.cat, ev.name),
                EventKind::Counter(v) => format!("[{}] {} = {v}", ev.cat, ev.name),
                EventKind::Message => ev.name.clone(),
            };
            match ev.pid {
                Some(p) => eprintln!("[{t}] {p:?}: {what}"),
                None => eprintln!("[{t}] {what}"),
            }
        }
        if self.flag(ENABLED) {
            self.events.lock().push(ev);
        }
    }

    /// Emit a span-begin event.
    pub fn begin(
        &self,
        time: SimTime,
        pid: Option<ProcId>,
        cat: &'static str,
        name: impl Into<String>,
        args: Args,
    ) {
        if !self.armed() {
            return;
        }
        self.emit(TraceEvent {
            time,
            pid,
            cat,
            name: name.into(),
            kind: EventKind::Begin,
            args,
        });
    }

    /// Emit a span-end event.
    pub fn end(
        &self,
        time: SimTime,
        pid: Option<ProcId>,
        cat: &'static str,
        name: impl Into<String>,
        args: Args,
    ) {
        if !self.armed() {
            return;
        }
        self.emit(TraceEvent {
            time,
            pid,
            cat,
            name: name.into(),
            kind: EventKind::End,
            args,
        });
    }

    /// Emit a point-in-time instant event.
    pub fn instant(
        &self,
        time: SimTime,
        pid: Option<ProcId>,
        cat: &'static str,
        name: impl Into<String>,
        args: Args,
    ) {
        if !self.armed() {
            return;
        }
        self.emit(TraceEvent {
            time,
            pid,
            cat,
            name: name.into(),
            kind: EventKind::Instant,
            args,
        });
    }

    /// Emit a counter sample.
    pub fn counter(
        &self,
        time: SimTime,
        pid: Option<ProcId>,
        cat: &'static str,
        name: impl Into<String>,
        value: f64,
    ) {
        if !self.armed() {
            return;
        }
        self.emit(TraceEvent {
            time,
            pid,
            cat,
            name: name.into(),
            kind: EventKind::Counter(value),
            args: Vec::new(),
        });
    }

    /// Legacy free-form message record.
    pub(crate) fn rec(&self, time: SimTime, pid: Option<ProcId>, msg: &str) {
        if !self.armed() {
            return;
        }
        self.emit(TraceEvent {
            time,
            pid,
            cat: "log",
            name: msg.to_string(),
            kind: EventKind::Message,
            args: Vec::new(),
        });
    }

    /// Remove and return all collected events.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Clone the collected events without draining them.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Remove all collected events and return the free-form-message ones
    /// as legacy [`TraceRecord`]s. Structured events are discarded; use
    /// [`Tracer::drain_events`] to keep them.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.drain_events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Message))
            .map(|e| TraceRecord {
                time: e.time,
                pid: e.pid,
                msg: e.name,
            })
            .collect()
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.rec(SimTime::ZERO, None, "hello");
        t.instant(SimTime::ZERO, None, "rdma", "chunk", Vec::new());
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_tracer_collects_and_drains() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.rec(SimTime::from_nanos(5), Some(ProcId(3)), "a");
        t.rec(SimTime::from_nanos(9), None, "b");
        assert_eq!(t.len(), 2);
        let recs = t.drain();
        assert_eq!(recs[0].msg, "a");
        assert_eq!(recs[0].pid, Some(ProcId(3)));
        assert_eq!(recs[1].time.as_nanos(), 9);
        assert!(t.is_empty());
    }

    #[test]
    fn structured_events_roundtrip() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.begin(
            SimTime::from_nanos(1),
            Some(ProcId(1)),
            "phase",
            "migrate",
            vec![("cycle", 0u64.into())],
        );
        t.counter(SimTime::from_nanos(2), None, "store", "dirty", 0.5);
        t.end(
            SimTime::from_nanos(3),
            Some(ProcId(1)),
            "phase",
            "migrate",
            Vec::new(),
        );
        let evs = t.drain_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[0].args, vec![("cycle", ArgValue::U64(0))]);
        assert_eq!(evs[1].kind, EventKind::Counter(0.5));
        assert_eq!(evs[2].kind, EventKind::End);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let emit_seq = |names: &[&str]| {
            let t = Tracer::new();
            t.set_digest_enabled(true);
            for (i, n) in names.iter().enumerate() {
                t.instant(
                    SimTime::from_nanos(i as u64),
                    Some(ProcId(1)),
                    "pool",
                    *n,
                    vec![("k", (i as u64).into())],
                );
            }
            t.digest()
        };
        let a = emit_seq(&["x", "y"]);
        let b = emit_seq(&["x", "y"]);
        let c = emit_seq(&["x", "z"]);
        assert_eq!(a, b, "same stream, same digest");
        assert_ne!(a.hash, c.hash, "different stream, different digest");
        assert_eq!(a.events, 2);
        // digesting alone stores no events
        let t = Tracer::new();
        t.set_digest_enabled(true);
        t.instant(SimTime::ZERO, None, "pool", "x", Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.digest().events, 1);
    }

    #[test]
    fn digest_distinguishes_kind_and_args() {
        let one = |kind: EventKind, args: Args| {
            let t = Tracer::new();
            t.set_digest_enabled(true);
            t.emit(TraceEvent {
                time: SimTime::ZERO,
                pid: None,
                cat: "c",
                name: "n".into(),
                kind,
                args,
            });
            t.digest().hash
        };
        let h1 = one(EventKind::Instant, Vec::new());
        let h2 = one(EventKind::Begin, Vec::new());
        let h3 = one(EventKind::Counter(1.0), Vec::new());
        let h4 = one(EventKind::Instant, vec![("a", 1u64.into())]);
        let h5 = one(EventKind::Instant, vec![("a", "1".into())]);
        assert!(h1 != h2 && h1 != h3 && h1 != h4 && h4 != h5);
    }

    #[test]
    fn legacy_drain_skips_structured_events() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.instant(SimTime::ZERO, None, "ftb", "publish", Vec::new());
        t.rec(SimTime::ZERO, None, "msg");
        let recs = t.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].msg, "msg");
    }
}
