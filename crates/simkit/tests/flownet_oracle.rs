//! Property: FlowNet is deterministic and conserves bytes on random flow
//! schedules.
//!
//! Random flow add/remove schedules — staggered starts, shared links,
//! mid-flight kills — each run twice. The two runs must be *bit*-identical
//! (same completion nanoseconds per flow, same per-link completed bytes,
//! same FNV digest over the full trace stream), and every link's completed
//! bytes must equal the sum of the bytes of the flows that completed on
//! it: a killed flow carries nothing, a finished one its whole size.
//!
//! The same schedules, drawn with a fixed seed, also feed a golden digest,
//! and fixed cases pin exact completion instants for same-instant kills,
//! same-nanosecond completions and same-instant starts: how FlowNet arms
//! its wakes may change only if none of these moves.

use parking_lot::Mutex;
use proptest::prelude::*;
use simkit::{FlowNet, Sharing, Simulation, TraceDigest};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
struct FlowSpec {
    /// Start delay in nanoseconds.
    start_ns: u64,
    /// Transfer size in bytes.
    bytes: u64,
    /// Bitmask selecting which links the flow crosses (masked to the
    /// link count; an empty selection falls back to link 0).
    link_mask: u32,
    /// Kill the owning process this many ns after its start, if set.
    kill_after_ns: Option<u64>,
}

#[derive(Debug, Clone, PartialEq)]
struct Observed {
    /// (flow index, completion time in ns) for flows that finished.
    completions: Vec<(usize, u64)>,
    /// Links each flow crossed, by index.
    paths: Vec<Vec<usize>>,
    /// Completed bytes per link.
    link_bytes: Vec<u64>,
    digest: TraceDigest,
}

fn run_schedule(caps: &[f64], flows: &[FlowSpec]) -> Observed {
    let mut sim = Simulation::new(7);
    let handle = sim.handle();
    handle.tracer().set_digest_enabled(true);
    let net = FlowNet::new(&handle);
    let links: Vec<_> = caps
        .iter()
        .enumerate()
        .map(|(i, c)| net.add_link(&format!("l{i}"), *c, Sharing::Fair))
        .collect();
    let completions: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut paths = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        let mut on: Vec<usize> = (0..links.len())
            .filter(|j| f.link_mask & (1 << j) != 0)
            .collect();
        if on.is_empty() {
            on.push(0);
        }
        let path: Vec<_> = on.iter().map(|&j| links[j]).collect();
        paths.push(on);
        let net = net.clone();
        let done = Arc::clone(&completions);
        let start = Duration::from_nanos(f.start_ns);
        let bytes = f.bytes;
        let ph = sim.spawn(&format!("flow{i}"), move |ctx| {
            ctx.sleep(start);
            net.transfer(ctx, &path, bytes);
            done.lock().push((i, ctx.now().as_nanos()));
        });
        if let Some(after) = f.kill_after_ns {
            let at = Duration::from_nanos(f.start_ns.saturating_add(after));
            sim.spawn(&format!("kill{i}"), move |ctx| {
                ctx.sleep(at);
                ph.kill();
            });
        }
    }
    sim.run().unwrap();
    let mut completions = Arc::try_unwrap(completions).unwrap().into_inner();
    completions.sort();
    Observed {
        completions,
        paths,
        link_bytes: links.iter().map(|l| net.bytes_completed_on(*l)).collect(),
        digest: handle.tracer().digest(),
    }
}

fn flow_strategy() -> impl Strategy<Value = FlowSpec> {
    (
        0u64..2_000_000_000,
        1u64..50_000_000,
        any::<u32>(),
        any::<bool>(),
        0u64..1_000_000_000,
    )
        .prop_map(|(start_ns, bytes, link_mask, kill, kill_ns)| FlowSpec {
            start_ns,
            bytes,
            link_mask,
            kill_after_ns: kill.then_some(kill_ns),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flow_schedules_replay_and_conserve_bytes(
        caps_mbps in proptest::collection::vec(1u64..1000, 1..5),
        flows in proptest::collection::vec(flow_strategy(), 1..10),
    ) {
        let caps: Vec<f64> = caps_mbps.iter().map(|m| *m as f64 * 1e6).collect();
        let first = run_schedule(&caps, &flows);
        let second = run_schedule(&caps, &flows);
        // Completion instants bit-identical (u64 nanos — any rate drift
        // would shift these), per-link byte totals identical, and the
        // whole trace stream byte-identical.
        prop_assert_eq!(&first, &second);
        let mut expect = vec![0u64; caps.len()];
        for &(i, _) in &first.completions {
            for &j in &first.paths[i] {
                expect[j] += flows[i].bytes;
            }
        }
        prop_assert_eq!(&first.link_bytes, &expect);
    }
}

// ---------------------------------------------------------------------------
// Pinned behaviour: goldens recorded from the retime-every-flow FlowNet.
//
// Every value below is exact (nanoseconds, FNV digests). They pin the
// modelled behaviour, so a change to how FlowNet arms its timers must
// leave them untouched; only a deliberate model change may re-record
// them, and it must say which behaviour moved.

/// Fold one digest into an accumulator (FNV-1a over its bytes).
fn fold(acc: &mut TraceDigest, d: TraceDigest) {
    for b in d
        .hash
        .to_le_bytes()
        .into_iter()
        .chain(d.events.to_le_bytes())
    {
        acc.hash ^= u64::from(b);
        acc.hash = acc.hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc.events += d.events;
}

/// Digest over 64 random schedules drawn from the property's strategies
/// with a fixed seed: staggered starts, shared links, mid-flight kills.
const GOLDEN_RANDOM_SCHEDULES: (u64, u64) = (15076899551836887341, 1011);

#[test]
fn random_schedules_match_golden_digest() {
    use proptest::strategy::Strategy;
    let mut rng = proptest::TestRng::from_seed(0x0F10_E7E7);
    let caps = proptest::collection::vec(1u64..1000, 1..5);
    let flows = proptest::collection::vec(flow_strategy(), 1..10);
    let mut acc = TraceDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        events: 0,
    };
    for _ in 0..64 {
        let caps: Vec<f64> = caps
            .generate(&mut rng)
            .iter()
            .map(|m| *m as f64 * 1e6)
            .collect();
        let flows = flows.generate(&mut rng);
        fold(&mut acc, run_schedule(&caps, &flows).digest);
    }
    assert_eq!(
        (acc.hash, acc.events),
        GOLDEN_RANDOM_SCHEDULES,
        "random-schedule digest moved (got {:?})",
        acc
    );
}

/// What a fixed case observed: (label, ns) in the order things happened,
/// and the trace digest.
type Log = Arc<Mutex<Vec<(&'static str, u64)>>>;

fn mark(log: &Log, label: &'static str, ctx: &simkit::Ctx) {
    log.lock().push((label, ctx.now().as_nanos()));
}

/// Spawn `name`, which sleeps `start`, moves `bytes` over `path`, and
/// logs its completion.
fn spawn_flow(
    sim: &Simulation,
    log: &Log,
    net: &FlowNet,
    name: &'static str,
    start: Duration,
    path: Vec<simkit::LinkId>,
    bytes: u64,
) -> simkit::ProcHandle {
    let (log, net) = (Arc::clone(log), net.clone());
    sim.spawn(name, move |ctx| {
        if !start.is_zero() {
            ctx.sleep(start);
        }
        net.transfer(ctx, &path, bytes);
        mark(&log, name, ctx);
    })
}

/// Spawn a watcher that logs the instant `target` dies, however it dies.
fn watch_death(sim: &Simulation, log: &Log, target: &simkit::ProcHandle, label: &'static str) {
    let (log, target) = (Arc::clone(log), target.clone());
    sim.spawn(&format!("watch-{label}"), move |ctx| {
        ctx.join(&target);
        mark(&log, label, ctx);
    });
}

fn digesting_sim() -> (Simulation, Log) {
    let sim = Simulation::new(7);
    sim.handle().tracer().set_digest_enabled(true);
    (sim, Arc::new(Mutex::new(Vec::new())))
}

fn finish(mut sim: Simulation, log: Log) -> (Vec<(&'static str, u64)>, (u64, u64)) {
    sim.run().unwrap();
    let d = sim.handle().tracer().digest();
    let log = log.lock().clone();
    (log, (d.hash, d.events))
}

/// Two transfer owners killed at the same instant, where the second is
/// not the earliest completion. The first unwinds at once; its departure
/// recompute retimes every owner, which replaces the second owner's kill
/// wake with its completion-time wake, so the second keeps its bandwidth
/// share until that wake fires.
#[test]
fn two_owners_killed_at_one_instant() {
    let (sim, log) = digesting_sim();
    let net = FlowNet::new(&sim.handle());
    let l = net.add_link("l", 100e6, Sharing::Fair);
    let v1 = spawn_flow(&sim, &log, &net, "v1", Duration::ZERO, vec![l], 100_000_000);
    let v2 = spawn_flow(&sim, &log, &net, "v2", Duration::ZERO, vec![l], 300_000_000);
    spawn_flow(&sim, &log, &net, "bg", Duration::ZERO, vec![l], 100_000_000);
    watch_death(&sim, &log, &v1, "v1-dead");
    watch_death(&sim, &log, &v2, "v2-dead");
    sim.spawn("killer", move |ctx| {
        ctx.sleep(Duration::from_millis(300));
        v1.kill();
        v2.kill();
    });
    let (got, digest) = finish(sim, log);
    assert_eq!(
        got,
        [
            ("v1-dead", 300_000_000),
            ("bg", 2_100_000_000),
            ("v2-dead", 4_100_000_000),
        ]
    );
    assert_eq!(digest, (16949712861421588738, 14));
}

/// Equal-size flows on disjoint links, and on one shared link, complete
/// in the same nanosecond; a sleeper due at that instant too pins where
/// it falls among them.
#[test]
fn same_nanosecond_completions() {
    let (sim, log) = digesting_sim();
    let net = FlowNet::new(&sim.handle());
    let a = net.add_link("a", 100e6, Sharing::Fair);
    let b = net.add_link("b", 100e6, Sharing::Fair);
    let s = net.add_link("s", 100e6, Sharing::Fair);
    spawn_flow(&sim, &log, &net, "da", Duration::ZERO, vec![a], 100_000_000);
    spawn_flow(&sim, &log, &net, "db", Duration::ZERO, vec![b], 100_000_000);
    spawn_flow(&sim, &log, &net, "s1", Duration::ZERO, vec![s], 50_000_000);
    spawn_flow(&sim, &log, &net, "s2", Duration::ZERO, vec![s], 50_000_000);
    let l2 = Arc::clone(&log);
    sim.spawn("sleeper", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        mark(&l2, "sleeper", ctx);
    });
    let (got, digest) = finish(sim, log);
    assert_eq!(
        got,
        [
            ("da", 1_000_000_000),
            ("sleeper", 1_000_000_000),
            ("db", 1_000_000_000),
            ("s1", 1_000_000_000),
            ("s2", 1_000_000_000),
        ]
    );
    assert_eq!(digest, (10463520194204646780, 10));
}

/// Flows of different sizes over overlapping paths, all started at the
/// same instant, plus one that joins later.
#[test]
fn flows_started_at_one_instant() {
    let (sim, log) = digesting_sim();
    let net = FlowNet::new(&sim.handle());
    let tx = net.add_link("tx", 200e6, Sharing::Fair);
    let rx = net.add_link("rx", 150e6, Sharing::Fair);
    let disk = net.add_link("disk", 80e6, Sharing::Degraded { alpha: 0.1 });
    spawn_flow(
        &sim,
        &log,
        &net,
        "f0",
        Duration::ZERO,
        vec![tx, rx],
        60_000_000,
    );
    spawn_flow(&sim, &log, &net, "f1", Duration::ZERO, vec![tx], 90_000_000);
    spawn_flow(
        &sim,
        &log,
        &net,
        "f2",
        Duration::ZERO,
        vec![rx, disk],
        40_000_000,
    );
    spawn_flow(
        &sim,
        &log,
        &net,
        "f3",
        Duration::ZERO,
        vec![disk],
        25_000_000,
    );
    spawn_flow(
        &sim,
        &log,
        &net,
        "f4",
        Duration::from_millis(150),
        vec![tx, disk],
        30_000_000,
    );
    let (got, digest) = finish(sim, log);
    assert_eq!(
        got,
        [
            ("f0", 881_250_000),
            ("f3", 1_029_545_455),
            ("f1", 1_143_750_000),
            ("f4", 1_317_045_455),
            ("f2", 1_373_863_637),
        ]
    );
    assert_eq!(digest, (3937428418230897556, 10));
}
