//! Property: FlowNet is deterministic and conserves bytes on random flow
//! schedules.
//!
//! Random flow add/remove schedules — staggered starts, shared links,
//! mid-flight kills — each run twice. The two runs must be *bit*-identical
//! (same completion nanoseconds per flow, same per-link completed bytes,
//! same FNV digest over the full trace stream), and every link's completed
//! bytes must equal the sum of the bytes of the flows that completed on
//! it: a killed flow carries nothing, a finished one its whole size.

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
