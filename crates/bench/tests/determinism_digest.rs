//! The determinism oracle for the wall-clock optimization pass.
//!
//! Each test runs a reference scenario with the tracer in digest mode —
//! every trace event (times, pids, names, args) is folded into a running
//! FNV-1a hash, O(1) memory — and asserts the digest equals a **golden**
//! constant recorded from the pre-optimization kernel (full FlowNet
//! retiming, no event-loop shortcuts). Any optimization that shifts a
//! single event time, reorders a same-nanosecond tie-break, or changes an
//! emitted string flips the hash.
//!
//! FlowNet now arms one timer per net (the earliest completion) instead
//! of re-timing every flow on every recompute, the behaviour these
//! goldens were recorded from; they hold unchanged. To re-record after an
//! *intended* behavior change,
//! copy the values printed by the failing assertions, and say in the
//! change which modelled behaviour moved.

use jobmig_core::bufpool::PoolConfig;
use jobmig_core::prelude::*;
use jobmig_core::report::CrStoreKind;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::{ms, secs};
use simkit::{SimHandle, SimTime, Simulation, TraceDigest};

/// Golden digests recorded from the pre-optimization kernel (PR 10 seed
/// tree, full retiming). Format: (fnv1a64 hash, events folded).
const GOLDEN_FIG4: (u64, u64) = (1399430321304610352, 4913);
const GOLDEN_FAULT_MATRIX: (u64, u64) = (16440025980826432851, 209);
const GOLDEN_FLEET: (u64, u64) = (1451399638756474650, 115910);

/// Goldens pinned before the coordinator was restructured around one
/// phase step: the paths the three above leave unguarded (pipelined and
/// live data paths, cycle aborts, standby takeover, roll-forward and
/// rollback, the CR baseline). Sweeps fold every scenario's digest into
/// one value with [`fold`].
const GOLDEN_FIG4_PIPELINED: (u64, u64) = (7566146674959531036, 7539);
const GOLDEN_FIG4_LIVE: (u64, u64) = (2369100816577935209, 8234);
const GOLDEN_CRASH_SWEEP_BARRIER: (u64, u64) = (17626453609323171646, 2660);
const GOLDEN_CRASH_SWEEP_PIPELINED: (u64, u64) = (5480145328702595046, 2757);
const GOLDEN_FAULT_GRID: (u64, u64) = (14215038581433621221, 3104);
const GOLDEN_CR_EXT3: (u64, u64) = (15973162693950293309, 6378);

fn assert_golden(name: &str, got: TraceDigest, want: (u64, u64)) {
    assert_eq!(
        (got.hash, got.events),
        want,
        "[{name}] trace digest diverged from the pre-optimization golden \
         (got hash 0x{:016x}, {} events) — the optimized kernel changed \
         observable behavior",
        got.hash,
        got.events,
    );
}

/// Figure 4 scenario: LU.C.64 on the paper testbed, one migration at
/// t = 30 s.
#[test]
fn fig4_trace_is_byte_identical_to_pre_optimization() {
    let mut handle: Option<SimHandle> = None;
    let report =
        jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), |sh| {
            sh.tracer().set_digest_enabled(true);
            handle = Some(sh.clone());
        });
    assert!(report.total() > std::time::Duration::ZERO);
    let digest = handle.unwrap().tracer().digest();
    assert_golden("fig4", digest, GOLDEN_FIG4);
}

/// Fault-matrix scenario: sized(2,1) cluster, LU.A.4 at 2 ppn, an RDMA
/// CQ error during the migration window (same shape as the CI
/// fault-matrix grid's `rdma_cq_error` cell).
#[test]
fn fault_matrix_trace_is_byte_identical_to_pre_optimization() {
    let mut sim = Simulation::new(51);
    sim.handle().tracer().set_digest_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    cluster.install_fault_plane(&FaultPlan::new(0xB1).with(FaultSpec::RdmaCqError { nth: 1 }));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), deadline)
        .expect("fault-matrix scenario hung");
    assert!(rt.is_complete());
    assert_golden(
        "fault-matrix",
        sim.handle().tracer().digest(),
        GOLDEN_FAULT_MATRIX,
    );
}

/// Fleet-soak scenario: one policy (Proactive — the one exercising
/// health monitors, predictions, and live migrations) over the reference
/// soak config. Heavier than the other two; the CI determinism job runs
/// it via `--ignored`.
#[test]
#[ignore = "soak-length; run by the CI bench-wallclock/determinism job"]
fn fleet_soak_trace_is_byte_identical_to_pre_optimization() {
    let cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
    let mut handle: Option<SimHandle> = None;
    let stats = fleetsched::run_policy_observed(
        &cfg,
        fleetsched::PolicyKind::Proactive,
        &cfg.doom_plan(),
        |sh| {
            sh.tracer().set_digest_enabled(true);
            handle = Some(sh.clone());
        },
    );
    assert!(stats.jobs_completed > 0);
    assert_golden("fleet", handle.unwrap().tracer().digest(), GOLDEN_FLEET);
}

/// Fold one scenario's digest into a sweep digest: FNV-1a over the
/// scenario's `(hash, events)` pair, so any scenario diverging — or the
/// sweep gaining or losing a scenario — flips the fold.
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

fn sweep_start() -> TraceDigest {
    TraceDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        events: 0,
    }
}

fn fig4_tuned_digest(tuning: MigrationTuning) -> TraceDigest {
    let mut handle: Option<SimHandle> = None;
    let (report, _) = jobmig_bench::fig_migration_tuned_observed(NpbApp::Lu, 64, 8, tuning, |sh| {
        sh.tracer().set_digest_enabled(true);
        handle = Some(sh.clone());
    });
    assert!(report.total() > std::time::Duration::ZERO);
    handle.unwrap().tracer().digest()
}

/// Figure 4 scenario under the pipelined data path (striped lanes,
/// per-rank restart overlap: the restart span opens inside Phase 2).
#[test]
fn fig4_pipelined_trace_is_pinned() {
    assert_golden(
        "fig4-pipelined",
        fig4_tuned_digest(MigrationTuning::pipelined()),
        GOLDEN_FIG4_PIPELINED,
    );
}

/// Figure 4 scenario under iterative pre-copy live migration.
#[test]
fn fig4_live_trace_is_pinned() {
    assert_golden(
        "fig4-live",
        fig4_tuned_digest(MigrationTuning::live()),
        GOLDEN_FIG4_LIVE,
    );
}

/// One `coordinator_crash` scenario: sized(2,1), LU.A.4 at 2 ppn with a
/// standby coordinator, a migration at t+10 s, and (optionally) the Job
/// Manager killed right after the `boundary`-th WAL append. Returns the
/// digest and the journal length.
fn crash_digest(seed: u64, tuning: MigrationTuning, boundary: Option<u64>) -> (TraceDigest, usize) {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_digest_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    if let Some(n) = boundary {
        cluster.install_fault_plane(&FaultPlan::new(0xC0FFEE).with(FaultSpec::CoordinatorCrash {
            at: WalPoint::Seq(n),
        }));
    }
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let mut spec = JobSpec::npb(wl, 2);
    spec.standby = true;
    let rt = JobRuntime::launch(&cluster, spec);
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new().tuning(tuning));
    sim.run_until_set(rt.completion(), deadline)
        .expect("crash scenario hung");
    assert!(rt.is_complete());
    (sim.handle().tracer().digest(), rt.journal().entries().len())
}

/// The crash-free run, then a coordinator crash after every WAL append
/// of that run's journal (takeover, resume-from-point, roll-forward and
/// standby rollback), folded into one digest.
fn crash_sweep(seed: u64, tuning: MigrationTuning) -> TraceDigest {
    let mut acc = sweep_start();
    let (clean, n) = crash_digest(seed, tuning, None);
    fold(&mut acc, clean);
    for boundary in 1..=n as u64 {
        fold(&mut acc, crash_digest(seed, tuning, Some(boundary)).0);
    }
    acc
}

#[test]
fn coordinator_crash_sweep_barrier_is_pinned() {
    assert_golden(
        "crash-sweep-barrier",
        crash_sweep(23, MigrationTuning::barrier()),
        GOLDEN_CRASH_SWEEP_BARRIER,
    );
}

#[test]
fn coordinator_crash_sweep_pipelined_is_pinned() {
    assert_golden(
        "crash-sweep-pipelined",
        crash_sweep(29, MigrationTuning::pipelined()),
        GOLDEN_CRASH_SWEEP_PIPELINED,
    );
}

/// One `fault_matrix` cell: sized(2,1), LU.A.4 at 2 ppn, the plan
/// installed before launch, a migration at t+10 s.
fn fault_cell_digest(seed: u64, plan: FaultPlan) -> TraceDigest {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_digest_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    cluster.install_fault_plane(&plan);
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), deadline)
        .expect("fault cell hung");
    assert!(rt.is_complete());
    sim.handle().tracer().digest()
}

/// The `fault_matrix` kind × phase grid (same seeds and plans): spare
/// death at every phase (the cycle-abort paths), I/O faults, and network
/// loss windows, folded into one digest.
#[test]
fn fault_grid_trace_is_pinned() {
    let mut cells: Vec<(u64, FaultPlan)> = MigPhase::ALL
        .iter()
        .enumerate()
        .map(|(i, &phase)| {
            let plan = FaultPlan::new(0xA0).with(FaultSpec::SpareCrash { phase, attempt: 1 });
            (40 + i as u64, plan)
        })
        .collect();
    cells.push((
        50,
        FaultPlan::new(0xB0).with(FaultSpec::BlcrWriteError { nth: 1 }),
    ));
    cells.push((
        51,
        FaultPlan::new(0xB1).with(FaultSpec::RdmaCqError { nth: 1 }),
    ));
    cells.push((
        52,
        FaultPlan::new(0xB2).with(FaultSpec::RdmaCorrupt { nth: 2 }),
    ));
    for (seed, fault, nth) in [(53, StoreFault::DiskFull, 1), (54, StoreFault::IoError, 2)] {
        let plan = FaultPlan::new(0xB3)
            .with(FaultSpec::SpareCrash {
                phase: MigPhase::Migrate,
                attempt: 1,
            })
            .with(FaultSpec::StoreWrite { fault, nth });
        cells.push((seed, plan));
    }
    for (seed, spec) in [
        (
            60,
            FaultSpec::NetDrop {
                net: NetSel::Gige,
                after: secs(10),
                count: 3,
            },
        ),
        (
            61,
            FaultSpec::LinkFlap {
                net: NetSel::Gige,
                at: secs(10),
                lasts: ms(800),
            },
        ),
        (
            62,
            FaultSpec::NetDrop {
                net: NetSel::Ib,
                after: secs(10),
                count: 3,
            },
        ),
        (
            63,
            FaultSpec::LinkFlap {
                net: NetSel::Ib,
                at: secs(10),
                lasts: ms(500),
            },
        ),
    ] {
        cells.push((seed, FaultPlan::new(0xC0).with(spec)));
    }
    let mut acc = sweep_start();
    for (seed, plan) in cells {
        fold(&mut acc, fault_cell_digest(seed, plan));
    }
    assert_golden("fault-grid", acc, GOLDEN_FAULT_GRID);
}

/// The CR baseline: LU.C.64 checkpointed to local ext3 at t = 30 s, then
/// a whole-job failure and restart from that checkpoint.
#[test]
fn cr_ext3_checkpoint_restart_trace_is_pinned() {
    let mut handle: Option<SimHandle> = None;
    let report = jobmig_bench::cr_cycle_observed(NpbApp::Lu, CrStoreKind::LocalExt3, |sh| {
        sh.tracer().set_digest_enabled(true);
        handle = Some(sh.clone());
    });
    assert!(report.restart.is_some());
    assert_golden("cr-ext3", handle.unwrap().tracer().digest(), GOLDEN_CR_EXT3);
}
