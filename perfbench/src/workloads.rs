//! The three workloads and the checks on their outputs.
//!
//! Every simulation is built and driven through the modules' public
//! functions only. One *operation* is one migration trigger or one CR
//! cycle; each is checked, and a failed check is counted, never skipped.

use fleetsched::{FleetConfig, PolicyKind, PolicyStats};
use jobmig_core::prelude::*;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::{dur, HotStats, SimHandle, Simulation, TraceEvent};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// RDMA wire bytes of one stop-and-copy LU.C.64 node migration (Table I).
pub const TABLE1_MIGRATION_BYTES: u64 = 170_375_432;
/// Bytes one coordinated LU.C.64 checkpoint dumps (Table I).
pub const TABLE1_CR_BYTES: u64 = 1_363_003_456;
/// Ranks that live on the migrated node (8 ppn).
const RANKS_MOVED: usize = 8;
/// Virtual seconds a cycle may take before the run counts as failed.
const MAX_VIRTUAL_S: u64 = 600;

/// What the tracer and the kernel profile saw during one traced run.
pub struct Trace {
    pub events: Vec<TraceEvent>,
    pub names: HashMap<u32, String>,
}

/// One simulation, timed on the host clock.
pub struct SimRun<R> {
    /// The workload's result, `None` if the run failed or never finished.
    pub out: Option<R>,
    /// Host time to create the simulation, build the cluster and launch.
    pub setup: Duration,
    /// Host time from the first simulated event through teardown.
    pub wall: Duration,
    pub hot: HotStats,
    pub trace: Option<Trace>,
}

fn arm(h: &SimHandle, traced: bool) {
    if traced {
        h.tracer().set_enabled(true);
        h.set_prof(true);
    }
}

fn harvest(h: &SimHandle, traced: bool) -> (HotStats, Option<Trace>) {
    let trace = traced.then(|| Trace {
        events: h.tracer().drain_events(),
        names: h.tracer().proc_names(),
    });
    (h.hot_stats(), trace)
}

/// Build a simulation with `launch`, then drive it in 5 s virtual steps
/// until `done` yields a result (or the step budget runs out).
fn run_sim<S, R>(
    seed: u64,
    traced: bool,
    launch: impl FnOnce(&SimHandle) -> S,
    done: impl Fn(&S) -> Option<R>,
) -> SimRun<R> {
    let t0 = Instant::now();
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    arm(&h, traced);
    let state = launch(&h);
    let t1 = Instant::now();
    let mut out = None;
    for _ in 0..MAX_VIRTUAL_S / 5 {
        out = done(&state);
        if out.is_some() || sim.run_for(dur::secs(5)).is_err() {
            break;
        }
    }
    let out = out.or_else(|| done(&state));
    let (hot, trace) = harvest(&h, traced);
    drop(state);
    drop(sim);
    SimRun {
        out,
        setup: t1 - t0,
        wall: t1.elapsed(),
        hot,
        trace,
    }
}

/// The paper's testbed with LU.C.64 on 8 nodes × 8 ppn.
fn launch_lu_c64(h: &SimHandle) -> (Cluster, JobRuntime) {
    let cluster = Cluster::build(h, ClusterSpec::paper_testbed());
    let wl = Workload::new(NpbApp::Lu, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    (cluster, rt)
}

// ---------------------------------------------------------------------------
// migrate
// ---------------------------------------------------------------------------

/// The three migration engines, in the order a `migrate` cycle runs them.
pub const TUNINGS: [&str; 3] = ["barrier", "pipelined", "live"];

fn tuning(name: &str) -> MigrationTuning {
    match name {
        "barrier" => MigrationTuning::barrier(),
        "pipelined" => MigrationTuning::pipelined(),
        _ => MigrationTuning::live(),
    }
}

/// Fig. 4 reference: migrate one node of LU.C.64 at t = 30 s.
pub fn migrate(seed: u64, engine: &str, traced: bool) -> SimRun<MigrationReport> {
    let t = tuning(engine);
    run_sim(
        seed,
        traced,
        |h| {
            let (cluster, rt) = launch_lu_c64(h);
            rt.control()
                .migrate_after(dur::secs(30), MigrationRequest::new().tuning(t));
            (cluster, rt)
        },
        |(_, rt)| rt.migration_reports().first().cloned(),
    )
}

/// Why a migration fails its check, if it does.
pub fn check_migration(engine: &str, r: &MigrationReport) -> Result<(), String> {
    if r.outcome != MigrationOutcome::Migrated {
        return Err(format!("{engine}: outcome {}", r.outcome.name()));
    }
    if r.ranks_moved != RANKS_MOVED {
        return Err(format!("{engine}: {} ranks moved", r.ranks_moved));
    }
    let live = engine == "live";
    let bytes_ok = if live {
        // Round 0 carries the Table I image; later rounds and the
        // residual stop-and-copy add only dirtied segments.
        r.precopy_rounds >= 1 && r.bytes_moved > TABLE1_MIGRATION_BYTES
    } else {
        r.precopy_rounds == 0 && r.bytes_moved == TABLE1_MIGRATION_BYTES
    };
    if !bytes_ok {
        return Err(format!(
            "{engine}: {} bytes in {} pre-copy rounds",
            r.bytes_moved, r.precopy_rounds
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// cr_restart
// ---------------------------------------------------------------------------

/// The two checkpoint stores, in the order a `cr_restart` cycle runs them.
pub const STORES: [&str; 2] = ["ext3", "pvfs"];

/// Fig. 7 baseline: coordinated checkpoint of LU.C.64 at t = 30 s, then a
/// failure and a restart from that checkpoint.
pub fn cr_restart(seed: u64, store: &str, traced: bool) -> SimRun<CrReport> {
    let kind = if store == "ext3" {
        CrStoreKind::LocalExt3
    } else {
        CrStoreKind::Pvfs
    };
    run_sim(
        seed,
        traced,
        |h| {
            let (cluster, rt) = launch_lu_c64(h);
            let rt2 = rt.clone();
            h.spawn_daemon("cr-script", move |ctx| {
                ctx.sleep(dur::secs(30));
                rt2.control().checkpoint(CheckpointRequest::to(kind));
                while rt2.cr_reports().is_empty() {
                    ctx.sleep(dur::secs(1));
                }
                rt2.control().restart_from_checkpoint(1);
            });
            (cluster, rt)
        },
        |(_, rt)| rt.cr_reports().into_iter().find(|r| r.restart.is_some()),
    )
}

pub fn check_cr(store: &str, r: &CrReport) -> Result<(), String> {
    if r.restart.is_none() {
        return Err(format!("{store}: no restart"));
    }
    if r.bytes_written != TABLE1_CR_BYTES {
        return Err(format!("{store}: {} bytes written", r.bytes_written));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// fleet_soak
// ---------------------------------------------------------------------------

/// Seed of the soak's failure schedule, the repository's experiment seed.
/// The schedule is the scenario, fixed like the migrate workload's node
/// and trigger time; the run's seed drives the simulation (sensor noise).
/// A seeded schedule makes `work_lost_s` range from 0 to ~130 s across
/// seeds, which no relative bound can gate.
const DOOM_SEED: u64 = 2010;

/// The reference soak under the proactive policy.
pub fn fleet(seed: u64, traced: bool) -> SimRun<PolicyStats> {
    let cfg = FleetConfig::soak(seed);
    let plan = FleetConfig::soak(DOOM_SEED).doom_plan();
    let mut handle = None;
    let t0 = Instant::now();
    let stats = fleetsched::run_policy_observed(&cfg, PolicyKind::Proactive, &plan, |h| {
        arm(h, traced);
        handle = Some(h.clone());
    });
    let wall = t0.elapsed();
    let (hot, trace) = harvest(&handle.expect("observer ran"), traced);
    SimRun {
        out: Some(stats),
        setup: Duration::ZERO,
        wall,
        hot,
        trace,
    }
}

/// Host time to build the soak's cluster and launch its jobs, measured on
/// a simulation that is then dropped without running (the soak itself
/// sets up inside `run_policy_observed`, out of reach of a timer).
pub fn fleet_setup(seed: u64) -> Duration {
    let cfg = FleetConfig::soak(seed);
    let t0 = Instant::now();
    let sim = Simulation::new(cfg.seed);
    let mut spec = ClusterSpec::sized(cfg.slots as u32 * cfg.nodes_per_slot, cfg.spares);
    spec.ftb.heartbeat = cfg.ftb_heartbeat;
    let cluster = Cluster::build(&sim.handle(), spec);
    let per = cfg.nodes_per_slot as usize;
    let jobs: Vec<JobRuntime> = (0..cfg.slots)
        .map(|i| {
            let nodes = cluster.compute_nodes()[i * per..(i + 1) * per].to_vec();
            JobRuntime::launch_placed(
                &cluster,
                JobSpec::npb(cfg.workload.clone(), cfg.ppn),
                Placement::job(i as u64 + 1).on_nodes(nodes),
            )
        })
        .collect();
    let setup = t0.elapsed();
    drop(jobs);
    drop(cluster);
    drop(sim);
    setup
}

/// Operations a soak attempted and how many failed their checks: every
/// migration trigger and every coordinated checkpoint is an operation; a
/// migration that fell back to CR or was lost fails, and so does the soak
/// as a whole (one more failure) if its spare leases do not balance.
pub fn check_fleet(s: &PolicyStats) -> (u64, u64, Vec<String>) {
    let o = &s.outcomes;
    let attempted = o.total() + s.checkpoints;
    let mut failed = o.fell_back_to_cr + o.lost;
    let mut why = Vec::new();
    if failed > 0 {
        why.push(format!(
            "{} migrations fell back to CR, {} lost",
            o.fell_back_to_cr, o.lost
        ));
    }
    let p = &s.pool;
    if p.leases != p.consumed + p.returned + p.discarded {
        failed += 1;
        why.push(format!(
            "spare leases do not balance: {} != {} + {} + {}",
            p.leases, p.consumed, p.returned, p.discarded
        ));
    }
    (attempted.max(1), failed, why)
}

/// Image bytes a soak's cycles move: one rank image per migration (one
/// rank per node) and every rank's image per coordinated checkpoint. No
/// byte counter of the soak is reachable without tracing, so this is
/// computed from the operation counts; the soak's geometry does not
/// depend on the seed.
pub fn fleet_moved_bytes(s: &PolicyStats) -> u64 {
    let cfg = FleetConfig::soak(DOOM_SEED);
    let image = cfg.workload.per_proc_image();
    (s.outcomes.total() * u64::from(cfg.ppn) + s.checkpoints * u64::from(cfg.workload.np)) * image
}
