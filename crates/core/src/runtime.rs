//! The job runtime: Job Manager, Node Launch Agents, per-rank C/R
//! threads, and the four-phase migration protocol of §III-A.
//!
//! Process anatomy of a running job (all simulated processes):
//!
//! * **Job Manager** (login node): launches the NLA tree, owns the trigger
//!   queue, orchestrates migrations and coordinated checkpoints, measures
//!   phase times from protocol messages.
//! * **NLA** (every compute + spare node): spawns/kills local MPI
//!   processes; on `FTB_MIGRATE` runs the source or target buffer manager
//!   side; on `FTB_RESTART` restarts the migrated processes from their
//!   assembled images.
//! * **App thread** (per rank): runs the [`AppBody`]; killed on the source
//!   node during Phase 2 and re-spawned from the image on the target.
//! * **C/R thread** (per rank): MVAPICH2's checkpoint thread — reacts to
//!   `FTB_MIGRATE`/`FTB_CHECKPOINT`, suspends and drains communication,
//!   checkpoints through the buffer pool (source ranks) or to storage
//!   (CR baseline), and executes Phase 4 (migration barrier, endpoint
//!   rebuild, resume).

use crate::bufpool::{
    AssembledImage, PoolConfig, PoolRendezvous, RankReadyHook, RestartMode, SourcePool,
    TargetHooks, TransferSession,
};
use crate::calib;
use crate::cluster::{Cluster, NodeResources};
use crate::cr_baseline;
use crate::msgs::*;
use crate::report::{CrReport, CrStoreKind, MigrationOutcome, MigrationReport, OutcomeCounts};
use crate::spare::SparePool;
use crate::wal::{CycleJournal, InFlight, WalRecord};
use blcrsim::{ProcessImage, StoreSource};
use bytes::Bytes;
use faultplane::{FaultPlane, MigPhase};
use ftb::{EventFilter, FtbClient, FtbEvent, Severity};
use ibfabric::NodeId;
use mpisim::{CrMeta, MpiConfig, MpiJob, MpiRank};
use parking_lot::Mutex;
use protoverify::{
    nla_next, rank_next, CycleEvent, CycleStepper, GuardCtx, MigrationSpec, NlaEvent, RankEvent,
    RankLife, StepError,
};
use simkit::{Countdown, Ctx, Event, ProcHandle, Queue, Semaphore, SimTime, Span};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The application code a rank runs. Must be written re-entrantly: on a
/// restart it is re-invoked and resumes from the rank's restored
/// application state (see `mpisim`'s replay-safety docs).
pub trait AppBody: Send + Sync + 'static {
    /// Run rank `rank` to completion.
    fn run(&self, ctx: &Ctx, rank: &mut MpiRank);
}

impl<F> AppBody for F
where
    F: Fn(&Ctx, &mut MpiRank) + Send + Sync + 'static,
{
    fn run(&self, ctx: &Ctx, rank: &mut MpiRank) {
        self(ctx, rank)
    }
}

/// Everything needed to launch a job.
#[derive(Clone)]
pub struct JobSpec {
    /// Number of MPI ranks.
    pub nranks: u32,
    /// Processes per node.
    pub ppn: u32,
    /// The application.
    pub app: Arc<dyn AppBody>,
    /// MPI library tunables.
    pub mpi: MpiConfig,
    /// Migration buffer pool geometry.
    pub pool: PoolConfig,
    /// Workload seed (segment contents, determinism).
    pub seed: u64,
    /// Automatically migrate away from nodes that publish
    /// `HEALTH_PREDICT`/`HEALTH_CRITICAL` events.
    pub auto_migrate_on_health: bool,
    /// Self-healing policy: per-phase deadlines, retry budget, backoff.
    pub recovery: calib::RecoveryConfig,
    /// Run a standby coordinator on the login node: if the Job Manager
    /// dies mid-cycle (the `CoordinatorCrash` fault), the standby fences
    /// the deposed epoch and recovers the in-flight cycle from the WAL
    /// journal (resume-from-point or rollback). Off by default — the
    /// journal itself is always on and free of scheduling effects.
    pub standby: bool,
}

/// The workload seed every [`JobSpec`] starts with.
const DEFAULT_SEED: u64 = 42;

impl JobSpec {
    /// A spec running the given NPB workload.
    pub fn npb(workload: npbsim::Workload, ppn: u32) -> JobSpec {
        JobSpec::custom(workload.np, ppn, move |ctx: &Ctx, rank: &mut MpiRank| {
            npbsim::run_rank(ctx, rank, &workload, DEFAULT_SEED);
        })
    }

    /// A spec running arbitrary application code.
    pub fn custom(nranks: u32, ppn: u32, app: impl AppBody) -> JobSpec {
        JobSpec {
            nranks,
            ppn,
            app: Arc::new(app),
            mpi: MpiConfig::default(),
            pool: PoolConfig::default(),
            seed: DEFAULT_SEED,
            auto_migrate_on_health: false,
            recovery: calib::recovery(),
            standby: false,
        }
    }
}

/// Every tunable of one migration in a single struct: the buffer-pool /
/// data-path geometry ([`PoolConfig`]) and the self-healing policy
/// ([`calib::RecoveryConfig`]) that used to be configured separately.
/// Reachable per-request through [`MigrationRequest::tuning`] and job-wide
/// through [`JobSpec::pool`] / [`JobSpec::recovery`].
///
/// ```ignore
/// rt.control().migrate(
///     MigrationRequest::new().tuning(MigrationTuning::pipelined()),
/// );
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationTuning {
    /// Buffer pool geometry and data-path options.
    pub pool: PoolConfig,
    /// Per-phase deadlines, retry budget, backoff.
    pub recovery: calib::RecoveryConfig,
}

impl MigrationTuning {
    /// The paper's engine: sequential pulls, whole-pull restart barrier.
    pub fn barrier() -> Self {
        Self::default()
    }

    /// The pipelined data path: two RDMA lanes, per-rank restart overlap,
    /// and restart admission bounded to two concurrent cold reads (the
    /// sweet spot on the paper testbed's ext3 disk — see EXPERIMENTS.md).
    pub fn pipelined() -> Self {
        let mut t = Self::default();
        t.pool.lanes = 2;
        t.pool.overlap = true;
        t.pool.restart_admission = 2;
        t
    }

    /// Iterative pre-copy live migration on top of the pipelined data
    /// path: round 0 streams the full image over the striped lanes while
    /// the ranks keep running, later rounds stream only dirtied segments,
    /// and the downtime-budget convergence controller decides when to
    /// suspend for a short residual stop-and-copy.
    pub fn live() -> Self {
        let mut t = Self::pipelined();
        t.pool.live = Some(livemig::LiveConfig::default());
        t
    }

    /// Set the live pre-copy configuration (`None` = stop-and-copy).
    pub fn live_config(mut self, cfg: Option<livemig::LiveConfig>) -> Self {
        self.pool.live = cfg;
        self
    }
}

/// A typed migration request — the paper's user-level Migration Trigger
/// with per-request knobs.
///
/// Defaults mirror the launched [`JobSpec`]: source auto-selected (first
/// migration-ready node hosting ranks), tuning taken from
/// [`JobSpec::pool`] / [`JobSpec::recovery`]. Builder methods override
/// them for this one cycle without touching the job-wide configuration.
///
/// ```ignore
/// rt.control().migrate(
///     MigrationRequest::new()
///         .from_node(NodeId(3))
///         .tuning(MigrationTuning::pipelined()),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct MigrationRequest {
    pub(crate) source: Option<NodeId>,
    pub(crate) tuning: Option<MigrationTuning>,
    pub(crate) label: Option<String>,
}

impl MigrationRequest {
    /// A request with every knob at its job default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Migrate the ranks of this specific node (default: first
    /// migration-ready node hosting ranks, in node-id order).
    pub fn from_node(mut self, node: NodeId) -> Self {
        self.source = Some(node);
        self
    }

    /// Override every migration tunable at once (pool geometry, data-path
    /// options, and the self-healing policy) for this cycle.
    pub fn tuning(mut self, t: MigrationTuning) -> Self {
        self.tuning = Some(t);
        self
    }

    /// Attach a diagnostic label; it rides the cycle's `"phase"` telemetry
    /// spans as a `label` argument.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The tuning this request resolves to for a job launched with `spec`.
    fn tuning_for(&self, spec: &JobSpec) -> MigrationTuning {
        self.tuning.unwrap_or(MigrationTuning {
            pool: spec.pool,
            recovery: spec.recovery,
        })
    }
}

/// A typed coordinated-checkpoint request.
#[derive(Debug, Clone)]
pub struct CheckpointRequest {
    pub(crate) store: CrStoreKind,
}

impl CheckpointRequest {
    /// Checkpoint to `store`.
    pub fn to(store: CrStoreKind) -> Self {
        CheckpointRequest { store }
    }

    /// Checkpoint to each node's local ext3 filesystem.
    pub fn local() -> Self {
        Self::to(CrStoreKind::LocalExt3)
    }

    /// Checkpoint to the shared PVFS deployment.
    pub fn pvfs() -> Self {
        Self::to(CrStoreKind::Pvfs)
    }
}

/// The typed control plane of a running job: submits migration,
/// checkpoint, and restart requests to the Job Manager's trigger queue.
/// Obtained from [`JobRuntime::control`]; cloning shares the runtime.
#[derive(Clone)]
pub struct Control {
    rt: JobRuntime,
}

impl Control {
    /// Request a migration.
    pub fn migrate(&self, req: MigrationRequest) {
        self.rt.inner.triggers.push(Trigger::Migrate { req });
    }

    /// Fire a migration request after `d` of virtual time.
    pub fn migrate_after(&self, d: Duration, req: MigrationRequest) {
        let ctl = self.clone();
        self.rt
            .inner
            .cluster
            .handle()
            .spawn_daemon("migration-trigger", move |ctx| {
                ctx.sleep(d);
                ctl.migrate(req);
            });
    }

    /// Request a coordinated checkpoint of the whole job.
    pub fn checkpoint(&self, req: CheckpointRequest) {
        self.rt.inner.triggers.push(Trigger::Checkpoint { req });
    }

    /// Request a restart-from-checkpoint of cycle `cycle` (simulates the
    /// failure/recovery path whose cost Figure 7 reports as "Restart").
    pub fn restart_from_checkpoint(&self, cycle: u64) {
        self.rt
            .inner
            .triggers
            .push(Trigger::RestartFromCkpt { cycle });
    }
}

pub(crate) enum Trigger {
    Migrate { req: MigrationRequest },
    Checkpoint { req: CheckpointRequest },
    RestartFromCkpt { cycle: u64 },
}

/// Shared state of one migration cycle.
pub(crate) struct MigCycle {
    pub id: u64,
    pub source: NodeId,
    pub target: NodeId,
    pub ranks: Vec<u32>,
    /// Pool configuration in effect for this cycle (job default plus
    /// per-request overrides).
    pub pool: PoolConfig,
    pub stall_done: Countdown,
    pub rendezvous: PoolRendezvous,
    source_pool: Mutex<Option<Arc<SourcePool>>>,
    source_pool_ready: Event,
    pub piic: Event,
    pub piic_bytes: Mutex<u64>,
    pub images: Mutex<HashMap<u32, AssembledImage>>,
    pub images_ready: Event,
    /// Per-rank image readiness, set by the target pull the moment that
    /// rank's stream is fully staged and verified — the pipelined restart
    /// path starts a rank's restart on its own event instead of the
    /// whole-pull `images_ready` barrier. `BTreeMap` keeps any iteration
    /// deterministic.
    pub rank_ready: BTreeMap<u32, Event>,
    pub restart_done: Event,
    pub barrier: Countdown,
    pub resumed: Countdown,
    /// Abort gate plus the set of ranks that entered the protocol.
    gate: Mutex<CycleGate>,
    /// Checkpoint metadata captured by source ranks before their app
    /// incarnation was killed. Presence of a rank here means its app is
    /// dead and must be resurrected from this state on abort.
    captured_meta: Mutex<HashMap<u32, CrMeta>>,
    /// Worker processes owned by this cycle (pool managers, ack loop,
    /// restart workers) — killed wholesale on abort.
    procs: Mutex<Vec<ProcHandle>>,
    /// Claim flag for the Phase 3 `FTB_RESTART` reaction: the standby
    /// re-publishes the restart broadcast when the WAL cannot prove the
    /// original went out, so the target NLA must react to exactly one of
    /// the (at most two) publishes.
    restart_claim: Mutex<bool>,
    /// Iterative pre-copy state (`None` for stop-and-copy cycles — and
    /// for every retry attempt: only the first attempt runs live, since a
    /// retry's pre-copied state died with the abandoned target).
    pub live: Option<LiveState>,
}

/// Shared state of a live cycle's pre-copy rounds, bridging the Job
/// Manager (round loop, convergence decisions), the source NLA (capture +
/// stream), the target NLA (pull + merge), and the Phase 3 restart (merge
/// the cutover residual).
pub(crate) struct LiveState {
    /// Live tunables in effect for this cycle.
    pub cfg: livemig::LiveConfig,
    /// Rendezvous of the round currently streaming; replaced by the Job
    /// Manager before each `FTB_PRECOPY` publish (each round is its own
    /// [`TransferSession`]).
    round_rv: Mutex<Option<PoolRendezvous>>,
    /// Target-side per-rank merge state, carried across rounds and
    /// consumed by the cutover restart.
    pub accums: Mutex<HashMap<u32, livemig::ImageAccumulator>>,
    /// Set when the controller cuts over: source ranks stream only the
    /// residual delta and the target restarts from accumulator + residual.
    cutover: AtomicBool,
    /// Pre-copy wire bytes across all completed rounds.
    pub precopied: AtomicU64,
    /// Completed pre-copy rounds.
    pub rounds: AtomicU32,
}

impl LiveState {
    fn new(cfg: livemig::LiveConfig) -> Self {
        LiveState {
            cfg,
            round_rv: Mutex::new(None),
            accums: Mutex::new(HashMap::new()),
            cutover: AtomicBool::new(false),
            precopied: AtomicU64::new(0),
            rounds: AtomicU32::new(0),
        }
    }

    /// Whether the controller has cut over to the residual round.
    pub fn cut_over(&self) -> bool {
        self.cutover.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct CycleGate {
    aborted: bool,
    entered: HashSet<u32>,
}

impl MigCycle {
    /// Register a fresh cycle `id` moving `ranks` from `source` to
    /// `target` (live pre-copy state only when `live` is set).
    fn start(
        rt: &JobRuntime,
        id: u64,
        source: NodeId,
        target: NodeId,
        ranks: &[u32],
        pool: PoolConfig,
        live: Option<livemig::LiveConfig>,
    ) -> Arc<MigCycle> {
        let handle = rt.inner.cluster.handle();
        let n = rt.inner.spec.nranks as u64;
        let cycle = Arc::new(MigCycle {
            id,
            source,
            target,
            ranks: ranks.to_vec(),
            pool,
            stall_done: Countdown::new(handle, "mig-stall", n),
            rendezvous: PoolRendezvous::new(handle),
            source_pool: Mutex::new(None),
            source_pool_ready: Event::new(handle, "srcpool"),
            piic: Event::new(handle, "piic"),
            piic_bytes: Mutex::new(0),
            images: Mutex::new(HashMap::new()),
            images_ready: Event::new(handle, "images-ready"),
            rank_ready: ranks
                .iter()
                .map(|&r| (r, Event::new(handle, "image-ready")))
                .collect(),
            restart_done: Event::new(handle, "restart-done"),
            barrier: Countdown::new(handle, "mig-barrier", n),
            resumed: Countdown::new(handle, "mig-resumed", n),
            gate: Mutex::new(CycleGate::default()),
            captured_meta: Mutex::new(HashMap::new()),
            procs: Mutex::new(Vec::new()),
            restart_claim: Mutex::new(false),
            live: live.map(LiveState::new),
        });
        rt.inner.mig_cycles.lock().insert(id, cycle.clone());
        cycle
    }

    fn set_source_pool(&self, p: Arc<SourcePool>) {
        *self.source_pool.lock() = Some(p);
        self.source_pool_ready.set();
    }

    /// Wait for the source pool to be stood up. `None` only if the ready
    /// event fired without a pool in place (a defect in the pool setup) —
    /// callers bail out and let the Phase 2 deadline recover the cycle.
    fn wait_source_pool(&self, ctx: &Ctx) -> Option<Arc<SourcePool>> {
        self.source_pool_ready.wait(ctx);
        self.source_pool.lock().clone()
    }

    /// A C/R thread checks in before acting on this cycle's events. Once
    /// the cycle is aborted, late arrivals are turned away (they never
    /// suspended, so they need no recovery).
    fn enter(&self, rank: u32) -> bool {
        let mut g = self.gate.lock();
        if g.aborted {
            return false;
        }
        g.entered.insert(rank);
        true
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.gate.lock().aborted
    }

    /// Register a cycle-owned worker process; if the cycle is already
    /// aborted the worker is killed on the spot.
    pub(crate) fn track(&self, ph: ProcHandle) {
        if self.gate.lock().aborted {
            ph.kill();
        } else {
            self.procs.lock().push(ph);
        }
    }

    /// Pull-engine hooks for this cycle: every helper process the engine
    /// spawns is registered with the cycle (killed on abort).
    fn target_hooks(self: &Arc<Self>, on_rank_ready: Option<RankReadyHook>) -> TargetHooks {
        let cycle = self.clone();
        TargetHooks {
            on_rank_ready,
            on_spawn: Some(Arc::new(move |ph| cycle.track(ph))),
        }
    }

    /// First caller wins the right to run the Phase 3 restart reaction;
    /// a duplicate `FTB_RESTART` (original + standby re-publish) is a
    /// no-op for everyone else.
    fn claim_restart(&self) -> bool {
        let mut claimed = self.restart_claim.lock();
        !std::mem::replace(&mut *claimed, true)
    }
}

/// Shared state of one coordinated-checkpoint cycle.
pub(crate) struct CkptCycle {
    pub id: u64,
    pub store: CrStoreKind,
    pub stall_done: Countdown,
    pub cut: Mutex<Option<SimTime>>,
    pub ckpt_done: Countdown,
    pub resumed: Countdown,
    pub bytes: AtomicU64,
    pub checksums: Mutex<HashMap<u32, u64>>,
}

pub(crate) struct NlaShared {
    pub node: NodeId,
    pub state: Mutex<NlaState>,
    pub ranks: Mutex<Vec<u32>>,
}

impl NlaShared {
    fn new(node: NodeId, state: NlaState) -> Arc<NlaShared> {
        Arc::new(NlaShared {
            node,
            state: Mutex::new(state),
            ranks: Mutex::new(Vec::new()),
        })
    }

    /// Hosts ranks and can migrate them away.
    fn ready(&self) -> bool {
        *self.state.lock() == NlaState::MigrationReady && !self.ranks.lock().is_empty()
    }
}

/// A trivial model of the mpispawn tree the Job Manager adjusts in
/// Phase 3 (login root, one NLA level).
pub(crate) struct SpawnTree {
    pub root: NodeId,
    pub nodes: Vec<NodeId>,
}

impl SpawnTree {
    fn snapshot(&self) -> (NodeId, Vec<NodeId>) {
        (self.root, self.nodes.clone())
    }

    fn replace(&mut self, old: NodeId, new: NodeId) {
        for n in &mut self.nodes {
            if *n == old {
                *n = new;
            }
        }
    }
}

/// The current coordinator generation: the live Job Manager's process
/// handle plus the event a scheduled [`faultplane::FaultSpec::CoordinatorCrash`]
/// sets when it kills that process. The journal's crash hook fires
/// through here; the standby waits on the generation's `dead` event and
/// installs a fresh generation after every takeover.
pub(crate) struct CoordSignal {
    gen: Mutex<CoordGen>,
}

struct CoordGen {
    proc: Option<ProcHandle>,
    dead: Event,
}

impl CoordSignal {
    fn new(dead: Event) -> CoordSignal {
        CoordSignal {
            gen: Mutex::new(CoordGen { proc: None, dead }),
        }
    }

    /// Install the live coordinator process for the current generation.
    fn arm(&self, proc: ProcHandle, dead: Event) {
        *self.gen.lock() = CoordGen {
            proc: Some(proc),
            dead,
        };
    }

    /// Execute a scheduled coordinator crash: kill the registered
    /// coordinator (if any — a crash landing while the standby itself is
    /// coordinating is a no-op) and signal the standby. Taking the handle
    /// makes a second fire within one generation inert.
    fn fire(&self) {
        let mut g = self.gen.lock();
        if let Some(ph) = g.proc.take() {
            ph.kill();
        }
        g.dead.set();
    }

    /// The current generation's death event (what the standby waits on).
    fn dead(&self) -> Event {
        self.gen.lock().dead.clone()
    }
}

pub(crate) struct RtInner {
    pub cluster: Cluster,
    pub spec: JobSpec,
    pub job: MpiJob,
    /// This job's identity on the cluster. Cycle ids are drawn from the
    /// namespace `job_id << 32`, so cycles of concurrently-running jobs
    /// never collide and foreign FTB events miss every cycle lookup.
    pub job_id: u64,
    /// NLA registry, keyed by node id. A `BTreeMap` so that any iteration
    /// (source auto-selection, launch order) is in node-id order — the
    /// deterministic-replay guarantee forbids `HashMap` iteration here.
    pub nlas: Mutex<BTreeMap<NodeId, Arc<NlaShared>>>,
    /// The cluster's shared spare pool (leases are keyed by `job_id`).
    pub pool: SparePool,
    pub triggers: Queue<Trigger>,
    pub pending_sources: Mutex<HashSet<NodeId>>,
    pub next_cycle: Mutex<u64>,
    pub mig_cycles: Mutex<HashMap<u64, Arc<MigCycle>>>,
    pub ckpt_cycles: Mutex<HashMap<u64, Arc<CkptCycle>>>,
    pub mig_reports: Mutex<Vec<MigrationReport>>,
    pub cr_reports: Mutex<Vec<CrReport>>,
    pub app_threads: Mutex<HashMap<u32, ProcHandle>>,
    pub cr_threads: Mutex<HashMap<u32, ProcHandle>>,
    pub nla_procs: Mutex<HashMap<NodeId, ProcHandle>>,
    pub finished: Mutex<HashSet<u32>>,
    pub all_done: Event,
    pub spawn_tree: Mutex<SpawnTree>,
    pub outcomes: Mutex<OutcomeCounts>,
    /// Per-rank lifecycle position, advanced only through
    /// `protoverify::RANK_TABLE` (see [`JobRuntime::rank_apply`]).
    pub rank_life: Mutex<BTreeMap<u32, RankLife>>,
    /// The WAL-backed cycle journal (always on; crash injection and the
    /// standby read it).
    pub journal: CycleJournal,
    /// Coordinator fencing epoch. Starts at 0 (the legacy, never-fenced
    /// epoch); each standby takeover bumps it and fences the spare pool
    /// and FTB publishes of every deposed epoch.
    pub epoch: AtomicU64,
    /// Live-coordinator registration for crash injection / takeover.
    pub(crate) coord: Arc<CoordSignal>,
}

/// Where a job sits on the cluster: its identity and (optionally) an
/// explicit list of home nodes. Fleet orchestrators launching many jobs
/// side by side give each a distinct `job_id` and a disjoint node block;
/// the default placement reproduces the classic single-job launch.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// Job identity; must be unique among concurrently-running jobs on
    /// one cluster. Cycle ids (migration and checkpoint) are drawn from
    /// the namespace `job_id << 32`, and spare-pool leases are keyed by
    /// it.
    pub job_id: u64,
    /// Home nodes for the ranks, `ppn` per node in order. `None` places
    /// ranks on the cluster's compute nodes from the front.
    pub nodes: Option<Vec<NodeId>>,
}

impl Placement {
    /// Placement for `job_id` on the default (front) compute nodes.
    pub fn job(job_id: u64) -> Placement {
        Placement {
            job_id,
            nodes: None,
        }
    }

    /// Place the ranks on exactly `nodes`.
    pub fn on_nodes(mut self, nodes: Vec<NodeId>) -> Placement {
        self.nodes = Some(nodes);
        self
    }
}

/// A launched job: handles for triggering migrations/checkpoints and
/// reading reports. Cloning shares the runtime.
#[derive(Clone)]
pub struct JobRuntime {
    pub(crate) inner: Arc<RtInner>,
}

impl JobRuntime {
    /// Launch `spec` on `cluster`: places ranks block-wise (`ppn` per
    /// compute node), starts NLAs, app threads, C/R threads and the Job
    /// Manager. Endpoints are built untimed (startup cost is not part of
    /// any measured figure).
    pub fn launch(cluster: &Cluster, spec: JobSpec) -> JobRuntime {
        Self::launch_placed(cluster, spec, Placement::default())
    }

    /// [`JobRuntime::launch`] with an explicit [`Placement`] — the entry
    /// point for fleet orchestrators running several jobs on one cluster.
    pub fn launch_placed(cluster: &Cluster, spec: JobSpec, placement: Placement) -> JobRuntime {
        let handle = cluster.handle().clone();
        let spec_nranks = spec.nranks;
        let job_id = placement.job_id;
        let home: Vec<NodeId> = placement
            .nodes
            .unwrap_or_else(|| cluster.compute_nodes().to_vec());
        let nodes_needed = spec.nranks.div_ceil(spec.ppn);
        assert!(
            nodes_needed as usize <= home.len(),
            "need {nodes_needed} home nodes, have {}",
            home.len()
        );
        let job = MpiJob::new(
            &handle,
            cluster.fabric().clone(),
            spec.nranks,
            spec.mpi.clone(),
        );
        let mut nlas = BTreeMap::new();
        let mut used_nodes = Vec::new();
        for r in 0..spec.nranks {
            let node = home[(r / spec.ppn) as usize];
            job.init_rank(r, node, Bytes::new());
            let nla = nlas.entry(node).or_insert_with(|| {
                used_nodes.push(node);
                NlaShared::new(node, NlaState::MigrationReady)
            });
            nla.ranks.lock().push(r);
        }
        // Spare-state NLAs on every node currently free in the shared
        // pool; nodes leased or reclaimed later are adopted on demand
        // (`adopt_spare`).
        for spare in cluster.spare_pool().free_nodes() {
            nlas.insert(spare, NlaShared::new(spare, NlaState::MigrationSpare));
        }
        let journal = CycleJournal::new(&handle);
        if let Some(plane) = cluster.fault_plane() {
            journal.install_fault_plane(plane);
        }
        let coord = Arc::new(CoordSignal::new(Event::new(&handle, "coord-dead")));
        let rt = JobRuntime {
            inner: Arc::new(RtInner {
                cluster: cluster.clone(),
                spec,
                job,
                job_id,
                pool: cluster.spare_pool().clone(),
                nlas: Mutex::new(nlas),
                triggers: Queue::new(&handle),
                pending_sources: Mutex::new(HashSet::new()),
                next_cycle: Mutex::new((job_id << 32) + 1),
                mig_cycles: Mutex::new(HashMap::new()),
                ckpt_cycles: Mutex::new(HashMap::new()),
                mig_reports: Mutex::new(Vec::new()),
                cr_reports: Mutex::new(Vec::new()),
                app_threads: Mutex::new(HashMap::new()),
                cr_threads: Mutex::new(HashMap::new()),
                nla_procs: Mutex::new(HashMap::new()),
                finished: Mutex::new(HashSet::new()),
                all_done: Event::new(&handle, "job-complete"),
                spawn_tree: Mutex::new(SpawnTree {
                    root: cluster.login(),
                    nodes: Vec::new(),
                }),
                outcomes: Mutex::new(OutcomeCounts::default()),
                rank_life: Mutex::new((0..spec_nranks).map(|r| (r, RankLife::Running)).collect()),
                journal: journal.clone(),
                epoch: AtomicU64::new(0),
                coord: coord.clone(),
            }),
        };
        // A scheduled coordinator crash fires inside `CycleJournal::append`:
        // kill whichever coordinator is registered and wake the standby.
        journal.set_crash_hook(move || coord.fire());
        rt.inner.spawn_tree.lock().nodes = used_nodes.clone();

        // NLA daemons on every participating node (compute + spares), in
        // node-id order.
        let all_nla_nodes: Vec<NodeId> = rt.inner.nlas.lock().keys().copied().collect();
        for node in all_nla_nodes {
            rt.spawn_nla(node);
        }
        // Job Manager on the login node.
        let jm = rt.spawn_daemon(&rt.proc_name("job-manager", ""), jm_proc);
        rt.inner.coord.arm(jm, rt.inner.coord.dead());
        // Standby coordinator (same login node in the paper's deployment;
        // here a separate daemon so the Job Manager's death leaves it up).
        if rt.inner.spec.standby {
            rt.spawn_daemon(&rt.proc_name("standby", ""), standby_proc);
        }
        // Health-event bridge.
        if rt.inner.spec.auto_migrate_on_health {
            rt.spawn_daemon(&rt.proc_name("health-bridge", ""), health_bridge);
        }
        rt
    }

    /// Spawn one of the job's daemons.
    fn spawn_daemon(
        &self,
        name: &str,
        body: impl FnOnce(&Ctx, JobRuntime) + Send + 'static,
    ) -> ProcHandle {
        let rt = self.clone();
        self.inner
            .cluster
            .handle()
            .spawn_daemon(name, move |ctx| body(ctx, rt))
    }

    /// Spawn (and register) the NLA daemon of `node`.
    fn spawn_nla(&self, node: NodeId) {
        let ph = self.spawn_daemon(&self.proc_name("nla", &node.to_string()), move |ctx, rt| {
            nla_proc(ctx, rt, node)
        });
        self.inner.nla_procs.lock().insert(node, ph);
    }

    /// Daemon names: identical to the historical single-job names for
    /// job 0 (keeping existing traces byte-stable), prefixed with the
    /// job id otherwise.
    fn proc_name(&self, kind: &str, node: &str) -> String {
        let at = if node.is_empty() {
            String::new()
        } else {
            format!("@{node}")
        };
        if self.inner.job_id == 0 {
            format!("{kind}{at}")
        } else {
            format!("j{}-{kind}{at}", self.inner.job_id)
        }
    }

    /// The MPI job.
    pub fn job(&self) -> &MpiJob {
        &self.inner.job
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    /// The job spec.
    pub fn spec(&self) -> &JobSpec {
        &self.inner.spec
    }

    /// The typed control plane: migration/checkpoint/restart requests.
    pub fn control(&self) -> Control {
        Control { rt: self.clone() }
    }

    /// Completed migration reports, in order.
    pub fn migration_reports(&self) -> Vec<MigrationReport> {
        self.inner.mig_reports.lock().clone()
    }

    /// Completed checkpoint reports, in order.
    pub fn cr_reports(&self) -> Vec<CrReport> {
        self.inner.cr_reports.lock().clone()
    }

    /// Whether every rank's application body has finished.
    pub fn is_complete(&self) -> bool {
        self.inner.all_done.is_set()
    }

    /// Event set when the whole application completes.
    pub fn completion(&self) -> &Event {
        &self.inner.all_done
    }

    /// The NLA state of `node`.
    pub fn nla_state(&self, node: NodeId) -> Option<NlaState> {
        self.inner.nlas.lock().get(&node).map(|n| *n.state.lock())
    }

    /// Spare nodes still available in the cluster's shared pool.
    pub fn spares_left(&self) -> usize {
        self.inner.pool.available()
    }

    /// The job identity this runtime was launched under.
    pub fn job_id(&self) -> u64 {
        self.inner.job_id
    }

    /// Whether `node` currently hosts any of this job's ranks.
    pub fn hosts_ranks_on(&self, node: NodeId) -> bool {
        self.inner
            .nlas
            .lock()
            .get(&node)
            .map(|n| !n.ranks.lock().is_empty())
            .unwrap_or(false)
    }

    /// Nodes currently hosting at least one rank, in id order.
    pub fn rank_nodes(&self) -> Vec<NodeId> {
        self.inner
            .nlas
            .lock()
            .values()
            .filter(|n| !n.ranks.lock().is_empty())
            .map(|n| n.node)
            .collect()
    }

    /// Tear down the job's simulated processes (NLA daemons, C/R and app
    /// threads). For fleet orchestrators recycling a completed job's node
    /// block: the stale daemons would otherwise keep waking on every FTB
    /// event forever. Reports and outcome counters stay readable.
    pub fn shutdown(&self) {
        // Collect-and-sort before killing: the registries are HashMaps
        // and kill order must not depend on hash order.
        // jmlint: allow(hash_iter)
        let mut nlas: Vec<(NodeId, ProcHandle)> = self.inner.nla_procs.lock().drain().collect();
        nlas.sort_by_key(|(n, _)| *n);
        for (_, ph) in nlas {
            ph.kill();
        }
        for registry in [&self.inner.cr_threads, &self.inner.app_threads] {
            let mut procs: Vec<(u32, ProcHandle)> = registry.lock().drain().collect();
            procs.sort_by_key(|(r, _)| *r);
            for (_, ph) in procs {
                ph.kill();
            }
        }
    }

    /// Per-outcome migration counters: first-attempt successes, retried
    /// successes, CR fallbacks, and (defensively) lost triggers.
    pub fn migration_outcomes(&self) -> OutcomeCounts {
        *self.inner.outcomes.lock()
    }

    /// The job's WAL-backed cycle journal (always on).
    pub fn journal(&self) -> &CycleJournal {
        &self.inner.journal
    }

    /// The current coordinator fencing epoch: 0 until the first standby
    /// takeover, bumped once per takeover.
    pub fn fencing_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// The current mpispawn tree: `(root, NLA nodes in launch order)`.
    /// Phase 3 replaces the migration source with the target here.
    pub fn spawn_tree(&self) -> (NodeId, Vec<NodeId>) {
        self.inner.spawn_tree.lock().snapshot()
    }

    /// Simulate an abrupt whole-job failure: every application process
    /// dies immediately and communication gates close. The job makes no
    /// further progress until [`Control::restart_from_checkpoint`]
    /// recovers it from a checkpoint.
    pub fn simulate_failure(&self) {
        for rank in 0..self.inner.spec.nranks {
            self.kill_app(rank);
            self.inner.job.cr(rank).close_gate();
        }
    }

    // ------------------------------------------------------------------
    // internal helpers
    // ------------------------------------------------------------------

    /// Look up a migration cycle by id. `None` for an unknown id (e.g. an
    /// FTB event from a cycle this runtime never started) — callers skip
    /// the event instead of panicking.
    pub(crate) fn mig_cycle(&self, id: u64) -> Option<Arc<MigCycle>> {
        self.inner.mig_cycles.lock().get(&id).cloned()
    }

    /// Look up a checkpoint cycle by id; `None` for an unknown id.
    pub(crate) fn ckpt_cycle(&self, id: u64) -> Option<Arc<CkptCycle>> {
        self.inner.ckpt_cycles.lock().get(&id).cloned()
    }

    pub(crate) fn next_cycle_id(&self) -> u64 {
        let mut c = self.inner.next_cycle.lock();
        let id = *c;
        *c += 1;
        id
    }

    /// Make a freshly leased pool node usable as this job's migration
    /// target. Nodes reclaimed into the shared pool after this job
    /// launched have no NLA here yet — register one in spare state and
    /// start its daemon; a node this job itself vacated earlier re-enters
    /// service by reprovisioning its inactive NLA. Returns `true` when a
    /// new daemon was spawned: the caller must then let a little virtual
    /// time pass so the daemon subscribes to the FTB before the attempt's
    /// `FTB_MIGRATE` is published.
    pub(crate) fn adopt_spare(&self, ctx: &Ctx, node: NodeId) -> bool {
        {
            let nlas = self.inner.nlas.lock();
            if let Some(nla) = nlas.get(&node) {
                let st = *nla.state.lock();
                match st {
                    NlaState::MigrationSpare => {}
                    NlaState::MigrationInactive => nla_apply(ctx, nla, NlaEvent::Reprovision),
                    NlaState::MigrationReady => panic!(
                        "spare pool corrupt: leased {node} still hosts ranks of job {}",
                        self.inner.job_id
                    ),
                }
                return false;
            }
        }
        self.inner
            .nlas
            .lock()
            .insert(node, NlaShared::new(node, NlaState::MigrationSpare));
        self.spawn_nla(node);
        true
    }

    pub(crate) fn spawn_app(&self, rank: u32) {
        let rt = self.clone();
        let ph = self
            .inner
            .cluster
            .handle()
            .spawn(&format!("app-r{rank}"), move |ctx| {
                let mut r = rt.inner.job.attach(rank);
                rt.inner.spec.app.run(ctx, &mut r);
                rt.rank_finished(rank);
            });
        self.inner.app_threads.lock().insert(rank, ph);
    }

    pub(crate) fn kill_app(&self, rank: u32) {
        if let Some(ph) = self.inner.app_threads.lock().get(&rank) {
            ph.kill();
        }
    }

    fn rank_finished(&self, rank: u32) {
        let mut f = self.inner.finished.lock();
        if f.insert(rank) && f.len() as u32 == self.inner.spec.nranks {
            self.inner.all_done.set();
        }
    }

    pub(crate) fn spawn_cr_thread(&self, rank: u32, resume: Option<Arc<MigCycle>>) {
        let rt = self.clone();
        let ph = self
            .inner
            .cluster
            .handle()
            .spawn_daemon(&format!("cr-r{rank}"), move |ctx| {
                cr_thread(ctx, rt, rank, resume)
            });
        self.inner.cr_threads.lock().insert(rank, ph);
    }

    /// The checkpoint store for `kind` as seen from `node`. A PVFS
    /// request on a cluster without a PVFS deployment falls back to the
    /// node-local filesystem (the request-level precondition check in
    /// `cr_baseline::run_checkpoint` rejects user-facing misconfiguration
    /// before any dump starts).
    pub(crate) fn store_for(
        &self,
        kind: CrStoreKind,
        node: NodeId,
    ) -> Arc<dyn storesim::CkptStore> {
        match kind {
            CrStoreKind::LocalExt3 => Arc::new(self.inner.cluster.node(node).fs.clone()),
            CrStoreKind::Pvfs => match self.inner.cluster.pvfs() {
                Some(pvfs) => Arc::new(pvfs.client(node)),
                None => Arc::new(self.inner.cluster.node(node).fs.clone()),
            },
        }
    }

    pub(crate) fn resume_overhead(&self) -> Duration {
        calib::RESUME_BASE + calib::RESUME_PER_RANK * self.inner.spec.nranks
    }

    /// The lifecycle position of `rank` per the `protoverify` rank table.
    pub fn rank_life(&self, rank: u32) -> Option<RankLife> {
        self.inner.rank_life.lock().get(&rank).copied()
    }

    /// Advance `rank`'s lifecycle through the declarative rank table. A
    /// missing row means the runtime fired an event the spec forbids in
    /// the rank's current state — a protocol bug, trapped loudly (the
    /// model checker proves the shipped table, so this cannot fire unless
    /// the runtime drifts from it).
    pub(crate) fn rank_apply(&self, ctx: &Ctx, rank: u32, ev: RankEvent) {
        let mut life = self.inner.rank_life.lock();
        let cur = life.get(&rank).copied().unwrap_or(RankLife::Running);
        match rank_next(cur, ev) {
            Some(next) => {
                ctx.instant_with("proto", "rank_transition", || {
                    vec![
                        ("rank", rank.into()),
                        ("from", cur.name().into()),
                        ("event", ev.name().into()),
                        ("to", next.name().into()),
                    ]
                });
                life.insert(rank, next);
            }
            None => panic!(
                "rank lifecycle violation: rank {rank} got {} while {}",
                ev.name(),
                cur.name()
            ),
        }
    }
}

/// Advance an NLA through the declarative NLA table (see
/// `protoverify::spec::NLA_TABLE`). Like [`JobRuntime::rank_apply`], a
/// missing row is a protocol bug and is trapped loudly.
pub(crate) fn nla_apply(ctx: &Ctx, nla: &NlaShared, ev: NlaEvent) {
    let mut st = nla.state.lock();
    match nla_next(*st, ev) {
        Some(next) => {
            ctx.instant_with("proto", "nla_transition", || {
                vec![
                    ("node", nla.node.0.into()),
                    ("from", st.to_string().into()),
                    ("event", ev.name().into()),
                    ("to", next.to_string().into()),
                ]
            });
            *st = next;
        }
        None => panic!(
            "NLA protocol violation: node {} got {} while {}",
            nla.node,
            ev.name(),
            *st
        ),
    }
}

/// Step the migration-cycle phase machine and emit the transition to the
/// trace. [`StepError::NoTransition`] means runtime and spec disagree — a
/// protocol bug trapped loudly; [`StepError::GuardRejected`] is returned
/// to the caller (it is normal control flow, e.g. a retry with the budget
/// exhausted).
fn proto_step(
    ctx: &Ctx,
    stepper: &mut CycleStepper<'_>,
    ev: CycleEvent,
    g: &GuardCtx,
) -> Result<(), StepError> {
    let from = stepper.phase();
    match stepper.step(ev, g) {
        Ok(t) => {
            let to = t.to;
            ctx.instant_with("proto", "cycle_transition", || {
                vec![
                    ("from", from.name().into()),
                    ("event", ev.name().into()),
                    ("to", to.name().into()),
                ]
            });
            Ok(())
        }
        Err(e @ StepError::GuardRejected { .. }) => Err(e),
        Err(e @ StepError::NoTransition { .. }) => {
            panic!("migration cycle protocol violation: {e}")
        }
    }
}

// ---------------------------------------------------------------------------
// checkpoint image metadata framing
// ---------------------------------------------------------------------------

/// Pack C/R metadata into the image's app-state field:
/// `[completed_ops u64 LE][application state bytes]`.
pub(crate) fn wrap_meta(meta: &CrMeta) -> Bytes {
    let mut v = Vec::with_capacity(8 + meta.app_state.len());
    v.extend_from_slice(&meta.completed_ops.to_le_bytes());
    v.extend_from_slice(&meta.app_state);
    Bytes::from(v)
}

/// The image's metadata framing was malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetaError {
    /// Bytes present in the app-state field (need at least 8).
    pub len: usize,
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "image meta truncated: {} bytes, need >= 8", self.len)
    }
}

/// Reverse of [`wrap_meta`], recombining with the image's segments.
/// Fails (instead of panicking) on a truncated app-state field so that a
/// corrupted image surfaces as a recoverable restart error.
pub(crate) fn unwrap_meta(image: &ProcessImage) -> Result<CrMeta, MetaError> {
    let Some(head) = image.app_state.get(..8) else {
        return Err(MetaError {
            len: image.app_state.len(),
        });
    };
    let mut le = [0u8; 8];
    le.copy_from_slice(head);
    Ok(CrMeta {
        app_state: image.app_state.slice(8..),
        completed_ops: u64::from_le_bytes(le),
        segments: image.segments.clone(),
    })
}

/// The dirty-page delta of `snap` over `rank`'s captured state, packed
/// as a checkpoint image (round `round` of a live cycle).
fn delta_image(
    rank: u32,
    meta: &CrMeta,
    snap: &livemig::DirtySnapshot,
    round: u32,
) -> ProcessImage {
    livemig::delta::encode(rank as u64, &wrap_meta(meta), &meta.segments, snap, round)
}

/// Build the BLCR image of `rank` from captured metadata.
pub(crate) fn build_image(rank: u32, meta: &CrMeta) -> ProcessImage {
    let mut img = ProcessImage::new(rank as u64, wrap_meta(meta));
    img.segments = meta.segments.clone();
    img
}

// ---------------------------------------------------------------------------
// Job Manager
// ---------------------------------------------------------------------------

fn jm_proc(ctx: &Ctx, rt: JobRuntime) {
    let login = rt.inner.cluster.login();
    let ftb = FtbClient::connect(rt.inner.cluster.ftb(), login, "job-manager");
    let sub = ftb.subscribe(&ctx.handle(), EventFilter::space(MPI_SPACE));
    loop {
        match rt.inner.triggers.pop(ctx) {
            Trigger::Migrate { req } => run_migration(ctx, &rt, &ftb, &sub, req),
            Trigger::Checkpoint { req } => {
                cr_baseline::run_checkpoint(ctx, &rt, &ftb, &sub, req.store)
            }
            Trigger::RestartFromCkpt { cycle } => cr_baseline::run_restart(ctx, &rt, cycle),
        }
    }
}

/// Pop events from `sub` until `want` accepts one, or the virtual-time
/// `deadline` passes (`None`: wait for as long as it takes, arming no
/// timer). Everything else — acks of old cycles or rounds, unrelated
/// broadcasts — is skipped.
fn pop_until<T>(
    ctx: &Ctx,
    sub: &Queue<FtbEvent>,
    deadline: Option<SimTime>,
    mut want: impl FnMut(&FtbEvent) -> Option<T>,
) -> Option<T> {
    loop {
        let ev = match deadline {
            None => sub.pop(ctx),
            Some(d) if ctx.now() >= d => return None,
            Some(d) => sub.pop_timeout(ctx, d - ctx.now())?,
        };
        if let Some(hit) = want(&ev) {
            return Some(hit);
        }
    }
}

/// Count `FTB_SUSPEND_ACK`s for `cycle` until all `n` ranks have
/// acknowledged — the Phase 1 fan-in the paper's Job Stall time measures.
/// Returns `false` if the deadline passes first.
pub(crate) fn wait_suspend_acks(
    ctx: &Ctx,
    sub: &Queue<FtbEvent>,
    cycle: u64,
    n: u32,
    deadline: Option<SimTime>,
) -> bool {
    let mut seen = HashSet::new();
    let all = |seen: &HashSet<u32>| seen.len() >= n as usize;
    all(&seen)
        || pop_until(ctx, sub, deadline, |ev| {
            let a = ev
                .payload_as::<SuspendAckMsg>()
                .filter(|a| ev.name == FTB_SUSPEND_ACK && a.cycle == cycle)?;
            seen.insert(a.rank);
            all(&seen).then_some(())
        })
        .is_some()
}

/// Wait until `deadline` for the `name` ack (`FTB_MIGRATE_PIIC` or
/// `FTB_RESTART_DONE`) of `cycle`.
fn wait_ack(ctx: &Ctx, sub: &Queue<FtbEvent>, name: &str, cycle: u64, deadline: SimTime) -> bool {
    pop_until(ctx, sub, Some(deadline), |ev| {
        let of = match ev.name.as_str() {
            n if n != name => None,
            FTB_MIGRATE_PIIC => ev.payload_as::<PiicMsg>().map(|m| m.cycle),
            FTB_RESTART_DONE => ev.payload_as::<RestartMsg>().map(|m| m.cycle),
            _ => None,
        };
        (of == Some(cycle)).then_some(())
    })
    .is_some()
}

/// Wait for `ev` with a virtual-time deadline.
fn wait_event_until(ctx: &Ctx, ev: &Event, deadline: SimTime) -> bool {
    ev.is_set() || (ctx.now() < deadline && ev.wait_timeout(ctx, deadline - ctx.now()))
}

/// Wait for `cd` with a virtual-time deadline.
fn wait_countdown_until(ctx: &Ctx, cd: &Countdown, deadline: SimTime) -> bool {
    ctx.now() < deadline && cd.wait_timeout(ctx, deadline - ctx.now())
}

/// Account a finished migration trigger: outcome counter, report, and
/// pending-source cleanup.
fn settle_report(ctx: &Ctx, rt: &JobRuntime, report: MigrationReport) {
    let inner = &rt.inner;
    let outcome = report.outcome;
    inner.outcomes.lock().record(outcome);
    ctx.instant_with("log", "migration_outcome", || {
        vec![("outcome", outcome.name().into())]
    });
    inner.pending_sources.lock().remove(&report.source);
    inner.mig_reports.lock().push(report);
}

fn run_migration(
    ctx: &Ctx,
    rt: &JobRuntime,
    ftb: &FtbClient,
    sub: &Queue<FtbEvent>,
    req: MigrationRequest,
) {
    let inner = &rt.inner;
    // Resolve the source node (default: the first ready one in node-id
    // order) and the ranks it hosts.
    let source = req.source.or_else(|| {
        let nlas = inner.nlas.lock();
        nlas.values().find(|n| n.ready()).map(|n| n.node)
    });
    let Some(source) = source else {
        return;
    };
    let ranks = {
        let nlas = inner.nlas.lock();
        let nla = nlas.get(&source).filter(|n| n.ready());
        nla.map(|n| n.ranks.lock().clone())
    };
    let Some(ranks) = ranks else {
        inner.pending_sources.lock().remove(&source);
        return;
    };

    // Self-healing attempt loop: each attempt leases a spare from the
    // front of the cluster's shared pool; a spare that survives its
    // failed attempt is returned for reuse. When the retry budget or the
    // spare pool is exhausted, degrade to a coordinated checkpoint so the
    // job remains recoverable (§III-A's failure handling, hardened).
    //
    // Control flow is driven through the declarative cycle table: every
    // attempt starts by stepping `Trigger`/`Retry` (whose `RetryPath`
    // guard owns the "spare available AND budget left" decision), and the
    // degrade path below is reached exactly when that guard rejects.
    let tuning = req.tuning_for(&inner.spec);
    let rec = tuning.recovery;
    let plane = inner.cluster.fault_plane();
    if let Some(p) = &plane {
        // The plane may have been installed after launch; (re)arm the
        // journal so scheduled coordinator crashes fire on appends.
        inner.journal.install_fault_plane(p.clone());
    }
    let spec = MigrationSpec::shipped();
    let mut stepper = CycleStepper::new(&spec);
    let mut attempt = 0u32;
    loop {
        // Live pre-copy applies to the first attempt only: a retry's
        // target died with everything pre-copied onto it, and re-running
        // rounds against the retry budget would stretch an
        // already-failing cycle — retries go straight to the classic
        // stop-and-copy path.
        let begin = match (attempt, tuning.pool.live) {
            (0, Some(_)) => CycleEvent::LiveTrigger,
            (0, None) => CycleEvent::Trigger,
            _ => CycleEvent::Retry,
        };
        let epoch = inner.epoch.load(Ordering::Relaxed);
        // Lease before stepping: with several jobs migrating concurrently
        // the pool may drain between a check and a take, so the guard's
        // "spare available" answer must come from one atomic pool
        // operation. `spares_left` reports the pre-lease count.
        let attempts_left = rec.max_attempts.saturating_sub(attempt);
        let lease = (attempts_left > 0)
            .then(|| inner.pool.lease_at(inner.job_id, epoch))
            .flatten();
        let g = GuardCtx {
            spares_left: lease.map_or(0, |_| inner.pool.available() as u32 + 1),
            attempts_left,
        };
        // The guard admits only with a lease in hand.
        let admitted = proto_step(ctx, &mut stepper, begin, &g).is_ok();
        let Some(target) = lease.filter(|_| admitted) else {
            // RetryPath rejected: no spare or no budget — degrade below.
            if let Some(n) = lease {
                inner.pool.release_front_at(n, inner.job_id, epoch);
            }
            break;
        };
        attempt += 1;
        if attempt > 1 {
            ctx.sleep(rec.backoff_delay(attempt));
        }
        if rt.adopt_spare(ctx, target) {
            // Freshly spawned NLA daemon: give it a moment of virtual
            // time to connect and subscribe before FTB_MIGRATE goes out.
            ctx.sleep(Duration::from_millis(1));
        }
        // WAL: the attempt and its lease binding are on record before any
        // protocol side effect. A coordinator crash scheduled at either
        // boundary kills us between the append and the side effect —
        // `check_killed` unwinds this proc on the spot.
        let id = rt.next_cycle_id();
        inner.journal.append(WalRecord::CycleStart {
            cycle: id,
            source,
            attempt,
        });
        ctx.check_killed();
        inner.journal.append(WalRecord::LeaseAcquire {
            cycle: id,
            node: target,
            epoch,
        });
        ctx.check_killed();
        let live = tuning.pool.live.filter(|_| attempt == 1);
        let mut a = Attempt {
            ctx,
            rt,
            ftb,
            sub,
            cycle: MigCycle::start(rt, id, source, target, &ranks, tuning.pool, live),
            stepper: &mut stepper,
            rec,
            plane: plane.as_ref(),
            attempt,
            epoch,
            label: req.label.as_deref(),
            tree_adjusted: false,
            restart_span: None,
            span: None,
        };
        let Ok(report) = a.run() else {
            continue;
        };
        inner.journal.append(WalRecord::LeaseCommit {
            cycle: id,
            node: target,
            epoch,
        });
        ctx.check_killed();
        inner.pool.consume_at(target, inner.job_id, epoch);
        settle_report(ctx, rt, report);
        inner.journal.append(WalRecord::CycleEnd { cycle: id });
        ctx.check_killed();
        return;
    }

    // Degraded path: no spare (or every attempt failed). Checkpoint the
    // whole job to storage so it can be recovered off the ailing node.
    let g = GuardCtx {
        spares_left: inner.pool.available() as u32,
        attempts_left: rec.max_attempts.saturating_sub(attempt),
    };
    proto_step(ctx, &mut stepper, CycleEvent::Degrade, &g) // jmlint: allow(hot_unwrap) — spec invariant trap
        .expect("Degrade must be enabled when the retry guard rejects");
    let store = inner
        .cluster
        .pvfs()
        .map_or(CrStoreKind::LocalExt3, |_| CrStoreKind::Pvfs);
    ctx.instant_with("log", "migration_fallback_cr", || {
        vec![
            ("source", source.0.into()),
            ("attempts", attempt.into()),
            ("store", store.to_string().into()),
        ]
    });
    cr_baseline::run_checkpoint(ctx, rt, ftb, sub, store);
    let cr_cycle = inner.cr_reports.lock().last().map(|r| r.cycle).unwrap_or(0);
    // Nothing moved: the report's target is the source.
    let report = MigrationReport::unclocked(
        cr_cycle,
        source,
        source,
        MigrationOutcome::FellBackToCr,
        attempt,
    );
    settle_report(ctx, rt, report);
}

/// Every in-attempt cycle-table row (phase completions, fault effects)
/// carries `Guard::Always`, so the guard context contents are irrelevant.
const ALWAYS: GuardCtx = GuardCtx {
    spares_left: 0,
    attempts_left: 0,
};

/// One migration attempt in flight: what the protocol phases share. The
/// four phases of §III-A are one pattern — a control broadcast followed
/// by a deadline-bounded wait — written once as [`Attempt::phase`].
struct Attempt<'a, 's> {
    ctx: &'a Ctx,
    rt: &'a JobRuntime,
    ftb: &'a FtbClient,
    sub: &'a Queue<FtbEvent>,
    cycle: Arc<MigCycle>,
    stepper: &'a mut CycleStepper<'s>,
    /// Per-phase deadlines.
    rec: calib::RecoveryConfig,
    plane: Option<&'a FaultPlane>,
    attempt: u32,
    epoch: u64,
    label: Option<&'a str>,
    /// The spawn tree points at the target: an abort must point it back.
    tree_adjusted: bool,
    /// The pipelined path's restart span, opened inside Phase 2 and
    /// closed by Phase 3. Declared before `span` so that an unwind closes
    /// it first.
    restart_span: Option<Span>,
    /// The current phase's span.
    span: Option<Span>,
}

impl Attempt<'_, '_> {
    /// Open a `"phase"` span carrying the cycle id, so the Figure 4
    /// decomposition can be rebuilt from the trace alone
    /// (`telemetry::Timeline`).
    fn open_span(&self, name: &'static str) -> Span {
        let c = &self.cycle;
        let (id, source, target, attempt) = (c.id, c.source, c.target, self.attempt);
        self.ctx.span_with("phase", name, || {
            let mut a: simkit::Args = vec![
                ("cycle", id.into()),
                ("source", source.0.into()),
                ("target", target.0.into()),
                ("attempt", attempt.into()),
            ];
            if let Some(l) = self.label {
                a.push(("label", l.into()));
            }
            a
        })
    }

    /// The entry half of a phase: abort if the spare dies here (a
    /// scheduled spare crash), else put the phase entry on record before
    /// any of its effects. A coordinator crash scheduled at the append
    /// unwinds this proc on the spot.
    fn enter_phase(&mut self, phase: MigPhase) -> Result<(), ()> {
        if self
            .plane
            .is_some_and(|p| p.take_spare_crash(phase, self.attempt))
        {
            kill_spare(self.ctx, self.rt, self.cycle.target);
            return self.abort(CycleEvent::SpareCrash, "spare_crash", false);
        }
        self.rt.inner.journal.append(WalRecord::PhaseEnter {
            cycle: self.cycle.id,
            phase,
        });
        self.ctx.check_killed();
        Ok(())
    }

    /// One protocol phase: enter it, run its effect and wait — `run`,
    /// handed the phase deadline — inside the phase's span, then step the
    /// cycle table, or abort the attempt if the deadline passed. Returns
    /// the phase's duration.
    fn phase(
        &mut self,
        phase: MigPhase,
        run: impl FnOnce(&mut Self, SimTime) -> bool,
    ) -> Result<Duration, ()> {
        let (timeout, done) = match phase {
            MigPhase::Stall => (self.rec.stall_timeout, CycleEvent::StallDone),
            MigPhase::Migrate => (self.rec.migrate_timeout, CycleEvent::MigrateDone),
            MigPhase::Restart => (self.rec.restart_timeout, CycleEvent::RestartDone),
            MigPhase::Resume => (self.rec.resume_timeout, CycleEvent::ResumeDone),
            MigPhase::Precopy => unreachable!("pre-copy rounds carry their own deadlines"),
        };
        self.enter_phase(phase)?;
        let t0 = self.ctx.now();
        let opened = (phase == MigPhase::Restart)
            .then(|| self.restart_span.take())
            .flatten();
        self.span = Some(opened.unwrap_or_else(|| self.open_span(phase.name())));
        let ok = run(self, t0 + timeout);
        if let Some(span) = self.span.take() {
            span.end();
        }
        if !ok {
            let reason = format!("{}_timeout", phase.name());
            return self.abort(CycleEvent::PhaseTimeout, &reason, true);
        }
        let _ = proto_step(self.ctx, self.stepper, done, &ALWAYS);
        Ok(self.ctx.now() - t0)
    }

    /// The abort half of a phase: journal the rollback, step the fault
    /// effect (`event` is [`CycleEvent::PhaseTimeout`] or
    /// [`CycleEvent::SpareCrash`]), roll the ranks back to the source, and
    /// settle the lease — back to the pool's front if the spare survived
    /// (a retry reuses it), discarded if it died. Always `Err`.
    fn abort<T>(&mut self, event: CycleEvent, reason: &str, spare_alive: bool) -> Result<T, ()> {
        let inner = &self.rt.inner;
        let (id, target) = (self.cycle.id, self.cycle.target);
        inner.journal.append(WalRecord::Rollback { cycle: id });
        self.ctx.check_killed();
        let _ = proto_step(self.ctx, self.stepper, event, &ALWAYS);
        abort_cycle(self.ctx, self.rt, &self.cycle, reason, self.tree_adjusted);
        if spare_alive {
            inner
                .pool
                .release_front_at(target, inner.job_id, self.epoch);
        } else {
            inner.pool.discard_at(target, inner.job_id, self.epoch);
        }
        inner.journal.append(WalRecord::CycleEnd { cycle: id });
        self.ctx.check_killed();
        if let Some(span) = self.restart_span.take() {
            span.end();
        }
        Err(())
    }

    /// Rewire the spawn tree and broadcast the restart; with `open_span`
    /// the restart span opens right before the broadcast.
    fn restart(&mut self, open_span: bool) {
        let (ctx, rt, ftb, epoch) = (self.ctx, self.rt, self.ftb, self.epoch);
        let mut span = None;
        restart_broadcast(ctx, rt, ftb, &self.cycle, epoch, true, || {
            span = open_span.then(|| self.open_span("restart"));
        });
        self.tree_adjusted = true;
        self.restart_span = span;
    }

    /// The four-phase protocol of §III-A under per-phase virtual-time
    /// deadlines, after the pre-copy rounds of a live cycle. On any
    /// failure the cycle is aborted (ranks rolled back to the source and
    /// resumed) and `Err` is returned.
    fn run(&mut self) -> Result<MigrationReport, ()> {
        let pre0 = self.ctx.now();
        if self.cycle.live.is_some() {
            self.precopy()?;
        }
        let precopy = self.ctx.now() - pre0;
        let overlap = self.cycle.pool.overlap;

        // Phase 1 — Job Stall.
        let stall = self.phase(MigPhase::Stall, |a, deadline| {
            let c = &a.cycle;
            a.ftb.publish(
                a.ctx,
                FtbEvent::with_payload(
                    MPI_SPACE,
                    FTB_MIGRATE,
                    Severity::Error,
                    a.rt.inner.cluster.login(),
                    MigrateMsg {
                        source: c.source,
                        target: c.target,
                        cycle: c.id,
                        epoch: a.epoch,
                    },
                ),
            );
            let n = a.rt.inner.spec.nranks;
            wait_suspend_acks(a.ctx, a.sub, c.id, n, Some(deadline))
                && wait_countdown_until(a.ctx, &c.stall_done, deadline)
        })?;

        // Phase 2 — Job Migration. On the pipelined data path Phase 3 is
        // kicked off *now*, overlapping the pull — the spawn tree is
        // adjusted and FTB_RESTART goes out while chunks are still
        // streaming, and the target's restart workers start per rank on
        // its `image_ready` event. The cycle-table event order
        // (MigrateDone before RestartDone) is unchanged: PIIC still closes
        // Phase 2, and Phase 3's *tail* beyond that point is what the
        // report attributes to restart. The overlapping `"phase"` spans
        // are rendered by `telemetry::Timeline` (sum vs wall).
        let migrate = self.phase(MigPhase::Migrate, |a, deadline| {
            if overlap {
                a.restart(true);
            }
            wait_ack(a.ctx, a.sub, FTB_MIGRATE_PIIC, a.cycle.id, deadline)
                && wait_event_until(a.ctx, &a.cycle.piic, deadline)
        })?;

        // Phase 3 — Restart on the spare (already underway in overlap
        // mode). The deadline runs from Phase 3's protocol start: in
        // overlap mode the work began earlier, so it only bounds the tail
        // that remains once the pull has drained.
        let restart = self.phase(MigPhase::Restart, |a, deadline| {
            if !overlap {
                a.restart(false);
            }
            wait_ack(a.ctx, a.sub, FTB_RESTART_DONE, a.cycle.id, deadline)
                && wait_event_until(a.ctx, &a.cycle.restart_done, deadline)
        })?;
        // The commit point: every rank restarted on the target — from here
        // the target is authoritative and recovery must roll forward.
        let inner = &self.rt.inner;
        inner.journal.append(WalRecord::CommitPoint {
            cycle: self.cycle.id,
        });
        self.ctx.check_killed();

        // Phase 4 — Resume.
        let resume = self.phase(MigPhase::Resume, |a, deadline| {
            wait_countdown_until(a.ctx, &a.cycle.resumed, deadline)
        })?;

        let c = &self.cycle;
        let live = c.live.as_ref();
        let outcome = if self.attempt == 1 {
            MigrationOutcome::Migrated
        } else {
            MigrationOutcome::MigratedAfterRetry
        };
        Ok(MigrationReport {
            precopy,
            precopy_rounds: live.map_or(0, |l| l.rounds.load(Ordering::Relaxed)),
            stall,
            migrate,
            restart,
            resume,
            ranks_moved: c.ranks.len(),
            bytes_moved: *c.piic_bytes.lock()
                + live.map_or(0, |l| l.precopied.load(Ordering::Relaxed)),
            ..MigrationReport::unclocked(c.id, c.source, c.target, outcome, self.attempt)
        })
    }

    /// Phase 0 — iterative pre-copy (live cycles only). The ranks keep
    /// running throughout: nothing here holds the barrier, so a failed or
    /// diverging round costs only the bytes already streamed — the cycle
    /// degrades to the classic stop-and-copy phases instead of aborting.
    /// Only the spare dying aborts from here (there is nothing to roll
    /// back: no rank ever suspended).
    fn precopy(&mut self) -> Result<(), ()> {
        let cycle = self.cycle.clone();
        let Some(live) = &cycle.live else {
            return Ok(());
        };
        self.enter_phase(MigPhase::Precopy)?;
        let (ctx, inner, id) = (self.ctx, &self.rt.inner, cycle.id);
        let ph = self.open_span("precopy");
        // The controller is instantiated after round 0 completes, so its
        // bandwidth estimate comes from the measured full-image round
        // rather than a static calibration constant.
        let mut policy: Option<livemig::DowntimeBudget> = None;
        let mut round: u32 = 0;
        let fell_back = loop {
            // Each round is one self-contained TransferSession; a fresh
            // rendezvous keeps a straggler from a failed round from
            // pairing with the next round's pool.
            *live.round_rv.lock() = Some(PoolRendezvous::new(inner.cluster.handle()));
            let r0 = ctx.now();
            self.ftb.publish(
                ctx,
                FtbEvent::with_payload(
                    MPI_SPACE,
                    FTB_PRECOPY,
                    Severity::Info,
                    inner.cluster.login(),
                    PrecopyMsg {
                        source: cycle.source,
                        target: cycle.target,
                        cycle: id,
                        round,
                        epoch: self.epoch,
                    },
                ),
            );
            let done = pop_until(ctx, self.sub, Some(r0 + self.rec.migrate_timeout), |ev| {
                ev.payload_as::<PrecopyDoneMsg>()
                    .filter(|m| ev.name == FTB_PRECOPY_DONE && m.cycle == id && m.round == round)
                    .copied()
            });
            let Some(done) = done.filter(|d| d.ok) else {
                break true;
            };
            let dur = ctx.now() - r0;
            inner.journal.append(WalRecord::PrecopyRound {
                cycle: id,
                round,
                bytes: done.bytes,
            });
            ctx.check_killed();
            let _ = proto_step(ctx, self.stepper, CycleEvent::PrecopyRound, &ALWAYS);
            live.precopied.fetch_add(done.bytes, Ordering::Relaxed);
            live.rounds.fetch_add(1, Ordering::Relaxed);
            // Residual pending right now: the size of the next round (or
            // of the cutover stop-and-copy, if the verdict is to stop).
            let pending: u64 = cycle
                .ranks
                .iter()
                .map(|&r| inner.job.cr(r).dirty_bytes())
                .sum();
            let report = livemig::RoundReport {
                round,
                bytes: done.bytes,
                pages: done.pages,
                duration: dur,
                dirty_bytes_pending: pending,
            };
            let p = policy.get_or_insert_with(|| {
                let bw = done.bytes as f64 / dur.as_secs_f64().max(1e-9);
                // The fixed floor covers only what the cutover timing can
                // influence (tree adjust + per-process restart base); the
                // constant Phase 4 resume is paid whenever we stop, so it
                // has no place in the convergence decision.
                live.cfg
                    .controller(bw, calib::SPAWN_TREE_ADJUST + calib::restart_costs().base)
            });
            let verdict = p.decide(&report);
            ctx.instant_with("live", "round_verdict", || {
                vec![
                    ("cycle", id.into()),
                    ("round", round.into()),
                    ("bytes", done.bytes.into()),
                    ("pending", pending.into()),
                    ("verdict", format!("{verdict:?}").into()),
                ]
            });
            match verdict {
                livemig::Decision::Continue => round += 1,
                livemig::Decision::CutOver => {
                    live.cutover.store(true, Ordering::Relaxed);
                    let _ = proto_step(ctx, self.stepper, CycleEvent::Cutover, &ALWAYS);
                    break false;
                }
                livemig::Decision::Fallback => break true,
            }
        };
        if fell_back {
            // Divergence, a timed-out round, or a failed pull: abandon
            // the pre-copied state and run the classic full stop-and-copy.
            // The dirty trackers are disarmed so source ranks stream
            // complete images.
            let _ = proto_step(ctx, self.stepper, CycleEvent::FallbackStopCopy, &ALWAYS);
            live.accums.lock().clear();
            for &r in &cycle.ranks {
                inner.job.cr(r).disarm_dirty();
            }
            ctx.instant_with("log", "live_fallback", || {
                vec![("cycle", id.into()), ("rounds", round.into())]
            });
        }
        ph.end();
        Ok(())
    }
}

/// Phase 3's coordinator side, and the one place `FTB_RESTART` is
/// published: put the rewire on record (unless `journal` is false — the
/// journal already holds it), adjust the spawn tree, then broadcast the
/// restart under `epoch`. `before_publish` runs right before the
/// broadcast (the pipelined path opens its restart span there).
fn restart_broadcast(
    ctx: &Ctx,
    rt: &JobRuntime,
    ftb: &FtbClient,
    cycle: &MigCycle,
    epoch: u64,
    journal: bool,
    before_publish: impl FnOnce(),
) {
    let inner = &rt.inner;
    if journal {
        inner.journal.append(WalRecord::NlaRewire {
            cycle: cycle.id,
            target: cycle.target,
        });
        ctx.check_killed();
    }
    ctx.sleep(calib::SPAWN_TREE_ADJUST);
    inner.spawn_tree.lock().replace(cycle.source, cycle.target);
    before_publish();
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_RESTART,
            Severity::Error,
            inner.cluster.login(),
            RestartMsg {
                cycle: cycle.id,
                target: cycle.target,
                ranks: cycle.ranks.clone(),
                epoch,
            },
        ),
    );
}

/// Simulate the abrupt death of spare node `node`: its NLA process, NLA
/// bookkeeping, and FTB agent all disappear. The caller aborts the cycle
/// afterwards; nothing is ever respawned on the dead node.
fn kill_spare(ctx: &Ctx, rt: &JobRuntime, node: NodeId) {
    ctx.instant_with("log", "spare_node_dead", || vec![("node", node.0.into())]);
    let inner = &rt.inner;
    if let Some(ph) = inner.nla_procs.lock().remove(&node) {
        ph.kill();
    }
    inner.nlas.lock().remove(&node);
    inner.cluster.ftb().kill_agent(node);
}

/// Abort a migration cycle mid-flight and roll the job back to a running
/// state on the source node.
///
/// Every rank that *entered* the cycle (suspended) is recovered: its C/R
/// thread is killed and respawned straight into Phase 4 (tolerant
/// barrier, endpoint rebuild, reopen); if its app incarnation died after
/// the Phase 2 metadata capture, the app is resurrected from that
/// captured state — on the source node, even if a Phase 3 restart had
/// already placed it on the target. Ranks that never entered are left
/// untouched (the gate turns them away from the stale events).
fn abort_cycle(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    reason: &str,
    tree_adjusted: bool,
) {
    let inner = &rt.inner;
    ctx.instant_with("log", "cycle_abort", || {
        vec![
            ("cycle", cycle.id.into()),
            ("reason", reason.to_string().into()),
        ]
    });
    // Close the entry gate and snapshot who is inside the protocol.
    let entered: HashSet<u32> = {
        let mut g = cycle.gate.lock();
        g.aborted = true;
        g.entered.clone()
    };
    // Kill the cycle's worker processes (buffer-pool managers, the ack
    // loop, restart workers).
    for ph in cycle.procs.lock().drain(..) {
        ph.kill();
    }
    // A live cycle's dirty trackers are abandoned with the cycle: the
    // ranks roll back to (or never left) the source incarnation, which by
    // definition holds every write — nothing pre-copied is needed again.
    if cycle.live.is_some() {
        for &rank in &cycle.ranks {
            inner.job.cr(rank).disarm_dirty();
        }
    }
    let metas = cycle.captured_meta.lock().clone();
    let mut recover: Vec<u32> = Vec::new();
    for &rank in &cycle.ranks {
        if !entered.contains(&rank) {
            continue;
        }
        if let Some(ph) = inner.cr_threads.lock().get(&rank) {
            ph.kill();
        }
        if inner.job.rank_node(rank) == cycle.target {
            // A Phase 3 restart already placed this rank on the (now
            // abandoned) target; pull it back.
            rt.kill_app(rank);
            inner.job.set_rank_node(rank, cycle.source);
        }
        recover.push(rank);
    }
    // Release every non-source rank still parked on cycle primitives.
    // The barrier is force-completed because not all ranks necessarily
    // entered; `images_ready` is deliberately left unset (its only
    // consumers were just killed).
    cycle.stall_done.force_complete();
    cycle.barrier.force_complete();
    cycle.restart_done.set();
    // Resurrect the cycle's ranks and rejoin them through Phase 4.
    for rank in recover {
        if let Some(meta) = metas.get(&rank) {
            rt.rank_apply(ctx, rank, RankEvent::Resurrect);
            inner.job.cr(rank).restore_meta(meta.clone());
            inner.job.purge_stale_rts_from(rank);
            rt.spawn_app(rank);
        }
        rt.spawn_cr_thread(rank, Some(cycle.clone()));
    }
    // The source NLA goes back to hosting its ranks; a surviving target
    // NLA goes back to being a clean spare. Both moves go through the
    // declarative NLA table (legal from either side of the PIIC /
    // restart-complete boundaries).
    if let Some(nla) = inner.nlas.lock().get(&cycle.source) {
        nla_apply(ctx, nla, NlaEvent::RollbackSource);
        *nla.ranks.lock() = cycle.ranks.clone();
    }
    if let Some(nla) = inner.nlas.lock().get(&cycle.target) {
        nla_apply(ctx, nla, NlaEvent::RollbackTarget);
        nla.ranks.lock().clear();
    }
    if tree_adjusted {
        inner.spawn_tree.lock().replace(cycle.target, cycle.source);
    }
}

fn health_bridge(ctx: &Ctx, rt: JobRuntime) {
    let login = rt.inner.cluster.login();
    let client = FtbClient::connect(rt.inner.cluster.ftb(), login, "health-bridge");
    let sub = client.subscribe(
        &ctx.handle(),
        EventFilter {
            space: Some(healthmon::HEALTH_SPACE.to_string()),
            name: None,
            min_severity: Some(Severity::Error),
        },
    );
    loop {
        let ev = sub.pop(ctx);
        let Some(alert) = ev.payload_as::<healthmon::HealthAlert>() else {
            continue;
        };
        let node = alert.node;
        let hosts_ranks = rt.inner.nlas.lock().get(&node).is_some_and(|n| n.ready());
        if hosts_ranks && rt.inner.pending_sources.lock().insert(node) {
            rt.inner.triggers.push(Trigger::Migrate {
                req: MigrationRequest::new().from_node(node).label("health-auto"),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Standby coordinator
// ---------------------------------------------------------------------------

/// The standby coordinator: waits for the live Job Manager's death
/// signal, fences the deposed epoch, recovers the in-flight cycle from
/// the WAL journal, then respawns a fresh Job Manager generation and
/// goes back to standing by (so chained coordinator crashes in later
/// cycles are survivable too).
fn standby_proc(ctx: &Ctx, rt: JobRuntime) {
    let login = rt.inner.cluster.login();
    let ftb = FtbClient::connect(rt.inner.cluster.ftb(), login, "standby");
    loop {
        let dead = rt.inner.coord.dead();
        dead.wait(ctx);
        // Failure-detector confirmation window before acting.
        ctx.sleep(calib::TAKEOVER_DETECT);
        takeover(ctx, &rt, &ftb);
        // Respawn the Job Manager under the new epoch and re-arm the
        // crash signal for the next generation.
        let name = format!(
            "{}-g{}",
            rt.proc_name("job-manager", ""),
            rt.fencing_epoch()
        );
        let jm = rt.spawn_daemon(&name, jm_proc);
        let dead = Event::new(rt.inner.cluster.handle(), "coord-dead");
        rt.inner.coord.arm(jm, dead);
    }
}

/// One takeover: bump the fencing epoch, fence the spare pool, replay the
/// journal tail, and either finish the in-flight cycle (resume-from-point
/// / roll-forward past the commit point) or roll it back to the source.
fn takeover(ctx: &Ctx, rt: &JobRuntime, ftb: &FtbClient) {
    let inner = &rt.inner;
    let epoch = inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
    let adopted = inner.pool.fence(inner.job_id, epoch) as u64;
    let journal = &inner.journal;
    let fl = journal.in_flight();
    let in_flight_cycle = fl.as_ref().map(|f| f.cycle).unwrap_or(0);
    ctx.instant_with("wal", "takeover", || {
        vec![
            ("epoch", epoch.into()),
            ("adopted_leases", adopted.into()),
            ("cycle", in_flight_cycle.into()),
        ]
    });
    // Reconcile the pool against the journal: the lease is acquired just
    // before the cycle's first record, so a crash at the `CycleStart`
    // boundary leaves a lease the tail cannot yet see. Any lease of ours
    // the journal does not account for is returned to the pool (the
    // pool, having survived the crash, is the lease's source of truth).
    let accounted = fl.as_ref().and_then(|f| f.lease.map(|(n, _)| n));
    for (node, job) in inner.pool.leases() {
        if job == inner.job_id && Some(node) != accounted {
            inner.pool.release_front_at(node, inner.job_id, epoch);
        }
    }
    let Some(fl) = fl else {
        // Clean journal tail: the coordinator died between cycles.
        return;
    };
    let rec = inner.spec.recovery;
    let Some(cycle) = rt.mig_cycle(fl.cycle) else {
        // The crash landed between the CycleStart/LeaseAcquire records
        // and the cycle's construction: no side effect is visible
        // anywhere. Settle the lease and close the cycle on the record.
        if let Some((node, _)) = fl.lease {
            inner.pool.release_front_at(node, inner.job_id, epoch);
        }
        journal.append(WalRecord::Rollback { cycle: fl.cycle });
        let outcome = MigrationOutcome::RolledBackByStandby;
        settle_standby_outcome(ctx, rt, &fl, fl.source, outcome, None);
        return;
    };
    if fl.rolling_back {
        // The dead coordinator had decided to abort but died before
        // executing it (crashes only fire at append boundaries, and the
        // Rollback record precedes `abort_cycle`). Finish the rollback.
        standby_rollback(ctx, rt, &cycle, &fl, epoch, fl.rewired);
        return;
    }
    if fl.committed {
        roll_forward(ctx, rt, &cycle, &fl, epoch, &rec);
        return;
    }
    // Pre-commit. If the cycle never became visible to the job (the
    // deepest record is the Stall phase entry, which precedes the
    // FTB_MIGRATE publish — or any Precopy record, during which the job
    // was still running untouched on the source), nothing suspended:
    // rollback is a cheap settle. A takeover mid-pre-copy deliberately
    // abandons the rounds rather than resuming them: the accumulated
    // target state lived in the dead coordinator's cycle bookkeeping, and
    // the source incarnation still holds every byte. Otherwise the data
    // path is still progressing on its own — resume from the journal's
    // point with fresh deadlines, re-executing only the pending
    // coordinator side effects, and roll back if any fresh deadline
    // passes.
    let visible = fl
        .phase
        .map(|p| !matches!(p, MigPhase::Stall | MigPhase::Precopy))
        .unwrap_or(false);
    if !visible {
        standby_rollback(ctx, rt, &cycle, &fl, epoch, fl.rewired);
        return;
    }
    let mut adjusted = fl.rewired;
    // Phase 2 tail: the source NLA publishes PIIC on its own.
    if !wait_event_until(ctx, &cycle.piic, ctx.now() + rec.migrate_timeout) {
        standby_rollback(ctx, rt, &cycle, &fl, epoch, adjusted);
        return;
    }
    // Phase 3: the WAL cannot prove the restart broadcast went out (a
    // crash at the NlaRewire boundary leaves the record durable but the
    // publish unexecuted), so re-execute idempotently: the spawn-tree
    // replace is a no-op when already done and the cycle's claim guard
    // makes a duplicate FTB_RESTART inert.
    if !cycle.restart_done.is_set() {
        restart_broadcast(ctx, rt, ftb, &cycle, epoch, !fl.rewired, || {});
        adjusted = true;
    }
    if !wait_event_until(ctx, &cycle.restart_done, ctx.now() + rec.restart_timeout) {
        standby_rollback(ctx, rt, &cycle, &fl, epoch, adjusted);
        return;
    }
    journal.append(WalRecord::CommitPoint { cycle: fl.cycle });
    roll_forward(ctx, rt, &cycle, &fl, epoch, &rec);
}

/// Post-commit recovery: every rank restarted on the target, so the only
/// correct direction is forward — wait out Phase 4 (the ranks drive it
/// themselves), settle the lease as consumed, and account the cycle.
fn roll_forward(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    fl: &InFlight,
    epoch: u64,
    rec: &calib::RecoveryConfig,
) {
    let inner = &rt.inner;
    if !wait_countdown_until(ctx, &cycle.resumed, ctx.now() + rec.resume_timeout) {
        // Defensive: a committed cycle cannot be rolled back and its
        // resume did not land — account the trigger as lost rather than
        // hang the takeover (expected never; Phase 4 needs no
        // coordinator).
        settle_standby_outcome(ctx, rt, fl, cycle.target, MigrationOutcome::Lost, None);
        return;
    }
    if let Some((node, _)) = fl.lease {
        if !fl.lease_committed {
            inner.journal.append(WalRecord::LeaseCommit {
                cycle: fl.cycle,
                node,
                epoch,
            });
        }
        inner.pool.consume_at(node, inner.job_id, epoch);
    }
    let outcome = MigrationOutcome::ResumedByStandby;
    settle_standby_outcome(ctx, rt, fl, cycle.target, outcome, Some(cycle));
}

/// Pre-commit recovery: finish (or initiate) the rollback the journal
/// demands — abort the cycle, return the spare to the pool's front under
/// the new epoch, and account the trigger.
fn standby_rollback(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    fl: &InFlight,
    epoch: u64,
    tree_adjusted: bool,
) {
    let (inner, journal) = (&rt.inner, &rt.inner.journal);
    if !fl.rolling_back {
        journal.append(WalRecord::Rollback { cycle: fl.cycle });
    }
    abort_cycle(ctx, rt, cycle, "coordinator_crash", tree_adjusted);
    if let Some((node, _)) = fl.lease {
        inner.pool.release_front_at(node, inner.job_id, epoch);
    }
    let outcome = MigrationOutcome::RolledBackByStandby;
    settle_standby_outcome(ctx, rt, fl, cycle.target, outcome, None);
}

/// Common tail of every standby recovery path: the accounted report
/// (phase durations are zero — the dead coordinator's phase clocks died
/// with it) and the closing `CycleEnd` record.
fn settle_standby_outcome(
    ctx: &Ctx,
    rt: &JobRuntime,
    fl: &InFlight,
    target: NodeId,
    outcome: MigrationOutcome,
    moved: Option<&MigCycle>,
) {
    let report = MigrationReport {
        precopy_rounds: fl.precopy_rounds,
        ranks_moved: moved.map_or(0, |c| c.ranks.len()),
        bytes_moved: moved.map_or(0, |c| *c.piic_bytes.lock()),
        ..MigrationReport::unclocked(fl.cycle, fl.source, target, outcome, fl.attempt)
    };
    settle_report(ctx, rt, report);
    let journal = &rt.inner.journal;
    journal.append(WalRecord::CycleEnd { cycle: fl.cycle });
}

// ---------------------------------------------------------------------------
// Node Launch Agent
// ---------------------------------------------------------------------------

fn nla_proc(ctx: &Ctx, rt: JobRuntime, node: NodeId) {
    let inner = &rt.inner;
    let nla = inner.nlas.lock()[&node].clone();
    // Startup: launch local MPI processes (fork/exec cost per rank),
    // build endpoints untimed, start app + C/R threads.
    let local_ranks = nla.ranks.lock().clone();
    for rank in &local_ranks {
        ctx.sleep(calib::NLA_SPAWN);
        let cr = inner.job.cr(*rank);
        cr.rebuild_endpoints(ctx, false);
        cr.reopen();
        rt.spawn_app(*rank);
        rt.spawn_cr_thread(*rank, None);
    }

    let ftb = FtbClient::connect(inner.cluster.ftb(), node, &format!("nla@{node}"));
    let sub = ftb.subscribe(&ctx.handle(), EventFilter::space(MPI_SPACE));
    loop {
        let ev = sub.pop(ctx);
        match ev.name.as_str() {
            FTB_MIGRATE => {
                let Some(&m) = ev.payload_as::<MigrateMsg>() else {
                    continue;
                };
                let fence = rt.fencing_epoch();
                let Some(cycle) = admit(ctx, &rt, FTB_MIGRATE, m.cycle, m.epoch, fence) else {
                    continue;
                };
                if m.source == node {
                    let (nla, ftb) = (nla.clone(), ftb.clone());
                    spawn_reaction(ctx, &rt, &cycle, format!("mig{}-src@{node}", m.cycle), {
                        move |ctx, rt, c| source_side_phase2(ctx, rt, c, &nla, &ftb)
                    });
                } else if m.target == node {
                    spawn_reaction(ctx, &rt, &cycle, format!("mig{}-pull@{node}", m.cycle), {
                        move |ctx, rt, c| target_side_pull(ctx, rt, c)
                    });
                }
            }
            FTB_PRECOPY => {
                let Some(&m) = ev.payload_as::<PrecopyMsg>() else {
                    continue;
                };
                let fence = rt.fencing_epoch();
                let Some(cycle) = admit(ctx, &rt, FTB_PRECOPY, m.cycle, m.epoch, fence) else {
                    continue;
                };
                let name = |side: &str| format!("mig{}-pre{}-{side}@{node}", m.cycle, m.round);
                if m.source == node {
                    let nla = nla.clone();
                    spawn_reaction(ctx, &rt, &cycle, name("src"), move |ctx, rt, c| {
                        source_side_precopy(ctx, rt, c, &nla, m.round)
                    });
                } else if m.target == node {
                    let ftb = ftb.clone();
                    spawn_reaction(ctx, &rt, &cycle, name("pull"), move |ctx, rt, c| {
                        target_side_precopy(ctx, rt, c, &ftb, m.round)
                    });
                }
            }
            FTB_RESTART => {
                let Some(r) = ev.payload_as::<RestartMsg>() else {
                    continue;
                };
                let fence = rt.fencing_epoch();
                let Some(cycle) = admit(ctx, &rt, FTB_RESTART, r.cycle, r.epoch, fence) else {
                    continue;
                };
                // A duplicate broadcast (original + standby re-publish) is
                // a no-op: the first reaction owns Phase 3.
                if r.target == node && cycle.claim_restart() {
                    let (r, nla, ftb) = (r.clone(), nla.clone(), ftb.clone());
                    let name = format!("mig{}-restart@{node}", r.cycle);
                    spawn_reaction(ctx, &rt, &cycle, name, move |ctx, rt, c| {
                        target_side_restart(ctx, rt, c, &nla, &ftb, r)
                    });
                }
            }
            _ => {}
        }
    }
}

/// The NLA's gate on a fenced coordinator command: drop it (with a
/// `fenced_publish` record) if it was published under an epoch older than
/// `fence`, else look up the cycle it addresses (`None`: not one of this
/// job's cycles).
fn admit(
    ctx: &Ctx,
    rt: &JobRuntime,
    name: &str,
    cycle: u64,
    epoch: u64,
    fence: u64,
) -> Option<Arc<MigCycle>> {
    if epoch < fence {
        ctx.instant_with("wal", "fenced_publish", || {
            vec![
                ("name", name.into()),
                ("cycle", cycle.into()),
                ("epoch", epoch.into()),
            ]
        });
        return None;
    }
    rt.mig_cycle(cycle)
}

/// Run an NLA's protocol reaction in a child registered with `cycle`, so
/// an abort can kill it without taking down the NLA itself. A child that
/// starts after the abort does nothing.
fn spawn_reaction(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    name: String,
    body: impl FnOnce(&Ctx, &JobRuntime, &Arc<MigCycle>) + Send + 'static,
) {
    let (rt2, cycle2) = (rt.clone(), cycle.clone());
    let ph = ctx.spawn_daemon(&name, move |ctx| {
        if !cycle2.is_aborted() {
            body(ctx, &rt2, &cycle2);
        }
    });
    cycle.track(ph);
}

/// Source NLA, one pre-copy round: capture each local rank's state while
/// it keeps running and stream it through a fresh per-round buffer pool —
/// the full image at round 0 (arming dirty tracking first, so no write
/// after the capture can be lost), a dirty-segment delta afterwards.
fn source_side_precopy(ctx: &Ctx, rt: &JobRuntime, cycle: &MigCycle, nla: &NlaShared, round: u32) {
    let inner = &rt.inner;
    let Some(live) = &cycle.live else {
        return;
    };
    let Some(rv) = live.round_rv.lock().clone() else {
        return;
    };
    let ranks = nla.ranks.lock().clone();
    let hca = inner.cluster.fabric().attach(cycle.source);
    let (pool, ackloop) =
        TransferSession::from_config(cycle.pool).source(ctx, &hca, ranks.len() as u32, &rv);
    cycle.track(ackloop);
    let blcr = &inner.cluster.node(cycle.source).blcr;
    for rank in ranks {
        let cr = inner.job.cr(rank);
        let snap = if round == 0 {
            // Arm *before* capturing: a write landing during the capture
            // is re-sent in round 1 — duplicated, never lost.
            cr.arm_dirty(live.cfg.page);
            None
        } else {
            // `None` if tracking vanished (rank restored elsewhere?): then
            // the full image streams — correct, if not fast.
            cr.take_dirty()
        };
        let meta = cr.capture_meta();
        let image = match snap {
            Some(snap) => delta_image(rank, &meta, &snap, round),
            None => build_image(rank, &meta),
        };
        let mut sink = pool.sink(ctx, rank, image.checksum());
        if blcr.try_checkpoint(ctx, &image, &mut sink).is_err() {
            // Incomplete stream: the target's pull stalls and the round
            // deadline degrades the cycle to stop-and-copy.
            ctx.instant_with("ckpt", "precopy_dump_failed", || {
                vec![
                    ("rank", rank.into()),
                    ("cycle", cycle.id.into()),
                    ("round", round.into()),
                ]
            });
        }
    }
}

/// Target NLA, one pre-copy round: pull the round's streams, then merge
/// each rank's payload into its [`livemig::ImageAccumulator`] (paying
/// parse + populate cost for exactly the pulled bytes — all overlapped
/// with the running application) and report the round to the Job Manager.
fn target_side_precopy(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    ftb: &FtbClient,
    round: u32,
) {
    let inner = &rt.inner;
    let Some(live) = &cycle.live else {
        return;
    };
    let Some(rv) = live.round_rv.lock().clone() else {
        return;
    };
    let hca = inner.cluster.fabric().attach(cycle.target);
    let res = inner.cluster.node(cycle.target);
    let store: Arc<dyn storesim::CkptStore> = Arc::new(res.fs.clone());
    let hooks = cycle.target_hooks(None);
    let report = |ok: bool, bytes: u64, pages: u64| {
        ftb.publish(
            ctx,
            FtbEvent::with_payload(
                MPI_SPACE,
                FTB_PRECOPY_DONE,
                Severity::Info,
                cycle.target,
                PrecopyDoneMsg {
                    cycle: cycle.id,
                    round,
                    ok,
                    bytes,
                    pages,
                },
            ),
        );
    };
    let result = match TransferSession::from_config(cycle.pool).target_with(
        ctx,
        &hca,
        &rv,
        store,
        &format!("mig.{}.pre{}", cycle.id, round),
        hooks,
    ) {
        Ok(r) => r,
        Err(abort) => {
            ctx.instant_with("pool", "precopy_pull_aborted", || {
                vec![
                    ("cycle", cycle.id.into()),
                    ("round", round.into()),
                    ("reason", abort.reason.into()),
                ]
            });
            report(false, abort.bytes_pulled, 0);
            return;
        }
    };
    // Collect-and-sort: the session's image map is a HashMap and merge
    // order must not depend on hash order.
    // jmlint: allow(hash_iter)
    let mut staged: Vec<(u32, AssembledImage)> = result.images.into_iter().collect();
    staged.sort_by_key(|(rank, _)| *rank);
    let mut pages = 0u64;
    let mut ok = true;
    for (rank, info) in staged {
        let expected = info.expected_checksum;
        let Ok(img) = restart_assembled(ctx, res, info) else {
            ok = false;
            continue;
        };
        if img.checksum() != expected {
            // A corrupt round payload never reaches the accumulator; the
            // controller falls back to classic stop-and-copy.
            ok = false;
            continue;
        }
        let mut accums = live.accums.lock();
        match livemig::delta::decode(&img) {
            Ok(Some(d)) => {
                pages += d
                    .runs
                    .iter()
                    .map(|r| r.data.len.div_ceil(d.page.max(1)))
                    .sum::<u64>();
                if accums.entry(rank).or_default().apply(&d).is_err() {
                    ok = false;
                }
            }
            Ok(None) => accums.entry(rank).or_default().seed_full(img),
            Err(_) => ok = false,
        }
    }
    report(ok, result.bytes_pulled, pages);
}

/// Source NLA, Phase 2: stand up the buffer manager, wait until every
/// local image has been pulled and acknowledged, publish PIIC, go
/// inactive.
fn source_side_phase2(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &MigCycle,
    nla: &NlaShared,
    ftb: &FtbClient,
) {
    let inner = &rt.inner;
    let nlocal = nla.ranks.lock().len() as u32;
    let hca = inner.cluster.fabric().attach(cycle.source);
    let (pool, ackloop) =
        TransferSession::from_config(cycle.pool).source(ctx, &hca, nlocal, &cycle.rendezvous);
    cycle.track(ackloop);
    cycle.set_source_pool(pool.clone());
    pool.finished().wait(ctx);
    *cycle.piic_bytes.lock() = pool.bytes_streamed();
    nla_apply(ctx, nla, NlaEvent::SourceDrained);
    let moved = std::mem::take(&mut *nla.ranks.lock());
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_MIGRATE_PIIC,
            Severity::Info,
            cycle.source,
            PiicMsg {
                cycle: cycle.id,
                ranks: moved,
                bytes_moved: pool.bytes_streamed(),
            },
        ),
    );
    cycle.piic.set();
}

/// Target NLA, Phase 2 (receiving side): pull chunks and assemble images
/// into buffered temp files on the local filesystem.
fn target_side_pull(ctx: &Ctx, rt: &JobRuntime, cycle: &Arc<MigCycle>) {
    let inner = &rt.inner;
    let hca = inner.cluster.fabric().attach(cycle.target);
    let store: Arc<dyn storesim::CkptStore> = Arc::new(inner.cluster.node(cycle.target).fs.clone());
    // As each rank's image finishes assembly the pool hands it over here,
    // and the per-rank `rank_ready` event releases that rank's restart
    // worker — in overlap mode, while other ranks are still streaming.
    let hooks = cycle.target_hooks(Some(Arc::new({
        let cycle = cycle.clone();
        let journal = inner.journal.clone();
        move |ctx: &Ctx, rank: u32, image: AssembledImage| {
            // NLA-side WAL append: recorded before the image is handed
            // over. Appenders on the data path survive a coordinator
            // crash (the crash hook kills only the Job Manager), so
            // the journal keeps tracking per-rank progress — exactly
            // what lets the standby resume from the last verified
            // point instead of rolling back.
            journal.append(WalRecord::RankImageReady {
                cycle: cycle.id,
                rank,
            });
            cycle.images.lock().insert(rank, image);
            if let Some(ev) = cycle.rank_ready.get(&rank) {
                ev.set();
            }
            ctx.instant_with("pool", "rank_image_ready", || {
                vec![("cycle", cycle.id.into()), ("rank", rank.into())]
            });
        }
    })));
    match TransferSession::from_config(cycle.pool).target_with(
        ctx,
        &hca,
        &cycle.rendezvous,
        store,
        &format!("mig.{}", cycle.id),
        hooks,
    ) {
        Ok(result) => {
            *cycle.images.lock() = result.images;
            cycle.images_ready.set();
        }
        Err(abort) => {
            // Leave `images_ready` unset: the Job Manager's Phase 2/3
            // deadline aborts the cycle and retries or degrades.
            ctx.instant_with("pool", "pull_aborted", || {
                vec![
                    ("cycle", cycle.id.into()),
                    ("reason", abort.reason.into()),
                    ("rank", abort.rank.map(u64::from).unwrap_or(u64::MAX).into()),
                    ("lane", u64::from(abort.lane).into()),
                    ("bytes_pulled", abort.bytes_pulled.into()),
                ]
            });
        }
    }
}

/// Target NLA, Phase 3: restart every migrated process from its image.
fn target_side_restart(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    nla: &NlaShared,
    ftb: &FtbClient,
    r: RestartMsg,
) {
    let inner = &rt.inner;
    let overlap = cycle.pool.overlap;
    if !overlap {
        // Barrier mode (the paper's protocol): no rank restarts until the
        // whole pull has landed.
        cycle.images_ready.wait(ctx);
    }
    let res = inner.cluster.node(r.target);
    let cold = calib::RESTART_READS_COLD && cycle.pool.restart_mode == RestartMode::FileBased;
    if cold && !overlap {
        use storesim::CkptStore;
        res.fs.drop_caches();
    }
    // Restart admission throttles how many ranks hit the local disk at
    // once: with all images behind one degraded-sharing spindle, a full
    // fan-out of cold readers is slower end-to-end than a small window.
    let admission = match cycle.pool.restart_admission {
        0 => r.ranks.len() as u32,
        n => n,
    };
    let gate = Semaphore::new(&ctx.handle(), admission.into());
    let done = Countdown::new(&ctx.handle(), "restart-workers", r.ranks.len() as u64);
    let failures = Arc::new(AtomicU64::new(0));
    for rank in r.ranks.clone() {
        let rt2 = rt.clone();
        let cycle2 = cycle.clone();
        let done2 = done.clone();
        let failures2 = failures.clone();
        let gate2 = gate.clone();
        let fs2 = res.fs.clone();
        let target = r.target;
        let ph = ctx.spawn_daemon(&format!("restart-r{rank}"), move |ctx| {
            if overlap {
                // Start the moment *this* rank's image is assembled,
                // while other ranks are still streaming.
                if let Some(ev) = cycle2.rank_ready.get(&rank) {
                    ev.wait(ctx);
                }
            }
            gate2.acquire(ctx, 1);
            if cold && overlap {
                // Evict only this rank's image right before its read, so
                // every restart read is cold (matching barrier-mode
                // semantics) without flushing files still being staged.
                use storesim::CkptStore;
                let path = cycle2
                    .images
                    .lock()
                    .get(&rank)
                    .and_then(|i| i.slices.is_none().then(|| i.path.clone()));
                if let Some(path) = path {
                    fs2.evict(&path);
                }
            }
            ctx.instant_with("pool", "restart_begin", || {
                vec![("cycle", cycle2.id.into()), ("rank", rank.into())]
            });
            if let Err(e) = restart_one_rank(ctx, &rt2, &cycle2, rank, target) {
                ctx.instant_with("log", "restart_rank_failed", || {
                    vec![
                        ("rank", rank.into()),
                        ("cycle", cycle2.id.into()),
                        ("error", e.to_string().into()),
                    ]
                });
                failures2.fetch_add(1, Ordering::Relaxed);
            }
            gate2.release(1);
            done2.arrive();
        });
        cycle.track(ph);
    }
    done.wait(ctx);
    if failures.load(Ordering::Relaxed) > 0 {
        // Leave `restart_done` unset: the Job Manager's Phase 3 deadline
        // aborts the cycle, rolls the ranks back to the source, and
        // retries or degrades — the failure lands in `MigrationOutcome`
        // instead of tearing down the simulation.
        return;
    }
    *nla.ranks.lock() = r.ranks.clone();
    nla_apply(ctx, nla, NlaEvent::RestartComplete);
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_RESTART_DONE,
            Severity::Info,
            r.target,
            r.clone(),
        ),
    );
    cycle.restart_done.set();
}

/// Why a single rank's Phase 3 restart failed. Routed (via the Phase 3
/// deadline abort) into [`MigrationOutcome`] accounting rather than
/// panicking the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RestartRankError {
    /// The cycle's image table has no entry for this rank.
    ImageMissing,
    /// BLCR could not parse/restore the image stream.
    ImageParse(String),
    /// The live-migration residual delta could not be applied to the
    /// pre-copied base image (missing or inconsistent accumulator).
    DeltaApply(String),
    /// The restored image's checksum disagrees with the streamed one.
    ChecksumMismatch {
        /// Checksum recomputed from the restored image.
        got: u64,
        /// Checksum recorded when the image was streamed.
        want: u64,
    },
    /// The image metadata framing was truncated or malformed.
    MetaCorrupt(MetaError),
}

impl std::fmt::Display for RestartRankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartRankError::ImageMissing => write!(f, "no assembled image"),
            RestartRankError::ImageParse(e) => write!(f, "image parse: {e}"),
            RestartRankError::DeltaApply(e) => write!(f, "residual delta apply: {e}"),
            RestartRankError::ChecksumMismatch { got, want } => {
                write!(f, "checksum mismatch: got {got:#x}, want {want:#x}")
            }
            RestartRankError::MetaCorrupt(e) => write!(f, "meta corrupt: {e}"),
        }
    }
}

/// BLCR restart of an assembled image on the node owning `res`: parse it
/// straight from the buffer-pool slices (memory-based restart, the
/// paper's future work — only parse and populate costs remain), or read
/// the staged file back from the local disk.
fn restart_assembled(
    ctx: &Ctx,
    res: &NodeResources,
    info: AssembledImage,
) -> Result<ProcessImage, blcrsim::StreamError> {
    let costs = calib::restart_costs();
    match info.slices {
        Some(slices) => res
            .blcr
            .restart(ctx, &mut blcrsim::MemSource::new(slices), &costs),
        None => {
            let store: Arc<dyn storesim::CkptStore> = Arc::new(res.fs.clone());
            let mut src = StoreSource::new(store, info.path);
            res.blcr.restart(ctx, &mut src, &costs)
        }
    }
}

fn restart_one_rank(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    rank: u32,
    target: NodeId,
) -> Result<(), RestartRankError> {
    let inner = &rt.inner;
    let info = cycle
        .images
        .lock()
        .get(&rank)
        .cloned()
        .ok_or(RestartRankError::ImageMissing)?;
    let expected = info.expected_checksum;
    let image = restart_assembled(ctx, inner.cluster.node(target), info)
        .map_err(|e| RestartRankError::ImageParse(e.to_string()))?;
    // Live cutover: the streamed bytes are the residual delta, and only
    // its (small) population cost was just paid — the pre-copied bulk was
    // populated into the accumulator during the overlapped rounds. Merge
    // and fall through to the same end-to-end checksum verification,
    // which now proves the *merged* image equals the source's final
    // state: the no-lost-dirty-segment invariant, checked per restart.
    let image = match cycle.live.as_ref().filter(|l| l.cut_over()) {
        Some(live) => match livemig::delta::decode(&image) {
            Ok(Some(d)) => {
                let mut acc = live
                    .accums
                    .lock()
                    .remove(&rank)
                    .ok_or_else(|| RestartRankError::DeltaApply("no accumulator".into()))?;
                acc.apply(&d)
                    .map_err(|e| RestartRankError::DeltaApply(e.to_string()))?;
                acc.into_image()
                    .ok_or_else(|| RestartRankError::DeltaApply("no base image".into()))?
            }
            // The source streamed a full image (it had no dirty-tracking
            // state); restart from it directly.
            Ok(None) => image,
            Err(e) => return Err(RestartRankError::DeltaApply(e.to_string())),
        },
        None => image,
    };
    if image.checksum() != expected {
        return Err(RestartRankError::ChecksumMismatch {
            got: image.checksum(),
            want: expected,
        });
    }
    let meta = unwrap_meta(&image).map_err(RestartRankError::MetaCorrupt)?;
    // NLA-side WAL append: the image verified, the rank is about to be
    // placed on the target (see the `RankImageReady` append for why this
    // appender surviving a coordinator crash matters).
    inner.journal.append(WalRecord::RankRestarted {
        cycle: cycle.id,
        rank,
    });
    rt.rank_apply(ctx, rank, RankEvent::Restart);
    inner.job.set_rank_node(rank, target);
    inner.job.cr(rank).restore_meta(meta);
    inner.job.purge_stale_rts_from(rank);
    rt.spawn_app(rank);
    rt.spawn_cr_thread(rank, Some(cycle.clone()));
    Ok(())
}

// ---------------------------------------------------------------------------
// C/R thread
// ---------------------------------------------------------------------------

fn cr_thread(ctx: &Ctx, rt: JobRuntime, rank: u32, rejoin: Option<Arc<MigCycle>>) {
    let inner = &rt.inner;
    let cr = inner.job.cr(rank);
    let node = inner.job.rank_node(rank);
    let ftb = FtbClient::connect(inner.cluster.ftb(), node, &format!("cr-r{rank}"));
    let sub = ftb.subscribe(&ctx.handle(), EventFilter::space(MPI_SPACE));
    if let Some(cycle) = rejoin {
        resume(ctx, &rt, &cr, &cycle.barrier, &cycle.resumed);
    }
    loop {
        let ev = sub.pop(ctx);
        match ev.name.as_str() {
            FTB_MIGRATE => {
                let Some(m) = ev.payload_as::<MigrateMsg>() else {
                    continue;
                };
                let m = *m;
                if m.epoch < rt.fencing_epoch() {
                    // Fenced: a deposed coordinator cannot suspend ranks.
                    continue;
                }
                let Some(cycle) = rt.mig_cycle(m.cycle) else {
                    continue;
                };
                if !cycle.enter(rank) {
                    // The cycle was aborted before this rank reacted;
                    // nothing was suspended, nothing to recover.
                    continue;
                }
                suspend_and_ack(ctx, &rt, &ftb, &cr, m.cycle);
                cycle.stall_done.arrive();
                if inner.job.rank_node(rank) == m.source {
                    // Phase 2: wait for the consistent global state, then
                    // stream my image through the buffer pool.
                    cycle.stall_done.wait(ctx);
                    let Some(pool) = cycle.wait_source_pool(ctx) else {
                        ctx.instant_with("ckpt", "source_pool_missing", || {
                            vec![("rank", rank.into()), ("cycle", m.cycle.into())]
                        });
                        continue;
                    };
                    let meta = cr.capture_meta();
                    // Keep the captured state around: if the cycle
                    // aborts after the app is killed, the rank is
                    // resurrected from exactly this state.
                    cycle.captured_meta.lock().insert(rank, meta.clone());
                    rt.rank_apply(ctx, rank, RankEvent::Capture);
                    let image = build_image(rank, &meta);
                    rt.kill_app(rank);
                    // Live cutover: the target already holds every
                    // pre-copied byte, so stream only the residual dirty
                    // segments. The sink still carries the *merged*
                    // image's checksum — the end-to-end verification in
                    // Phase 3 runs against the accumulator + residual
                    // merge, proving no dirty segment was lost.
                    let checksum = image.checksum();
                    let live = cycle.live.as_ref().filter(|l| l.cut_over());
                    // Unknown dirty state: stream everything.
                    let residual = live.and_then(|live| {
                        let snap = cr.take_dirty()?;
                        cr.disarm_dirty();
                        let round = live.rounds.load(Ordering::Relaxed);
                        Some(delta_image(rank, &meta, &snap, round))
                    });
                    let image = residual.unwrap_or(image);
                    let mut sink = pool.sink(ctx, rank, checksum);
                    let blcr = &inner.cluster.node(m.source).blcr;
                    if blcr.try_checkpoint(ctx, &image, &mut sink).is_err() {
                        // Incomplete stream: the Phase 2 deadline aborts
                        // the cycle and recovers this rank.
                        ctx.instant_with("ckpt", "source_dump_failed", || {
                            vec![("rank", rank.into()), ("cycle", m.cycle.into())]
                        });
                    }
                    // This process incarnation migrates away; its C/R
                    // thread ends with it.
                    return;
                } else {
                    cycle.restart_done.wait(ctx);
                    resume(ctx, &rt, &cr, &cycle.barrier, &cycle.resumed);
                }
            }
            FTB_CHECKPOINT => {
                let Some(c) = ev.payload_as::<CheckpointMsg>() else {
                    continue;
                };
                let c = *c;
                let Some(cycle) = rt.ckpt_cycle(c.cycle) else {
                    continue;
                };
                suspend_and_ack(ctx, &rt, &ftb, &cr, c.cycle);
                cycle.stall_done.arrive_and_wait(ctx);
                // Dump my image to the configured store.
                let mynode = inner.job.rank_node(rank);
                let store = rt.store_for(c.store, mynode);
                let meta = cr.capture_meta();
                let image = build_image(rank, &meta);
                cycle.checksums.lock().insert(rank, image.checksum());
                let blcr = &inner.cluster.node(mynode).blcr;
                let rec = inner.spec.recovery;
                let path = format!("ckpt.{}.{}", c.cycle, rank);
                // Bounded-retry dump: a failed write restarts the file
                // from scratch; if the budget runs out the job still
                // resumes (without a usable checkpoint for this rank).
                let mut tries = 0u32;
                let written = loop {
                    let mut sink = blcrsim::StoreSink::new(store.clone(), path.clone(), true);
                    let e = match blcr.try_checkpoint(ctx, &image, &mut sink) {
                        Ok(w) => break w,
                        Err(e) => e,
                    };
                    tries += 1;
                    ctx.instant_with("ckpt", "dump_retry", || {
                        vec![
                            ("rank", rank.into()),
                            ("try", tries.into()),
                            ("error", e.to_string().into()),
                        ]
                    });
                    if tries >= rec.max_attempts {
                        ctx.instant_with("ckpt", "dump_failed", || vec![("rank", rank.into())]);
                        break 0;
                    }
                    ctx.sleep(rec.backoff_delay(tries + 1));
                };
                cycle.bytes.fetch_add(written, Ordering::Relaxed);
                resume(ctx, &rt, &cr, &cycle.ckpt_done, &cycle.resumed);
            }
            _ => {}
        }
    }
}

/// Phase 1 on a rank (migration or checkpoint): suspend and drain its
/// communication, then acknowledge to the Job Manager.
fn suspend_and_ack(ctx: &Ctx, rt: &JobRuntime, ftb: &FtbClient, cr: &mpisim::RankCr, cycle: u64) {
    let rank = cr.rank();
    rt.rank_apply(ctx, rank, RankEvent::Suspend);
    cr.suspend_and_drain(ctx);
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_SUSPEND_ACK,
            Severity::Info,
            rt.inner.job.rank_node(rank),
            SuspendAckMsg { cycle, rank },
        ),
    );
}

/// Resume a rank (migration Phase 4, or the checkpoint's resume): the
/// `barrier`, endpoint rebuild, reopen, and arrival at `resumed`.
fn resume(
    ctx: &Ctx,
    rt: &JobRuntime,
    cr: &mpisim::RankCr,
    barrier: &Countdown,
    resumed: &Countdown,
) {
    barrier.arrive_and_wait(ctx);
    cr.rebuild_endpoints(ctx, true);
    ctx.sleep(rt.resume_overhead());
    cr.reopen();
    rt.rank_apply(ctx, cr.rank(), RankEvent::Resume);
    resumed.arrive();
}
