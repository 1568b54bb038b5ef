//! The coordinated Checkpoint/Restart baseline (paper §IV-C).
//!
//! MVAPICH2's classic CR framework: on `FTB_CHECKPOINT` every rank
//! suspends/drains (same Phase 1 machinery as migration), dumps its whole
//! image through BLCR to storage — each node's local ext3 or the shared
//! PVFS deployment — and resumes. Restart (the part migration renders
//! optional) re-loads every image from storage after a simulated failure,
//! rolling the job back to the checkpoint's consistent cut.

use crate::calib;
use crate::msgs::*;
use crate::report::{CrReport, CrStoreKind};
use crate::runtime::{unwrap_meta, wait_suspend_acks, CkptCycle, JobRuntime};
use blcrsim::StoreSource;
use ftb::{FtbClient, FtbEvent, Severity};
use parking_lot::Mutex;
use simkit::{Countdown, Ctx, Queue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// JM-side orchestration of one coordinated checkpoint.
pub(crate) fn run_checkpoint(
    ctx: &Ctx,
    rt: &JobRuntime,
    ftb: &FtbClient,
    sub: &Queue<FtbEvent>,
    store: CrStoreKind,
) {
    let inner = &rt.inner;
    if store == CrStoreKind::Pvfs && inner.cluster.pvfs().is_none() {
        panic!("checkpoint to PVFS requested but the cluster has no PVFS deployment");
    }
    let id = rt.next_cycle_id();
    let handle = inner.cluster.handle();
    let n = inner.spec.nranks as u64;
    let cycle = Arc::new(CkptCycle {
        id,
        store,
        stall_done: Countdown::new(handle, "ckpt-stall", n),
        cut: Mutex::new(None),
        ckpt_done: Countdown::new(handle, "ckpt-done", n),
        resumed: Countdown::new(handle, "ckpt-resumed", n),
        bytes: AtomicU64::new(0),
        checksums: Mutex::new(HashMap::new()),
    });
    inner.ckpt_cycles.lock().insert(id, cycle.clone());

    let phase_args = move || -> simkit::Args { vec![("cycle", id.into())] };
    let t0 = ctx.now();
    let ph = ctx.span_with("phase", "cr_stall", phase_args);
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_CHECKPOINT,
            Severity::Warning,
            inner.cluster.login(),
            CheckpointMsg { cycle: id, store },
        ),
    );
    // Phase: Job Stall.
    wait_suspend_acks(ctx, sub, id, inner.spec.nranks, None);
    cycle.stall_done.wait(ctx);
    ph.end();
    let t1 = ctx.now();
    *cycle.cut.lock() = Some(t1);
    // Phase: Checkpoint.
    let ph = ctx.span_with("phase", "cr_checkpoint", phase_args);
    cycle.ckpt_done.wait(ctx);
    ph.end();
    let t2 = ctx.now();
    // Phase: Resume.
    let ph = ctx.span_with("phase", "cr_resume", phase_args);
    cycle.resumed.wait(ctx);
    ph.end();
    let t3 = ctx.now();

    inner.cr_reports.lock().push(CrReport {
        cycle: id,
        store,
        stall: t1 - t0,
        checkpoint: t2 - t1,
        resume: t3 - t2,
        restart: None,
        bytes_written: cycle.bytes.load(Ordering::Relaxed),
    });
}

/// JM-side restart from checkpoint `cycle_id`: simulates the failure path
/// (all processes die), then reloads every rank from its checkpoint file
/// and resumes the job from the rolled-back state. Records the measured
/// restart duration into the matching [`CrReport`].
pub(crate) fn run_restart(ctx: &Ctx, rt: &JobRuntime, cycle_id: u64) {
    let inner = &rt.inner;
    let Some(cycle) = rt.ckpt_cycle(cycle_id) else {
        ctx.instant_with("log", "cr_restart_unknown_cycle", || {
            vec![("cycle", cycle_id.into())]
        });
        return;
    };
    let Some(cut) = *cycle.cut.lock() else {
        // The checkpoint cycle never reached its consistent cut; there is
        // nothing to roll back to.
        ctx.instant_with("log", "cr_restart_no_cut", || {
            vec![("cycle", cycle_id.into())]
        });
        return;
    };
    let nranks = inner.spec.nranks;

    // The failure: every process dies; connection state evaporates.
    for rank in 0..nranks {
        rt.kill_app(rank);
        let cr = inner.job.cr(rank);
        cr.close_gate();
        cr.teardown(ctx);
    }
    // A restarted job starts cold: no page cache survives resubmission.
    inner.cluster.drop_all_caches();
    // Roll the matching layer back to the checkpoint's consistent cut.
    inner.job.purge_rollback_all(cut);

    let t0 = ctx.now();
    let ph = ctx.span_with("phase", "cr_restart", move || {
        vec![("cycle", cycle_id.into())]
    });
    let done = Countdown::new(&ctx.handle(), "cr-restart-workers", nranks as u64);
    for rank in 0..nranks {
        let rt2 = rt.clone();
        let cycle2 = cycle.clone();
        let done2 = done.clone();
        ctx.spawn_daemon(&format!("cr-restart-r{rank}"), move |ctx| {
            let inner = &rt2.inner;
            let bad = |why: String| {
                ctx.instant_with("log", "cr_restart_rank_failed", || {
                    vec![("rank", rank.into()), ("error", why.clone().into())]
                });
            };
            let node = inner.job.rank_node(rank);
            let store = rt2.store_for(cycle2.store, node);
            let mut src = StoreSource::new(store, format!("ckpt.{}.{}", cycle2.id, rank));
            let image =
                match inner
                    .cluster
                    .node(node)
                    .blcr
                    .restart(ctx, &mut src, &calib::restart_costs())
                {
                    Ok(img) => img,
                    Err(e) => {
                        bad(format!("checkpoint image parse: {e}"));
                        done2.arrive();
                        return;
                    }
                };
            let expected = cycle2.checksums.lock().get(&rank).copied();
            if expected != Some(image.checksum()) {
                bad(format!(
                    "checkpoint integrity violated: got {:#x}, want {expected:?}",
                    image.checksum()
                ));
                done2.arrive();
                return;
            }
            let meta = match unwrap_meta(&image) {
                Ok(m) => m,
                Err(e) => {
                    bad(e.to_string());
                    done2.arrive();
                    return;
                }
            };
            inner.job.cr(rank).restore_meta(meta);
            rt2.spawn_app(rank);
            done2.arrive();
        });
    }
    done.wait(ctx);
    ph.end();
    let restart = ctx.now() - t0;

    // Bring communication back (endpoint rebuild is accounted in the
    // checkpoint cycle's Resume phase; avoid double counting here).
    for rank in 0..nranks {
        let cr = inner.job.cr(rank);
        cr.rebuild_endpoints(ctx, false);
        cr.reopen();
    }

    let mut reports = inner.cr_reports.lock();
    if let Some(rep) = reports.iter_mut().find(|r| r.cycle == cycle_id) {
        rep.restart = Some(restart);
    }
}
