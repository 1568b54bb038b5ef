//! Phase-decomposed measurement reports matching the paper's figures.

use ibfabric::NodeId;
use std::fmt;
use std::time::Duration;

/// How a migration trigger ultimately ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationOutcome {
    /// Completed on the first attempt.
    Migrated,
    /// Completed, but only after at least one aborted attempt (phase
    /// timeout or spare death) was retried on another spare.
    MigratedAfterRetry,
    /// Could not migrate (no spare left, or every attempt failed); the
    /// framework degraded to a coordinated checkpoint to storage so the
    /// job remains recoverable.
    FellBackToCr,
    /// No recovery path remained. Defensive terminal state: the current
    /// degradation ladder always ends in a local-disk checkpoint, so this
    /// is never expected in practice.
    Lost,
    /// The Job Manager died mid-cycle and the standby coordinator carried
    /// the in-flight cycle to completion from the WAL journal.
    ResumedByStandby,
    /// The Job Manager died mid-cycle before the commit point; the
    /// standby coordinator rolled the cycle back to the source.
    RolledBackByStandby,
}

impl MigrationOutcome {
    /// Stable lower-snake name (used in traces).
    pub fn name(&self) -> &'static str {
        match self {
            MigrationOutcome::Migrated => "migrated",
            MigrationOutcome::MigratedAfterRetry => "migrated_after_retry",
            MigrationOutcome::FellBackToCr => "fell_back_to_cr",
            MigrationOutcome::Lost => "lost",
            MigrationOutcome::ResumedByStandby => "resumed_by_standby",
            MigrationOutcome::RolledBackByStandby => "rolled_back_by_standby",
        }
    }
}

impl fmt::Display for MigrationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-outcome migration counters (the typed replacement for the
/// removed single failed-trigger count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// First-attempt successes.
    pub migrated: u64,
    /// Successes that needed at least one retry.
    pub migrated_after_retry: u64,
    /// Triggers degraded to the CR baseline.
    pub fell_back_to_cr: u64,
    /// Triggers with no recovery path (defensive; expected 0).
    pub lost: u64,
    /// Cycles completed by the standby after a coordinator crash.
    pub resumed_by_standby: u64,
    /// Cycles rolled back by the standby after a coordinator crash.
    pub rolled_back_by_standby: u64,
}

impl OutcomeCounts {
    /// Total triggers accounted for.
    pub fn total(&self) -> u64 {
        self.migrated
            + self.migrated_after_retry
            + self.fell_back_to_cr
            + self.lost
            + self.resumed_by_standby
            + self.rolled_back_by_standby
    }

    /// Bump the counter for `outcome`.
    pub(crate) fn record(&mut self, outcome: MigrationOutcome) {
        match outcome {
            MigrationOutcome::Migrated => self.migrated += 1,
            MigrationOutcome::MigratedAfterRetry => self.migrated_after_retry += 1,
            MigrationOutcome::FellBackToCr => self.fell_back_to_cr += 1,
            MigrationOutcome::Lost => self.lost += 1,
            MigrationOutcome::ResumedByStandby => self.resumed_by_standby += 1,
            MigrationOutcome::RolledBackByStandby => self.rolled_back_by_standby += 1,
        }
    }
}

/// One completed migration cycle, decomposed as in Figures 4/6/7.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Cycle sequence number.
    pub cycle: u64,
    /// Health-deteriorating node the processes left.
    pub source: NodeId,
    /// Spare node they moved to.
    pub target: NodeId,
    /// Phase 0 — iterative pre-copy wall time (live migration only; zero
    /// for stop-and-copy). The job keeps running for all of it, so it is
    /// deliberately *excluded* from [`MigrationReport::total`]: pre-copy
    /// trades overlapped transfer time for barrier-held downtime.
    pub precopy: Duration,
    /// Completed pre-copy rounds (0 for stop-and-copy cycles).
    pub precopy_rounds: u32,
    /// Phase 1 — Job Stall: coordination, drain, endpoint teardown.
    pub stall: Duration,
    /// Phase 2 — Job Migration: aggregated checkpoint + RDMA transfer.
    pub migrate: Duration,
    /// Phase 3 — Restart on the spare node (file-based BLCR restart).
    pub restart: Duration,
    /// Phase 4 — Resume: migration barrier, endpoint rebuild, reopen.
    pub resume: Duration,
    /// Processes moved.
    pub ranks_moved: usize,
    /// Checkpoint stream bytes moved over RDMA (Table I).
    pub bytes_moved: u64,
    /// How the trigger ended (phase durations describe the successful
    /// attempt, or are zero for a CR fallback).
    pub outcome: MigrationOutcome,
    /// Attempts consumed, counting the successful (or final) one.
    pub attempts: u32,
}

impl MigrationReport {
    /// A report with every phase duration zero and nothing moved: the
    /// base a finished trigger's report is built on, and the whole report
    /// of one that ended without the coordinator's phase clocks (CR
    /// fallback, standby recovery).
    pub(crate) fn unclocked(
        cycle: u64,
        source: NodeId,
        target: NodeId,
        outcome: MigrationOutcome,
        attempts: u32,
    ) -> MigrationReport {
        MigrationReport {
            cycle,
            source,
            target,
            precopy: Duration::ZERO,
            precopy_rounds: 0,
            stall: Duration::ZERO,
            migrate: Duration::ZERO,
            restart: Duration::ZERO,
            resume: Duration::ZERO,
            ranks_moved: 0,
            bytes_moved: 0,
            outcome,
            attempts,
        }
    }

    /// Barrier-held duration: the four phases the job spends suspended.
    /// Pre-copy rounds run while the application computes and are not
    /// included — compare [`MigrationReport::wall`].
    pub fn total(&self) -> Duration {
        self.stall + self.migrate + self.restart + self.resume
    }

    /// Barrier-held duration under its live-migration name: what the
    /// application actually loses to the cycle.
    pub fn downtime(&self) -> Duration {
        self.total()
    }

    /// Trigger-to-resume wall time including the overlapped pre-copy
    /// rounds.
    pub fn wall(&self) -> Duration {
        self.precopy + self.total()
    }
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.precopy_rounds > 0 {
            write!(
                f,
                "precopy {:>8.1?} ({} rounds, overlapped)  ",
                self.precopy, self.precopy_rounds
            )?;
        }
        write!(
            f,
            "migration #{} {}→{}: stall {:>8.1?}  migrate {:>8.1?}  restart {:>8.1?}  resume {:>8.1?}  total {:>8.1?}  ({} ranks, {:.1} MB, {} in {} attempt{})",
            self.cycle,
            self.source,
            self.target,
            self.stall,
            self.migrate,
            self.restart,
            self.resume,
            self.total(),
            self.ranks_moved,
            self.bytes_moved as f64 / 1e6,
            self.outcome,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
        )
    }
}

/// Where a coordinated checkpoint was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrStoreKind {
    /// Each node's local ext3 filesystem.
    LocalExt3,
    /// The shared PVFS deployment.
    Pvfs,
}

impl fmt::Display for CrStoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrStoreKind::LocalExt3 => write!(f, "ext3"),
            CrStoreKind::Pvfs => write!(f, "PVFS"),
        }
    }
}

/// One coordinated Checkpoint/Restart cycle (the Figure 7 baseline).
#[derive(Debug, Clone)]
pub struct CrReport {
    /// Checkpoint cycle number.
    pub cycle: u64,
    /// Storage target.
    pub store: CrStoreKind,
    /// Job Stall (same machinery as migration Phase 1).
    pub stall: Duration,
    /// Checkpoint: every process dumps its image to storage.
    pub checkpoint: Duration,
    /// Resume: endpoint rebuild and reopen.
    pub resume: Duration,
    /// Restart from the files (populated by a later restart run; `None`
    /// until then — the paper notes this phase is optional for CR).
    pub restart: Option<Duration>,
    /// Bytes dumped (Table I).
    pub bytes_written: u64,
}

impl CrReport {
    /// Checkpoint-only duration (stall + dump + resume).
    pub fn checkpoint_cycle(&self) -> Duration {
        self.stall + self.checkpoint + self.resume
    }

    /// Full failure-handling cycle, if a restart was measured.
    pub fn total_with_restart(&self) -> Option<Duration> {
        self.restart.map(|r| self.checkpoint_cycle() + r)
    }
}

impl fmt::Display for CrReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CR({}) #{}: stall {:>8.1?}  checkpoint {:>8.1?}  resume {:>8.1?}  restart {}  ({:.1} MB)",
            self.store,
            self.cycle,
            self.stall,
            self.checkpoint,
            self.resume,
            match self.restart {
                Some(r) => format!("{r:>8.1?}"),
                None => "   (not run)".to_string(),
            },
            self.bytes_written as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = MigrationReport {
            cycle: 1,
            source: NodeId(1),
            target: NodeId(9),
            precopy: Duration::from_millis(2400),
            precopy_rounds: 3,
            stall: Duration::from_millis(30),
            migrate: Duration::from_millis(450),
            restart: Duration::from_millis(4500),
            resume: Duration::from_millis(1100),
            ranks_moved: 8,
            bytes_moved: 170_400_000,
            outcome: MigrationOutcome::Migrated,
            attempts: 1,
        };
        assert_eq!(m.total(), Duration::from_millis(6080));
        assert_eq!(m.downtime(), m.total(), "precopy never counts as downtime");
        assert_eq!(m.wall(), Duration::from_millis(8480));
        let c = CrReport {
            cycle: 1,
            store: CrStoreKind::LocalExt3,
            stall: Duration::from_millis(30),
            checkpoint: Duration::from_millis(6400),
            resume: Duration::from_millis(1100),
            restart: Some(Duration::from_millis(5300)),
            bytes_written: 1_363_200_000,
        };
        assert_eq!(c.checkpoint_cycle(), Duration::from_millis(7530));
        assert_eq!(c.total_with_restart(), Some(Duration::from_millis(12830)));
        // Display renders without panicking
        let _ = format!("{m}\n{c}");
    }

    #[test]
    fn outcome_counts_accumulate() {
        let mut o = OutcomeCounts::default();
        o.record(MigrationOutcome::Migrated);
        o.record(MigrationOutcome::MigratedAfterRetry);
        o.record(MigrationOutcome::MigratedAfterRetry);
        o.record(MigrationOutcome::FellBackToCr);
        assert_eq!(o.migrated, 1);
        assert_eq!(o.migrated_after_retry, 2);
        assert_eq!(o.fell_back_to_cr, 1);
        assert_eq!(o.lost, 0);
        assert_eq!(o.total(), 4);
        assert_eq!(
            MigrationOutcome::FellBackToCr.to_string(),
            "fell_back_to_cr"
        );
    }
}
