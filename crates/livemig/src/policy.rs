//! Convergence control: when to stop iterating and cut over (short
//! stop-and-copy of the residual), and when to give up and fall back to a
//! classic full stop-and-copy.

use std::time::Duration;

/// What one pre-copy round did, as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// Round number (0 = full-image round).
    pub round: u32,
    /// Stream bytes moved this round.
    pub bytes: u64,
    /// Dirty pages moved this round (0 for round 0).
    pub pages: u64,
    /// Wall time the round took.
    pub duration: Duration,
    /// Bytes dirtied *during* this round — the size of the next round
    /// (or of the cutover residual).
    pub dirty_bytes_pending: u64,
}

/// The controller's verdict after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run another delta round.
    Continue,
    /// Converged: suspend the job and stop-and-copy only the residual.
    CutOver,
    /// Not converging: abandon pre-copy state, classic full stop-and-copy.
    Fallback,
}

/// Cut over as soon as the projected residual stop-and-copy fits a
/// downtime budget; fall back if the round budget runs out while the
/// projection is still more than double the budget.
#[derive(Debug, Clone, Copy)]
pub struct DowntimeBudget {
    /// Barrier-held time the residual round may cost.
    pub budget: Duration,
    /// Observed/estimated aggregate lane bandwidth, bytes/second.
    pub lane_bw: f64,
    /// Fixed per-cutover cost (suspend + resume floor) added on top of
    /// the transfer projection.
    pub fixed: Duration,
    /// Round budget before the verdict is forced either way.
    pub max_rounds: u32,
}

impl DowntimeBudget {
    /// Projected barrier-held cost of cutting over now.
    pub fn projected_stall(&self, pending: u64) -> Duration {
        self.fixed + Duration::from_secs_f64(pending as f64 / self.lane_bw.max(1.0))
    }

    /// Verdict for the round just finished.
    pub fn decide(&self, r: &RoundReport) -> Decision {
        let projected = self.projected_stall(r.dirty_bytes_pending);
        if projected <= self.budget {
            Decision::CutOver
        } else if r.round + 1 >= self.max_rounds {
            if projected <= self.budget * 2 {
                Decision::CutOver
            } else {
                Decision::Fallback
            }
        } else {
            Decision::Continue
        }
    }
}

/// Live-migration tunables, embeddable in plain-old-data configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Round budget (including round 0).
    pub max_rounds: u32,
    /// Dirty-tracking page size, bytes.
    pub page: u64,
    /// Barrier-held time the residual round may cost, ms.
    pub downtime_budget_ms: u32,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            max_rounds: 5,
            page: 64 << 10,
            downtime_budget_ms: 400,
        }
    }
}

impl LiveConfig {
    /// The convergence controller for an estimated aggregate lane
    /// bandwidth and fixed cutover floor.
    pub fn controller(&self, lane_bw: f64, fixed: Duration) -> DowntimeBudget {
        DowntimeBudget {
            budget: Duration::from_millis(self.downtime_budget_ms as u64),
            lane_bw,
            fixed,
            max_rounds: self.max_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(round: u32, pending: u64, secs: f64) -> RoundReport {
        RoundReport {
            round,
            bytes: 1000,
            pages: 10,
            duration: Duration::from_secs_f64(secs),
            dirty_bytes_pending: pending,
        }
    }

    #[test]
    fn downtime_budget_projects_residual_stall() {
        let p = DowntimeBudget {
            budget: Duration::from_millis(100),
            lane_bw: 1_000_000.0,
            fixed: Duration::from_millis(20),
            max_rounds: 3,
        };
        // 1 MB residual → 1.02 s projected ≫ budget
        assert_eq!(p.decide(&report(0, 1_000_000, 0.5)), Decision::Continue);
        // 50 kB residual → 70 ms ≤ budget
        assert_eq!(p.decide(&report(1, 50_000, 0.1)), Decision::CutOver);
        // cap reached with projection > 2× budget → fallback
        assert_eq!(p.decide(&report(2, 10_000_000, 0.1)), Decision::Fallback);
        // cap reached but within 2× budget → cut over anyway
        assert_eq!(p.decide(&report(2, 150_000, 0.1)), Decision::CutOver);
    }
}
