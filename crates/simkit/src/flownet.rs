//! Multi-resource fluid flows: transfers that traverse several bandwidth
//! resources at once (e.g. sender tx port *and* receiver rx port).
//!
//! Each link splits its aggregate capacity equally among the flows crossing
//! it; a flow's instantaneous rate is the **minimum** of its per-link
//! shares. This is the classic conservative approximation of max-min fair
//! sharing (slack from non-bottleneck links is not redistributed), accurate
//! to first order for the traffic patterns simulated here and — importantly
//! — monotone and cheap to recompute on every arrival/departure.
//!
//! [`FlowNet`] complements [`crate::Link`]: use `Link` for a standalone
//! resource (a disk, a memory bus), `FlowNet` when flows share *paths*.
//!
//! # One timer per net
//!
//! Every recompute evaluates every flow's rate and completion instant, but
//! the net keeps a kernel wake only for the owner of the *earliest*
//! completion (ties to the lowest flow id). Nothing else can change a rate
//! before that wake fires or another recompute replaces it, so the other
//! owners need no timer. The one exception is an owner that already holds
//! a wake the net did not push (a kill, a spurious wake): it is re-timed to
//! its completion on every recompute, exactly as when every flow was
//! re-timed, so same-instant kills keep their modelled outcome.

use crate::kernel::{Kernel, ProcId, SimHandle};
use crate::link::Sharing;
use crate::process::Ctx;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a link inside a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(u32);

struct NetLink {
    name: String,
    cap: f64,
    sharing: Sharing,
    active: u32,
    bytes_completed: u64,
}

struct NetFlow {
    pid: u32,
    links: Vec<LinkId>,
    remaining: f64,
    bytes: u64,
    rate: f64,
    /// Completion instant at the current rate, as of the last recompute.
    due: SimTime,
}

struct NetInner {
    links: Vec<NetLink>,
    /// Cached per-link equal-split share, maintained incrementally: a
    /// link's share only changes when its `active` count does, so it is
    /// refreshed at flow add/remove instead of rebuilt per retime. The
    /// refresh uses the same expression as the full rebuild, so cached
    /// values are bit-identical to recomputed ones.
    shares: Vec<f64>,
    // BTreeMap, not HashMap: recompute_and_retime iterates this map and
    // schedules wakes in iteration order, which must be stable for
    // same-seed runs to replay identically (same-timestamp tie-breaks).
    flows: BTreeMap<u64, NetFlow>,
    next_flow: u64,
    last_update: SimTime,
    /// The earliest completion's wake as the net last pushed it:
    /// `(owner, seq)`, cancelled at the next recompute.
    armed: Option<(ProcId, u64)>,
}

impl NetInner {
    fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        for f in self.flows.values_mut() {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.last_update = now;
    }

    /// Refresh the cached share of one link after its `active` changed.
    fn refresh_share(&mut self, l: LinkId) {
        let link = &self.links[l.0 as usize];
        self.shares[l.0 as usize] = if link.active == 0 {
            f64::INFINITY
        } else {
            link.sharing_aggregate() / link.active as f64
        };
    }

    /// Recompute every flow's rate and completion instant from the cached
    /// link shares, then replace the net's wake with one for the earliest
    /// completion (ties to the lowest flow id). An owner holding a wake the
    /// net did not push is re-timed to its completion too. Pushes go in
    /// flow-id order, so same-nanosecond completions keep a stable
    /// tie-break.
    fn recompute_and_retime(&mut self, kernel: &Kernel, now: SimTime) {
        let shares = &self.shares;
        kernel.with_wake_batch(|batch| {
            batch.counts().flow_recomputes += 1;
            if let Some((pid, seq)) = self.armed.take() {
                batch.cancel_wake(pid, seq);
            }
            let mut earliest: Option<(SimTime, u64)> = None;
            for (&id, f) in self.flows.iter_mut() {
                let rate = f
                    .links
                    .iter()
                    .map(|l| shares[l.0 as usize])
                    .fold(f64::INFINITY, f64::min);
                debug_assert!(rate.is_finite() && rate > 0.0);
                let secs = (f.remaining / rate).min(1e18); // clamp: "effectively never"
                f.rate = rate;
                f.due = now.saturating_add(Duration::from_secs_f64(secs));
                if earliest.is_none_or(|(due, _)| f.due < due) {
                    earliest = Some((f.due, id));
                }
                batch.counts().flow_retimes += 1;
            }
            for (&id, f) in &self.flows {
                let pid = ProcId(f.pid);
                let first = earliest.is_some_and(|(_, e)| e == id);
                if first || batch.pending_seq(pid).is_some() {
                    let seq = batch.push_wake(pid, f.due);
                    if first {
                        self.armed = seq.map(|s| (pid, s));
                    }
                }
            }
        });
    }
}

impl NetLink {
    fn sharing_aggregate(&self) -> f64 {
        match self.sharing {
            Sharing::Fair => self.cap,
            Sharing::Degraded { alpha } => {
                self.cap / (1.0 + alpha * (self.active.saturating_sub(1)) as f64)
            }
        }
    }
}

/// A set of bandwidth links over which multi-link fluid flows run.
#[derive(Clone)]
pub struct FlowNet {
    kernel: Arc<Kernel>,
    inner: Arc<Mutex<NetInner>>,
}

impl FlowNet {
    /// Create an empty flow network.
    pub fn new(handle: &SimHandle) -> Self {
        FlowNet {
            kernel: Arc::clone(&handle.kernel),
            inner: Arc::new(Mutex::new(NetInner {
                links: Vec::new(),
                shares: Vec::new(),
                flows: BTreeMap::new(),
                next_flow: 0,
                last_update: handle.now(),
                armed: None,
            })),
        }
    }

    /// Add a link with `capacity_bps` bytes/second.
    pub fn add_link(&self, name: &str, capacity_bps: f64, sharing: Sharing) -> LinkId {
        assert!(capacity_bps > 0.0 && capacity_bps.is_finite());
        let mut inner = self.inner.lock();
        let id = LinkId(inner.links.len() as u32);
        inner.links.push(NetLink {
            name: name.to_string(),
            cap: capacity_bps,
            sharing,
            active: 0,
            bytes_completed: 0,
        });
        inner.shares.push(f64::INFINITY);
        id
    }

    /// Move `bytes` across all of `links` simultaneously, blocking for the
    /// fluid-model duration. The flow's rate at any instant is the minimum
    /// of its equal-split shares on each link.
    pub fn transfer(&self, ctx: &Ctx, links: &[LinkId], bytes: u64) {
        ctx.check_killed();
        if bytes == 0 || links.is_empty() {
            return;
        }
        let flow_id = {
            let mut inner = self.inner.lock();
            let now = ctx.now();
            inner.advance_to(now);
            let id = inner.next_flow;
            inner.next_flow += 1;
            for l in links {
                inner.links[l.0 as usize].active += 1;
                inner.refresh_share(*l);
            }
            inner.flows.insert(
                id,
                NetFlow {
                    pid: ctx.pid().0,
                    links: links.to_vec(),
                    remaining: bytes as f64,
                    bytes,
                    rate: 0.0,
                    due: now,
                },
            );
            inner.recompute_and_retime(&self.kernel, now);
            id
        };
        let mut guard = NetFlowGuard {
            net: self,
            flow_id,
            armed: true,
        };
        const DONE_EPS: f64 = 2.0;
        loop {
            ctx.block();
            let mut inner = self.inner.lock();
            let now = ctx.now();
            inner.advance_to(now);
            let done = inner
                .flows
                .get(&flow_id)
                .map(|f| f.remaining <= DONE_EPS)
                .expect("flow vanished while owner blocked");
            if done {
                Self::finish_flow(&mut inner, flow_id, true);
                inner.recompute_and_retime(&self.kernel, now);
                guard.armed = false;
                return;
            }
            inner.recompute_and_retime(&self.kernel, now);
        }
    }

    fn finish_flow(inner: &mut NetInner, flow_id: u64, completed: bool) {
        if let Some(f) = inner.flows.remove(&flow_id) {
            for l in &f.links {
                let link = &mut inner.links[l.0 as usize];
                link.active -= 1;
                if completed {
                    link.bytes_completed += f.bytes;
                }
            }
            for l in &f.links {
                inner.refresh_share(*l);
            }
        }
    }

    /// Number of flows currently crossing `link`.
    pub fn active_on(&self, link: LinkId) -> usize {
        self.inner.lock().links[link.0 as usize].active as usize
    }

    /// Total completed bytes carried over `link`.
    pub fn bytes_completed_on(&self, link: LinkId) -> u64 {
        self.inner.lock().links[link.0 as usize].bytes_completed
    }

    /// The link's diagnostic name.
    pub fn link_name(&self, link: LinkId) -> String {
        self.inner.lock().links[link.0 as usize].name.clone()
    }
}

struct NetFlowGuard<'a> {
    net: &'a FlowNet,
    flow_id: u64,
    armed: bool,
}

impl Drop for NetFlowGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.net.inner.lock();
        let now = self.net.kernel.now();
        inner.advance_to(now);
        FlowNet::finish_flow(&mut inner, self.flow_id, false);
        inner.recompute_and_retime(&self.net.kernel, now);
    }
}
