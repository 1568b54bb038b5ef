//! FTB agents: one daemon per node, connected in a self-healing tree.

use crate::event::{EventFilter, FtbEvent};
use crate::FTB_AGENT_PORT;
use ibfabric::{Net, NetError, NodeId};
use parking_lot::Mutex;
use protoverify::{link_next, LinkEvent, LinkState};
use simkit::{Ctx, ProcHandle, Queue, SimHandle};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Direction an event arrived from (suppresses echo on forwarding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    LocalClient,
    Parent,
    Child(NodeId),
}

/// Wire messages between agents (and from local clients to their agent).
pub(crate) enum AgentMsg {
    Publish { event: FtbEvent, via: Via },
    Attach { child: NodeId },
    AttachAck { grandparent: Option<NodeId> },
    Ping { from: NodeId },
}

pub(crate) struct AgentState {
    pub node: NodeId,
    pub parent: Mutex<Option<NodeId>>,
    pub grandparent: Mutex<Option<NodeId>>,
    /// Uplink state machine (protoverify's `LINK_TABLE` is the single
    /// source of truth for the self-healing policy).
    pub link: Mutex<LinkState>,
    /// Sorted: forward-down order is deterministic by construction.
    pub children: Mutex<BTreeSet<NodeId>>,
    /// Local subscriptions, in subscription order. Each lives as long as
    /// some handle to its queue outside this list does: `subscribe` and
    /// `deliver_local` prune the rest.
    pub subs: Mutex<Vec<(EventFilter, Queue<FtbEvent>)>>,
}

impl AgentState {
    /// Register a subscription, first dropping those nobody can pop.
    pub(crate) fn subscribe(&self, filter: EventFilter, queue: Queue<FtbEvent>) {
        let mut subs = self.subs.lock();
        subs.retain(|(_, q)| q.is_shared());
        subs.push((filter, queue));
    }
}

/// Backplane tunables.
#[derive(Debug, Clone)]
pub struct FtbConfig {
    /// Parent heartbeat period (drives failure detection latency).
    pub heartbeat: Duration,
    /// Forward-up retry budget: how many times an agent re-sends an event
    /// toward (a possibly re-attached) parent after the first send fails.
    /// When the budget is exhausted the event is dropped and an
    /// `ftb/event_dropped` trace instant is emitted.
    pub forward_retries: u32,
    /// Pause between forward-up retry attempts (0 = immediate).
    pub forward_retry_backoff: Duration,
}

impl Default for FtbConfig {
    fn default() -> Self {
        FtbConfig {
            heartbeat: Duration::from_millis(500),
            forward_retries: 1,
            forward_retry_backoff: Duration::ZERO,
        }
    }
}

struct AgentHandles {
    state: Arc<AgentState>,
    procs: Vec<ProcHandle>,
}

/// The deployed backplane: spawns agents and hands out client handles.
#[derive(Clone)]
pub struct FtbBackplane {
    handle: SimHandle,
    net: Net,
    cfg: Arc<FtbConfig>,
    agents: Arc<Mutex<HashMap<NodeId, AgentHandles>>>,
}

impl FtbBackplane {
    /// Create a backplane over `net` (normally the GigE maintenance
    /// network).
    pub fn new(handle: &SimHandle, net: Net, cfg: FtbConfig) -> Self {
        FtbBackplane {
            handle: handle.clone(),
            net,
            cfg: Arc::new(cfg),
            agents: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The transport network.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Deploy an agent on `node`, attached under `parent` (None = tree
    /// root). Idempotent per node.
    pub fn add_agent(&self, node: NodeId, parent: Option<NodeId>) {
        let mut agents = self.agents.lock();
        if agents.contains_key(&node) {
            return;
        }
        self.net.add_node(node);
        // Static deployment: the parent learns of this child immediately,
        // so events published before the first Attach round-trip are not
        // lost downward. The Attach exchange still runs (and is what
        // re-parenting relies on after failures).
        if let Some(p) = parent {
            if let Some(pa) = agents.get(&p) {
                pa.state.children.lock().insert(node);
            }
        }
        let state = Arc::new(AgentState {
            node,
            parent: Mutex::new(parent),
            grandparent: Mutex::new(None),
            link: Mutex::new(if parent.is_some() {
                LinkState::Attached
            } else {
                LinkState::Root
            }),
            children: Mutex::new(BTreeSet::new()),
            subs: Mutex::new(Vec::new()),
        });
        let inbox = self.net.bind(node, FTB_AGENT_PORT);
        let loop_state = state.clone();
        let loop_net = self.net.clone();
        let loop_cfg = self.cfg.clone();
        let main = self
            .handle
            .spawn_daemon(&format!("ftb-agent@{node}"), move |ctx| {
                agent_main(ctx, loop_state, loop_net, loop_cfg, inbox)
            });
        let hb_state = state.clone();
        let hb_net = self.net.clone();
        let hb = self.cfg.heartbeat;
        let beat = self
            .handle
            .spawn_daemon(&format!("ftb-heartbeat@{node}"), move |ctx| {
                heartbeat_main(ctx, hb_state, hb_net, hb)
            });
        agents.insert(
            node,
            AgentHandles {
                state,
                procs: vec![main, beat],
            },
        );
    }

    /// Simulate the death of the agent on `node` (node crash): kills its
    /// processes and closes its port so peers see connection failures.
    pub fn kill_agent(&self, node: NodeId) {
        let mut agents = self.agents.lock();
        if let Some(a) = agents.remove(&node) {
            for p in &a.procs {
                p.kill();
            }
            self.net.unbind(node, FTB_AGENT_PORT);
        }
    }

    /// The agent's current parent (tests of self-healing).
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        let agents = self.agents.lock();
        agents.get(&node).and_then(|a| *a.state.parent.lock())
    }

    pub(crate) fn agent_state(&self, node: NodeId) -> Option<Arc<AgentState>> {
        self.agents.lock().get(&node).map(|a| a.state.clone())
    }
}

fn send_agent(
    net: &Net,
    ctx: &Ctx,
    from: NodeId,
    to: NodeId,
    msg: AgentMsg,
    wire: u64,
) -> Result<(), NetError> {
    net.send_to(
        ctx,
        (from, FTB_AGENT_PORT),
        (to, FTB_AGENT_PORT),
        Box::new(msg),
        wire,
    )
}

/// Advance the agent's uplink machine. A missing row is a protocol bug
/// (e.g. the root reacting to an `AttachAck` it can never have solicited),
/// not a runtime condition — trap it loudly.
fn link_apply(ctx: &Ctx, state: &AgentState, ev: LinkEvent) {
    let mut link = state.link.lock();
    let from = *link;
    let Some(next) = link_next(from, ev) else {
        panic!(
            "FTB uplink protocol violation on node {}: no transition from {from:?} on {ev:?}",
            state.node.0
        );
    };
    *link = next;
    drop(link);
    ctx.instant_with("proto", "link_transition", || {
        vec![
            ("node", state.node.0.into()),
            ("from", format!("{from:?}").into()),
            ("on", format!("{ev:?}").into()),
            ("to", format!("{next:?}").into()),
        ]
    });
}

/// Re-attach after a send to the parent failed. The uplink table decides
/// the healing move: with a fallback known, the grandparent becomes the
/// parent (fallback consumed until the next `AttachAck`); without one,
/// keep the current parent — a transient link error (flap, dropped
/// window) must not orphan the subtree permanently. Returns the parent
/// now in effect.
fn reattach(ctx: &Ctx, state: &Arc<AgentState>, net: &Net) -> Option<NodeId> {
    let had_fallback = *state.link.lock() == LinkState::AttachedWithFallback;
    link_apply(ctx, state, LinkEvent::ParentLost);
    let new_parent = if had_fallback {
        let gp = state.grandparent.lock().take();
        debug_assert!(
            gp.is_some(),
            "uplink said AttachedWithFallback but no grandparent is recorded"
        );
        gp.or_else(|| *state.parent.lock())
    } else {
        *state.parent.lock()
    };
    *state.parent.lock() = new_parent;
    if let Some(gp) = new_parent {
        let _ = send_agent(
            net,
            ctx,
            state.node,
            gp,
            AgentMsg::Attach { child: state.node },
            96,
        );
    }
    new_parent
}

/// Push `event` to every matching local subscriber, in subscription order.
/// A queue no other handle can reach is dropped instead: nobody could pop
/// it, and a push into it would wake no one, so pruning is unobservable.
fn deliver_local(state: &AgentState, event: &FtbEvent) {
    state.subs.lock().retain(|(filter, q)| {
        if !q.is_shared() {
            return false;
        }
        if filter.matches(event) {
            q.push(event.clone());
        }
        true
    });
}

/// Forward an event toward the root, re-attaching and retrying within the
/// configured budget. When the budget is exhausted (or no ancestor is
/// reachable) the event is dropped with a trace instant — bounded loss,
/// never an unbounded stall of the agent loop.
fn forward_up(ctx: &Ctx, state: &Arc<AgentState>, net: &Net, cfg: &FtbConfig, event: &FtbEvent) {
    let Some(mut parent) = *state.parent.lock() else {
        return; // we are the root
    };
    let mut attempts = 0u32;
    loop {
        let fwd = AgentMsg::Publish {
            event: event.clone(),
            via: Via::Child(state.node),
        };
        if send_agent(net, ctx, state.node, parent, fwd, event.wire_bytes()).is_ok() {
            return;
        }
        attempts += 1;
        if attempts > cfg.forward_retries {
            break;
        }
        if !cfg.forward_retry_backoff.is_zero() {
            ctx.sleep(cfg.forward_retry_backoff);
        }
        match reattach(ctx, state, net) {
            Some(np) => parent = np,
            None => break, // orphaned: no ancestor left to carry the event
        }
    }
    ctx.instant_with("ftb", "event_dropped", || {
        vec![
            ("node", state.node.0.into()),
            ("event", event.name.clone().into()),
            ("attempts", attempts.into()),
        ]
    });
}

fn agent_main(
    ctx: &Ctx,
    state: Arc<AgentState>,
    net: Net,
    cfg: Arc<FtbConfig>,
    inbox: Queue<ibfabric::Datagram>,
) {
    // Announce ourselves to the configured parent.
    let parent0 = *state.parent.lock();
    if let Some(p) = parent0 {
        let _ = send_agent(
            &net,
            ctx,
            state.node,
            p,
            AgentMsg::Attach { child: state.node },
            96,
        );
    }
    loop {
        let dg = inbox.pop(ctx);
        let Ok(msg) = dg.payload.downcast::<AgentMsg>() else {
            continue; // foreign traffic on our port: ignore
        };
        match *msg {
            AgentMsg::Publish { event, via } => {
                deliver_local(&state, &event);
                // forward up (bounded retry, see `forward_up`)
                if via != Via::Parent {
                    forward_up(ctx, &state, &net, &cfg, &event);
                }
                // forward down (BTreeSet: deterministic delivery order)
                let children: Vec<NodeId> = state.children.lock().iter().copied().collect();
                for c in children {
                    if via == Via::Child(c) {
                        continue;
                    }
                    let fwd = AgentMsg::Publish {
                        event: event.clone(),
                        via: Via::Parent,
                    };
                    if send_agent(&net, ctx, state.node, c, fwd, event.wire_bytes()).is_err() {
                        state.children.lock().remove(&c);
                    }
                }
            }
            AgentMsg::Attach { child } => {
                state.children.lock().insert(child);
                let gp = *state.parent.lock();
                let _ = send_agent(
                    &net,
                    ctx,
                    state.node,
                    child,
                    AgentMsg::AttachAck { grandparent: gp },
                    96,
                );
            }
            AgentMsg::AttachAck { grandparent } => {
                let ev = if grandparent.is_some() {
                    LinkEvent::AckGrandparent
                } else {
                    LinkEvent::AckNoGrandparent
                };
                link_apply(ctx, &state, ev);
                *state.grandparent.lock() = grandparent;
            }
            AgentMsg::Ping { from } => {
                // liveness is implied by successful delivery; remember the
                // child in case we restarted and lost membership
                state.children.lock().insert(from);
            }
        }
    }
}

fn heartbeat_main(ctx: &Ctx, state: Arc<AgentState>, net: Net, period: Duration) {
    loop {
        ctx.sleep(period);
        let parent = *state.parent.lock();
        if let Some(p) = parent {
            if send_agent(
                &net,
                ctx,
                state.node,
                p,
                AgentMsg::Ping { from: state.node },
                64,
            )
            .is_err()
            {
                reattach(ctx, &state, &net);
            }
        }
    }
}
