//! The FTB client layer: connect, subscribe, publish.

use crate::agent::{AgentMsg, AgentState, FtbBackplane, Via};
use crate::event::{EventFilter, FtbEvent};
use crate::FTB_AGENT_PORT;
use ibfabric::{Net, NodeId};
use simkit::{Ctx, Queue};
use std::sync::Arc;

/// A component's connection to its node-local FTB agent.
///
/// Mirrors the FTB client API surface the paper's components use:
/// `FTB_Connect` → [`FtbClient::connect`], `FTB_Subscribe` →
/// [`FtbClient::subscribe`], `FTB_Publish` → [`FtbClient::publish`].
#[derive(Clone)]
pub struct FtbClient {
    name: String,
    node: NodeId,
    net: Net,
    agent: Arc<AgentState>,
}

impl FtbClient {
    /// Connect `name` (diagnostic) to the agent on `node`.
    ///
    /// # Panics
    /// Panics if no agent is deployed on `node` — components always start
    /// after their node's agent, as in CIFTS deployments.
    pub fn connect(backplane: &FtbBackplane, node: NodeId, name: &str) -> Self {
        let agent = backplane
            .agent_state(node)
            .unwrap_or_else(|| panic!("no FTB agent on {node} for client {name}"));
        FtbClient {
            name: name.to_string(),
            node,
            net: backplane.net().clone(),
            agent,
        }
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The client's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Subscribe to events matching `filter`; matching events land in the
    /// returned queue (delivery is node-local shared memory, as the agent
    /// and client are co-resident).
    ///
    /// The subscription lives as long as any clone of the returned queue.
    /// Once the last one is dropped (the subscriber returned, or was
    /// killed and unwound), the agent forgets the subscription and stops
    /// delivering into it. There is no explicit unsubscribe.
    pub fn subscribe(&self, handle: &simkit::SimHandle, filter: EventFilter) -> Queue<FtbEvent> {
        let q = Queue::new(handle);
        self.agent.subscribe(filter, q.clone());
        q
    }

    /// Publish an event into the backplane (loopback hop to the local
    /// agent, then tree flooding).
    pub fn publish(&self, ctx: &Ctx, event: FtbEvent) {
        ctx.instant_with("ftb", event.name.as_str(), || {
            vec![
                ("space", event.space.as_str().into()),
                ("origin", self.node.0.into()),
                ("client", self.name.as_str().into()),
            ]
        });
        let wire = event.wire_bytes();
        let msg = AgentMsg::Publish {
            event,
            via: Via::LocalClient,
        };
        // Local agent is always reachable over loopback; if the node is
        // being torn down mid-publish the event is simply lost, which is
        // FTB's best-effort semantics.
        let _ = self.net.send_to(
            ctx,
            (self.node, 0),
            (self.node, FTB_AGENT_PORT),
            Box::new(msg),
            wire,
        );
    }
}
