//! Engine-to-engine messages.
//!
//! Engines never reference each other directly; everything moves through
//! latency-modeled inboxes in the [`crate::world::World`] — the same
//! discipline the real service's shared-memory engine queues impose.

use crate::config::CollectiveConfig;
use mccs_device::EventId;
use mccs_ipc::{AppId, CollectiveRequest, CommunicatorId};
use mccs_netsim::RouteChoice;
use mccs_sim::Bytes;
use mccs_topology::{GpuId, NicId};
use std::collections::BTreeMap;

/// Messages into a proxy engine's inbox.
#[derive(Clone, Debug)]
pub enum ProxyMsg {
    /// A frontend registered a communicator rank living on this GPU.
    RegisterRank {
        /// Owning application.
        app: AppId,
        /// The rank's shim endpoint (for completions).
        endpoint: usize,
        /// Communicator id.
        comm: CommunicatorId,
        /// Rank -> GPU map, in user rank order.
        world: Vec<GpuId>,
        /// This rank.
        rank: usize,
        /// Event the service records after each collective completion.
        comm_event: EventId,
    },
    /// A frontend forwarded a tenant collective.
    Collective {
        /// The rank's shim endpoint.
        endpoint: usize,
        /// Tenant request id (for the launch ack / errors).
        req: u64,
        /// The invocation.
        coll: CollectiveRequest,
    },
    /// A frontend forwarded a communicator teardown.
    CommDestroy {
        /// The rank's shim endpoint.
        endpoint: usize,
        /// Tenant request id.
        req: u64,
        /// The communicator.
        comm: CommunicatorId,
    },
    /// The provider requests a strategy change (Figure 4 `Req`).
    Reconfigure {
        /// The communicator.
        comm: CommunicatorId,
        /// The controller incarnation that issued this request. Ranks
        /// remember the highest incarnation they have heard from and
        /// fence (drop) requests from older ones — a dead controller's
        /// late-arriving commands must not race its successor's.
        incarnation: u64,
        /// The new configuration (its `epoch` must be current + 1).
        config: CollectiveConfig,
    },
    /// A control-ring barrier contribution travelling rank to rank
    /// (Figure 4 `AG`): the gathered `last launched` sequence numbers.
    BarrierGossip {
        /// The communicator.
        comm: CommunicatorId,
        /// Target epoch of the pending reconfiguration.
        epoch: u64,
        /// The pending configuration itself. Lets a rank whose `Req` was
        /// lost enter the barrier straight from gossip (implicit request)
        /// instead of deadlocking the ring.
        config: CollectiveConfig,
        /// rank -> last launched sequence (`None` = nothing launched).
        entries: BTreeMap<usize, Option<u64>>,
        /// Remaining forward hops around the ring.
        hops_left: usize,
    },
}

/// One inter-host transfer (one edge task of a collective), leaving from
/// the NIC whose transport inbox holds it.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSend {
    /// Owning application (for QoS gating).
    pub app: AppId,
    /// Communicator (for accounting).
    pub comm: CommunicatorId,
    /// Collective sequence number.
    pub seq: u64,
    /// Completion token (fed back into the collective's progress).
    pub token: u64,
    /// Destination NIC.
    pub dst_nic: NicId,
    /// Payload.
    pub bytes: Bytes,
    /// Route choice (pinned by FFA/PFA or ECMP).
    pub route: RouteChoice,
}

/// Messages into a transport engine's inbox.
#[derive(Clone, Debug)]
pub enum TransportMsg {
    /// Launch an inter-host transfer.
    Send(EdgeSend),
    /// Install (or clear) a traffic-window schedule for an application —
    /// the TS enforcement point.
    SetWindows {
        /// The gated application.
        app: AppId,
        /// The schedule; `None` removes gating.
        windows: Option<crate::qos::TrafficWindows>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let m = ProxyMsg::BarrierGossip {
            comm: CommunicatorId(1),
            epoch: 2,
            config: CollectiveConfig {
                epoch: 2,
                channel_rings: Vec::new(),
                routes: crate::config::RouteMap::ecmp(),
            },
            entries: BTreeMap::from([(0, Some(5)), (1, None)]),
            hops_left: 3,
        };
        let c = m.clone();
        assert!(format!("{c:?}").contains("BarrierGossip"));

        let t = TransportMsg::SetWindows {
            app: AppId(0),
            windows: None,
        };
        assert!(format!("{:?}", t.clone()).contains("SetWindows"));
    }
}
