//! # pvm-net
//!
//! Simulated interconnect for the shared-nothing cluster.
//!
//! The fabric delivers typed messages between nodes with deterministic
//! FIFO ordering per destination, and meters exactly what the paper's
//! model calls `SEND`: one unit per message between *distinct* nodes.
//! Local deliveries (`src == dst`) are the "conceptual" dashed-line
//! messages of Figure 2 — queued normally but not charged, unless
//! [`NetConfig::charge_local_delivery`] is set (the analytical model
//! assumes nodes i, j, k are distinct, so enabling it reproduces the
//! model's worst case exactly).

use std::collections::VecDeque;
use std::sync::Arc;

use pvm_obs::{Obs, Phase, TraceEvent};
use pvm_types::{CostLedger, NodeId, PvmError, Result};

pub mod reliable;

pub use reliable::{Backoff, Frame, LinkStats, ReliableLink};

/// Anything sendable must report a payload size for byte accounting.
pub trait MessageSize {
    /// Approximate wire size of the payload in bytes.
    fn byte_size(&self) -> usize;
}

impl MessageSize for Vec<u8> {
    fn byte_size(&self) -> usize {
        self.len()
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn byte_size(&self) -> usize {
        self.iter().map(MessageSize::byte_size).sum()
    }
}

impl MessageSize for pvm_types::Row {
    fn byte_size(&self) -> usize {
        self.byte_size()
    }
}

impl MessageSize for pvm_types::GlobalRid {
    fn byte_size(&self) -> usize {
        // Derived from the actual wire encoding so byte accounting stays
        // honest if the rid layout ever changes width.
        self.encode().len()
    }
}

/// One frame on a pipelined per-edge channel: either a payload stamped
/// with the logical step it was sent in, or step-close **punctuation** —
/// the sender's promise that it has emitted everything it will ever emit
/// for that step on this edge. A receiver that has seen `Close(k)` on all
/// of its inbound edges holds the complete step-`k` input and may execute
/// step `k + 1` immediately, without a cluster-wide barrier.
///
/// Multicast payloads ride as [`PipeFrame::Shared`]: the fan-out stage
/// builds the payload once and every edge carries a reference-counted
/// handle plus the pre-measured byte size, so a broadcast is encoded and
/// measured once rather than deep-cloned per destination (the transport
/// extension of the driver-level `encode_into` scratch-buffer
/// discipline). Byte *charging* is still per destination — sharing the
/// allocation never changes counted costs.
#[derive(Debug)]
pub enum PipeFrame<P> {
    /// A payload sent during logical step `step`.
    Payload { step: u64, payload: P },
    /// A multicast payload sent during `step`, shared across edges;
    /// `bytes` is the payload's wire size, measured once at send time.
    Shared {
        step: u64,
        payload: Arc<P>,
        bytes: u64,
    },
    /// Step-close punctuation: nothing further will arrive on this edge
    /// for `step`.
    Close { step: u64 },
}

impl<P> PipeFrame<P> {
    /// The logical step this frame belongs to.
    pub fn step(&self) -> u64 {
        match self {
            PipeFrame::Payload { step, .. }
            | PipeFrame::Shared { step, .. }
            | PipeFrame::Close { step } => *step,
        }
    }

    /// The carried payload, if any: owned frames move it out, shared
    /// frames unwrap the handle (cloning only when other edges still
    /// hold references).
    pub fn into_payload(self) -> Option<P>
    where
        P: Clone,
    {
        match self {
            PipeFrame::Payload { payload, .. } => Some(payload),
            PipeFrame::Shared { payload, .. } => {
                Some(Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone()))
            }
            PipeFrame::Close { .. } => None,
        }
    }
}

impl<P: MessageSize> MessageSize for PipeFrame<P> {
    fn byte_size(&self) -> usize {
        match self {
            PipeFrame::Payload { payload, .. } => 8 + payload.byte_size(),
            PipeFrame::Shared { bytes, .. } => 8 + *bytes as usize,
            // Punctuation is control traffic: 8 bytes of step number. It
            // is never charged as a SEND — the cost model counts payload
            // messages only.
            PipeFrame::Close { .. } => 8,
        }
    }
}

/// The node-facing interface to the interconnect, abstracted over the
/// delivery mechanism. [`Fabric`] is the deterministic single-threaded
/// implementation; the fault layer wraps one to inject faults.
/// Implementations must preserve the
/// metering contract: one `SEND` (plus payload bytes) per message
/// between distinct nodes, local deliveries uncharged unless configured
/// otherwise, and per-`(src, dst)` FIFO ordering on delivery.
pub trait Transport<P: MessageSize> {
    /// Number of nodes this transport connects.
    fn node_count(&self) -> usize;

    /// Point-to-point send from `src` to `dst`.
    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) -> Result<()>;

    /// Drain every message queued for `dst`.
    fn recv_all(&mut self, dst: NodeId) -> Vec<Envelope<P>>;

    /// Send copies of `payload` to each node in `dsts`.
    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: &P) -> Result<()>
    where
        P: Clone,
    {
        for &d in dsts {
            self.send(src, d, payload.clone())?;
        }
        Ok(())
    }

    /// Send copies of `payload` to every node (including `src`, whose
    /// copy is an uncharged local delivery by default).
    fn broadcast(&mut self, src: NodeId, payload: &P) -> Result<()>
    where
        P: Clone,
    {
        for d in 0..self.node_count() {
            self.send(src, NodeId::from(d), payload.clone())?;
        }
        Ok(())
    }
}

/// Fabric configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetConfig {
    /// Charge a `SEND` even when `src == dst`. Matches the analytical
    /// model's assumption that the nodes involved are all distinct.
    pub charge_local_delivery: bool,
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<P> {
    pub src: NodeId,
    pub dst: NodeId,
    pub payload: P,
}

/// The simulated interconnect. One instance per cluster.
#[derive(Debug)]
pub struct Fabric<P> {
    config: NetConfig,
    queues: Vec<VecDeque<Envelope<P>>>,
    ledger: CostLedger,
    /// Observability handle; trace emission is gated on `obs.enabled()`
    /// and never touches the cost ledger.
    obs: Option<Arc<Obs>>,
}

impl<P: MessageSize> Fabric<P> {
    /// A fabric connecting `nodes` data-server nodes.
    pub fn new(nodes: usize, config: NetConfig) -> Self {
        Fabric {
            config,
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            ledger: CostLedger::new(),
            obs: None,
        }
    }

    /// Attach the cluster's observability handle so sends show up in
    /// recorded traces.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    pub fn node_count(&self) -> usize {
        self.queues.len()
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.index() >= self.queues.len() {
            return Err(PvmError::InvalidReference(format!(
                "{n} out of range (cluster has {} nodes)",
                self.queues.len()
            )));
        }
        Ok(())
    }

    /// Point-to-point send. Charges one `SEND` (plus payload bytes) unless
    /// it is an uncharged local delivery.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: P) -> Result<()> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src != dst || self.config.charge_local_delivery {
            self.ledger.record_send(payload.byte_size() as u64);
        }
        if let Some(obs) = &self.obs {
            if obs.enabled() {
                obs.emit(
                    TraceEvent::instant(Phase::Send, src.index() as u32, obs.now())
                        .with_peer(dst.index() as u32)
                        .with_bytes(payload.byte_size() as u64),
                );
            }
        }
        self.queues[dst.index()].push_back(Envelope { src, dst, payload });
        Ok(())
    }

    /// Drain every message queued for `dst`, in FIFO order.
    pub fn recv_all(&mut self, dst: NodeId) -> Vec<Envelope<P>> {
        let Ok(()) = self.check_node(dst) else {
            return Vec::new();
        };
        self.queues[dst.index()].drain(..).collect()
    }

    /// Messages waiting at `dst`.
    pub fn pending(&self, dst: NodeId) -> usize {
        self.queues.get(dst.index()).map_or(0, VecDeque::len)
    }

    /// True if no message is queued anywhere.
    pub fn quiescent(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// SEND / byte counters.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    pub fn reset_counters(&mut self) {
        self.ledger.reset();
    }
}

impl<P: MessageSize> Transport<P> for Fabric<P> {
    fn node_count(&self) -> usize {
        Fabric::node_count(self)
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) -> Result<()> {
        Fabric::send(self, src, dst, payload)
    }

    fn recv_all(&mut self, dst: NodeId) -> Vec<Envelope<P>> {
        Fabric::recv_all(self, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64);

    impl MessageSize for Msg {
        fn byte_size(&self) -> usize {
            8
        }
    }

    fn fabric(n: usize) -> Fabric<Msg> {
        Fabric::new(n, NetConfig::default())
    }

    #[test]
    fn send_and_recv_fifo() {
        let mut f = fabric(3);
        f.send(NodeId(0), NodeId(2), Msg(1)).unwrap();
        f.send(NodeId(1), NodeId(2), Msg(2)).unwrap();
        let got = f.recv_all(NodeId(2));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, Msg(1));
        assert_eq!(got[1].payload, Msg(2));
        assert!(f.quiescent());
    }

    #[test]
    fn local_delivery_not_charged_by_default() {
        let mut f = fabric(2);
        f.send(NodeId(0), NodeId(0), Msg(1)).unwrap();
        assert_eq!(f.ledger().snapshot().sends, 0);
        assert_eq!(f.pending(NodeId(0)), 1);
        f.send(NodeId(0), NodeId(1), Msg(2)).unwrap();
        assert_eq!(f.ledger().snapshot().sends, 1);
        assert_eq!(f.ledger().snapshot().bytes_sent, 8);
    }

    #[test]
    fn local_delivery_charged_when_configured() {
        let mut f: Fabric<Msg> = Fabric::new(
            2,
            NetConfig {
                charge_local_delivery: true,
            },
        );
        f.send(NodeId(0), NodeId(0), Msg(1)).unwrap();
        assert_eq!(f.ledger().snapshot().sends, 1);
    }

    #[test]
    fn broadcast_reaches_all_and_charges_l_minus_1() {
        let mut f = fabric(4);
        f.broadcast(NodeId(1), &Msg(9)).unwrap();
        for n in 0..4u16 {
            assert_eq!(f.pending(NodeId(n)), 1);
        }
        // Local copy uncharged: 3 real sends.
        assert_eq!(f.ledger().snapshot().sends, 3);
    }

    #[test]
    fn multicast_subset() {
        let mut f = fabric(5);
        f.multicast(NodeId(0), &[NodeId(2), NodeId(4)], &Msg(7))
            .unwrap();
        assert_eq!(f.pending(NodeId(2)), 1);
        assert_eq!(f.pending(NodeId(4)), 1);
        assert_eq!(f.pending(NodeId(1)), 0);
        assert_eq!(f.ledger().snapshot().sends, 2);
    }

    #[test]
    fn bad_node_rejected() {
        let mut f = fabric(2);
        assert!(f.send(NodeId(0), NodeId(9), Msg(0)).is_err());
        assert!(f.send(NodeId(9), NodeId(0), Msg(0)).is_err());
        assert!(f.recv_all(NodeId(9)).is_empty());
    }

    #[test]
    fn global_rid_size_matches_encoding() {
        use pvm_types::{GlobalRid, Rid};
        let g = GlobalRid::new(NodeId(3), Rid::new(7, 2));
        assert_eq!(g.byte_size(), g.encode().len());
    }

    #[test]
    fn fabric_usable_through_transport_trait() {
        fn exercise<T: Transport<Msg>>(t: &mut T) {
            t.broadcast(NodeId(0), &Msg(1)).unwrap();
            t.multicast(NodeId(1), &[NodeId(0)], &Msg(2)).unwrap();
            assert_eq!(t.node_count(), 3);
            assert_eq!(t.recv_all(NodeId(0)).len(), 2);
        }
        let mut f = fabric(3);
        exercise(&mut f);
        // Trait defaults route through `send`: broadcast L-1, multicast 1.
        assert_eq!(f.ledger().snapshot().sends, 3);
    }

    #[test]
    fn reset_counters() {
        let mut f = fabric(2);
        f.send(NodeId(0), NodeId(1), Msg(1)).unwrap();
        f.recv_all(NodeId(1));
        f.reset_counters();
        assert_eq!(f.ledger().snapshot().sends, 0);
    }
}
