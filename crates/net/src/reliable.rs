//! Delivery reliability on top of an unreliable [`Transport`].
//!
//! The bare transport ([`crate::Fabric`]) delivers every message exactly
//! once. A fault-injecting
//! wrapper (see `pvm-faults`) may drop, duplicate, or delay frames —
//! [`ReliableLink`] restores the exactly-once, in-order contract the
//! maintenance drivers assume:
//!
//! * every logical payload from `src` to `dst` is wrapped in a
//!   [`Frame::Data`] carrying a per-`(src, dst)` **sequence number**;
//! * receivers stage frames strictly in sequence order, parking
//!   out-of-order arrivals in a reorder buffer and suppressing
//!   duplicates by sequence (the dedup window is the full history — a
//!   frame below the stage cursor can never be staged twice);
//! * receivers acknowledge **consumption**, not arrival: an
//!   [`Frame::Ack`] carries the consumed floor, advanced only when
//!   [`ReliableLink::take_staged`] hands frames to the application. A
//!   crash between arrival and consumption therefore leaves the frames
//!   unacknowledged, and the senders re-deliver them;
//! * unacknowledged frames are retransmitted with **bounded exponential
//!   backoff measured in logical pump rounds** ([`Backoff`]): no wall
//!   clock anywhere, so a run is a pure function of the fault seed.
//!
//! Local deliveries (`src == dst`) never touch the wire: they are staged
//! directly, exactly as the bare fabric queues them, and are treated as
//! durable (a node's message to itself is re-derived by the sender's own
//! recovery, so the coordinator retains it across a crash).
//!
//! The link is coordinator-driven and single-threaded: `pump` drains the
//! wire in node order, so every retransmission, ack, and staging decision
//! happens in one deterministic sequence per seed.

use std::collections::{BTreeMap, VecDeque};

use pvm_types::{NodeId, Result};

use crate::{Envelope, MessageSize, Transport};

/// Wire frame of the reliability protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<P> {
    /// A payload with its per-`(src, dst)` sequence number.
    Data { seq: u64, payload: P },
    /// Cumulative acknowledgement: every sequence below `up_to` (from
    /// the ack's *destination* to its *source*) has been consumed.
    Ack { up_to: u64 },
}

impl<P: MessageSize> MessageSize for Frame<P> {
    fn byte_size(&self) -> usize {
        match self {
            // The sequence header is not counted: a reliable run's data
            // traffic then charges exactly what the bare transport
            // charges, so the fault-free cost model is unchanged.
            Frame::Data { payload, .. } => payload.byte_size(),
            Frame::Ack { .. } => 8,
        }
    }
}

/// Retransmission backoff in logical pump rounds:
/// `delay(n) = min(cap, initial << (n - 1))` before the `n + 1`-th
/// attempt.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    pub initial: u64,
    pub cap: u64,
}

impl Default for Backoff {
    /// Initial delay of 3 rounds covers the fault-free ack latency
    /// (stage → consume next epoch → ack), so an unfaulted frame is
    /// normally acknowledged before its first retransmission fires.
    fn default() -> Self {
        Backoff {
            initial: 3,
            cap: 24,
        }
    }
}

impl Backoff {
    /// Rounds to wait after the `attempts`-th transmission.
    pub fn delay(&self, attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(63);
        self.initial
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.cap)
            .max(1)
    }
}

/// Monotonic protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames retransmitted after a backoff deadline.
    pub retries: u64,
    /// Duplicate data frames suppressed by sequence number.
    pub dup_suppressed: u64,
    /// Ack frames emitted.
    pub acks_sent: u64,
}

/// One in-flight (sent, unacknowledged) frame.
#[derive(Debug, Clone)]
struct Pending<P> {
    seq: u64,
    payload: P,
    last_attempt: u64,
    attempts: u32,
}

/// Reliability state for every `(src, dst)` pair of an `L`-node cluster,
/// maintained by the coordinator between execution steps.
#[derive(Debug)]
pub struct ReliableLink<P> {
    l: usize,
    backoff: Backoff,
    /// Logical pump round (the backoff clock).
    round: u64,
    /// `[src][dst]`: next sequence to assign.
    next_seq: Vec<Vec<u64>>,
    /// `[src][dst]`: sent data frames not yet covered by an ack.
    unacked: Vec<Vec<VecDeque<Pending<P>>>>,
    /// `[src][dst]`: next sequence to stage at the receiver.
    next_stage: Vec<Vec<u64>>,
    /// `[src][dst]`: consumed floor (everything below was handed to the
    /// application via [`ReliableLink::take_staged`]).
    consumed: Vec<Vec<u64>>,
    /// `[src][dst]`: out-of-order arrivals awaiting their predecessors.
    reorder: Vec<Vec<BTreeMap<u64, P>>>,
    /// `[dst][src]`: staged in-sequence payloads awaiting consumption.
    staged: Vec<Vec<Vec<P>>>,
    /// `[src][dst]`: receiver `dst` owes sender `src` an ack.
    pending_ack: Vec<Vec<bool>>,
    stats: LinkStats,
}

impl<P: MessageSize + Clone> ReliableLink<P> {
    pub fn new(nodes: usize) -> Self {
        ReliableLink::with_backoff(nodes, Backoff::default())
    }

    pub fn with_backoff(nodes: usize, backoff: Backoff) -> Self {
        ReliableLink {
            l: nodes,
            backoff,
            round: 0,
            next_seq: vec![vec![0; nodes]; nodes],
            unacked: (0..nodes)
                .map(|_| (0..nodes).map(|_| VecDeque::new()).collect())
                .collect(),
            next_stage: vec![vec![0; nodes]; nodes],
            consumed: vec![vec![0; nodes]; nodes],
            reorder: (0..nodes)
                .map(|_| (0..nodes).map(|_| BTreeMap::new()).collect())
                .collect(),
            staged: (0..nodes)
                .map(|_| (0..nodes).map(|_| Vec::new()).collect())
                .collect(),
            pending_ack: vec![vec![false; nodes]; nodes],
            stats: LinkStats::default(),
        }
    }

    pub fn node_count(&self) -> usize {
        self.l
    }

    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Send a payload through `wire`, assigning it the pair's next
    /// sequence number. Local deliveries bypass the wire entirely.
    pub fn send<W: Transport<Frame<P>>>(
        &mut self,
        wire: &mut W,
        src: NodeId,
        dst: NodeId,
        payload: P,
    ) -> Result<()> {
        let (s, d) = (src.index(), dst.index());
        let seq = self.next_seq[s][d];
        self.next_seq[s][d] += 1;
        if s == d {
            self.staged[d][s].push(payload);
            self.next_stage[s][d] = seq + 1;
            return Ok(());
        }
        self.unacked[s][d].push_back(Pending {
            seq,
            payload: payload.clone(),
            last_attempt: self.round,
            attempts: 1,
        });
        wire.send(src, dst, Frame::Data { seq, payload })
    }

    /// One protocol round: drain the wire at every node, stage in-order
    /// data, process acks, emit owed acks, and retransmit anything past
    /// its backoff deadline. Deterministic given the wire's delivery.
    pub fn pump<W: Transport<Frame<P>>>(&mut self, wire: &mut W) -> Result<()> {
        self.round += 1;
        for dst in 0..self.l {
            for env in wire.recv_all(NodeId::from(dst)) {
                let src = env.src.index();
                match env.payload {
                    Frame::Data { seq, payload } => {
                        if seq < self.next_stage[src][dst]
                            || self.reorder[src][dst].contains_key(&seq)
                        {
                            self.stats.dup_suppressed += 1;
                            // Re-ack so a sender that missed the previous
                            // ack stops retransmitting.
                            self.pending_ack[src][dst] = true;
                        } else {
                            self.reorder[src][dst].insert(seq, payload);
                            while let Some(p) =
                                self.reorder[src][dst].remove(&self.next_stage[src][dst])
                            {
                                self.staged[dst][src].push(p);
                                self.next_stage[src][dst] += 1;
                            }
                        }
                    }
                    Frame::Ack { up_to } => {
                        // `env.src` is the receiver acking frames this
                        // node (`dst`) sent to it.
                        let q = &mut self.unacked[dst][src];
                        while q.front().is_some_and(|p| p.seq < up_to) {
                            q.pop_front();
                        }
                    }
                }
            }
        }
        for src in 0..self.l {
            for dst in 0..self.l {
                if std::mem::take(&mut self.pending_ack[src][dst]) {
                    self.stats.acks_sent += 1;
                    wire.send(
                        NodeId::from(dst),
                        NodeId::from(src),
                        Frame::Ack {
                            up_to: self.consumed[src][dst],
                        },
                    )?;
                }
            }
        }
        for src in 0..self.l {
            for dst in 0..self.l {
                for p in self.unacked[src][dst].iter_mut() {
                    if self.round.saturating_sub(p.last_attempt) >= self.backoff.delay(p.attempts) {
                        p.last_attempt = self.round;
                        p.attempts += 1;
                        self.stats.retries += 1;
                        wire.send(
                            NodeId::from(src),
                            NodeId::from(dst),
                            Frame::Data {
                                seq: p.seq,
                                payload: p.payload.clone(),
                            },
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// True when every sent frame has been staged at its receiver — the
    /// condition for an execution epoch to be complete.
    pub fn epoch_settled(&self) -> bool {
        for src in 0..self.l {
            for dst in 0..self.l {
                if self.next_stage[src][dst] != self.next_seq[src][dst]
                    || !self.reorder[src][dst].is_empty()
                {
                    return false;
                }
            }
        }
        true
    }

    /// Consume everything staged for `dst`, in `(src asc, seq asc)`
    /// order — the inbox order the bare backends produce. Advances the
    /// consumed floor and queues the corresponding acks.
    pub fn take_staged(&mut self, dst: NodeId) -> Vec<Envelope<P>> {
        let d = dst.index();
        let mut out = Vec::new();
        for src in 0..self.l {
            let frames = std::mem::take(&mut self.staged[d][src]);
            if self.consumed[src][d] != self.next_stage[src][d] {
                self.consumed[src][d] = self.next_stage[src][d];
                if src != d {
                    self.pending_ack[src][d] = true;
                }
            }
            out.extend(frames.into_iter().map(|payload| Envelope {
                src: NodeId::from(src),
                dst,
                payload,
            }));
        }
        out
    }

    /// A node crashed: wipe its volatile receive-side state (staged but
    /// unconsumed frames, reorder buffer) and roll the stage cursors back
    /// to the consumed floor. The unacknowledged copies held sender-side
    /// are durable (they are reproduced by the sender's own WAL replay),
    /// so retransmission re-delivers everything that was in flight —
    /// the "re-request in-flight deltas" path, driven by ack silence.
    /// Local self-deliveries are retained: the crashed node's recovery
    /// reproduces the state that generated them.
    pub fn on_crash(&mut self, node: NodeId) {
        let x = node.index();
        for src in 0..self.l {
            if src == x {
                continue;
            }
            self.staged[x][src].clear();
            self.reorder[src][x].clear();
            self.next_stage[src][x] = self.consumed[src][x];
            self.pending_ack[src][x] = false;
        }
    }

    /// Drop every frame not yet consumed (transaction abort): unacked
    /// retransmit queues, reorder buffers, and staged inboxes are
    /// cleared, and all cursors jump to the send frontier.
    pub fn clear_in_flight(&mut self) {
        for src in 0..self.l {
            for dst in 0..self.l {
                self.unacked[src][dst].clear();
                self.reorder[src][dst].clear();
                self.staged[dst][src].clear();
                self.pending_ack[src][dst] = false;
                self.next_stage[src][dst] = self.next_seq[src][dst];
                self.consumed[src][dst] = self.next_seq[src][dst];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, NetConfig};

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64);

    impl MessageSize for Msg {
        fn byte_size(&self) -> usize {
            8
        }
    }

    fn wire(n: usize) -> Fabric<Frame<Msg>> {
        Fabric::new(n, NetConfig::default())
    }

    fn settle(link: &mut ReliableLink<Msg>, wire: &mut Fabric<Frame<Msg>>) {
        for _ in 0..1000 {
            link.pump(wire).unwrap();
            if link.epoch_settled() {
                return;
            }
        }
        panic!("link failed to settle");
    }

    #[test]
    fn reliable_delivery_in_order() {
        let mut w = wire(3);
        let mut link: ReliableLink<Msg> = ReliableLink::new(3);
        link.send(&mut w, NodeId(1), NodeId(0), Msg(10)).unwrap();
        link.send(&mut w, NodeId(1), NodeId(0), Msg(11)).unwrap();
        link.send(&mut w, NodeId(2), NodeId(0), Msg(20)).unwrap();
        settle(&mut link, &mut w);
        let got = link.take_staged(NodeId(0));
        let vals: Vec<u64> = got.iter().map(|e| e.payload.0).collect();
        assert_eq!(vals, vec![10, 11, 20], "(src asc, seq asc)");
        assert!(link.take_staged(NodeId(0)).is_empty(), "consumed once");
    }

    #[test]
    fn local_delivery_bypasses_wire() {
        let mut w = wire(2);
        let mut link: ReliableLink<Msg> = ReliableLink::new(2);
        link.send(&mut w, NodeId(1), NodeId(1), Msg(5)).unwrap();
        assert!(link.epoch_settled(), "local frames stage immediately");
        assert_eq!(w.ledger().snapshot().sends, 0, "nothing charged");
        assert_eq!(link.take_staged(NodeId(1)).len(), 1);
    }

    /// A lossy wire that eats the first `drop_first` data frames.
    struct Lossy {
        inner: Fabric<Frame<Msg>>,
        drop_first: usize,
        dropped: usize,
    }

    impl Transport<Frame<Msg>> for Lossy {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn send(&mut self, src: NodeId, dst: NodeId, p: Frame<Msg>) -> Result<()> {
            if matches!(p, Frame::Data { .. }) && self.dropped < self.drop_first {
                self.dropped += 1;
                return Ok(());
            }
            self.inner.send(src, dst, p)
        }
        fn recv_all(&mut self, dst: NodeId) -> Vec<Envelope<Frame<Msg>>> {
            self.inner.recv_all(dst)
        }
    }

    #[test]
    fn lost_frames_are_retransmitted() {
        let mut w = Lossy {
            inner: wire(2),
            drop_first: 2,
            dropped: 0,
        };
        let mut link: ReliableLink<Msg> = ReliableLink::new(2);
        link.send(&mut w, NodeId(0), NodeId(1), Msg(1)).unwrap();
        link.send(&mut w, NodeId(0), NodeId(1), Msg(2)).unwrap();
        for _ in 0..100 {
            link.pump(&mut w).unwrap();
            if link.epoch_settled() {
                break;
            }
        }
        assert!(link.epoch_settled());
        assert!(link.stats().retries >= 2, "both frames were re-sent");
        let vals: Vec<u64> = link
            .take_staged(NodeId(1))
            .iter()
            .map(|e| e.payload.0)
            .collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn duplicates_suppressed_and_acks_stop_retransmission() {
        let mut w = wire(2);
        let mut link: ReliableLink<Msg> = ReliableLink::new(2);
        link.send(&mut w, NodeId(0), NodeId(1), Msg(9)).unwrap();
        // Inject a duplicate of the same frame by hand.
        w.send(
            NodeId(0),
            NodeId(1),
            Frame::Data {
                seq: 0,
                payload: Msg(9),
            },
        )
        .unwrap();
        settle(&mut link, &mut w);
        assert_eq!(link.stats().dup_suppressed, 1);
        assert_eq!(link.take_staged(NodeId(1)).len(), 1, "delivered once");
        // Consumption queues an ack; a few more rounds deliver it and the
        // sender's retransmit queue drains for good.
        for _ in 0..10 {
            link.pump(&mut w).unwrap();
        }
        let retries_then = link.stats().retries;
        for _ in 0..50 {
            link.pump(&mut w).unwrap();
        }
        assert_eq!(link.stats().retries, retries_then, "acked → no retries");
        assert!(link.stats().acks_sent >= 1);
    }

    #[test]
    fn crash_rolls_back_to_consumed_floor() {
        let mut w = wire(2);
        let mut link: ReliableLink<Msg> = ReliableLink::new(2);
        // Frame 0 consumed; frames 1, 2 staged but NOT consumed.
        link.send(&mut w, NodeId(0), NodeId(1), Msg(0)).unwrap();
        settle(&mut link, &mut w);
        assert_eq!(link.take_staged(NodeId(1)).len(), 1);
        link.send(&mut w, NodeId(0), NodeId(1), Msg(1)).unwrap();
        link.send(&mut w, NodeId(0), NodeId(1), Msg(2)).unwrap();
        settle(&mut link, &mut w);
        // Node 1 crashes before consuming them.
        link.on_crash(NodeId(1));
        assert!(!link.epoch_settled(), "frames 1, 2 are in flight again");
        settle(&mut link, &mut w);
        let vals: Vec<u64> = link
            .take_staged(NodeId(1))
            .iter()
            .map(|e| e.payload.0)
            .collect();
        assert_eq!(vals, vec![1, 2], "re-delivered exactly once, in order");
    }

    #[test]
    fn clear_in_flight_drops_everything() {
        let mut w = wire(2);
        let mut link: ReliableLink<Msg> = ReliableLink::new(2);
        link.send(&mut w, NodeId(0), NodeId(1), Msg(1)).unwrap();
        link.clear_in_flight();
        assert!(link.epoch_settled());
        for _ in 0..50 {
            link.pump(&mut w).unwrap();
        }
        assert!(link.take_staged(NodeId(1)).is_empty());
    }

    #[test]
    fn frame_sizes() {
        assert_eq!(
            Frame::Data {
                seq: 3,
                payload: Msg(1)
            }
            .byte_size(),
            8,
            "header not counted — data charges like the bare payload"
        );
        assert_eq!(Frame::<Msg>::Ack { up_to: 9 }.byte_size(), 8);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let b = Backoff::default();
        assert_eq!(b.delay(1), 3);
        assert_eq!(b.delay(2), 6);
        assert_eq!(b.delay(3), 12);
        assert_eq!(b.delay(4), 24);
        assert_eq!(b.delay(10), 24, "capped");
    }
}
