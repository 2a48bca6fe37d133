//! [`FaultTolerant`]: a [`Backend`] wrapper that routes all inter-node
//! maintenance traffic through a reliability layer over a fault-injected
//! wire, and recovers scheduled node crashes by WAL replay.
//!
//! ## How a step runs
//!
//! 1. **Crashes.** Any [`CrashPoint`] scheduled for this driver step
//!    fires: the node's in-memory state is discarded and rebuilt from
//!    the cluster WAL ([`Cluster::crash_node`]), and the link wipes the
//!    node's volatile receive-side state ([`ReliableLink::on_crash`]) so
//!    unconsumed in-flight deltas are re-delivered by ack silence.
//! 2. **Settlement.** The coordinator pumps the link until every frame
//!    sent in the previous step has been staged exactly once at its
//!    receiver — retransmitting past drops, suppressing duplicates, and
//!    waiting out injected delays. The drivers' phase chains therefore
//!    always observe complete, exactly-once inboxes; faults are fully
//!    masked below the [`Backend::step`] contract.
//! 3. **Execution.** The inner backend runs the step closure per node
//!    (sequentially or threaded); each node's sends are captured in a
//!    per-node outbox instead of touching any transport.
//! 4. **Feed.** Outboxes are fed through the link in node order,
//!    assigning per-`(src, dst)` sequence numbers and sending
//!    [`Frame::Data`] over the faulty wire; next step's settlement
//!    delivers them.
//!
//! Staged inboxes are rebuilt in `(src asc, seq asc)` order — exactly
//! the inbox order both bare backends produce — and settlement is
//! single-threaded with PRNG draws consumed in the wire's deterministic
//! delivery order, so a `(plan, workload)` pair replays bit-identically,
//! crashes included. Only the coordinator touches the wire, so it is the
//! same FIFO [`Fabric`] under either backend and a plan draws the same
//! faults on both.

use std::sync::{Arc, Mutex};

use pvm_engine::{note_inbox, Backend, Cluster, NetPayload, StepCtx, StepSink};
use pvm_net::reliable::{Frame, LinkStats, ReliableLink};
use pvm_net::{Envelope, Fabric, NetConfig};
use pvm_obs::{metric, Obs};
use pvm_runtime::ThreadedCluster;
use pvm_types::{CostSnapshot, NodeId, PvmError, Result};

use crate::{CrashPoint, FaultPlan, FaultStats, FaultyTransport};

/// Settlement rounds before declaring the link wedged. Generous: the
/// worst honest case is every frame dropped `attempts` times with
/// capped backoff between attempts.
const MAX_SETTLE_ROUNDS: u64 = 10_000;

/// Captures a node's sends during a step; fed to the reliable link by
/// the coordinator afterwards.
struct OutboxSink {
    buf: Vec<(NodeId, NetPayload)>,
}

impl StepSink for OutboxSink {
    fn send(&mut self, _src: NodeId, dst: NodeId, payload: NetPayload) -> Result<()> {
        self.buf.push((dst, payload));
        Ok(())
    }
}

/// Counter values already published to the metrics registry, so each
/// step publishes monotonic deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Published {
    wire: FaultStats,
    link: LinkStats,
    crashes: u64,
    replayed: u64,
}

/// A fault-injected, self-healing execution backend. Wraps either the
/// sequential [`Cluster`] ([`FaultTolerant::sequential`]) or the
/// [`ThreadedCluster`] ([`FaultTolerant::threaded`]); the maintenance
/// drivers run unmodified on top.
pub struct FaultTolerant<B> {
    inner: B,
    wire: FaultyTransport<Frame<NetPayload>, Fabric<Frame<NetPayload>>>,
    link: ReliableLink<NetPayload>,
    driver_step: u64,
    crashes_done: u64,
    recovery_replayed: u64,
    published: Published,
}

impl FaultTolerant<Cluster> {
    /// Faulted sequential backend. The cluster should have WAL logging
    /// enabled when `plan` schedules crashes.
    pub fn sequential(cluster: Cluster, plan: FaultPlan) -> Self {
        FaultTolerant::wrap(cluster, plan)
    }
}

impl FaultTolerant<ThreadedCluster> {
    /// Faulted threaded backend: node steps still run on per-node
    /// threads; settlement and fault injection run on the coordinator.
    pub fn threaded(cluster: ThreadedCluster, plan: FaultPlan) -> Self {
        FaultTolerant::wrap(cluster, plan)
    }
}

impl<B: Backend> FaultTolerant<B> {
    fn wrap(inner: B, plan: FaultPlan) -> Self {
        let l = inner.node_count();
        let mut wire = Fabric::new(l, NetConfig::default());
        wire.set_obs(inner.engine().obs_handle());
        FaultTolerant {
            inner,
            wire: FaultyTransport::new(wire, plan),
            link: ReliableLink::new(l),
            driver_step: 0,
            crashes_done: 0,
            recovery_replayed: 0,
            published: Published::default(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        self.wire.plan()
    }

    /// What the injector did so far.
    pub fn wire_stats(&self) -> FaultStats {
        self.wire.stats()
    }

    /// What the reliability layer did to mask it.
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// Crashes fired so far.
    pub fn crashes(&self) -> u64 {
        self.crashes_done
    }

    /// Total WAL records replayed recovering crashed nodes.
    pub fn recovery_replayed(&self) -> u64 {
        self.recovery_replayed
    }

    /// Hand back the wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn handle_crashes(&mut self) -> Result<()> {
        let due: Vec<CrashPoint> = self
            .wire
            .plan()
            .crashes
            .iter()
            .filter(|c| c.at_step == self.driver_step)
            .copied()
            .collect();
        for c in due {
            let replayed = self.inner.engine_mut().crash_node(c.node)?;
            self.link.on_crash(c.node);
            self.crashes_done += 1;
            self.recovery_replayed += replayed as u64;
        }
        Ok(())
    }

    /// Pump the link until the previous step's frames are all staged.
    /// Each round advances the wire's delay clock, so "delay by k" means
    /// k settlement rounds.
    fn settle(&mut self) -> Result<()> {
        for _ in 0..MAX_SETTLE_ROUNDS {
            self.wire.advance_step();
            self.link.pump(&mut self.wire)?;
            if self.link.epoch_settled() {
                return Ok(());
            }
        }
        Err(PvmError::InvalidOperation(format!(
            "reliable link failed to settle after {MAX_SETTLE_ROUNDS} rounds \
             at driver step {} (plan: {})",
            self.driver_step,
            self.wire.plan()
        )))
    }

    /// Publish monotonic counter deltas to the metrics registry.
    fn publish_metrics(&mut self, obs: &Obs) {
        let wire = self.wire.stats();
        let link = self.link.stats();
        let m = obs.metrics();
        let bump = |name: &str, now: u64, then: u64| {
            if now > then {
                m.counter(name).add(now - then);
            }
        };
        bump(metric::FAULT_DROPS, wire.drops, self.published.wire.drops);
        bump(metric::FAULT_DUPS, wire.dups, self.published.wire.dups);
        bump(
            metric::FAULT_DELAYS,
            wire.delays,
            self.published.wire.delays,
        );
        bump(
            metric::FAULT_RETRIES,
            link.retries,
            self.published.link.retries,
        );
        bump(
            metric::FAULT_DUP_SUPPRESSED,
            link.dup_suppressed,
            self.published.link.dup_suppressed,
        );
        bump(
            metric::FAULT_ACKS,
            link.acks_sent,
            self.published.link.acks_sent,
        );
        bump(
            metric::FAULT_CRASHES,
            self.crashes_done,
            self.published.crashes,
        );
        bump(
            metric::FAULT_RECOVERY_REPLAYED,
            self.recovery_replayed,
            self.published.replayed,
        );
        self.published = Published {
            wire,
            link,
            crashes: self.crashes_done,
            replayed: self.recovery_replayed,
        };
    }
}

impl<B: Backend> Backend for FaultTolerant<B> {
    fn engine(&self) -> &Cluster {
        self.inner.engine()
    }

    fn engine_mut(&mut self) -> &mut Cluster {
        self.inner.engine_mut()
    }

    fn net_snapshot(&self) -> CostSnapshot {
        // Inner snapshot plus the reliability traffic on the wire, so
        // metered phases see the real cost of running under faults
        // (retries and acks included).
        let mut snap = self.inner.net_snapshot();
        let wire = self.wire.inner().ledger().snapshot();
        snap.sends += wire.sends;
        snap.bytes_sent += wire.bytes_sent;
        snap
    }

    fn step<R, F>(&mut self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&mut StepCtx<'_>) -> Result<R> + Sync,
    {
        self.driver_step += 1;
        self.handle_crashes()?;
        self.settle()?;

        let l = self.inner.node_count();
        let inboxes: Vec<Mutex<Option<Vec<Envelope<NetPayload>>>>> = (0..l)
            .map(|i| Mutex::new(Some(self.link.take_staged(NodeId::from(i)))))
            .collect();
        let outboxes: Vec<Mutex<Vec<(NodeId, NetPayload)>>> =
            (0..l).map(|_| Mutex::new(Vec::new())).collect();
        let obs: Arc<Obs> = self.inner.engine().obs_handle();

        let out = self.inner.step(|ctx| {
            let id = ctx.id();
            let n = ctx.node_count();
            let step = ctx.step();
            let mut inbox = inboxes[id.index()]
                .lock()
                .expect("inbox slot poisoned")
                .take()
                .unwrap_or_default();
            // The inner backend's own transport carries nothing under
            // this wrapper, but drain it anyway so the contract of
            // "inbox is everything addressed to this node" holds even if
            // someone slipped a message in through the engine directly.
            inbox.extend(ctx.drain());
            note_inbox(&obs, step, id, &inbox);
            let mut sink = OutboxSink { buf: Vec::new() };
            let mut inner_ctx =
                StepCtx::new(id, n, &mut *ctx.node, inbox, &mut sink, obs.as_ref(), step);
            let r = f(&mut inner_ctx)?;
            *outboxes[id.index()].lock().expect("outbox slot poisoned") = sink.buf;
            Ok(r)
        })?;

        // Feed the step's sends through the link in node order — the
        // same global order the sequential fabric would have charged
        // them, so per-pair sequence numbers match the bare backends'
        // delivery order.
        for (src, outbox) in outboxes.iter().enumerate() {
            let msgs = std::mem::take(&mut *outbox.lock().expect("outbox slot poisoned"));
            for (dst, payload) in msgs {
                self.link
                    .send(&mut self.wire, NodeId::from(src), dst, payload)?;
            }
        }
        self.publish_metrics(&obs);
        Ok(out)
    }

    fn abort_txn(&mut self) -> Result<()> {
        // Drop in-flight maintenance traffic like the bare backends do.
        self.link.clear_in_flight();
        self.wire.clear_delayed();
        self.inner.abort_txn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_engine::{ClusterConfig, TableDef, TableId};
    use pvm_types::{row, Column, Schema};

    fn cluster(l: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(l).with_buffer_pages(256).with_wal())
    }

    fn table(c: &mut Cluster) -> TableId {
        let schema = Schema::new(vec![Column::int("a"), Column::int("b")]).into_ref();
        c.create_table(TableDef::hash_heap("t", schema, 0)).unwrap()
    }

    /// Ring-pass workload: every node sends its inbox sum + own id to
    /// the next node for `steps` steps; returns final per-node sums.
    fn ring<B: Backend>(b: &mut B, steps: usize) -> Vec<i64> {
        let t = TableId(0);
        let mut last = vec![0; b.node_count()];
        for _ in 0..steps {
            let sums = b
                .step(|ctx| {
                    let sum: i64 = ctx
                        .drain()
                        .iter()
                        .map(|e| match &e.payload {
                            NetPayload::DeltaRows { rows, .. } => {
                                rows[0].values()[0].as_int().unwrap_or(0)
                            }
                            _ => 0,
                        })
                        .sum();
                    let next = NodeId::from((ctx.id().index() + 1) % ctx.node_count());
                    ctx.send(
                        next,
                        NetPayload::DeltaRows {
                            table: t,
                            rows: vec![row![sum + ctx.id().index() as i64 + 1]],
                        },
                    )?;
                    Ok(sum)
                })
                .unwrap();
            last = sums;
        }
        last
    }

    #[test]
    fn zero_fault_matches_bare_backend() {
        let mut bare = cluster(4);
        table(&mut bare);
        let expect = ring(&mut bare, 6);

        let mut c = cluster(4);
        table(&mut c);
        let mut ft = FaultTolerant::sequential(c, FaultPlan::none(1));
        assert_eq!(ring(&mut ft, 6), expect);
        assert_eq!(ft.wire_stats(), FaultStats::default());
        assert_eq!(ft.link_stats().retries, 0, "no spurious retransmits");
    }

    #[test]
    fn heavy_faults_are_masked() {
        let mut bare = cluster(3);
        table(&mut bare);
        let expect = ring(&mut bare, 8);

        for seed in [1, 2, 3, 4, 5] {
            let mut c = cluster(3);
            table(&mut c);
            let mut ft = FaultTolerant::sequential(c, FaultPlan::uniform(seed, 0.5));
            assert_eq!(ring(&mut ft, 8), expect, "seed {seed}");
            let stats = ft.wire_stats();
            assert!(
                stats.drops + stats.dups + stats.delays > 0,
                "seed {seed} injected nothing at rate 0.5"
            );
        }
    }

    #[test]
    fn crash_recovers_from_wal() {
        let run = |plan: Option<FaultPlan>| {
            let mut c = cluster(3);
            let t = table(&mut c);
            c.insert(t, (0..30).map(|i| row![i, i % 5]).collect())
                .unwrap();
            match plan {
                None => {
                    ring(&mut c, 6);
                    (c.scan_all(t).unwrap(), 0)
                }
                Some(p) => {
                    let mut ft = FaultTolerant::sequential(c, p);
                    ring(&mut ft, 6);
                    let replayed = ft.recovery_replayed();
                    let c = ft.into_inner();
                    (c.scan_all(t).unwrap(), replayed)
                }
            }
        };
        let (expect, _) = run(None);
        let (got, replayed) = run(Some(FaultPlan::uniform(9, 0.2).with_crash(NodeId(1), 3)));
        assert_eq!(got, expect, "post-recovery state identical");
        assert!(replayed > 0, "recovery actually replayed the WAL");
    }

    #[test]
    fn threaded_backend_masked_too() {
        let mut bare = cluster(3);
        table(&mut bare);
        let expect = ring(&mut bare, 6);

        let mut c = cluster(3);
        table(&mut c);
        let mut ft =
            FaultTolerant::threaded(ThreadedCluster::from_cluster(c), FaultPlan::uniform(7, 0.4));
        assert_eq!(ring(&mut ft, 6), expect);
    }

    #[test]
    fn crash_without_wal_is_rejected() {
        let mut c = Cluster::new(ClusterConfig::new(2).with_buffer_pages(256));
        table(&mut c);
        let mut ft = FaultTolerant::sequential(c, FaultPlan::none(1).with_crash(NodeId(0), 1));
        let err = ft.step(|_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("WAL"), "{err}");
    }
}
