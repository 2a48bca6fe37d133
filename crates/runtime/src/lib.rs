//! # pvm-runtime
//!
//! A threaded shared-nothing execution runtime for the paper's cluster:
//! each of the `L` nodes runs on its own OS thread with exclusive
//! ownership of its [`pvm_engine::NodeState`].
//!
//! [`ThreadedCluster`] implements [`pvm_engine::Backend`], so every
//! maintenance driver in `pvm-core` (naive / auxiliary relation / global
//! index) runs on it unchanged. The design goal is **metering
//! determinism**: counted `SEARCH`/`FETCH`/`INSERT`/`SEND` costs — and
//! even buffer-pool page I/O — are bit-identical to the sequential
//! [`Cluster`] backend. Three properties deliver that:
//!
//! * **join** — a step runs every node on a scoped thread and joins them
//!   all before it returns, so messages sent in step `k` are read at the
//!   start of step `k + 1`, exactly as the sequential fabric's queues
//!   behave;
//! * **src-ordered outboxes** — each node sends into its own outbox;
//!   after the join the coordinator appends the outboxes to the next
//!   step's inboxes in node order, which is the `(src asc, per-src send
//!   order)` order the sequential backend produces naturally;
//! * **charge-per-payload** — every payload charges one `SEND` plus its
//!   bytes when it is sent, by the fabric's rule (local deliveries free
//!   unless configured), so how messages move between threads never
//!   shows up in the cost model.

mod pipeline;
pub mod spsc;

use pvm_engine::{
    note_inbox, run_stages_lockstep, Backend, Cluster, ClusterConfig, NetPayload, StepCtx,
    StepProgram, StepSink,
};
use pvm_net::{Envelope, MessageSize};
use pvm_obs::{metric, Obs, Phase, TraceEvent};
use pvm_types::{CostSnapshot, NodeId, Result, Row};

/// Runtime tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Execute [`StepProgram`]s with watermark pipelining (nodes run
    /// ahead on per-edge step-close punctuation) instead of one epoch
    /// barrier per stage. Counted costs are identical either way; `false`
    /// is the barriered baseline the `parallel` bench compares against.
    pub pipeline: bool,
    /// Capacity of each per-(src, dst) SPSC ring in the pipelined mesh,
    /// in frames. Bounds how far a fast producer runs ahead of a slow
    /// consumer on one edge.
    pub edge_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            pipeline: true,
            edge_capacity: 256,
        }
    }
}

impl RuntimeConfig {
    /// The barriered baseline: stage programs run lockstep, one epoch
    /// barrier per stage.
    pub fn barriered() -> Self {
        RuntimeConfig {
            pipeline: false,
            ..RuntimeConfig::default()
        }
    }
}

/// Charged `SEND`/byte totals of node-thread traffic.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    sends: u64,
    bytes: u64,
}

impl Tally {
    /// Charge one payload of `bytes` from `src` to `dst` exactly as
    /// [`pvm_net::Fabric::send`] does, and emit the gated `Send` trace
    /// event at logical step `step`.
    fn charge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        charge_local: bool,
        obs: &Obs,
        step: u64,
    ) {
        if src != dst || charge_local {
            self.sends += 1;
            self.bytes += bytes;
        }
        if obs.enabled() {
            obs.emit(
                TraceEvent::instant(Phase::Send, src.index() as u32, step)
                    .with_peer(dst.index() as u32)
                    .with_bytes(bytes),
            );
        }
    }

    fn add(&mut self, other: Tally) {
        self.sends += other.sends;
        self.bytes += other.bytes;
    }
}

/// One node thread's [`StepSink`] for one step: charges each payload at
/// send time and keeps it, in send order, for the coordinator to deliver
/// after the join.
struct Outbox<'a> {
    src: NodeId,
    step: u64,
    charge_local: bool,
    obs: &'a Obs,
    tally: Tally,
    sent: Vec<Envelope<NetPayload>>,
}

impl StepSink for Outbox<'_> {
    fn send(&mut self, src: NodeId, dst: NodeId, payload: NetPayload) -> Result<()> {
        debug_assert_eq!(src, self.src, "outbox used by a foreign node");
        let bytes = payload.byte_size() as u64;
        self.tally
            .charge(src, dst, bytes, self.charge_local, self.obs, self.step);
        self.sent.push(Envelope { src, dst, payload });
        Ok(())
    }
}

/// The threaded backend: a [`Cluster`] whose per-node steps run on one
/// OS thread per node (scoped threads, exclusive `&mut NodeState` each).
/// A step's sends wait in per-node outboxes until every thread has
/// joined, then become the next step's inboxes. Everything that is not
/// per-node parallel work (DDL, routing, client DML, transactions,
/// metering baselines) is delegated to the inner cluster, which the
/// coordinator owns between steps.
pub struct ThreadedCluster {
    inner: Cluster,
    /// Already-charged node traffic for the next step, per destination,
    /// in `(src asc, per-src send order)`.
    next: Vec<Vec<Envelope<NetPayload>>>,
    /// Everything node threads have charged since construction.
    sent: Tally,
    config: RuntimeConfig,
}

impl ThreadedCluster {
    /// A fresh cluster running on the threaded backend.
    pub fn new(config: ClusterConfig) -> Self {
        ThreadedCluster::with_runtime(Cluster::new(config), RuntimeConfig::default())
    }

    /// Adopt an existing cluster (tables, data, counters intact).
    pub fn from_cluster(cluster: Cluster) -> Self {
        ThreadedCluster::with_runtime(cluster, RuntimeConfig::default())
    }

    pub fn with_runtime(cluster: Cluster, config: RuntimeConfig) -> Self {
        ThreadedCluster {
            next: vec![Vec::new(); Cluster::node_count(&cluster)],
            inner: cluster,
            sent: Tally::default(),
            config,
        }
    }

    pub fn runtime_config(&self) -> RuntimeConfig {
        self.config
    }

    /// Hand the cluster back (e.g. to compare against a sequential run).
    pub fn into_cluster(self) -> Cluster {
        self.inner
    }

    fn charge_local(&self) -> bool {
        self.inner.config().net.charge_local_delivery
    }

    /// This step's inboxes: last step's node traffic first (it was sent
    /// earlier), then anything the coordinator routed through the fabric
    /// between steps.
    fn take_inboxes(&mut self) -> Vec<Vec<Envelope<NetPayload>>> {
        let l = self.next.len();
        let mut inboxes = std::mem::replace(&mut self.next, vec![Vec::new(); l]);
        let fabric = self.inner.fabric_mut();
        for (dst, inbox) in inboxes.iter_mut().enumerate() {
            inbox.extend(fabric.recv_all(NodeId::from(dst)));
        }
        inboxes
    }
}

impl Backend for ThreadedCluster {
    fn engine(&self) -> &Cluster {
        &self.inner
    }

    fn engine_mut(&mut self) -> &mut Cluster {
        &mut self.inner
    }

    fn net_snapshot(&self) -> CostSnapshot {
        let mut snap = self.inner.fabric().ledger().snapshot();
        snap.sends += self.sent.sends;
        snap.bytes_sent += self.sent.bytes;
        snap
    }

    fn step<R, F>(&mut self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&mut StepCtx<'_>) -> Result<R> + Sync,
    {
        let l = Cluster::node_count(&self.inner);
        let obs = self.inner.obs_handle();
        let step = obs.begin_step();
        let charge_local = self.charge_local();
        let inboxes = self.take_inboxes();
        for (dst, inbox) in inboxes.iter().enumerate() {
            note_inbox(&obs, step, NodeId::from(dst), inbox);
        }
        let (nodes, _) = self.inner.nodes_and_fabric_mut();

        let f = &f;
        let obs_ref: &Obs = &obs;
        type NodeOutcome<T> = (
            std::time::Duration,
            Tally,
            Vec<Envelope<NetPayload>>,
            Result<T>,
        );
        let outcomes: Vec<NodeOutcome<R>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(l);
            for (node, inbox) in nodes.iter_mut().zip(inboxes) {
                handles.push(scope.spawn(move || {
                    let started = std::time::Instant::now();
                    let id = node.id();
                    let mut outbox = Outbox {
                        src: id,
                        step,
                        charge_local,
                        obs: obs_ref,
                        tally: Tally::default(),
                        sent: Vec::new(),
                    };
                    let r = f(&mut StepCtx::new(
                        id,
                        l,
                        node,
                        inbox,
                        &mut outbox,
                        obs_ref,
                        step,
                    ));
                    (started.elapsed(), outbox.tally, outbox.sent, r)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect()
        });
        // Barrier-wait metric: how long each node idled at the join
        // while the slowest node finished its step. Wall-clock is fine
        // here — only *trace timestamps* and counted costs must be
        // deterministic, and those use the logical clock / ledgers.
        let slowest = outcomes.iter().map(|o| o.0).max().unwrap_or_default();
        let hist = obs.metrics().histogram(metric::BARRIER_WAIT_US);
        let mut results = Vec::with_capacity(l);
        // Every node has joined, so appending the outboxes in src order
        // gives each next-step inbox its `(src asc, send order)` order.
        for (dur, tally, sent, r) in outcomes {
            hist.observe((slowest - dur).as_micros() as u64);
            self.sent.add(tally);
            for env in sent {
                self.next[env.dst.index()].push(env);
            }
            results.push(r);
        }
        results.into_iter().collect()
    }

    fn abort_txn(&mut self) -> Result<()> {
        // In-flight maintenance traffic from the aborted transaction must
        // not leak into the next step.
        self.next.iter_mut().for_each(Vec::clear);
        self.inner.abort_txn()
    }

    fn run_stages(
        &mut self,
        init: Vec<Vec<Row>>,
        program: &StepProgram<'_>,
    ) -> Result<Vec<Vec<Row>>> {
        // A single node has nothing to overlap with — the pipelined path
        // would only add ring traffic and scope overhead — so L=1 runs
        // lockstep regardless of configuration.
        if !self.config.pipeline || self.node_count() == 1 || program.is_empty() {
            return run_stages_lockstep(self, init, program);
        }
        pipeline::run_pipelined(self, init, program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_engine::TableDef;
    use pvm_types::{row, Column, PvmError, Row, Schema};

    fn payload(rows: Vec<Row>) -> NetPayload {
        NetPayload::ResultRows {
            table: pvm_engine::TableId(0),
            rows,
        }
    }

    fn small_cluster() -> Cluster {
        let mut c = Cluster::new(ClusterConfig::new(4));
        let schema = Schema::new(vec![Column::int("k"), Column::int("v")]).into_ref();
        c.create_table(TableDef::hash_clustered("t", schema, 0))
            .unwrap();
        c
    }

    #[test]
    fn threaded_step_epoch_semantics() {
        // Step 1: every node sends two payloads to node 0 (node 0's own
        // are local deliveries); between the steps the coordinator routes
        // one fabric message; step 2 reads every inbox as (src, row).
        fn run<B: Backend>(b: &mut B) -> (Vec<Vec<(u16, Row)>>, CostSnapshot) {
            let seen = b
                .step(|ctx| {
                    let n = ctx.drain().len();
                    let me = ctx.id().0 as i64;
                    for k in 0..2i64 {
                        ctx.send(NodeId::from(0), payload(vec![row![me, k]]))?;
                    }
                    Ok(n)
                })
                .unwrap();
            assert_eq!(seen, vec![0, 0, 0], "sends are not delivered in-step");
            b.engine_mut()
                .send(
                    NodeId::from(2),
                    NodeId::from(0),
                    payload(vec![row![-1, -1]]),
                )
                .unwrap();
            let inboxes = b
                .step(|ctx| {
                    Ok(ctx
                        .drain()
                        .into_iter()
                        .map(|e| {
                            let NetPayload::ResultRows { mut rows, .. } = e.payload else {
                                unreachable!()
                            };
                            (e.src.0, rows.remove(0))
                        })
                        .collect::<Vec<_>>())
                })
                .unwrap();
            (inboxes, b.net_snapshot())
        }

        let (expect, expect_net) = run(&mut Cluster::new(ClusterConfig::new(3)));
        let srcs: Vec<u16> = expect[0].iter().map(|(src, _)| *src).collect();
        assert_eq!(srcs, vec![0, 0, 1, 1, 2, 2, 2]);
        assert!(expect[1].is_empty() && expect[2].is_empty());
        assert_eq!(expect_net.sends, 5, "node 0's self-sends are uncharged");
        for config in [RuntimeConfig::default(), RuntimeConfig::barriered()] {
            let mut tc = ThreadedCluster::with_runtime(Cluster::new(ClusterConfig::new(3)), config);
            let (got, net) = run(&mut tc);
            assert_eq!(got, expect, "{config:?}: inbox (src, payload) order");
            assert_eq!(net, expect_net, "{config:?}: charged SEND/byte totals");
        }
    }

    #[test]
    fn threaded_matches_sequential_costs() {
        // The same step program on both backends must produce identical
        // node snapshots and identical charged SEND/byte totals.
        let mut seq = small_cluster();
        let t = seq.table_id("t").unwrap();
        seq.insert(t, (0..40).map(|i| row![i, i]).collect())
            .unwrap();
        let mut thr = ThreadedCluster::from_cluster({
            let mut c = small_cluster();
            c.insert(t, (0..40).map(|i| row![i, i]).collect()).unwrap();
            c
        });

        let g_seq = seq.start_meter();
        let g_thr = thr.start_meter();
        // One broadcast step + one probe step, on each backend.
        seq.step(|ctx| {
            ctx.broadcast(&payload(vec![row![7, 7]]))?;
            Ok(())
        })
        .unwrap();
        seq.step(|ctx| {
            for env in ctx.drain() {
                let NetPayload::ResultRows { rows, .. } = env.payload else {
                    unreachable!()
                };
                for r in rows {
                    ctx.node.index_search(t, &[0], &r.project(&[0])?)?;
                }
            }
            Ok(())
        })
        .unwrap();
        thr.step(|ctx| {
            ctx.broadcast(&payload(vec![row![7, 7]]))?;
            Ok(())
        })
        .unwrap();
        thr.step(|ctx| {
            for env in ctx.drain() {
                let NetPayload::ResultRows { rows, .. } = env.payload else {
                    unreachable!()
                };
                for r in rows {
                    ctx.node.index_search(t, &[0], &r.project(&[0])?)?;
                }
            }
            Ok(())
        })
        .unwrap();

        let r_seq = seq.finish_meter(&g_seq);
        let r_thr = thr.finish_meter(&g_thr);
        assert_eq!(r_seq.per_node, r_thr.per_node, "identical node snapshots");
        assert_eq!(r_seq.net, r_thr.net, "identical SEND/byte totals");
    }

    #[test]
    fn heavy_light_repartition_matches_sequential_placement() {
        // Reorganizing a table to a heavy-light spec goes through the
        // threaded backend's engine access (`MaintainedView::rebalance`
        // path) and must land every row on exactly the node the
        // sequential backend picks — routing is backend-independent.
        use pvm_engine::{PartitionSpec, SpreadMode};
        use pvm_types::Value;
        let rows: Vec<Row> = (0..32).map(|i| row![i, i % 4]).collect();
        let build = || {
            let mut c = small_cluster();
            let t = c.table_id("t").unwrap();
            c.insert(t, rows.clone()).unwrap();
            (c, t)
        };
        let (mut seq, t) = build();
        let mut thr = ThreadedCluster::from_cluster(build().0);
        let spec = PartitionSpec::heavy_light(1, vec![Value::Int(0)], 2, SpreadMode::Salt);
        let moved_seq = seq.repartition(t, spec.clone()).unwrap();
        let moved_thr = thr.engine_mut().repartition(t, spec).unwrap();
        assert_eq!(moved_seq, moved_thr, "identical migration volume");
        for node in 0..4u16 {
            let id = NodeId::from(node as usize);
            let mut on_seq: Vec<Row> = seq
                .node(id)
                .unwrap()
                .storage(t)
                .unwrap()
                .scan()
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            let mut on_thr: Vec<Row> = thr
                .engine()
                .node(id)
                .unwrap()
                .storage(t)
                .unwrap()
                .scan()
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            on_seq.sort();
            on_thr.sort();
            assert_eq!(on_seq, on_thr, "node {node}: row placement diverged");
        }
    }

    fn count_payload_rows(envs: Vec<Envelope<NetPayload>>) -> usize {
        envs.into_iter()
            .map(|e| {
                let NetPayload::ResultRows { rows, .. } = e.payload else {
                    unreachable!()
                };
                rows.len()
            })
            .sum()
    }

    /// A 3-stage program exercising routed sends, a multicast, and a
    /// send-free tail: every backend must agree on carries and charges.
    fn probe_like_program<'p>() -> StepProgram<'p> {
        StepProgram::new()
            .stage(|ctx, carry| {
                // Route: each node ships its carry rows to node (i+1)%L
                // and broadcasts one marker row.
                let l = ctx.node_count();
                let dst = NodeId::from((ctx.id().index() + 1) % l);
                ctx.send(
                    dst,
                    NetPayload::ResultRows {
                        table: pvm_engine::TableId(0),
                        rows: carry,
                    },
                )?;
                ctx.broadcast(&payload(vec![row![-1]]))?;
                Ok(Vec::new())
            })
            .stage(|ctx, _| {
                // Forward every received row onward to node 0.
                let rows: Vec<Row> = ctx
                    .drain()
                    .into_iter()
                    .flat_map(|e| {
                        let NetPayload::ResultRows { rows, .. } = e.payload else {
                            unreachable!()
                        };
                        rows
                    })
                    .collect();
                let n = rows.len() as i64;
                ctx.send(NodeId::from(0), payload(rows))?;
                Ok(vec![row![n]])
            })
            .local_stage(|ctx, carry| {
                let received = count_payload_rows(ctx.drain()) as i64;
                Ok(carry.into_iter().chain([row![received]]).collect())
            })
    }

    #[test]
    fn pipelined_matches_lockstep_carries_and_charges() {
        let init = |l: usize| -> Vec<Vec<Row>> {
            (0..l)
                .map(|i| vec![row![i as i64], row![10 + i as i64]])
                .collect()
        };
        let mut barriered = ThreadedCluster::with_runtime(
            Cluster::new(ClusterConfig::new(4)),
            RuntimeConfig::barriered(),
        );
        let mut pipelined = ThreadedCluster::new(ClusterConfig::new(4));
        assert!(
            pipelined.runtime_config().pipeline,
            "pipelining is the default"
        );
        let program = probe_like_program();
        let carries_b = barriered.run_stages(init(4), &program).unwrap();
        let carries_p = pipelined.run_stages(init(4), &program).unwrap();
        assert_eq!(carries_b, carries_p, "per-node carries identical");
        assert_eq!(
            barriered.net_snapshot(),
            pipelined.net_snapshot(),
            "charged SEND/byte totals identical"
        );
        // And both advanced the logical clock by exactly one tick per stage.
        assert_eq!(
            barriered.engine().obs_handle().now(),
            pipelined.engine().obs_handle().now()
        );
    }

    #[test]
    fn pipelined_final_stage_sends_arrive_next_step() {
        let mut tc = ThreadedCluster::new(ClusterConfig::new(3));
        let program = StepProgram::new().stage(|ctx, _| {
            ctx.send(NodeId::from(0), payload(vec![row![ctx.id().0 as i64]]))?;
            Ok(Vec::new())
        });
        tc.run_stages(vec![Vec::new(); 3], &program).unwrap();
        // The program's last sends are residuals: delivered at the start
        // of the next backend step, in (src asc, send order).
        let seen = tc
            .step(|ctx| Ok(ctx.drain().iter().map(|e| e.src.0).collect::<Vec<u16>>()))
            .unwrap();
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert!(seen[1].is_empty() && seen[2].is_empty());
    }

    #[test]
    fn pipelined_sees_prior_step_traffic_at_stage_zero() {
        let mut tc = ThreadedCluster::new(ClusterConfig::new(2));
        tc.step(|ctx| {
            ctx.send(NodeId::from(1), payload(vec![row![ctx.id().0 as i64]]))?;
            Ok(())
        })
        .unwrap();
        let program = StepProgram::new()
            .local_stage(|ctx, _| Ok(vec![row![count_payload_rows(ctx.drain()) as i64]]));
        let carries = tc.run_stages(vec![Vec::new(); 2], &program).unwrap();
        assert_eq!(carries, vec![vec![row![0]], vec![row![2]]]);
    }

    #[test]
    fn local_stage_send_is_rejected() {
        let mut tc = ThreadedCluster::new(ClusterConfig::new(2));
        let program = StepProgram::new().local_stage(|ctx, _| {
            ctx.send(NodeId::from(0), payload(vec![row![1]]))?;
            Ok(Vec::new())
        });
        let err = tc.run_stages(vec![Vec::new(); 2], &program).unwrap_err();
        assert!(err.to_string().contains("send-free"), "got: {err}");
    }

    #[test]
    fn pipelined_stage_error_surfaces_root_cause() {
        let mut tc = ThreadedCluster::new(ClusterConfig::new(4));
        let program = StepProgram::new()
            .stage(|ctx, _| {
                if ctx.id().index() == 2 {
                    return Err(PvmError::InvalidOperation("node 2 exploded".into()));
                }
                ctx.broadcast(&payload(vec![row![1]]))?;
                Ok(Vec::new())
            })
            .local_stage(|ctx, _| {
                ctx.drain();
                Ok(Vec::new())
            });
        let err = tc.run_stages(vec![Vec::new(); 4], &program).unwrap_err();
        assert_eq!(
            err.to_string(),
            PvmError::InvalidOperation("node 2 exploded".into()).to_string()
        );
        // The backend stays usable after the failed program.
        let seen = tc.step(|ctx| Ok(ctx.drain().len())).unwrap();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn pipelined_multicast_charges_match_barriered_broadcast() {
        // An Arc-shared multicast frame must charge exactly what per-dst
        // clones charge: L-1 sends (self copy local) and identical bytes.
        for config in [RuntimeConfig::default(), RuntimeConfig::barriered()] {
            let mut tc = ThreadedCluster::with_runtime(Cluster::new(ClusterConfig::new(3)), config);
            let program = StepProgram::new().stage(|ctx, _| {
                ctx.broadcast(&payload(vec![row![7, 8, 9]]))?;
                Ok(Vec::new())
            });
            tc.run_stages(vec![Vec::new(); 3], &program).unwrap();
            let net = tc.net_snapshot();
            let (sends, bytes) = (net.sends, net.bytes_sent);
            assert_eq!(sends, 3 * 2, "each node: L-1 charged copies");
            assert_eq!(bytes % sends, 0, "every copy charged the same size");
        }
    }

    #[test]
    fn tiny_edge_capacity_still_completes() {
        // Capacity 2 forces constant full-ring backpressure; the
        // drain-own-inbound discipline must still terminate with the
        // right answer.
        let config = RuntimeConfig {
            edge_capacity: 2,
            ..RuntimeConfig::default()
        };
        let mut tc = ThreadedCluster::with_runtime(Cluster::new(ClusterConfig::new(4)), config);
        let program = StepProgram::new()
            .stage(|ctx, _| {
                for i in 0..64 {
                    ctx.send(
                        NodeId::from(i % ctx.node_count()),
                        payload(vec![row![i as i64]]),
                    )?;
                }
                Ok(Vec::new())
            })
            .local_stage(|ctx, _| Ok(vec![row![count_payload_rows(ctx.drain()) as i64]]));
        let carries = tc.run_stages(vec![Vec::new(); 4], &program).unwrap();
        let total: i64 = carries
            .iter()
            .map(|c| c[0].try_get(0).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 4 * 64, "every routed row arrived exactly once");
    }

    #[test]
    fn abort_clears_inflight_traffic() {
        let mut tc = ThreadedCluster::new(ClusterConfig::new(2));
        tc.begin_txn().unwrap();
        tc.step(|ctx| {
            ctx.send(NodeId::from(0), payload(vec![row![1]]))?;
            Ok(())
        })
        .unwrap();
        tc.abort_txn().unwrap();
        let seen = tc.step(|ctx| Ok(ctx.drain().len())).unwrap();
        assert_eq!(seen, vec![0, 0], "aborted traffic never arrives");
    }
}
