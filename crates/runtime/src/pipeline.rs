//! Watermark-pipelined execution of a [`StepProgram`] — the barrier-free
//! scheduler that replaces one global join per logical step with per-edge
//! step-close punctuation.
//!
//! ## Protocol
//!
//! Every directed `(src, dst)` node pair gets one bounded SPSC ring
//! carrying [`PipeFrame`]s. A **sending** stage `s` pushes its payloads
//! as `Payload`/`Shared` frames stamped with the stage's logical step,
//! then pushes exactly one `Close` frame per out-edge (its own edge
//! included) — the watermark that tells the consumer "everything I will
//! ever send for step `s` has been sent". A node about to run stage
//! `s + 1` waits only until it holds the `Close` for step `s` from **all
//! `L` sources**, then assembles its inbox in `(src asc, per-src send
//! order)` — exactly the order the epoch barrier produced — and runs.
//! Fast nodes run ahead of slow ones; nothing ever waits on the
//! cluster-wide slowest except a genuine data dependency.
//!
//! ## Deadlock freedom
//!
//! A full ring never blocks its producer outright: the producer drains
//! its *own* inbound edges (so its upstream peers can't be stuck on it)
//! and retries. Every blocking loop in this module — full-ring retry,
//! watermark wait, end-of-program drain — pumps all inbound rings on
//! every spin, so every consumer makes progress whenever any producer
//! does, and the mesh always drains.
//!
//! ## Termination
//!
//! A worker that finishes its last stage may still be the delivery target
//! of peers' final-stage frames, so it cannot just exit: it increments a
//! shared done-counter and keeps pumping until all `L` workers have
//! incremented it. A worker only increments after its final push, so
//! `done == L` implies every frame is in some ring; one last pump then
//! empties them all. Leftover frames at that point are exactly the final
//! sending stage's output — messages the program addressed to the *next*
//! backend step — and are appended to the [`ThreadedCluster`]'s next-step
//! inboxes, preserving the "sent at step k, delivered at step k + 1"
//! contract across the program boundary.
//!
//! ## Cost parity
//!
//! Counted costs cannot diverge from the lockstep oracle: per-node
//! ledgers are touched only by that node's own thread, stage bodies are
//! identical, inbox contents and order are reproduced exactly, and SEND
//! charging uses the same per-payload rule as a lockstep step's outbox
//! — multicast `Shared` frames share one allocation across edges but are
//! still charged once per destination, with the byte size measured once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use pvm_engine::{note_inbox, Cluster, NetPayload, NodeState, StepCtx, StepProgram, StepSink};
use pvm_net::{Envelope, MessageSize, PipeFrame};
use pvm_obs::{metric, Histogram, Obs};
use pvm_types::{NodeId, PvmError, Result, Row};

use crate::spsc::{self, Consumer, Producer};
use crate::{Tally, ThreadedCluster};

type Frame = PipeFrame<NetPayload>;

/// Error a worker reports when it stopped because *another* node failed.
/// The coordinator filters these out in favor of the root cause.
const PEER_ABORT: &str = "pipelined stage aborted by peer failure";

fn peer_abort() -> PvmError {
    PvmError::InvalidOperation(PEER_ABORT.into())
}

pub(crate) fn is_peer_abort(e: &PvmError) -> bool {
    matches!(e, PvmError::InvalidOperation(m) if m == PEER_ABORT)
}

/// Sets the abort flag if the owning worker unwinds, so peers spinning in
/// watermark or ring waits escape instead of hanging the scope join.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Adaptive spin-then-park backoff shared by this module's blocking
/// loops (full-ring retry, watermark wait, termination drain). Purely a
/// scheduling policy: callers still pump their inbound rings on every
/// wake, so frame delivery order — and therefore every counted cost —
/// is untouched. A short yield-spin keeps the fast path (peer actively
/// producing) at sub-microsecond latency; past the spin budget the
/// waiter parks for a bounded interval so a long stall (skewed peer,
/// oversized batch on another node) stops burning a core. Timed parks
/// need no waker protocol: the park bound caps added latency at
/// [`Backoff::PARK_US`] per wake.
struct Backoff {
    spins: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 128;
    const PARK_US: u64 = 50;

    fn new() -> Self {
        Backoff { spins: 0 }
    }

    /// Wait once, escalating from `yield_now` to a bounded timed park.
    fn wait(&mut self) {
        if self.spins < Self::SPIN_LIMIT {
            self.spins += 1;
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(std::time::Duration::from_micros(Self::PARK_US));
        }
    }
}

/// One worker's inbound side of the mesh: the `L` consumer handles plus
/// per-source reorder buffers holding frames popped (to keep producers
/// moving) but not yet consumed by a stage.
struct Inbound {
    consumers: Vec<Consumer<Frame>>,
    bufs: Vec<VecDeque<Frame>>,
    /// Per source: `Close` frames currently sitting in `bufs` — the
    /// watermark check is O(1) because closes are consumed strictly in
    /// stage order.
    closes_pending: Vec<usize>,
}

impl Inbound {
    fn new(consumers: Vec<Consumer<Frame>>) -> Self {
        let l = consumers.len();
        Inbound {
            consumers,
            bufs: (0..l).map(|_| VecDeque::new()).collect(),
            closes_pending: vec![0; l],
        }
    }

    /// Drain everything currently published on every inbound ring.
    fn pump(&mut self) {
        for (src, c) in self.consumers.iter_mut().enumerate() {
            while let Some(f) = c.pop() {
                if matches!(f, PipeFrame::Close { .. }) {
                    self.closes_pending[src] += 1;
                }
                self.bufs[src].push_back(f);
            }
        }
    }

    /// Whether the next unconsumed `Close` from `src` has arrived.
    fn close_ready(&self, src: usize) -> bool {
        self.closes_pending[src] > 0
    }

    /// Pop each source's frames up to (and including) its `Close` for
    /// logical step `step`, yielding the stage inbox in `(src asc,
    /// per-src send order)` — the epoch barrier's delivery order.
    fn collect_stage(&mut self, me: NodeId, step: u64) -> Result<Vec<Envelope<NetPayload>>> {
        let mut inbox = Vec::new();
        for src in 0..self.bufs.len() {
            loop {
                let frame = self.bufs[src].pop_front().ok_or_else(|| {
                    PvmError::Corrupt(format!(
                        "pipelined inbox missing close punctuation from node {src} for step {step}"
                    ))
                })?;
                match frame {
                    PipeFrame::Close { step: s } => {
                        debug_assert_eq!(s, step, "closes consumed out of stage order");
                        self.closes_pending[src] -= 1;
                        break;
                    }
                    payload => {
                        debug_assert_eq!(payload.step(), step);
                        if let Some(p) = payload.into_payload() {
                            inbox.push(Envelope {
                                src: NodeId::from(src),
                                dst: me,
                                payload: p,
                            });
                        }
                    }
                }
            }
        }
        Ok(inbox)
    }

    /// Everything left after the final pump: the last sending stage's
    /// frames, addressed to the next backend step.
    fn into_residuals(self, me: NodeId) -> Vec<Envelope<NetPayload>> {
        let mut out = Vec::new();
        for (src, buf) in self.bufs.into_iter().enumerate() {
            for frame in buf {
                if let Some(p) = frame.into_payload() {
                    out.push(Envelope {
                        src: NodeId::from(src),
                        dst: me,
                        payload: p,
                    });
                }
            }
        }
        out
    }
}

/// The [`StepSink`] a pipelined stage sends through: frames go straight
/// onto the per-edge rings, stamped with the stage's logical step.
/// Charging is the lockstep outbox's, payload for payload, into the
/// worker's own tally.
struct PipeSink<'w> {
    src: NodeId,
    step: u64,
    charge_local: bool,
    tally: &'w mut Tally,
    obs: &'w Obs,
    producers: &'w mut [Producer<Frame>],
    inbound: &'w mut Inbound,
    abort: &'w AtomicBool,
}

impl PipeSink<'_> {
    fn charge(&mut self, dst: NodeId, bytes: u64) {
        // Explicit step: the shared clock already sits at the program's
        // last stage, so `obs.now()` would mis-stamp.
        self.tally
            .charge(self.src, dst, bytes, self.charge_local, self.obs, self.step);
    }

    /// Push with the drain-own-inbound discipline; fails only on abort.
    fn push_frame(&mut self, dst: usize, mut frame: Frame) -> Result<()> {
        let mut backoff = Backoff::new();
        loop {
            match self.producers[dst].push(frame) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    frame = back;
                    if self.abort.load(Ordering::Relaxed) {
                        return Err(peer_abort());
                    }
                    self.inbound.pump();
                    backoff.wait();
                }
            }
        }
    }

    /// Close this stage's watermark on every out-edge.
    fn close_stage(&mut self) -> Result<()> {
        for dst in 0..self.producers.len() {
            self.push_frame(dst, PipeFrame::Close { step: self.step })?;
        }
        Ok(())
    }
}

impl StepSink for PipeSink<'_> {
    fn send(&mut self, src: NodeId, dst: NodeId, payload: NetPayload) -> Result<()> {
        debug_assert_eq!(src, self.src, "pipe sink used by a foreign node");
        self.charge(dst, payload.byte_size() as u64);
        self.push_frame(
            dst.index(),
            PipeFrame::Payload {
                step: self.step,
                payload,
            },
        )
    }

    fn send_all(&mut self, src: NodeId, node_count: usize, payload: &NetPayload) -> Result<()> {
        debug_assert_eq!(src, self.src, "pipe sink used by a foreign node");
        // Encode-once multicast: measure and allocate a single shared
        // payload, charge per destination as the per-clone path would.
        let bytes = payload.byte_size() as u64;
        let shared = std::sync::Arc::new(payload.clone());
        for d in 0..node_count {
            self.charge(NodeId::from(d), bytes);
            self.push_frame(
                d,
                PipeFrame::Shared {
                    step: self.step,
                    payload: std::sync::Arc::clone(&shared),
                    bytes,
                },
            )?;
        }
        Ok(())
    }

    fn send_to(&mut self, src: NodeId, dsts: &[NodeId], payload: &NetPayload) -> Result<()> {
        debug_assert_eq!(src, self.src, "pipe sink used by a foreign node");
        // Encode-once subset multicast (the group-maintenance ship path):
        // one shared allocation fanned to the listed destinations, charged
        // per destination exactly as the per-clone default would.
        let bytes = payload.byte_size() as u64;
        let shared = std::sync::Arc::new(payload.clone());
        for &d in dsts {
            self.charge(d, bytes);
            self.push_frame(
                d.index(),
                PipeFrame::Shared {
                    step: self.step,
                    payload: std::sync::Arc::clone(&shared),
                    bytes,
                },
            )?;
        }
        Ok(())
    }
}

/// Shared coordination state for one pipelined program run.
struct Mesh<'s> {
    l: usize,
    base: u64,
    abort: &'s AtomicBool,
    /// Per node: number of completed stages — feeds `run_ahead_steps`.
    progress: &'s [AtomicU64],
    /// Workers that have finished every stage (and their final pushes).
    done: &'s AtomicUsize,
    charge_local: bool,
}

/// Everything one worker thread returns on success.
type WorkerOutput = (Vec<Row>, Vec<Envelope<NetPayload>>);

/// Run one node's stages. Its charges come back even when a stage
/// fails, as they do from a failed lockstep step.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    mesh: &Mesh<'_>,
    id: NodeId,
    node: &mut NodeState,
    stage0_inbox: Vec<Envelope<NetPayload>>,
    mut producers: Vec<Producer<Frame>>,
    mut inbound: Inbound,
    obs: &Obs,
    program: &StepProgram<'_>,
    mut carry: Vec<Row>,
) -> (Tally, Result<WorkerOutput>) {
    let _guard = AbortOnPanic(mesh.abort);
    let mut tally = Tally::default();
    let run_ahead_hist: std::sync::Arc<Histogram> =
        obs.metrics().histogram(metric::RUN_AHEAD_STEPS);
    let lag_hist: std::sync::Arc<Histogram> = obs.metrics().histogram(metric::WATERMARK_LAG_US);
    let mut stage0_inbox = Some(stage0_inbox);
    let stages = program.stages();
    let mut outcome: Result<()> = Ok(());

    'stages: for (s, stage) in stages.iter().enumerate() {
        let step = mesh.base + s as u64;
        // Stage `s` has an inbox only if the previous stage sent: its
        // payloads arrive "next step", i.e. exactly here. Stage 0's inbox
        // is what the coordinator delivered (prior-step transport traffic
        // plus fabric routing).
        let inbox = if s == 0 {
            stage0_inbox.take().expect("stage 0 runs once")
        } else if stages[s - 1].sends() {
            let wait = Instant::now();
            let mut backoff = Backoff::new();
            loop {
                inbound.pump();
                if (0..mesh.l).all(|src| inbound.close_ready(src)) {
                    break;
                }
                if mesh.abort.load(Ordering::Relaxed) {
                    outcome = Err(peer_abort());
                    break 'stages;
                }
                backoff.wait();
            }
            lag_hist.observe(wait.elapsed().as_micros() as u64);
            // No `?` here: an early return would skip the termination
            // drain below and strand peers mid-push.
            match inbound.collect_stage(id, step - 1) {
                Ok(inbox) => inbox,
                Err(e) => {
                    outcome = Err(e);
                    break 'stages;
                }
            }
        } else {
            Vec::new()
        };
        // How far ahead of the slowest node this stage starts.
        let min_progress = mesh
            .progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0);
        run_ahead_hist.observe((s as u64).saturating_sub(min_progress));
        note_inbox(obs, step, id, &inbox);

        let mut sink = PipeSink {
            src: id,
            step,
            charge_local: mesh.charge_local,
            tally: &mut tally,
            obs,
            producers: &mut producers,
            inbound: &mut inbound,
            abort: mesh.abort,
        };
        let mut ctx = StepCtx::new(id, mesh.l, node, inbox, &mut sink, obs, step);
        if !stage.sends() {
            ctx.forbid_sends();
        }
        match stage.call(&mut ctx, std::mem::take(&mut carry)) {
            Ok(next) => carry = next,
            Err(e) => {
                outcome = Err(e);
                break 'stages;
            }
        }
        if stage.sends() {
            if let Err(e) = sink.close_stage() {
                outcome = Err(e);
                break 'stages;
            }
        }
        mesh.progress[id.index()].store(s as u64 + 1, Ordering::Release);
    }

    if outcome.is_err() {
        mesh.abort.store(true, Ordering::Relaxed);
    }
    // Termination drain: peers may still be pushing their final-stage
    // frames at us; keep our rings moving until everyone is done (or the
    // run is aborting, in which case leftover frames die with the rings).
    mesh.done.fetch_add(1, Ordering::AcqRel);
    let mut backoff = Backoff::new();
    loop {
        if mesh.done.load(Ordering::Acquire) == mesh.l {
            break;
        }
        if mesh.abort.load(Ordering::Relaxed) {
            break;
        }
        inbound.pump();
        backoff.wait();
    }
    inbound.pump();
    let output = outcome.map(|()| (carry, inbound.into_residuals(id)));
    (tally, output)
}

/// Run `program` with watermark pipelining across the node threads.
/// Entry point for [`ThreadedCluster::run_stages`]; counted costs are
/// bit-identical to [`pvm_engine::run_stages_lockstep`].
pub(crate) fn run_pipelined(
    tc: &mut ThreadedCluster,
    init: Vec<Vec<Row>>,
    program: &StepProgram<'_>,
) -> Result<Vec<Vec<Row>>> {
    let l = Cluster::node_count(&tc.inner);
    if init.len() != l {
        return Err(PvmError::InvalidOperation(format!(
            "stage program init carries {} nodes, cluster has {l}",
            init.len()
        )));
    }
    let obs = tc.inner.obs_handle();
    let base = obs.begin_steps(program.len() as u64);

    // Stage-0 inboxes: exactly what a barriered step would deliver now.
    let inboxes = tc.take_inboxes();
    let charge_local = tc.charge_local();
    let cap = tc.config.edge_capacity;
    let (nodes, _) = tc.inner.nodes_and_fabric_mut();

    // Build the L×L ring mesh: producers[src][dst], consumers[dst][src].
    let mut producers: Vec<Vec<Producer<Frame>>> = (0..l).map(|_| Vec::with_capacity(l)).collect();
    let mut consumers: Vec<Vec<Option<Consumer<Frame>>>> =
        (0..l).map(|_| (0..l).map(|_| None).collect()).collect();
    for (src, row) in producers.iter_mut().enumerate() {
        for dst_slots in consumers.iter_mut() {
            let (p, c) = spsc::ring(cap);
            row.push(p);
            dst_slots[src] = Some(c);
        }
    }

    let abort = AtomicBool::new(false);
    let progress: Vec<AtomicU64> = (0..l).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicUsize::new(0);
    let mesh = Mesh {
        l,
        base,
        abort: &abort,
        progress: &progress,
        done: &done,
        charge_local,
    };

    let obs_ref = obs.as_ref();
    let mesh_ref = &mesh;
    let outcomes: Vec<(Tally, Result<WorkerOutput>)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(l);
        let worker_inputs = nodes
            .iter_mut()
            .zip(inboxes)
            .zip(producers)
            .zip(consumers)
            .zip(init);
        for ((((node, inbox), prods), cons), carry) in worker_inputs {
            handles.push(scope.spawn(move || {
                let id = node.id();
                let inbound =
                    Inbound::new(cons.into_iter().map(|c| c.expect("edge wired")).collect());
                run_worker(
                    mesh_ref, id, node, inbox, prods, inbound, obs_ref, program, carry,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("pipelined node thread panicked"))
            .collect()
    });

    let mut results = Vec::with_capacity(l);
    for (tally, outcome) in outcomes {
        tc.sent.add(tally);
        results.push(outcome);
    }
    // Prefer the root-cause error over peers' abort echoes.
    if results.iter().any(|o| o.is_err()) {
        let mut first_err = None;
        for o in results {
            if let Err(e) = o {
                if !is_peer_abort(&e) {
                    return Err(e);
                }
                first_err.get_or_insert(e);
            }
        }
        return Err(first_err.expect("at least one error"));
    }

    let mut carries = Vec::with_capacity(l);
    for (dst, outcome) in results.into_iter().enumerate() {
        let (carry, residuals) = outcome.expect("errors returned above");
        tc.next[dst].extend(residuals);
        carries.push(carry);
    }
    Ok(carries)
}
