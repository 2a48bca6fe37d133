//! # pvm-faults
//!
//! Seed-deterministic fault injection for the simulated cluster.
//!
//! [`FaultyTransport`] wraps any [`Transport`] — [`FaultTolerant`] puts
//! it over a [`Fabric`](pvm_net::Fabric) on either backend — and injects message **drop / duplicate / delay-by-k-steps** faults
//! plus scheduled **node crashes** from a [`FaultPlan`], all driven by a
//! [`SplitMix64`] PRNG so a `(seed, plan)` pair replays the exact same
//! fault sequence every run.
//!
//! Faults are injected on the **receive** path: the original send is
//! charged once by the inner transport; what the fault layer mangles is
//! delivery. The reliability layer (`pvm_net::reliable`) sits *above*
//! this wrapper and restores the exactly-once in-order contract;
//! [`FaultTolerant`] packages both around a
//! [`Backend`](pvm_engine::Backend) together with WAL-replay crash
//! recovery.
//!
//! Determinism: the wrapper is pumped only by the single-threaded
//! coordinator, envelopes arrive in each transport's deterministic
//! delivery order, and every fault decision consumes PRNG draws in that
//! order — so the whole faulted execution is a pure function of
//! `(plan, workload)`.

use pvm_net::{Envelope, MessageSize, Transport};
use pvm_types::{NodeId, Result};

mod backend;

pub use backend::FaultTolerant;

/// SplitMix64: tiny, seed-stable PRNG (Steele et al.,
/// "Fast Splittable Pseudorandom Number Generators"). Zero dependencies
/// and identical output on every platform, which is all the fault layer
/// needs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A scheduled fail-stop crash: `node` loses its in-memory state at the
/// start of driver step `at_step` (1-based) and is rebuilt from the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    pub node: NodeId,
    pub at_step: u64,
}

/// A deterministic fault schedule. Message-fault probabilities are in
/// parts-per-million of `1_000_000`, drawn per delivered frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; the entire fault sequence is a function of it.
    pub seed: u64,
    /// P(frame is dropped), ppm.
    pub drop_ppm: u32,
    /// P(frame is duplicated), ppm.
    pub dup_ppm: u32,
    /// P(frame is delayed), ppm.
    pub delay_ppm: u32,
    /// Delayed frames reappear after `1 + (draw % max_delay)` steps.
    pub max_delay: u64,
    /// Scheduled node crashes.
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// No message faults, no crashes — the identity plan.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            max_delay: 3,
            crashes: Vec::new(),
        }
    }

    /// Split a total fault `rate` (0.0..=1.0) evenly across drop,
    /// duplicate, and delay.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let per_class = ((rate.clamp(0.0, 1.0) / 3.0) * 1_000_000.0) as u32;
        FaultPlan {
            seed,
            drop_ppm: per_class,
            dup_ppm: per_class,
            delay_ppm: per_class,
            max_delay: 3,
            crashes: Vec::new(),
        }
    }

    /// Add a scheduled crash.
    pub fn with_crash(mut self, node: NodeId, at_step: u64) -> Self {
        self.crashes.push(CrashPoint { node, at_step });
        self
    }

    /// True when the plan can never perturb anything.
    pub fn is_zero(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.delay_ppm == 0 && self.crashes.is_empty()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={} drop={}ppm dup={}ppm delay={}ppm(max {}) crashes=[",
            self.seed, self.drop_ppm, self.dup_ppm, self.delay_ppm, self.max_delay
        )?;
        for (i, c) in self.crashes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}@step{}", c.node, c.at_step)?;
        }
        write!(f, "]")
    }
}

/// What the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub drops: u64,
    pub dups: u64,
    pub delays: u64,
}

/// A [`Transport`] wrapper that injects the plan's message faults on the
/// **delivery** path. Sends pass straight through (and are charged once
/// by the inner transport); on `recv_all` each arriving envelope rolls
/// the PRNG and is dropped, duplicated, delayed by 1..=`max_delay`
/// logical steps ([`FaultyTransport::advance_step`]), or delivered
/// untouched. With a zero plan no PRNG draw is made and delivery is a
/// strict identity.
#[derive(Debug)]
pub struct FaultyTransport<P, T> {
    inner: T,
    plan: FaultPlan,
    rng: SplitMix64,
    /// Logical step clock for delay release.
    now: u64,
    /// Per-destination frames parked until `release <= now`.
    delayed: Vec<Vec<(u64, Envelope<P>)>>,
    stats: FaultStats,
}

impl<P: MessageSize, T: Transport<P>> FaultyTransport<P, T> {
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let nodes = inner.node_count();
        let rng = SplitMix64::new(plan.seed);
        FaultyTransport {
            inner,
            plan,
            rng,
            now: 0,
            delayed: (0..nodes).map(|_| Vec::new()).collect(),
            stats: FaultStats::default(),
        }
    }

    /// Advance the logical delay clock one step.
    pub fn advance_step(&mut self) {
        self.now += 1;
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Discard parked frames (transaction abort).
    pub fn clear_delayed(&mut self) {
        for q in &mut self.delayed {
            q.clear();
        }
    }
}

impl<P: MessageSize + Clone, T: Transport<P>> Transport<P> for FaultyTransport<P, T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) -> Result<()> {
        self.inner.send(src, dst, payload)
    }

    fn recv_all(&mut self, dst: NodeId) -> Vec<Envelope<P>> {
        let d = dst.index();
        let mut out = Vec::new();
        // Release parked frames whose delay has elapsed, preserving
        // their park order.
        if let Some(q) = self.delayed.get_mut(d) {
            let mut still = Vec::new();
            for (release, env) in q.drain(..) {
                if release <= self.now {
                    out.push(env);
                } else {
                    still.push((release, env));
                }
            }
            *q = still;
        }
        for env in self.inner.recv_all(dst) {
            if self.plan.is_zero() {
                // Identity fast path: no PRNG draw, no reordering.
                out.push(env);
                continue;
            }
            let roll = self.rng.below(1_000_000);
            let drop_to = self.plan.drop_ppm as u64;
            let dup_to = drop_to + self.plan.dup_ppm as u64;
            let delay_to = dup_to + self.plan.delay_ppm as u64;
            if roll < drop_to {
                self.stats.drops += 1;
            } else if roll < dup_to {
                self.stats.dups += 1;
                out.push(env.clone());
                out.push(env);
            } else if roll < delay_to {
                self.stats.delays += 1;
                let release = self.now + 1 + self.rng.below(self.plan.max_delay.max(1));
                self.delayed[d].push((release, env));
            } else {
                out.push(env);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_net::{Fabric, NetConfig};

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64);

    impl MessageSize for Msg {
        fn byte_size(&self) -> usize {
            8
        }
    }

    fn faulty(plan: FaultPlan) -> FaultyTransport<Msg, Fabric<Msg>> {
        FaultyTransport::new(Fabric::new(2, NetConfig::default()), plan)
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 1234567, cross-checked against the
        // published splitmix64 reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zero_plan_is_identity() {
        let mut t = faulty(FaultPlan::none(9));
        for i in 0..50 {
            t.send(NodeId(0), NodeId(1), Msg(i)).unwrap();
        }
        let got = t.recv_all(NodeId(1));
        assert_eq!(got.len(), 50);
        assert!(got.iter().enumerate().all(|(i, e)| e.payload.0 == i as u64));
        assert_eq!(t.stats(), FaultStats::default());
    }

    #[test]
    fn faults_fire_and_replay_identically() {
        let run = || {
            let mut t = faulty(FaultPlan::uniform(7, 0.5));
            let mut seen = Vec::new();
            for step in 0..20u64 {
                for i in 0..10 {
                    t.send(NodeId(0), NodeId(1), Msg(step * 100 + i)).unwrap();
                }
                t.advance_step();
                seen.extend(t.recv_all(NodeId(1)).into_iter().map(|e| e.payload.0));
            }
            // Drain stragglers.
            for _ in 0..10 {
                t.advance_step();
                seen.extend(t.recv_all(NodeId(1)).into_iter().map(|e| e.payload.0));
            }
            (seen, t.stats())
        };
        let (a, stats) = run();
        let (b, stats_b) = run();
        assert_eq!(a, b, "same seed, same delivery");
        assert_eq!(stats, stats_b);
        assert!(stats.drops > 0 && stats.dups > 0 && stats.delays > 0);
        assert_eq!(
            a.len() as u64,
            200 - stats.drops + stats.dups,
            "every frame accounted for: dropped, duplicated, or delivered"
        );
    }

    #[test]
    fn delayed_frames_come_back_later() {
        let mut plan = FaultPlan::none(3);
        plan.delay_ppm = 1_000_000; // delay everything
        plan.max_delay = 1; // by exactly one step
        let mut t = faulty(plan);
        t.send(NodeId(0), NodeId(1), Msg(1)).unwrap();
        assert!(t.recv_all(NodeId(1)).is_empty(), "parked");
        t.advance_step();
        let got = t.recv_all(NodeId(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, Msg(1));
        assert_eq!(t.stats().delays, 1);
    }

    #[test]
    fn plan_display_roundtrips_the_essentials() {
        let p = FaultPlan::uniform(5, 0.3).with_crash(NodeId(2), 7);
        let s = format!("{p}");
        assert!(s.contains("seed=5"));
        assert!(s.contains("crashes=[node2@step7]"), "{s}");
    }

    #[test]
    fn counters_pass_through() {
        let mut t = faulty(FaultPlan::none(1));
        t.send(NodeId(0), NodeId(1), Msg(1)).unwrap();
        let snap = t.inner().ledger().snapshot();
        assert_eq!((snap.sends, snap.bytes_sent), (1, 8));
    }
}
