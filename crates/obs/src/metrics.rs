//! Metrics registry: monotonic counters and fixed-bucket histograms.
//!
//! All instruments are plain atomics — safe to update from node worker
//! threads and never touching the engine's counted-cost ledgers. Unlike
//! trace events, metrics are cheap enough to stay on unconditionally
//! for per-step health signals (inbox depth, barrier wait); per-delta
//! metrics (fan-out, work share) are gated on
//! `Obs::enabled` by their call sites.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Well-known metric names and bucket layouts, so producers (engine,
/// runtime, core) and consumers (bench summaries) agree on spelling.
pub mod metric {
    /// Histogram (µs): how long each node waited at the epoch barrier,
    /// i.e. `max(per-node step wall time) - own step wall time`. Only
    /// the plain single-step path observes this; pipelined stage
    /// programs replace it with [`WATERMARK_LAG_US`].
    pub const BARRIER_WAIT_US: &str = "runtime.barrier_wait_us";
    /// Histogram (µs): time a node spent waiting at a watermark boundary
    /// for step-close punctuation from its inbound edges — the pipelined
    /// runtime's (much smaller) replacement for the barrier wait.
    pub const WATERMARK_LAG_US: &str = "pipeline.watermark_lag_us";
    /// Histogram: at each stage start, how many logical steps this node
    /// is ahead of the slowest node in the pipeline — the run-ahead the
    /// barrier used to forbid (always 0 under lockstep execution).
    pub const RUN_AHEAD_STEPS: &str = "pipeline.run_ahead_steps";
    /// Histogram: messages waiting in a node's inbox at step start.
    pub const INBOX_DEPTH: &str = "backend.inbox_depth";
    /// Histogram: SEND fan-out `K` per routed delta tuple, per method.
    pub const FANOUT_NAIVE: &str = "method.naive.fanout";
    pub const FANOUT_AUXREL: &str = "method.auxrel.fanout";
    pub const FANOUT_GI: &str = "method.global-index.fanout";
    /// Counter prefix: per-node units of maintenance work (probes +
    /// joins + applies handled), for skew detection. Full name is
    /// `work.node<N>`.
    pub const WORK_SHARE_PREFIX: &str = "work.node";
    /// Counter: routed probe values classified **heavy** by a
    /// heavy-light partitioning spec (sketch hit).
    pub const SKEW_HEAVY_HITS: &str = "skew.heavy_hits";
    /// Counter: routed probe values classified **light** (sketch miss —
    /// plain single-node hash routing was used).
    pub const SKEW_LIGHT_MISSES: &str = "skew.light_misses";
    /// Histogram: destinations per heavy-value probe (the spread-set
    /// fan-out for salted specs; 1 for replicated specs).
    pub const SPREAD_FANOUT: &str = "skew.spread_fanout";
    /// Histogram: delta rows carried per destination-coalesced payload
    /// (one sample per message sent by a batched route/ship phase) — the
    /// amortization the vectorized pipeline buys over per-row sends.
    pub const BATCH_ROWS_PER_MSG: &str = "batch.rows_per_message";
    /// Histogram: probes sharing one group-probe descent (duplicates per
    /// distinct join-attribute value at a receiving node).
    pub const GROUP_PROBE_FANIN: &str = "batch.group_probe_fanin";
    /// Counter: data frames discarded by the fault injector.
    pub const FAULT_DROPS: &str = "faults.drops";
    /// Counter: data frames duplicated by the fault injector.
    pub const FAULT_DUPS: &str = "faults.dups";
    /// Counter: data frames deferred by the fault injector.
    pub const FAULT_DELAYS: &str = "faults.delays";
    /// Counter: retransmissions issued by the reliability layer.
    pub const FAULT_RETRIES: &str = "faults.retries";
    /// Counter: duplicate frames suppressed by sequence number.
    pub const FAULT_DUP_SUPPRESSED: &str = "faults.dup_suppressed";
    /// Counter: acknowledgement frames sent.
    pub const FAULT_ACKS: &str = "faults.acks";
    /// Counter: node crashes injected.
    pub const FAULT_CRASHES: &str = "faults.crashes";
    /// Counter: WAL records replayed while recovering crashed nodes.
    pub const FAULT_RECOVERY_REPLAYED: &str = "faults.recovery_replayed";
    /// Histogram: how many epochs behind the published head a snapshot
    /// read was (0 = reading the freshest state).
    pub const SERVE_SNAPSHOT_AGE: &str = "serve.snapshot_age_epochs";
    /// Histogram: unfolded delta links in a served view's chain at
    /// publish time (GC pressure signal).
    pub const SERVE_CHAIN_LEN: &str = "serve.chain_len";
    /// Histogram (µs): wall time of one snapshot read (scan or lookup).
    pub const SERVE_READ_US: &str = "serve.read_us";
    /// Histogram prefix: per-node inbox depth at step start (gated on
    /// `Obs::enabled`, unlike the always-on cluster-wide
    /// [`INBOX_DEPTH`]). Full name is `backend.inbox_depth.node<N>`.
    pub const INBOX_DEPTH_NODE_PREFIX: &str = "backend.inbox_depth.node";
    /// Counter-name prefix for per-view observed-cost summaries published
    /// at batch commit: `view.<name>.<field>`.
    pub const VIEW_PREFIX: &str = "view.";
    /// Counter: partial-state point reads answered from resident rows.
    pub const PARTIAL_HITS: &str = "partial.hits";
    /// Counter: partial-state point reads that hit a hole (each one
    /// triggers an upquery).
    pub const PARTIAL_MISSES: &str = "partial.misses";
    /// Counter: entries (view keys / AR values / GI values) evicted to
    /// holes by the per-node budget.
    pub const PARTIAL_EVICTIONS: &str = "partial.evictions";
    /// Histogram (µs): wall time of one upquery (recompute + install).
    pub const PARTIAL_UPQUERY_US: &str = "partial.upquery_us";
    /// Histogram: total resident partial-state bytes sampled after each
    /// budget enforcement.
    pub const PARTIAL_RESIDENT_BYTES: &str = "partial.resident_bytes";
    /// Histogram: per-read hit indicator scaled to parts-per-thousand
    /// (0 = miss, 1000 = hit) — the mean is the hit rate × 1000.
    pub const PARTIAL_HIT_RATE: &str = "partial.hit_rate";
    /// Histogram: member count of each shared-maintenance group whose
    /// probe-once chain ran for a base delta.
    pub const SHARE_GROUP_SIZE: &str = "share.group_size";
    /// Counter: index SEARCHes the probe-once chain avoided vs. running
    /// each member view independently — `(members - 1) ×` the group
    /// chain's charged searches per delta (an estimate: independent runs
    /// would each probe the same structures).
    pub const SHARE_PROBES_SAVED: &str = "share.probes_saved";
    /// Counter: interconnect SENDs avoided vs. independent maintenance —
    /// `(members - 1) ×` the group chain's charged sends per delta (same
    /// estimate basis as [`SHARE_PROBES_SAVED`]).
    pub const SHARE_SENDS_SAVED: &str = "share.sends_saved";

    /// Per-node work-share counter name.
    pub fn work_share(node: u32) -> String {
        format!("{WORK_SHARE_PREFIX}{node}")
    }

    /// Per-node inbox-depth histogram name.
    pub fn inbox_depth(node: u32) -> String {
        format!("{INBOX_DEPTH_NODE_PREFIX}{node}")
    }

    /// Counter: maintenance batches committed for `view`.
    pub fn view_batches(view: &str) -> String {
        format!("{VIEW_PREFIX}{view}.batches")
    }

    /// Counter: delta rows pushed through maintenance for `view`.
    pub fn view_delta_rows(view: &str) -> String {
        format!("{VIEW_PREFIX}{view}.delta_rows")
    }

    /// Counter: cumulative TW (aux + compute I/O) for `view`, in
    /// milli-I/Os (counters are integers; 1 I/O = 1000 units).
    pub fn view_tw_milli_io(view: &str) -> String {
        format!("{VIEW_PREFIX}{view}.tw_milli_io")
    }

    /// Counter: interconnect sends charged to maintenance of `view`.
    pub fn view_sends(view: &str) -> String {
        format!("{VIEW_PREFIX}{view}.sends")
    }

    /// The fan-out histogram for a maintenance method.
    pub fn fanout(method: crate::MethodTag) -> &'static str {
        match method {
            crate::MethodTag::Naive => FANOUT_NAIVE,
            crate::MethodTag::AuxRel => FANOUT_AUXREL,
            crate::MethodTag::GlobalIndex => FANOUT_GI,
        }
    }

    /// Bucket upper bounds for µs-scale wait histograms.
    pub const US_BOUNDS: &[u64] = &[10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];
    /// Bucket upper bounds for small-count histograms (depths, fan-out).
    pub const COUNT_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];
    /// Bucket upper bounds for byte-sized histograms (resident state).
    pub const BYTES_BOUNDS: &[u64] = &[
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
        16 << 20,
        64 << 20,
    ];

    /// Bounds appropriate for a well-known metric name.
    pub fn bounds_for(name: &str) -> &'static [u64] {
        if name.ends_with("_us") {
            US_BOUNDS
        } else if name.ends_with("_bytes") {
            BYTES_BOUNDS
        } else {
            COUNT_BOUNDS
        }
    }
}

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`; one overflow bucket catches everything above the last
/// bound. Tracks sum and count for mean computation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    /// `counts.len() == bounds.len() + 1`; last entry is the overflow.
    pub counts: Vec<u64>,
    pub sum: u64,
    pub total: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Exact mean over every observation, **including** the open-ended
    /// overflow bucket: computed from the tracked `sum`/`total`, never
    /// estimated from bucket midpoints, so overflow observations are
    /// weighted at their true values rather than being attributed to the
    /// last bound.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket where the cumulative count crosses `q · total`.
    ///
    /// Bucket `i` covers `(bounds[i-1], bounds[i]]` (the first bucket
    /// starts at 0). The open-ended overflow bucket is handled
    /// explicitly: it interpolates between the last bound and the
    /// observed `max`, instead of pretending everything above the last
    /// bound sits *at* the last bound. Returns 0.0 for an empty
    /// histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let upto = seen + count;
            if (upto as f64) >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: open-ended above the last bound,
                    // so the observed max is the only honest upper edge.
                    self.max.max(lo)
                };
                let frac = (rank - seen as f64) / count as f64;
                return lo as f64 + (hi - lo) as f64 * frac.clamp(0.0, 1.0);
            }
            seen = upto;
        }
        self.max as f64
    }

    /// Convenience: the median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Convenience: the 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// String-keyed registry of counters and histograms. Instruments are
/// created on first use and shared via `Arc`, so hot paths can cache the
/// handle and skip the map lookup.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Get or create the histogram named `name` with the well-known
    /// bucket layout for that name ([`metric::bounds_for`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, metric::bounds_for(name))
    }

    /// Get or create a histogram with explicit bounds (bounds are only
    /// used on first creation).
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Names and values of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Names and snapshots of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Render the whole registry as one JSON object:
    /// `{"counters":{...},"histograms":{name:{"buckets":[...],"counts":[...],"sum":n,"total":n,"max":n,"mean":x}}}`.
    ///
    /// Hand-rolled because the workspace is offline and carries no JSON
    /// dependency; names are restricted to identifier-ish characters so
    /// no escaping is needed, but we escape defensively anyway.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", crate::export::json_string(name), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"buckets\":{:?},\"counts\":{:?},\"sum\":{},\"total\":{},\"max\":{},\"mean\":{:.3}}}",
                crate::export::json_string(name),
                h.bounds,
                h.counts,
                h.sum,
                h.total,
                h.max,
                h.mean()
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("work.node0");
        c.inc();
        c.add(4);
        // Second lookup returns the same instrument.
        assert_eq!(reg.counter("work.node0").get(), 5);
        assert_eq!(reg.counters(), vec![("work.node0".to_string(), 5)]);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 1, 1, 1]); // <=1, <=4, <=16, overflow
        assert_eq!(snap.total, 5);
        assert_eq!(snap.sum, 108);
        assert_eq!(snap.max, 100);
        assert!((snap.mean() - 21.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[4, 1]);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[10, 20, 40]);
        // 4 observations in (10, 20], 4 in (20, 40].
        for v in [12, 14, 16, 18, 25, 30, 35, 40] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // Median: rank 4.0 lands exactly at the end of bucket (10, 20].
        assert!((snap.p50() - 20.0).abs() < 1e-9, "{}", snap.p50());
        // 25th percentile: rank 2.0 → halfway through (10, 20].
        assert!((snap.quantile(0.25) - 15.0).abs() < 1e-9);
        // q=0 floors at the lower edge of the first non-empty bucket.
        assert_eq!(snap.quantile(0.0), 10.0);
        assert_eq!(snap.quantile(1.0), 40.0);
    }

    #[test]
    fn quantile_overflow_bucket_uses_observed_max() {
        let h = Histogram::new(&[10]);
        for v in [5, 100, 200, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // p99 lands in the overflow bucket: must exceed the last bound
        // and interpolate toward the observed max, never stick at 10.
        let p99 = snap.p99();
        assert!(p99 > 10.0, "overflow attributed to last bound: {p99}");
        assert!(p99 <= 1000.0, "beyond observed max: {p99}");
        assert_eq!(snap.quantile(1.0), 1000.0);
        // Mean stays exact (sum/total), untouched by bucket edges.
        assert!((snap.mean() - 326.25).abs() < 1e-9);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let snap = Histogram::new(&[1, 2]).snapshot();
        assert_eq!(snap.quantile(0.5), 0.0);
    }

    #[test]
    fn registry_json_is_valid_shape() {
        let reg = MetricsRegistry::default();
        reg.counter("a").inc();
        reg.histogram_with("h", &[1, 2]).observe(3);
        let json = reg.to_json();
        assert!(json.starts_with("{\"counters\":{\"a\":1}"));
        assert!(json.contains("\"h\":{\"buckets\":[1, 2]"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn wellknown_bounds_pick_by_suffix() {
        assert_eq!(
            metric::bounds_for(metric::BARRIER_WAIT_US),
            metric::US_BOUNDS
        );
        assert_eq!(
            metric::bounds_for(metric::INBOX_DEPTH),
            metric::COUNT_BOUNDS
        );
        assert_eq!(metric::work_share(3), "work.node3");
    }
}
