//! # pvm-serve
//!
//! MVCC-style snapshot serving over maintained view partitions: readers
//! query a consistent view state while maintenance streams the next batch
//! in.
//!
//! The paper's methods keep a materialized join view fresh under base
//! updates, but maintenance owns the cluster while it runs — a reader
//! that scanned the stored view mid-batch would see half-applied deltas.
//! This crate gives every maintained view a **monotonic epoch** (advanced
//! exactly once per committed maintenance batch) and a **delta-chain**
//! representation of its contents:
//!
//! * a folded *base* multiset of view rows as of some epoch, plus
//! * one `DeltaLink` per committed batch after it, holding that batch's
//!   physical view-row changes in application order.
//!
//! A [`Snapshot`] pins the epoch that was current when it was acquired
//! and reconstructs exactly that state — base plus every link up to its
//! epoch — no matter how many batches commit afterwards
//! (**read-your-epoch**). Pins are reference-counted per epoch; once no
//! live snapshot pins an epoch, garbage collection (`ServeCore::gc`) folds
//! the now-unreachable links into the base. Publication is ordered so a
//! reader that observes epoch `e` always finds every link `≤ e` present:
//! the link is appended *before* the epoch becomes visible.
//!
//! The writer side ([`ServePublisher`]) is driven from the coordinator at
//! batch commit — between `Backend::step`s — so the sequential cluster
//! and the threaded runtime publish through the identical path.
//!
//! Reads never touch the engine's cost ledgers: serving is observationally
//! free where it counts, like tracing (`tests/obs_parity.rs`). The
//! `serve.*` metrics (`snapshot_age_epochs`, `chain_len`, `read_us`) are
//! recorded only while the cluster's [`Obs`] gate is enabled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use pvm_obs::{metric, Obs};
use pvm_types::{Row, Value};

/// One committed maintenance batch as physical view-row changes, in
/// application order. `true` = insert, `false` = delete. Aggregate views
/// flow through the same representation: a group fold is captured as the
/// delete of the stored group row followed by the insert of the updated
/// one.
#[derive(Debug, Clone)]
struct DeltaLink {
    epoch: u64,
    changes: Vec<(Row, bool)>,
}

/// The chain: a folded base multiset plus unfolded links, epochs strictly
/// ascending and all greater than `base_epoch`.
#[derive(Debug)]
struct ChainState {
    base_epoch: u64,
    /// Multiset of view rows as of `base_epoch`. Shared with readers via
    /// `Arc` so snapshot acquisition is O(1); GC mutates it in place with
    /// [`Arc::make_mut`] when no reader still holds it.
    base: Arc<BTreeMap<Row, u64>>,
    links: Vec<Arc<DeltaLink>>,
}

/// Apply captured changes to a multiset of view rows.
fn fold(map: &mut BTreeMap<Row, u64>, changes: &[(Row, bool)]) {
    for (row, insert) in changes {
        if *insert {
            *map.entry(row.clone()).or_insert(0) += 1;
        } else {
            match map.get_mut(row) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    map.remove(row);
                }
                None => debug_assert!(false, "captured delete of an absent view row: {row:?}"),
            }
        }
    }
}

/// Shared state of one served view: the published epoch, the delta
/// chain, and the per-epoch snapshot pins. Writers hold it through a
/// [`ServePublisher`], readers through [`ServeReader`]s and
/// [`Snapshot`]s.
pub struct ServeCore {
    name: String,
    /// Latest published epoch. Stored with `Release` *after* the link is
    /// appended, loaded with `Acquire` at snapshot acquisition — the
    /// read-your-epoch guarantee.
    epoch: AtomicU64,
    state: RwLock<ChainState>,
    /// epoch → live snapshot count. Acquisition and the GC floor
    /// computation both hold this lock, so a pin can never race below
    /// the floor.
    pins: Mutex<BTreeMap<u64, usize>>,
    obs: Option<Arc<Obs>>,
}

impl std::fmt::Debug for ServeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCore")
            .field("name", &self.name)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeCore {
    fn new(name: &str, epoch: u64, rows: Vec<Row>, obs: Option<Arc<Obs>>) -> Arc<ServeCore> {
        let mut base = BTreeMap::new();
        for r in rows {
            *base.entry(r).or_insert(0) += 1;
        }
        Arc::new(ServeCore {
            name: name.to_owned(),
            epoch: AtomicU64::new(epoch),
            state: RwLock::new(ChainState {
                base_epoch: epoch,
                base: Arc::new(base),
                links: Vec::new(),
            }),
            pins: Mutex::new(BTreeMap::new()),
            obs,
        })
    }

    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn publish(&self, epoch: u64, changes: Vec<(Row, bool)>) {
        let chain_len;
        {
            let mut st = self.state.write().expect("serve state lock");
            let prev = self.epoch.load(Ordering::Relaxed);
            assert_eq!(
                epoch,
                prev + 1,
                "view '{}': epochs publish in order, exactly one per batch",
                self.name
            );
            st.links.push(Arc::new(DeltaLink { epoch, changes }));
            chain_len = st.links.len();
        }
        // Link first, epoch second: a reader that observes `epoch` is
        // guaranteed to find its link.
        self.epoch.store(epoch, Ordering::Release);
        if let Some(obs) = &self.obs {
            if obs.enabled() {
                obs.metrics()
                    .histogram(metric::SERVE_CHAIN_LEN)
                    .observe(chain_len as u64);
            }
        }
        self.gc();
    }

    /// Fold links no live snapshot can still need into the base. The
    /// floor is `min(oldest pinned epoch, current epoch)`; every link at
    /// or below it is unreachable (snapshots pin the epoch that was
    /// current at acquisition, and epochs only grow).
    fn gc(&self) {
        let floor = {
            let pins = self.pins.lock().expect("serve pins lock");
            let current = self.epoch.load(Ordering::Acquire);
            pins.keys().next().copied().unwrap_or(current).min(current)
        };
        let mut st = self.state.write().expect("serve state lock");
        if st.base_epoch >= floor {
            return;
        }
        let n = st.links.iter().take_while(|l| l.epoch <= floor).count();
        if n > 0 {
            let folded: Vec<Arc<DeltaLink>> = st.links.drain(..n).collect();
            // In-place when no reader still holds the base Arc; a clone
            // only when one does (copy-on-write).
            let base = Arc::make_mut(&mut st.base);
            for l in &folded {
                fold(base, &l.changes);
            }
        }
        st.base_epoch = floor;
    }

    fn pin_current(self: &Arc<Self>) -> Snapshot {
        let mut pins = self.pins.lock().expect("serve pins lock");
        let epoch = self.epoch.load(Ordering::Acquire);
        *pins.entry(epoch).or_insert(0) += 1;
        drop(pins);
        Snapshot {
            core: self.clone(),
            epoch,
        }
    }

    fn unpin(&self, epoch: u64) {
        let mut pins = self.pins.lock().expect("serve pins lock");
        match pins.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                pins.remove(&epoch);
            }
            None => debug_assert!(false, "unpin of an unpinned epoch {epoch}"),
        }
        drop(pins);
        self.gc();
    }

    /// `Arc`-clone the base and the link suffix up to `epoch` under the
    /// read lock; lock hold time is O(chain), folding happens outside.
    fn chain_at(&self, epoch: u64) -> (Arc<BTreeMap<Row, u64>>, Vec<Arc<DeltaLink>>) {
        let st = self.state.read().expect("serve state lock");
        assert!(
            st.base_epoch <= epoch,
            "view '{}': GC folded past pinned epoch {epoch} (base at {})",
            self.name,
            st.base_epoch
        );
        let links: Vec<Arc<DeltaLink>> = st
            .links
            .iter()
            .filter(|l| l.epoch <= epoch)
            .cloned()
            .collect();
        (st.base.clone(), links)
    }

    /// Erase every trace of view rows whose column `col` equals `value`
    /// — from the folded base *and* from every link's change list — so
    /// the key reads as absent at **every** epoch of the chain. No epoch
    /// is published: this is the serving half of a partial-state
    /// eviction, where the key's history becomes a hole and readers
    /// pinned below the eviction epoch are redirected to
    /// invalidate-and-retry by the view layer (a purged chain must never
    /// answer for the key) — that includes snapshots pinned *before* the
    /// purge, which re-read the shared chain per lookup. Copy-on-write:
    /// a read that already cloned the chain (`chain_at`) finishes against
    /// its pre-purge Arcs.
    fn purge_matching(&self, col: usize, value: &Value) {
        let mut st = self.state.write().expect("serve state lock");
        let matches = |row: &Row| row.try_get(col).map(|v| v == value).unwrap_or(false);
        if st.base.keys().any(&matches) {
            let base = Arc::make_mut(&mut st.base);
            base.retain(|row, _| !matches(row));
        }
        for link in &mut st.links {
            if link.changes.iter().any(|(r, _)| matches(r)) {
                let l = Arc::make_mut(link);
                l.changes.retain(|(r, _)| !matches(r));
            }
        }
    }

    /// Fold upquery-recomputed rows straight into the base multiset, with
    /// no epoch publication — the install half of filling a hole. Exact
    /// for every epoch ≥ the key's eviction epoch: all of the key's
    /// changes since eviction were dropped as holes (never published), so
    /// its recomputed current rows are its rows at each such epoch.
    fn install_rows(&self, rows: &[Row]) {
        if rows.is_empty() {
            return;
        }
        let mut st = self.state.write().expect("serve state lock");
        let base = Arc::make_mut(&mut st.base);
        for r in rows {
            *base.entry(r.clone()).or_insert(0) += 1;
        }
    }

    /// Number of view rows at `epoch`: the base's multiplicities plus one
    /// per insert, minus one per delete, of each link up to `epoch` (a
    /// delete always removes a present row, see [`fold`]). Walks the
    /// chain under the read lock; clones and allocates nothing.
    fn row_count_at(&self, epoch: u64) -> u64 {
        let st = self.state.read().expect("serve state lock");
        assert!(
            st.base_epoch <= epoch,
            "view '{}': GC folded past pinned epoch {epoch} (base at {})",
            self.name,
            st.base_epoch
        );
        let mut n: u64 = st.base.values().sum();
        for link in st.links.iter().take_while(|l| l.epoch <= epoch) {
            for (_, insert) in &link.changes {
                if *insert {
                    n += 1;
                } else {
                    n -= 1;
                }
            }
        }
        n
    }

    /// Multiset of view rows as of `epoch`.
    fn counts_at(&self, epoch: u64) -> BTreeMap<Row, u64> {
        let (base, links) = self.chain_at(epoch);
        let mut counts = (*base).clone();
        for l in &links {
            fold(&mut counts, &l.changes);
        }
        counts
    }

    /// Multiset of view rows at `epoch` whose column `col` equals
    /// `value`. Point reads never clone the full base: non-matching rows
    /// are filtered while iterating, so the per-read allocation is
    /// proportional to the result, not the view.
    fn matching_at(&self, epoch: u64, col: usize, value: &Value) -> BTreeMap<Row, u64> {
        let (base, links) = self.chain_at(epoch);
        let matches = |row: &Row| row.try_get(col).map(|v| v == value).unwrap_or(false);
        let mut counts: BTreeMap<Row, u64> = BTreeMap::new();
        for (row, n) in base.iter() {
            if matches(row) {
                counts.insert(row.clone(), *n);
            }
        }
        for l in &links {
            for (row, insert) in l.changes.iter().filter(|(r, _)| matches(r)) {
                if *insert {
                    *counts.entry(row.clone()).or_insert(0) += 1;
                } else {
                    match counts.get_mut(row) {
                        Some(n) if *n > 1 => *n -= 1,
                        Some(_) => {
                            counts.remove(row);
                        }
                        None => {
                            debug_assert!(false, "captured delete of an absent view row: {row:?}")
                        }
                    }
                }
            }
        }
        counts
    }
}

/// Writer half, held by the maintained view: publishes one link per
/// committed maintenance batch. Cheap to construct readers from.
#[derive(Debug)]
pub struct ServePublisher {
    core: Arc<ServeCore>,
}

impl ServePublisher {
    /// Start serving a view whose contents are `rows` as of `epoch`.
    /// `obs` (the cluster's handle) gates the `serve.*` metrics.
    pub fn new(name: &str, epoch: u64, rows: Vec<Row>, obs: Option<Arc<Obs>>) -> ServePublisher {
        ServePublisher {
            core: ServeCore::new(name, epoch, rows, obs),
        }
    }

    /// Publish the physical view-row changes of the batch that just
    /// committed at `epoch`. Epochs must arrive in order, one per batch.
    pub fn publish(&self, epoch: u64, changes: Vec<(Row, bool)>) {
        self.core.publish(epoch, changes);
    }

    /// Partial-state eviction: erase a key's rows from the whole chain
    /// (see `ServeCore::purge_matching`). No epoch is published.
    pub fn purge_matching(&self, col: usize, value: &Value) {
        self.core.purge_matching(col, value);
    }

    /// Partial-state hole fill: fold upquery-recomputed rows into the
    /// base (see `ServeCore::install_rows`). No epoch is published.
    pub fn install_rows(&self, rows: &[Row]) {
        self.core.install_rows(rows);
    }

    /// A cloneable read handle onto the same chain.
    pub fn reader(&self) -> ServeReader {
        ServeReader {
            core: self.core.clone(),
        }
    }

    pub fn current_epoch(&self) -> u64 {
        self.core.current_epoch()
    }
}

/// Reader half: cloneable, `Send + Sync` — hand one to each serving
/// session or reader thread.
#[derive(Debug, Clone)]
pub struct ServeReader {
    core: Arc<ServeCore>,
}

impl ServeReader {
    /// Pin the current epoch and return a consistent read handle on it.
    pub fn snapshot(&self) -> Snapshot {
        self.core.pin_current()
    }

    /// Latest published epoch.
    pub fn current_epoch(&self) -> u64 {
        self.core.current_epoch()
    }

    /// Unfolded links currently in the chain (test/metrics aid).
    pub fn chain_len(&self) -> usize {
        self.core
            .state
            .read()
            .expect("serve state lock")
            .links
            .len()
    }

    /// Name of the served view.
    pub fn view_name(&self) -> String {
        self.core.name.clone()
    }

    /// Live snapshots currently pinning an epoch of this view (the sum
    /// over all pinned epochs — one snapshot holds exactly one pin).
    pub fn pinned_snapshots(&self) -> usize {
        self.core
            .pins
            .lock()
            .expect("serve pins lock")
            .values()
            .sum()
    }

    /// The oldest epoch a live snapshot still pins, if any — the GC
    /// floor candidate.
    pub fn oldest_pinned_epoch(&self) -> Option<u64> {
        self.core
            .pins
            .lock()
            .expect("serve pins lock")
            .keys()
            .next()
            .copied()
    }
}

/// A consistent read of one view at one epoch. Holding it pins the
/// epoch's chain suffix; dropping it releases the pin (and lets GC fold).
#[derive(Debug)]
pub struct Snapshot {
    core: Arc<ServeCore>,
    epoch: u64,
}

impl Snapshot {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every view row at this epoch, multiset-expanded and sorted.
    pub fn rows(&self) -> Vec<Row> {
        let t0 = std::time::Instant::now();
        let counts = self.core.counts_at(self.epoch);
        let mut out = Vec::with_capacity(counts.len());
        for (row, n) in counts {
            for _ in 1..n {
                out.push(row.clone());
            }
            out.push(row);
        }
        self.note_read(t0);
        out
    }

    /// Rows whose column `col` equals `value` at this epoch, sorted.
    /// Allocates proportionally to the result, not the view.
    pub fn lookup(&self, col: usize, value: &Value) -> Vec<Row> {
        let t0 = std::time::Instant::now();
        let counts = self.core.matching_at(self.epoch, col, value);
        let mut out = Vec::new();
        for (row, n) in counts {
            for _ in 1..n {
                out.push(row.clone());
            }
            out.push(row);
        }
        self.note_read(t0);
        out
    }

    /// Number of view rows at this epoch, without materializing them.
    pub fn row_count(&self) -> u64 {
        self.core.row_count_at(self.epoch)
    }

    fn note_read(&self, t0: std::time::Instant) {
        let Some(obs) = &self.core.obs else { return };
        if !obs.enabled() {
            return;
        }
        let m = obs.metrics();
        m.histogram(metric::SERVE_READ_US)
            .observe(t0.elapsed().as_micros() as u64);
        m.histogram(metric::SERVE_SNAPSHOT_AGE)
            .observe(self.core.current_epoch().saturating_sub(self.epoch));
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.core.unpin(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    fn publisher(rows: Vec<Row>) -> ServePublisher {
        ServePublisher::new("v", 0, rows, None)
    }

    #[test]
    fn snapshot_reads_its_epoch() {
        let p = publisher(vec![row![1, 10], row![2, 20]]);
        let r = p.reader();
        let s0 = r.snapshot();
        assert_eq!(s0.epoch(), 0);

        p.publish(1, vec![(row![3, 30], true), (row![1, 10], false)]);
        let s1 = r.snapshot();
        assert_eq!(s1.epoch(), 1);

        // s0 still reads epoch 0 exactly.
        assert_eq!(s0.rows(), vec![row![1, 10], row![2, 20]]);
        assert_eq!(s1.rows(), vec![row![2, 20], row![3, 30]]);
        assert_eq!(s0.row_count(), 2);
        assert_eq!(s1.lookup(0, &Value::Int(3)), vec![row![3, 30]]);
    }

    #[test]
    fn multiset_duplicates_survive_the_chain() {
        let p = publisher(vec![row![1], row![1]]);
        let r = p.reader();
        p.publish(1, vec![(row![1], true)]);
        p.publish(2, vec![(row![1], false), (row![1], false)]);
        assert_eq!(r.snapshot().rows(), vec![row![1]]);
    }

    #[test]
    fn gc_folds_unpinned_links_and_spares_pinned_ones() {
        let p = publisher(vec![row![1]]);
        let r = p.reader();
        let pinned = r.snapshot(); // pins epoch 0
        p.publish(1, vec![(row![2], true)]);
        p.publish(2, vec![(row![3], true)]);
        // Epoch 0 is pinned: nothing may fold.
        assert_eq!(r.chain_len(), 2);
        assert_eq!(pinned.rows(), vec![row![1]]);
        drop(pinned);
        // Pin released: both links fold into the base.
        assert_eq!(r.chain_len(), 0);
        assert_eq!(r.snapshot().rows(), vec![row![1], row![2], row![3]]);
    }

    #[test]
    fn gc_respects_the_oldest_pin_only() {
        let p = publisher(vec![]);
        let r = p.reader();
        p.publish(1, vec![(row![1], true)]);
        let s1 = r.snapshot(); // pins epoch 1
        p.publish(2, vec![(row![2], true)]);
        let s2 = r.snapshot(); // pins epoch 2
        p.publish(3, vec![(row![3], true)]);
        // Floor = 1: link 1 folds, links 2 and 3 stay.
        assert_eq!(r.chain_len(), 2);
        assert_eq!(r.pinned_snapshots(), 2);
        assert_eq!(r.oldest_pinned_epoch(), Some(1));
        assert_eq!(s1.rows(), vec![row![1]]);
        assert_eq!(s2.rows(), vec![row![1], row![2]]);
        drop(s1);
        assert_eq!(r.chain_len(), 1, "floor moved to s2's epoch");
        assert_eq!(r.pinned_snapshots(), 1);
        assert_eq!(r.oldest_pinned_epoch(), Some(2));
        drop(s2);
        assert_eq!(r.chain_len(), 0);
        assert_eq!(r.pinned_snapshots(), 0);
        assert_eq!(r.oldest_pinned_epoch(), None);
    }

    #[test]
    fn purge_erases_a_key_at_every_epoch() {
        let p = publisher(vec![row![1, 10], row![2, 20]]);
        let r = p.reader();
        p.publish(1, vec![(row![1, 11], true), (row![2, 21], true)]);
        let pre = r.snapshot(); // pinned before the purge
        p.purge_matching(0, &Value::Int(1));
        // The key is gone at every epoch — base and link — including
        // under previously pinned snapshots (which re-read the shared
        // chain; the view layer refuses such reads via dropped_at).
        assert!(pre.lookup(0, &Value::Int(1)).is_empty());
        let post = r.snapshot();
        assert!(post.lookup(0, &Value::Int(1)).is_empty());
        assert_eq!(post.rows(), vec![row![2, 20], row![2, 21]]);
        assert_eq!(post.epoch(), 1, "purge publishes no epoch");
        // Untouched keys are unaffected at both epochs.
        assert_eq!(
            pre.lookup(0, &Value::Int(2)),
            vec![row![2, 20], row![2, 21]]
        );
    }

    #[test]
    fn install_rows_fills_a_hole_without_an_epoch() {
        let p = publisher(vec![row![2, 20]]);
        let r = p.reader();
        p.install_rows(&[row![1, 10], row![1, 10]]);
        let s = r.snapshot();
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.lookup(0, &Value::Int(1)), vec![row![1, 10], row![1, 10]]);
        assert_eq!(s.rows(), vec![row![1, 10], row![1, 10], row![2, 20]]);
    }

    #[test]
    fn row_count_matches_rows_across_publish_gc_purge_and_install() {
        let p = publisher(vec![row![1, 10], row![1, 10], row![2, 20]]);
        let r = p.reader();
        let s0 = r.snapshot(); // pins epoch 0: no link folds yet
        p.publish(1, vec![(row![3, 30], true), (row![1, 10], false)]);
        let s1 = r.snapshot();
        p.publish(
            2,
            vec![
                (row![1, 10], false),
                (row![2, 21], true),
                (row![2, 23], true),
            ],
        );
        drop(s0); // link 1 folds into the base
        p.purge_matching(0, &Value::Int(2));
        p.install_rows(&[row![2, 22], row![4, 40]]);
        p.publish(3, vec![(row![4, 41], true), (row![4, 42], true)]);
        let s3 = r.snapshot();
        for s in [&s1, &s3] {
            assert_eq!(s.row_count(), s.rows().len() as u64, "epoch {}", s.epoch());
        }
        assert_eq!(s3.row_count(), 5);
    }

    #[test]
    #[should_panic(expected = "exactly one per batch")]
    fn out_of_order_publish_is_rejected() {
        let p = publisher(vec![]);
        p.publish(2, vec![]);
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_epoch() {
        // One writer publishes W batches, each inserting a marker row and
        // deleting the previous marker — so at every epoch e exactly one
        // marker row (e) exists. Readers running concurrently must never
        // see zero or two markers (a torn epoch).
        let p = Arc::new(publisher(vec![row![0i64]]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = p.reader();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // At least one read even if this thread is not
                    // scheduled until after the writer finishes (single
                    // loaded core): check `stop` after reading.
                    let mut reads = 0u64;
                    loop {
                        let s = r.snapshot();
                        let rows = s.rows();
                        assert_eq!(rows, vec![row![s.epoch() as i64]], "torn epoch");
                        reads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    reads
                })
            })
            .collect();
        for e in 1..=200u64 {
            p.publish(
                e,
                vec![(row![(e - 1) as i64], false), (row![e as i64], true)],
            );
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers made progress");
        assert_eq!(p.reader().snapshot().rows(), vec![row![200i64]]);
    }
}
