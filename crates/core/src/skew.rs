//! Skew-aware heavy-light routing for the AR and GI methods.
//!
//! The paper's assumption 9 — tuples "uniformly distributed on the join
//! attribute" — is exactly where the auxiliary-relation and global-index
//! methods degrade: both route each delta tuple to the *single* hash home
//! of its join value, so a Zipf-hot value turns its home node into the
//! whole cluster's bottleneck (the `skew` bench measures this). Following
//! the heavy-light partitioning idea of Abo-Khamis et al. (PAPERS.md),
//! this module classifies join-attribute values by observed delta traffic
//! and reorganizes the maintenance structures so that
//!
//! * **light** values keep today's single-home hash routing (bit-identical
//!   costs and placement), while
//! * **heavy** values are spread over a small *spread set* of nodes —
//!   salted for AR rows ([`pvm_engine::SpreadMode::Salt`]: writes spread,
//!   probes visit the set and union disjoint matches), replicated for GI
//!   entries ([`pvm_engine::SpreadMode::Replicate`]: probes salt to one
//!   replica, writes go to all).
//!
//! Classification is deterministic: a [`SpaceSaving`] sketch per
//! join-attribute *equivalence class* (columns connected by join edges
//! share values, so they share a sketch) is fed by every delta the view
//! maintains; [`MaintainedView::rebalance`](crate::MaintainedView::rebalance)
//! freezes the current heavy set into the table specs and migrates rows.
//! View contents are unaffected — only placement of the auxiliary rows
//! and the fan-out of probes change — which the equivalence proptests
//! (`tests/skew_routing.rs`) pin down on both backends.

use std::collections::HashMap;

use pvm_engine::{Backend, Cluster, PartitionSpec, SpaceSaving, SpreadMode, TableId};
use pvm_types::{PvmError, Result, Row, Value};

use crate::structure::StructureKind;
use crate::view::{MaintainedView, MaintenanceMethod};
use crate::viewdef::JoinViewDef;

/// Tuning knobs for heavy-light skew handling.
#[derive(Debug, Clone, Copy)]
pub struct SkewConfig {
    /// Counters per join-attribute class sketch (space-saving capacity).
    pub sketch_capacity: usize,
    /// Minimum guaranteed traffic share for a value to be classified
    /// heavy (e.g. `1/16` ≈ anything hotter than a perfectly uniform
    /// 16-value domain).
    pub heavy_share: f64,
    /// Spread-set size for heavy values (clamped to `2..=L` at routing).
    pub spread: usize,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            sketch_capacity: 64,
            heavy_share: 1.0 / 16.0,
            spread: 4,
        }
    }
}

/// Per-view skew state: one deterministic frequency sketch per
/// join-attribute equivalence class, fed by every maintained delta.
#[derive(Debug)]
pub struct SkewState {
    pub config: SkewConfig,
    /// `(rel, col)` → class id.
    class_of: HashMap<(usize, usize), usize>,
    /// One sketch per class.
    sketches: Vec<SpaceSaving>,
    /// Observations contributed *by deltas on* each `(rel, col)` — the
    /// directional split a rebalance uses to pick the GI spread mode
    /// (salt the write-dominant side, replicate the probe-dominant one).
    traffic: HashMap<(usize, usize), u64>,
}

impl SkewState {
    /// Build the class structure for a view definition: join columns
    /// connected (transitively) by equi-join edges share values, hence a
    /// class and a sketch.
    pub fn new(def: &JoinViewDef, config: SkewConfig) -> SkewState {
        // Union-find over the (rel, col) endpoints of the join edges.
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        let mut index = HashMap::new();
        let id_of = |nodes: &mut Vec<(usize, usize)>,
                     index: &mut HashMap<(usize, usize), usize>,
                     key: (usize, usize)| {
            *index.entry(key).or_insert_with(|| {
                nodes.push(key);
                nodes.len() - 1
            })
        };
        let mut parent: Vec<usize> = Vec::new();
        for e in &def.edges {
            let a = id_of(&mut nodes, &mut index, (e.left.rel, e.left.col));
            let b = id_of(&mut nodes, &mut index, (e.right.rel, e.right.col));
            while parent.len() < nodes.len() {
                parent.push(parent.len());
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        // Number the classes densely, in first-appearance order.
        let mut class_ids = HashMap::new();
        let mut class_of = HashMap::new();
        for (i, key) in nodes.iter().enumerate() {
            let root = find(&mut parent, i);
            let next = class_ids.len();
            let class = *class_ids.entry(root).or_insert(next);
            class_of.insert(*key, class);
        }
        let sketches = (0..class_ids.len())
            .map(|_| SpaceSaving::new(config.sketch_capacity))
            .collect();
        SkewState {
            config,
            class_of,
            sketches,
            traffic: HashMap::new(),
        }
    }

    /// Feed the sketches with one delta on relation `rel` (inserts and
    /// deletes are both traffic — each causes routed probes and structure
    /// updates). Null join values never route, so they are not observed.
    pub fn observe(&mut self, rel: usize, rows: &[Row]) -> Result<()> {
        self.observe_rows(rel, rows.iter())
    }

    /// [`SkewState::observe`] over any re-iterable row source — lets
    /// callers holding `(Row, rid)` pairs observe without materializing a
    /// cloned `Vec<Row>` first.
    pub fn observe_rows<'a, I>(&mut self, rel: usize, rows: I) -> Result<()>
    where
        I: Iterator<Item = &'a Row> + Clone,
    {
        for (&(r, col), &class) in &self.class_of {
            if r != rel {
                continue;
            }
            let mut seen = 0u64;
            for row in rows.clone() {
                let v = row.try_get(col)?;
                if !v.is_null() {
                    self.sketches[class].observe(v);
                    seen += 1;
                }
            }
            *self.traffic.entry((r, col)).or_insert(0) += seen;
        }
        Ok(())
    }

    /// The current heavy set for the class containing `(rel, col)`
    /// (empty when the column joins nothing or traffic is unskewed).
    pub fn heavy_for(&self, rel: usize, col: usize) -> Vec<Value> {
        self.class_of
            .get(&(rel, col))
            .map(|&class| self.sketches[class].heavy_values(self.config.heavy_share))
            .unwrap_or_default()
    }

    /// Total observations in the class containing `(rel, col)`.
    pub fn observed(&self, rel: usize, col: usize) -> u64 {
        self.class_of
            .get(&(rel, col))
            .map(|&class| self.sketches[class].total())
            .unwrap_or(0)
    }

    /// Directional split of the class traffic at `(rel, col)`:
    /// `(own, cross)` where `own` came from deltas on `rel` itself —
    /// which **write** the structure on `(rel, col)` — and `cross` from
    /// deltas on the other relations of the class, which **probe** it.
    pub fn traffic_split(&self, rel: usize, col: usize) -> (u64, u64) {
        let own = self.traffic.get(&(rel, col)).copied().unwrap_or(0);
        let observed = self.observed(rel, col);
        // `own` is a slice of the class total: if it ever exceeds it, the
        // sketches were reset without the traffic map (or vice versa) and
        // the saturating subtraction below would silently zero the probe
        // side, skewing spread-mode decisions. Fail loudly in tests.
        debug_assert!(
            own <= observed,
            "traffic drift at ({rel},{col}): own {own} > observed {observed} — \
             sketches and traffic map reset out of step (use reset_observations)"
        );
        (own, observed.saturating_sub(own))
    }

    /// Forget all observed traffic: class sketches **and** the per-column
    /// traffic map, together. Resetting one without the other breaks the
    /// `own <= observed` invariant that [`SkewState::traffic_split`]
    /// depends on, so this is the only reset surface.
    pub fn reset_observations(&mut self) {
        for s in &mut self.sketches {
            *s = SpaceSaving::new(self.config.sketch_capacity);
        }
        self.traffic.clear();
    }
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// What one [`crate::MaintainedView::rebalance`] call did to one
/// maintenance-structure table.
#[derive(Debug, Clone)]
pub struct RebalancedTable {
    pub table: TableId,
    /// Values frozen as heavy in the new spec.
    pub heavy_values: usize,
    /// Logical rows re-placed by the reorganization (0 when the heavy
    /// set was unchanged).
    pub rows_moved: u64,
}

/// Summary of a rebalance pass over a view's AR / GI tables.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    pub tables: Vec<RebalancedTable>,
}

impl RebalanceReport {
    pub fn rows_moved(&self) -> u64 {
        self.tables.iter().map(|t| t.rows_moved).sum()
    }

    pub fn heavy_values(&self) -> usize {
        self.tables.iter().map(|t| t.heavy_values).sum()
    }
}

impl MaintainedView {
    /// Turn on heavy-light skew handling (§ "Skew handling" in the
    /// README): every AR table is re-declared
    /// `HeavyLight{mode: Salt}` on its partitioning attribute and every
    /// GI table `HeavyLight{mode: Replicate}` on its key column — with an
    /// **empty heavy set**, so routing (and all counted costs) stay
    /// bit-identical to plain hash until [`MaintainedView::rebalance`]
    /// freezes observed heavy values in. From this call on, every delta
    /// the view maintains is also fed to the per-join-attribute-class
    /// frequency sketches.
    ///
    /// Only the method's private structures are reorganized — base
    /// relations keep their partitioning (a base already partitioned on
    /// the join attribute serves probes as before, un-spread). Errors for
    /// the naive method (no structures to reorganize) and for pool-shared
    /// ARs / GIs (other views route by the pool's specs).
    pub fn enable_skew_handling(
        &mut self,
        cluster: &mut Cluster,
        config: SkewConfig,
    ) -> Result<()> {
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot enable skew handling: rebalance would rewrite the \
                 structures the partial accounting tracks"
                    .into(),
            ));
        }
        if self.is_pool_shared() {
            return Err(PvmError::InvalidOperation(
                "pool-shared structures cannot be reorganized per-view: their peers route by \
                 the pool's specs"
                    .into(),
            ));
        }
        if self.method == MaintenanceMethod::Naive {
            return Err(PvmError::InvalidOperation(
                "naive maintenance has no auxiliary structures to spread; \
                 skew handling applies to AR / GI views"
                    .into(),
            ));
        }
        for s in self.probes.0.values() {
            let mode = match s.kind {
                StructureKind::Ar { .. } => SpreadMode::Salt,
                StructureKind::Gi => SpreadMode::Replicate,
            };
            let spec = PartitionSpec::heavy_light(s.key_pos(), Vec::new(), config.spread, mode);
            cluster.repartition(s.table, spec)?;
        }
        self.skew = Some(SkewState::new(&self.handle.def, config));
        Ok(())
    }

    /// Feed the skew sketches with delta traffic on relation `rel`
    /// without maintaining anything — for pre-training on a known
    /// workload before the first [`MaintainedView::rebalance`]. No-op
    /// when skew handling is off.
    pub fn train_skew(&mut self, rel: usize, rows: &[Row]) -> Result<()> {
        if let Some(skew) = &mut self.skew {
            skew.observe(rel, rows)?;
        }
        Ok(())
    }

    /// The live skew state, when skew handling is enabled.
    pub fn skew_state(&self) -> Option<&SkewState> {
        self.skew.as_ref()
    }

    /// Freeze the currently-observed heavy values into the AR / GI
    /// partitioning specs and migrate rows accordingly (light values keep
    /// their hash homes; heavy AR rows are salted over their spread set,
    /// heavy GI entries replicated across it). Not metered — this is a
    /// reorganization utility, not a maintenance transaction. Returns
    /// what moved; a no-op (empty report entries, `rows_moved = 0`) when
    /// the heavy sets are unchanged.
    pub fn rebalance<B: Backend>(&mut self, backend: &mut B) -> Result<RebalanceReport> {
        let Some(skew) = &self.skew else {
            return Err(PvmError::InvalidOperation(
                "skew handling is not enabled for this view".into(),
            ));
        };
        let config = skew.config;
        let mut report = RebalanceReport::default();
        let mut plans: Vec<(TableId, PartitionSpec, usize)> = Vec::new();
        for (&(rel, c), s) in &self.probes.0 {
            let heavy = skew.heavy_for(rel, c);
            let n = heavy.len();
            let mode = match s.kind {
                StructureKind::Ar { .. } => SpreadMode::Salt,
                // A GI is *written* by deltas on its own relation (entry
                // per delta tuple) and *probed* by deltas on the other
                // relations of the class. Replicating heavy entries is
                // right for the probe-dominant side (probes salt to one
                // replica) but multiplies writes by the spread factor, so
                // a write-dominant GI salts its heavy entries instead —
                // writes spread, and the rarer probes fan out over the
                // spread set and union disjoint entry lists.
                StructureKind::Gi => {
                    let (own, cross) = skew.traffic_split(rel, c);
                    if own > cross {
                        SpreadMode::Salt
                    } else {
                        SpreadMode::Replicate
                    }
                }
            };
            let spec = PartitionSpec::heavy_light(s.key_pos(), heavy, config.spread, mode);
            plans.push((s.table, spec, n));
        }
        plans.sort_by_key(|(t, _, _)| *t);
        for (table, spec, heavy_values) in plans {
            let rows_moved = backend.engine_mut().repartition(table, spec)?;
            report.tables.push(RebalancedTable {
                table,
                heavy_values,
                rows_moved,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    #[test]
    fn two_way_join_shares_one_class() {
        let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
        let mut sk = SkewState::new(&def, SkewConfig::default());
        // Traffic on relation 0's join column is visible to relation 1's
        // structures: same class, same sketch.
        let rows: Vec<Row> = (0..64).map(|i| row![i, 7, "x"]).collect();
        sk.observe(0, &rows).unwrap();
        assert_eq!(sk.observed(1, 1), 64);
        assert_eq!(sk.heavy_for(1, 1), vec![Value::Int(7)]);
        assert_eq!(sk.heavy_for(0, 1), vec![Value::Int(7)]);
        // A column that joins nothing has no class.
        assert!(sk.heavy_for(0, 2).is_empty());
        assert_eq!(sk.observed(0, 2), 0);
    }

    #[test]
    fn disjoint_edges_get_separate_classes() {
        // Three relations chained a.1 = b.1, b.2 = c.1: {a.1, b.1} and
        // {b.2, c.1} are distinct classes.
        let mut def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
        def.relations.push("c".into());
        def.edges.push(crate::viewdef::ViewEdge::new(
            crate::viewdef::ViewColumn::new(1, 2),
            crate::viewdef::ViewColumn::new(2, 1),
        ));
        let mut sk = SkewState::new(&def, SkewConfig::default());
        sk.observe(0, &(0..32).map(|i| row![i, 5, "x"]).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(sk.observed(1, 1), 32, "a.1 traffic lands in b.1's class");
        assert_eq!(sk.observed(1, 2), 0, "but not in b.2's class");
        assert_eq!(sk.observed(2, 1), 0);
    }

    #[test]
    fn null_values_are_not_observed() {
        let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
        let mut sk = SkewState::new(&def, SkewConfig::default());
        sk.observe(
            0,
            &[Row::new(vec![Value::Int(1), Value::Null, Value::from("x")])],
        )
        .unwrap();
        assert_eq!(sk.observed(0, 1), 0);
    }

    #[test]
    fn reset_clears_sketches_and_traffic_together() {
        let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
        let mut sk = SkewState::new(&def, SkewConfig::default());
        let rows: Vec<Row> = (0..64).map(|i| row![i, 7, "x"]).collect();
        sk.observe(0, &rows).unwrap();
        assert_eq!(sk.traffic_split(0, 1), (64, 0));
        assert_eq!(sk.traffic_split(1, 1), (0, 64));
        sk.reset_observations();
        assert_eq!(sk.observed(0, 1), 0);
        assert!(sk.heavy_for(0, 1).is_empty());
        // The split stays consistent after reset — a partial reset (only
        // the sketches) would trip the debug_assert inside traffic_split.
        assert_eq!(sk.traffic_split(0, 1), (0, 0));
        sk.observe(1, &rows).unwrap();
        assert_eq!(sk.traffic_split(1, 1), (64, 0));
        assert_eq!(sk.traffic_split(0, 1), (0, 64));
    }

    #[test]
    fn uniform_traffic_yields_no_heavy_values() {
        let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
        let mut sk = SkewState::new(&def, SkewConfig::default());
        let rows: Vec<Row> = (0..640).map(|i| row![i, i % 64, "x"]).collect();
        sk.observe(0, &rows).unwrap();
        assert!(
            sk.heavy_for(0, 1).is_empty(),
            "64-value uniform traffic is below the 1/16 share threshold"
        );
    }
}
