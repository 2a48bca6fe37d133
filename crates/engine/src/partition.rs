//! Horizontal partitioning of tables across data-server nodes.

use std::cell::RefCell;
use std::sync::Arc;

use pvm_types::{NodeId, PvmError, Result, Row, Value};

/// What a [`PartitionSpec::HeavyLight`] spec does with a *heavy* value's
/// rows at its spread-set nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpreadMode {
    /// Each heavy row is stored at exactly **one** spread-set node, chosen
    /// by a deterministic hash of the full row ("salting"). Writes of a
    /// hot value spread evenly; probes for it must visit the whole spread
    /// set and union the (disjoint) matches. The auxiliary-relation
    /// method's choice.
    Salt,
    /// Each heavy row is stored at **every** spread-set node. Probes for a
    /// hot value are salted to a single spread node (which holds the
    /// complete set); writes and deletes go to all of them. The
    /// global-index method's choice — entries are tiny, probes dominate.
    Replicate,
}

/// How a table's rows are declustered across the `L` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Hash of one column's value modulo `L`. The workhorse: base
    /// relations, auxiliary relations, global indices, and views are all
    /// hash-partitioned on some attribute.
    Hash { column: usize },
    /// Round-robin by a running counter — used for tables with no
    /// meaningful placement attribute.
    RoundRobin,
    /// Skew-aware hash partitioning on `column`: values in the sorted
    /// `heavy` set are spread over a `spread`-node set starting just past
    /// their hash node (salted or replicated per `mode`); every other
    /// value routes exactly like `Hash { column }`. With an empty heavy
    /// set this is bit-identical to plain hash routing.
    HeavyLight {
        column: usize,
        /// Heavy join-attribute values, sorted (binary-searchable).
        heavy: Arc<Vec<Value>>,
        /// Spread-set size (clamped to `1..=L` when routing).
        spread: usize,
        mode: SpreadMode,
    },
}

impl PartitionSpec {
    /// Convenience constructor.
    pub fn hash(column: usize) -> Self {
        PartitionSpec::Hash { column }
    }

    /// Skew-aware spec: `heavy` values of `column` are spread over
    /// `spread` nodes under `mode`; everything else hashes as usual. The
    /// heavy set is sorted and deduplicated here.
    pub fn heavy_light(
        column: usize,
        mut heavy: Vec<Value>,
        spread: usize,
        mode: SpreadMode,
    ) -> Self {
        heavy.sort();
        heavy.dedup();
        PartitionSpec::HeavyLight {
            column,
            heavy: Arc::new(heavy),
            spread: spread.max(2),
            mode,
        }
    }

    /// The partitioning column, if value-derived (hash or heavy-light).
    pub fn column(&self) -> Option<usize> {
        match self {
            PartitionSpec::Hash { column } => Some(*column),
            PartitionSpec::RoundRobin => None,
            PartitionSpec::HeavyLight { column, .. } => Some(*column),
        }
    }

    /// True if this spec partitions by the value of `column` (heavy-light
    /// counts: a probe on the column can still be routed — just through
    /// [`PartitionSpec::probe_nodes`] instead of a single hash node).
    pub fn is_on(&self, column: usize) -> bool {
        self.column() == Some(column)
    }

    /// True if `v` is in this spec's heavy set.
    pub fn is_heavy(&self, v: &Value) -> bool {
        match self {
            PartitionSpec::HeavyLight { heavy, .. } => heavy.binary_search(v).is_ok(),
            _ => false,
        }
    }

    /// The spread set of a heavy value: `spread` consecutive nodes
    /// starting at the **successor** of the value's hash node, wrapping
    /// modulo `L`. Starting one past the home matters: accesses that
    /// cannot be re-routed — probes of a base relation clustered on the
    /// attribute, for instance — stay pinned to the hash home, so a
    /// spread set that skips it (when `spread < L`) keeps the hot value's
    /// movable structure traffic off its already-loaded node.
    fn spread_set(v: &Value, l: usize, spread: usize) -> Vec<NodeId> {
        let base = hash_value(v) % l as u64;
        let k = spread.clamp(1, l);
        (1..=k)
            .map(|i| NodeId::from(((base as usize) + i) % l))
            .collect()
    }

    /// Home node for `row` in an `l`-node cluster. `seq` feeds the
    /// round-robin counter (callers pass a running row number). For a
    /// heavy-light spec this is the row's *primary* home: salted within
    /// the spread set for heavy values ([`SpreadMode::Replicate`] tables
    /// keep additional copies — see [`PartitionSpec::route_all`]).
    pub fn route(&self, row: &Row, l: usize, seq: u64) -> Result<NodeId> {
        if l == 0 {
            return Err(PvmError::InvalidOperation("cluster has zero nodes".into()));
        }
        match self {
            PartitionSpec::Hash { column } => {
                let v = row.try_get(*column)?;
                Ok(NodeId::from((hash_value(v) % l as u64) as usize))
            }
            PartitionSpec::RoundRobin => Ok(NodeId::from((seq % l as u64) as usize)),
            PartitionSpec::HeavyLight {
                column,
                heavy,
                spread,
                ..
            } => {
                let v = row.try_get(*column)?;
                if heavy.binary_search(v).is_err() {
                    return Ok(NodeId::from((hash_value(v) % l as u64) as usize));
                }
                let set = Self::spread_set(v, l, *spread);
                Ok(set[(hash_row(row) % set.len() as u64) as usize])
            }
        }
    }

    /// Every node that must store `row`: the primary home first, plus —
    /// for [`SpreadMode::Replicate`] heavy rows — the rest of the spread
    /// set.
    pub fn route_all(&self, row: &Row, l: usize, seq: u64) -> Result<Vec<NodeId>> {
        let primary = self.route(row, l, seq)?;
        let mut dsts = vec![primary];
        dsts.extend(self.replicas(row, primary, l)?);
        Ok(dsts)
    }

    /// The nodes besides its primary home `primary` that keep a copy of
    /// `row`: the rest of a [`SpreadMode::Replicate`] heavy row's spread
    /// set, in spread order; none (and no allocation) for any other row.
    pub fn replicas(&self, row: &Row, primary: NodeId, l: usize) -> Result<Vec<NodeId>> {
        if let PartitionSpec::HeavyLight {
            column,
            spread,
            mode: SpreadMode::Replicate,
            ..
        } = self
        {
            let v = row.try_get(*column)?;
            if self.is_heavy(v) {
                let mut set = Self::spread_set(v, l, *spread);
                set.retain(|&n| n != primary);
                return Ok(set);
            }
        }
        Ok(Vec::new())
    }

    /// Nodes a probe for partitioning-attribute value `v` must visit to
    /// see every matching row, in deterministic order. Light (and plain
    /// hash) values have one home; heavy values under [`SpreadMode::Salt`]
    /// need the whole spread set (rows are salted across it — the caller
    /// unions the disjoint results), while under [`SpreadMode::Replicate`]
    /// one spread node suffices and `salt` picks which (pass a hash of the
    /// probing row so concurrent probes for the same hot value fan across
    /// replicas).
    pub fn probe_nodes(&self, v: &Value, l: usize, salt: u64) -> Result<Vec<NodeId>> {
        if l == 0 {
            return Err(PvmError::InvalidOperation("cluster has zero nodes".into()));
        }
        match self {
            PartitionSpec::RoundRobin => Err(PvmError::InvalidOperation(
                "round-robin tables have no value-derived probe home".into(),
            )),
            PartitionSpec::Hash { .. } => {
                Ok(vec![NodeId::from((hash_value(v) % l as u64) as usize)])
            }
            PartitionSpec::HeavyLight {
                heavy,
                spread,
                mode,
                ..
            } => {
                if heavy.binary_search(v).is_err() {
                    return Ok(vec![NodeId::from((hash_value(v) % l as u64) as usize)]);
                }
                let set = Self::spread_set(v, l, *spread);
                Ok(match mode {
                    SpreadMode::Salt => set,
                    SpreadMode::Replicate => vec![set[(salt % set.len() as u64) as usize]],
                })
            }
        }
    }

    /// Home node for a bare partitioning-attribute value. Like
    /// [`PartitionSpec::route`], an empty cluster is an error, not a
    /// divide-by-zero panic.
    pub fn route_value(v: &Value, l: usize) -> Result<NodeId> {
        if l == 0 {
            return Err(PvmError::InvalidOperation("cluster has zero nodes".into()));
        }
        Ok(NodeId::from((hash_value(v) % l as u64) as usize))
    }
}

/// FNV-1a over the order-preserving value encoding: deterministic across
/// runs and platforms (the std hasher is randomized per process in some
/// configurations, which would make experiments unrepeatable). The
/// encoding goes into a per-thread buffer, so routing a row allocates
/// nothing.
pub fn hash_value(v: &Value) -> u64 {
    thread_local! {
        static KEY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    KEY.with_borrow_mut(|key| {
        key.clear();
        v.encode_into(key);
        key.iter()
            .fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
    })
}

/// FNV-1a over a whole row's encoding — the deterministic salt that
/// spreads a heavy value's rows (and probes) across its spread set.
pub fn hash_row(row: &Row) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in row.encode() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    #[test]
    fn hash_routing_is_deterministic_and_in_range() {
        let spec = PartitionSpec::hash(0);
        for l in [1usize, 2, 7, 128] {
            for i in 0..200i64 {
                let r = row![i, "x"];
                let n1 = spec.route(&r, l, 0).unwrap();
                let n2 = spec.route(&r, l, 99).unwrap();
                assert_eq!(n1, n2, "hash routing ignores seq");
                assert!(n1.index() < l);
            }
        }
    }

    #[test]
    fn equal_values_colocate() {
        let spec = PartitionSpec::hash(1);
        let a = row![1, 42];
        let b = row![999, 42];
        assert_eq!(
            spec.route(&a, 16, 0).unwrap(),
            spec.route(&b, 16, 1).unwrap()
        );
        assert_eq!(
            PartitionSpec::route_value(&pvm_types::Value::Int(42), 16).unwrap(),
            spec.route(&a, 16, 0).unwrap()
        );
    }

    #[test]
    fn hash_spreads_values() {
        let spec = PartitionSpec::hash(0);
        let l = 8;
        let mut counts = vec![0usize; l];
        for i in 0..8000i64 {
            counts[spec.route(&row![i], l, 0).unwrap().index()] += 1;
        }
        for (n, c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(c),
                "node {n} got {c} of 8000 rows — hash is too skewed"
            );
        }
    }

    #[test]
    fn round_robin_cycles() {
        let spec = PartitionSpec::RoundRobin;
        let r = row![0];
        assert_eq!(spec.route(&r, 3, 0).unwrap().index(), 0);
        assert_eq!(spec.route(&r, 3, 1).unwrap().index(), 1);
        assert_eq!(spec.route(&r, 3, 5).unwrap().index(), 2);
    }

    #[test]
    fn bad_column_and_empty_cluster_error() {
        let spec = PartitionSpec::hash(9);
        assert!(spec.route(&row![1], 4, 0).is_err());
        assert!(PartitionSpec::hash(0).route(&row![1], 0, 0).is_err());
        // route_value on an empty cluster used to divide by zero; it must
        // fail like route does.
        assert!(PartitionSpec::route_value(&Value::Int(1), 0).is_err());
        let hl = PartitionSpec::heavy_light(0, vec![Value::Int(1)], 2, SpreadMode::Salt);
        assert!(hl.route(&row![1], 0, 0).is_err());
        assert!(hl.probe_nodes(&Value::Int(1), 0, 0).is_err());
    }

    #[test]
    fn is_on() {
        assert!(PartitionSpec::hash(2).is_on(2));
        assert!(!PartitionSpec::hash(2).is_on(1));
        assert!(!PartitionSpec::RoundRobin.is_on(0));
        assert!(PartitionSpec::heavy_light(2, vec![], 2, SpreadMode::Salt).is_on(2));
    }

    #[test]
    fn empty_heavy_set_is_plain_hash() {
        let hash = PartitionSpec::hash(1);
        let hl = PartitionSpec::heavy_light(1, vec![], 4, SpreadMode::Replicate);
        for l in [1usize, 3, 8] {
            for i in 0..100i64 {
                let r = row![i, i % 7];
                assert_eq!(hl.route(&r, l, 0).unwrap(), hash.route(&r, l, 0).unwrap());
                assert_eq!(hl.route_all(&r, l, 0).unwrap().len(), 1);
                let v = pvm_types::Value::Int(i % 7);
                assert_eq!(
                    hl.probe_nodes(&v, l, 9).unwrap(),
                    vec![PartitionSpec::route_value(&v, l).unwrap()]
                );
            }
        }
    }

    #[test]
    fn light_values_keep_hash_homes() {
        let hash = PartitionSpec::hash(1);
        let hl = PartitionSpec::heavy_light(1, vec![Value::Int(3)], 4, SpreadMode::Salt);
        for i in 0..50i64 {
            let jv = i % 7;
            if jv == 3 {
                continue;
            }
            let r = row![i, jv];
            assert_eq!(hl.route(&r, 8, 0).unwrap(), hash.route(&r, 8, 0).unwrap());
        }
    }

    #[test]
    fn salt_spreads_heavy_rows_within_spread_set() {
        let hl = PartitionSpec::heavy_light(1, vec![Value::Int(3)], 4, SpreadMode::Salt);
        let l = 8;
        let probe = hl.probe_nodes(&Value::Int(3), l, 0).unwrap();
        assert_eq!(probe.len(), 4, "salted probes visit the whole spread set");
        let mut used = std::collections::BTreeSet::new();
        for i in 0..200i64 {
            let dsts = hl.route_all(&row![i, 3], l, 0).unwrap();
            assert_eq!(dsts.len(), 1, "salt mode stores one copy");
            assert!(probe.contains(&dsts[0]), "row lands inside the spread set");
            used.insert(dsts[0]);
        }
        assert!(used.len() >= 3, "salting uses most of the spread set");
    }

    #[test]
    fn replicate_stores_everywhere_probes_one() {
        let hl = PartitionSpec::heavy_light(1, vec![Value::Int(3)], 3, SpreadMode::Replicate);
        let l = 8;
        let dsts = hl.route_all(&row![7, 3], l, 0).unwrap();
        assert_eq!(dsts.len(), 3, "replicated to the whole spread set");
        assert_eq!(dsts[0], hl.route(&row![7, 3], l, 0).unwrap());
        for salt in 0..20u64 {
            let probe = hl.probe_nodes(&Value::Int(3), l, salt).unwrap();
            assert_eq!(probe.len(), 1, "replicated probes visit one node");
            assert!(dsts.contains(&probe[0]));
        }
    }

    #[test]
    fn spread_clamps_to_cluster_size() {
        let hl = PartitionSpec::heavy_light(0, vec![Value::Int(1)], 64, SpreadMode::Salt);
        let probe = hl.probe_nodes(&Value::Int(1), 3, 0).unwrap();
        assert_eq!(probe.len(), 3, "spread set never exceeds L");
        // And on a single node everything degenerates to node 0.
        let probe = hl.probe_nodes(&Value::Int(1), 1, 0).unwrap();
        assert_eq!(probe, vec![pvm_types::NodeId::from(0usize)]);
        assert_eq!(
            hl.route_all(&row![1], 1, 0).unwrap(),
            vec![pvm_types::NodeId::from(0usize)]
        );
    }

    #[test]
    fn heavy_set_is_sorted_and_deduped() {
        let hl = PartitionSpec::heavy_light(
            0,
            vec![Value::Int(5), Value::Int(1), Value::Int(5)],
            2,
            SpreadMode::Salt,
        );
        let PartitionSpec::HeavyLight { heavy, .. } = &hl else {
            panic!("constructor must build a heavy-light spec");
        };
        assert_eq!(heavy.as_slice(), &[Value::Int(1), Value::Int(5)]);
        assert!(hl.is_heavy(&Value::Int(5)));
        assert!(!hl.is_heavy(&Value::Int(2)));
    }

    #[test]
    fn hash_value_is_fnv_over_the_encoded_key() {
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(-7),
            Value::Float(2.5),
            Value::Str(String::new()),
            Value::Str("x".repeat(100)),
            Value::Bool(true),
        ];
        for v in values {
            let fnv = v
                .encode_key()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(hash_value(&v), fnv, "{v}");
        }
    }
}
