//! Aggregate join views — `SELECT g…, COUNT(*), SUM(x) FROM A ⋈ B … GROUP
//! BY g…` — the natural extension of the paper's join views (and the
//! subject of the authors' follow-up work on aggregate join views).
//!
//! The join-delta machinery is unchanged: a base update flows through the
//! same naive / auxiliary-relation / global-index chains. What differs is
//! the final *apply* step: instead of inserting join rows into the stored
//! view, each shipped row is **folded** into its group at the group's
//! home node — `COUNT` and `SUM` increase on insert and decrease on
//! delete, and a group whose count reaches zero is removed.
//!
//! Only self-maintainable aggregates are supported: `COUNT` and `SUM`
//! (and `AVG`, derivable as SUM/COUNT at read time). `MIN`/`MAX` are
//! deliberately excluded — deleting the current extremum requires
//! rescanning the group, which breaks the constant-work-per-delta
//! property the paper's methods are about.

use pvm_types::{Column, DataType, PvmError, Result, Row, Schema, Value};

use crate::viewdef::JoinViewDef;

/// Aggregate rows under construction, by group key: what
/// [`AggShape::add_to`] folds into.
pub(crate) type Groups = std::collections::BTreeMap<Vec<Value>, Row>;

/// A self-maintainable aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(column)` over a projected join column.
    Sum,
}

/// One aggregate output of the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// For `Sum`: index into the underlying join's projection. `None` for
    /// `Count`.
    pub input: Option<usize>,
}

impl AggSpec {
    pub fn count() -> Self {
        AggSpec {
            func: AggFunc::Count,
            input: None,
        }
    }

    pub fn sum(projected_col: usize) -> Self {
        AggSpec {
            func: AggFunc::Sum,
            input: Some(projected_col),
        }
    }
}

/// The grouping/aggregation shape layered on a join view. Indices refer
/// to the underlying join's projection (the "shipped" row layout).
#[derive(Debug, Clone, PartialEq)]
pub struct AggShape {
    /// Projected columns forming the group key, in output order.
    pub group_by: Vec<usize>,
    /// Aggregate outputs, in output order after the group columns.
    pub aggregates: Vec<AggSpec>,
}

impl AggShape {
    /// Validate against the join definition and derive the stored schema:
    /// `group columns…, __count, agg outputs…`. The hidden `__count`
    /// column makes group garbage-collection (and AVG) possible even when
    /// no COUNT was requested.
    pub fn stored_schema(&self, def: &JoinViewDef, join_schema: &Schema) -> Result<Schema> {
        if self.group_by.is_empty() {
            return Err(PvmError::InvalidOperation(
                "aggregate views need at least one GROUP BY column".into(),
            ));
        }
        let mut cols = Vec::new();
        for &g in &self.group_by {
            let c = join_schema.column(g).ok_or_else(|| {
                PvmError::InvalidReference(format!("GROUP BY column {g} out of range"))
            })?;
            cols.push(c.clone());
        }
        cols.push(Column::int("__count"));
        for (i, a) in self.aggregates.iter().enumerate() {
            match a.func {
                AggFunc::Count => {
                    if a.input.is_some() {
                        return Err(PvmError::InvalidOperation("COUNT takes no input".into()));
                    }
                    cols.push(Column::int(format!("count_{i}")));
                }
                AggFunc::Sum => {
                    let input = a.input.ok_or_else(|| {
                        PvmError::InvalidOperation("SUM needs an input column".into())
                    })?;
                    let c = join_schema.column(input).ok_or_else(|| {
                        PvmError::InvalidReference(format!("SUM input {input} out of range"))
                    })?;
                    match c.dtype {
                        DataType::Int | DataType::Float => {
                            cols.push(Column::new(format!("sum_{}", c.name), c.dtype))
                        }
                        other => {
                            return Err(PvmError::InvalidOperation(format!(
                                "SUM over {other} is not supported"
                            )))
                        }
                    }
                }
            }
        }
        let _ = def;
        Ok(Schema::new(cols))
    }

    /// Positions of the group columns within the stored schema (always the
    /// prefix).
    pub fn stored_group_positions(&self) -> Vec<usize> {
        (0..self.group_by.len()).collect()
    }

    /// Group-key values of a shipped (projected join) row.
    pub fn group_key(&self, projected: &Row) -> Result<Vec<Value>> {
        self.group_by
            .iter()
            .map(|&g| Ok(projected.try_get(g)?.clone()))
            .collect()
    }

    /// A fresh stored row for a group seeing its first join row.
    pub fn initial_row(&self, projected: &Row) -> Result<Row> {
        let mut vals = self.group_key(projected)?;
        vals.push(Value::Int(1));
        for a in &self.aggregates {
            vals.push(match a.func {
                AggFunc::Count => Value::Int(1),
                AggFunc::Sum => delta_of(projected, a)?,
            });
        }
        Ok(Row::new(vals))
    }

    /// Fold one shipped row into an existing stored group row
    /// (`sign` = +1 insert / −1 delete). Returns `None` when the group's
    /// count reaches zero (caller removes the row).
    pub fn fold(&self, stored: &Row, projected: &Row, sign: i64) -> Result<Option<Row>> {
        let g = self.group_by.len();
        let count = stored.try_get(g)?.as_int().ok_or_else(bad_stored)? + sign;
        if count < 0 {
            return Err(PvmError::Corrupt(
                "aggregate group count went negative".into(),
            ));
        }
        if count == 0 {
            return Ok(None);
        }
        let mut vals = stored.values().to_vec();
        vals[g] = Value::Int(count);
        for (i, a) in self.aggregates.iter().enumerate() {
            let pos = g + 1 + i;
            vals[pos] = match a.func {
                AggFunc::Count => {
                    Value::Int(stored.try_get(pos)?.as_int().ok_or_else(bad_stored)? + sign)
                }
                AggFunc::Sum => add_values(stored.try_get(pos)?, &delta_of(projected, a)?, sign)?,
            };
        }
        Ok(Some(Row::new(vals)))
    }

    /// Aggregate a full set of projected join rows from scratch (oracle /
    /// initial population).
    pub fn aggregate_all(&self, projected_rows: &[Row]) -> Result<Vec<Row>> {
        let mut groups = Groups::new();
        for p in projected_rows {
            self.add_to(&mut groups, p)?;
        }
        Ok(groups.into_values().collect())
    }

    /// Fold one projected join row into from-scratch `groups`, so a
    /// streamed recompute aggregates without holding its join rows.
    pub(crate) fn add_to(&self, groups: &mut Groups, projected: &Row) -> Result<()> {
        let key = self.group_key(projected)?;
        let row = match groups.remove(&key) {
            None => self.initial_row(projected)?,
            Some(existing) => self
                .fold(&existing, projected, 1)?
                .expect("count only grows during aggregation"),
        };
        groups.insert(key, row);
        Ok(())
    }
}

fn bad_stored() -> PvmError {
    PvmError::Corrupt("malformed aggregate-view row".into())
}

/// The SUM contribution of one projected row.
fn delta_of(projected: &Row, a: &AggSpec) -> Result<Value> {
    let input = a.input.expect("validated: SUM has an input");
    Ok(projected.try_get(input)?.clone())
}

/// `stored + sign·delta` with numeric type preservation; NULL deltas
/// contribute zero (SQL SUM ignores NULLs).
fn add_values(stored: &Value, delta: &Value, sign: i64) -> Result<Value> {
    match (stored, delta) {
        (Value::Int(s), Value::Int(d)) => Ok(Value::Int(s + sign * d)),
        (Value::Float(s), Value::Float(d)) => Ok(Value::Float(s + sign as f64 * d)),
        (s, Value::Null) => Ok(s.clone()),
        _ => Err(PvmError::SchemaMismatch(format!(
            "cannot fold {delta} into aggregate {stored}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viewdef::{ViewColumn, ViewEdge};
    use pvm_types::row;

    fn join_def() -> JoinViewDef {
        JoinViewDef {
            name: "jv".into(),
            relations: vec!["a".into(), "b".into()],
            edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
            projection: vec![
                ViewColumn::new(0, 1), // group col
                ViewColumn::new(1, 2), // summed col
            ],
            partition_column: 0,
        }
    }

    fn join_schema() -> Schema {
        Schema::new(vec![Column::int("g"), Column::float("x")])
    }

    fn shape() -> AggShape {
        AggShape {
            group_by: vec![0],
            aggregates: vec![AggSpec::count(), AggSpec::sum(1)],
        }
    }

    #[test]
    fn stored_schema_shape() {
        let s = shape().stored_schema(&join_def(), &join_schema()).unwrap();
        assert_eq!(s.names(), vec!["g", "__count", "count_0", "sum_x"]);
        assert_eq!(s.column(3).unwrap().dtype, DataType::Float);
    }

    #[test]
    fn validation_errors() {
        let def = join_def();
        let js = join_schema();
        let no_groups = AggShape {
            group_by: vec![],
            aggregates: vec![AggSpec::count()],
        };
        assert!(no_groups.stored_schema(&def, &js).is_err());
        let bad_col = AggShape {
            group_by: vec![9],
            aggregates: vec![],
        };
        assert!(bad_col.stored_schema(&def, &js).is_err());
        let sum_no_input = AggShape {
            group_by: vec![0],
            aggregates: vec![AggSpec {
                func: AggFunc::Sum,
                input: None,
            }],
        };
        assert!(sum_no_input.stored_schema(&def, &js).is_err());
        let sum_str = AggShape {
            group_by: vec![0],
            aggregates: vec![AggSpec::sum(0)],
        };
        // summing the INT group col is fine; summing a STR is not:
        let js2 = Schema::new(vec![Column::str("g"), Column::float("x")]);
        assert!(sum_str.stored_schema(&def, &js2).is_err());
    }

    #[test]
    fn fold_roundtrip() {
        let sh = shape();
        let first = sh.initial_row(&row![7, 2.5]).unwrap();
        assert_eq!(first, row![7, 1, 1, 2.5]);
        let second = sh.fold(&first, &row![7, 1.5], 1).unwrap().unwrap();
        assert_eq!(second, row![7, 2, 2, 4.0]);
        // Delete one back out…
        let third = sh.fold(&second, &row![7, 1.5], -1).unwrap().unwrap();
        assert_eq!(third, row![7, 1, 1, 2.5]);
        // …and removing the last member dissolves the group.
        assert!(sh.fold(&third, &row![7, 2.5], -1).unwrap().is_none());
    }

    #[test]
    fn negative_count_is_corruption() {
        let sh = shape();
        let zeroish = row![7, 0, 0, 0.0];
        assert!(sh.fold(&zeroish, &row![7, 1.0], -1).is_err());
    }

    #[test]
    fn null_sum_inputs_ignored() {
        let sh = shape();
        let first = sh.initial_row(&row![7, 2.5]).unwrap();
        let with_null = sh
            .fold(&first, &Row::new(vec![Value::Int(7), Value::Null]), 1)
            .unwrap()
            .unwrap();
        assert_eq!(
            with_null,
            row![7, 2, 2, 2.5],
            "NULL adds to COUNT but not SUM"
        );
    }

    #[test]
    fn aggregate_all_matches_incremental() {
        let sh = shape();
        let rows = vec![row![1, 1.0], row![2, 5.0], row![1, 2.0], row![1, 3.0]];
        let all = sh.aggregate_all(&rows).unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&row![1, 3, 3, 6.0]));
        assert!(all.contains(&row![2, 1, 1, 5.0]));
    }

    #[test]
    fn int_sums_stay_int() {
        let sh = AggShape {
            group_by: vec![0],
            aggregates: vec![AggSpec::sum(1)],
        };
        let js = Schema::new(vec![Column::int("g"), Column::int("x")]);
        let stored_schema = sh.stored_schema(&join_def(), &js).unwrap();
        assert_eq!(stored_schema.column(2).unwrap().dtype, DataType::Int);
        let first = sh.initial_row(&row![1, 10]).unwrap();
        let second = sh.fold(&first, &row![1, 5], 1).unwrap().unwrap();
        assert_eq!(second, row![1, 2, 15]);
    }
}
