//! Column and relation schemas.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{DataType, PvmError, Result, Row};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
}

impl Column {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }

    /// Shorthand for an `INT` column.
    pub fn int(name: impl Into<String>) -> Self {
        Column::new(name, DataType::Int)
    }

    /// Shorthand for a `FLOAT` column.
    pub fn float(name: impl Into<String>) -> Self {
        Column::new(name, DataType::Float)
    }

    /// Shorthand for a `STR` column.
    pub fn str(name: impl Into<String>) -> Self {
        Column::new(name, DataType::Str)
    }
}

/// An ordered list of columns describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Shared, immutable schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    pub fn empty() -> Self {
        Schema {
            columns: Vec::new(),
        }
    }

    pub fn into_ref(self) -> SchemaRef {
        Arc::new(self)
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| PvmError::NotFound(format!("column '{name}'")))
    }

    /// Validate that `row` conforms to this schema (arity + types).
    pub fn check_row(&self, row: &Row) -> Result<()> {
        if row.arity() != self.arity() {
            return Err(PvmError::SchemaMismatch(format!(
                "row arity {} != schema arity {}",
                row.arity(),
                self.arity()
            )));
        }
        for (i, (v, c)) in row.values().iter().zip(self.columns.iter()).enumerate() {
            if !v.conforms_to(c.dtype) {
                return Err(PvmError::SchemaMismatch(format!(
                    "column {i} ('{}') expects {}, got {v}",
                    c.name, c.dtype
                )));
            }
        }
        Ok(())
    }

    /// Schema of the projection selecting `indices` (in order).
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut cols = Vec::with_capacity(indices.len());
        for &i in indices {
            let c = self
                .columns
                .get(i)
                .ok_or_else(|| PvmError::InvalidReference(format!("column index {i}")))?;
            cols.push(c.clone());
        }
        Ok(Schema::new(cols))
    }

    /// Concatenation of two schemas, prefixing column names to keep them
    /// unique (`left.x`, `right.y`), as produced by a join.
    pub fn join(&self, left_prefix: &str, other: &Schema, right_prefix: &str) -> Schema {
        let mut cols = Vec::with_capacity(self.arity() + other.arity());
        for c in &self.columns {
            cols.push(Column::new(
                format!("{left_prefix}.{}", strip_prefix(&c.name)),
                c.dtype,
            ));
        }
        for c in &other.columns {
            cols.push(Column::new(
                format!("{right_prefix}.{}", strip_prefix(&c.name)),
                c.dtype,
            ));
        }
        Schema::new(cols)
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// Drop an existing `rel.` prefix so join schemas do not stack prefixes.
fn strip_prefix(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, tail)) => tail,
        None => name,
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn abc() -> Schema {
        Schema::new(vec![Column::int("a"), Column::str("b"), Column::float("c")])
    }

    #[test]
    fn index_lookup() {
        let s = abc();
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("zzz").is_err());
    }

    #[test]
    fn row_check() {
        let s = abc();
        let ok = Row::new(vec![Value::Int(1), Value::from("x"), Value::Float(2.0)]);
        assert!(s.check_row(&ok).is_ok());
        let null_ok = Row::new(vec![Value::Null, Value::Null, Value::Null]);
        assert!(s.check_row(&null_ok).is_ok());
        let bad_arity = Row::new(vec![Value::Int(1)]);
        assert!(s.check_row(&bad_arity).is_err());
        let bad_type = Row::new(vec![Value::from("no"), Value::from("x"), Value::Float(2.0)]);
        assert!(s.check_row(&bad_type).is_err());
    }

    #[test]
    fn project_schema() {
        let s = abc();
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.names(), vec!["c", "a"]);
        assert!(s.project(&[9]).is_err());
    }

    #[test]
    fn join_schema_prefixes_and_strips() {
        let a = abc();
        let b = Schema::new(vec![Column::int("d")]);
        let j = a.join("A", &b, "B");
        assert_eq!(j.names(), vec!["A.a", "A.b", "A.c", "B.d"]);
        // Joining a join result must not stack prefixes.
        let jj = j.join("J", &b, "B2");
        assert_eq!(jj.names(), vec!["J.a", "J.b", "J.c", "J.d", "B2.d"]);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(abc().to_string(), "(a INT, b STR, c FLOAT)");
    }
}
