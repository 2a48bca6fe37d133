//! Minimal predicate expressions.
//!
//! The paper's auxiliary relations are selections + projections of base
//! relations (`AR_R = σπ(R)`); this module provides the selection half:
//! conjunctions of `column ⊙ literal` comparisons.

use serde::{Deserialize, Serialize};

use crate::{Row, Value};

/// Comparison operators for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn eval(self, l: &Value, r: &Value) -> bool {
        // SQL-ish semantics: any comparison with NULL is false.
        if l.is_null() || r.is_null() {
            return false;
        }
        let ord = l.cmp(r);
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// One `column ⊙ literal` term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    pub column: usize,
    pub op: CmpOp,
    pub literal: Value,
}

/// A conjunction of comparisons. The empty conjunction is `TRUE`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Predicate {
    terms: Vec<Comparison>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always() -> Self {
        Predicate::default()
    }

    /// Single-term predicate.
    pub fn cmp(column: usize, op: CmpOp, literal: impl Into<Value>) -> Self {
        Predicate {
            terms: vec![Comparison {
                column,
                op,
                literal: literal.into(),
            }],
        }
    }

    /// AND another term onto this predicate.
    pub fn and(mut self, column: usize, op: CmpOp, literal: impl Into<Value>) -> Self {
        self.terms.push(Comparison {
            column,
            op,
            literal: literal.into(),
        });
        self
    }

    pub fn terms(&self) -> &[Comparison] {
        &self.terms
    }

    /// Evaluate against a row. Out-of-range columns evaluate to false
    /// rather than panicking so corrupted plans fail closed.
    pub fn eval(&self, row: &Row) -> bool {
        self.terms.iter().all(|t| match row.get(t.column) {
            Some(v) => t.op.eval(v, &t.literal),
            None => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn predicate_eval() {
        let r = row![5, "x"];
        assert!(Predicate::always().eval(&r));
        assert!(Predicate::cmp(0, CmpOp::Eq, 5).eval(&r));
        assert!(!Predicate::cmp(0, CmpOp::Eq, 6).eval(&r));
        assert!(Predicate::cmp(0, CmpOp::Ge, 5)
            .and(1, CmpOp::Eq, "x")
            .eval(&r));
        assert!(!Predicate::cmp(0, CmpOp::Gt, 5).eval(&r));
        assert!(Predicate::cmp(0, CmpOp::Ne, 4).eval(&r));
        assert!(Predicate::cmp(0, CmpOp::Le, 5).eval(&r));
        assert!(Predicate::cmp(0, CmpOp::Lt, 6).eval(&r));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = Row::new(vec![Value::Null]);
        assert!(!Predicate::cmp(0, CmpOp::Eq, Value::Null).eval(&r));
        assert!(!Predicate::cmp(0, CmpOp::Ne, 1).eval(&r));
    }

    #[test]
    fn out_of_range_column_is_false() {
        let r = row![1];
        assert!(!Predicate::cmp(5, CmpOp::Eq, 1).eval(&r));
    }
}
