//! Rows: ordered tuples of [`Value`]s with a compact binary encoding.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{PvmError, Result, Value};

/// An ordered tuple of values. Rows are schema-agnostic; validation against
/// a [`crate::Schema`] happens at table boundaries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Row(Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    pub fn arity(&self) -> usize {
        self.0.len()
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Value at `idx`, or an error naming the index.
    pub fn try_get(&self, idx: usize) -> Result<&Value> {
        self.0
            .get(idx)
            .ok_or_else(|| PvmError::InvalidReference(format!("row column {idx}")))
    }

    pub fn set(&mut self, idx: usize, v: Value) -> Result<()> {
        let slot = self
            .0
            .get_mut(idx)
            .ok_or_else(|| PvmError::InvalidReference(format!("row column {idx}")))?;
        *slot = v;
        Ok(())
    }

    /// New row keeping only the columns at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Result<Row> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.try_get(i)?.clone());
        }
        Ok(Row(out))
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v)
    }

    /// Estimated stored size in bytes (2-byte count header + values).
    pub fn byte_size(&self) -> usize {
        2 + self.0.iter().map(Value::byte_size).sum::<usize>()
    }

    /// Serialize to a standalone byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        self.encode_into(&mut out);
        out
    }

    /// Serialize into a caller-owned buffer (appended), so hot paths can
    /// reuse one allocation across many rows.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u16).to_be_bytes());
        for v in &self.0 {
            v.encode_into(out);
        }
    }

    /// Deserialize a row previously produced by [`Row::encode`].
    pub fn decode(buf: &[u8]) -> Result<Row> {
        let (row, used) = Self::decode_from(buf)?;
        if used != buf.len() {
            return Err(PvmError::Corrupt(format!(
                "trailing {} bytes after row",
                buf.len() - used
            )));
        }
        Ok(row)
    }

    /// Deserialize a row from the front of `buf`, returning bytes consumed.
    pub fn decode_from(buf: &[u8]) -> Result<(Row, usize)> {
        let n = Self::encoded_arity(buf)?;
        let mut values = Vec::with_capacity(n);
        let mut off = 2;
        for _ in 0..n {
            let (v, used) = Value::decode_from(&buf[off..])?;
            values.push(v);
            off += used;
        }
        Ok((Row(values), off))
    }

    /// The column count in the two-byte header of an encoded row.
    fn encoded_arity(buf: &[u8]) -> Result<usize> {
        let n: [u8; 2] = buf
            .get(..2)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| PvmError::Corrupt("truncated row header".into()))?;
        Ok(u16::from_be_bytes(n) as usize)
    }

    /// The encoded bytes of column `idx` of a row produced by
    /// [`Row::encode`] — equal to that value's [`Value::encode_key`] —
    /// found by skipping the columns before it by tag. Nothing is decoded
    /// and the columns after `idx` are not looked at.
    pub fn column_bytes(buf: &[u8], idx: usize) -> Result<&[u8]> {
        if idx >= Self::encoded_arity(buf)? {
            return Err(PvmError::InvalidReference(format!("row column {idx}")));
        }
        let mut rest = &buf[2..];
        for _ in 0..idx {
            rest = &rest[Value::encoded_len(rest)?..];
        }
        Ok(&rest[..Value::encoded_len(rest)?])
    }

    /// Every column of a row produced by [`Row::encode`], as
    /// [`Row::column_bytes`] gives it, into `out` (cleared first): one
    /// pass over the tags, nothing decoded.
    pub fn split_columns<'a>(buf: &'a [u8], out: &mut Vec<&'a [u8]>) -> Result<()> {
        out.clear();
        let arity = Self::encoded_arity(buf)?;
        let mut rest = &buf[2..];
        for _ in 0..arity {
            let (value, tail) = rest.split_at(Value::encoded_len(rest)?);
            out.push(value);
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(PvmError::Corrupt(format!(
                "trailing {} bytes after row",
                rest.len()
            )));
        }
        Ok(())
    }

    /// The bytes [`Row::encode`] writes for the row whose columns encode
    /// as `cols` (appended to `out`): the inverse of
    /// [`Row::split_columns`].
    pub fn encode_columns<'a>(cols: impl ExactSizeIterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
        out.extend_from_slice(&(cols.len() as u16).to_be_bytes());
        for c in cols {
            out.extend_from_slice(c);
        }
    }

    /// Encode the values at `indices` as a composite key (order-preserving
    /// per component).
    pub fn encode_key(&self, indices: &[usize]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_key_into(indices, &mut out)?;
        Ok(out)
    }

    /// [`Row::encode_key`] into a caller-owned buffer (appended), for
    /// encode-buffer reuse on index write paths.
    pub fn encode_key_into(&self, indices: &[usize], out: &mut Vec<u8>) -> Result<()> {
        for &i in indices {
            self.try_get(i)?.encode_into(out);
        }
        Ok(())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// Build a row from literal-ish values: `row![1, "x", 2.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::from("hi"),
            Value::Float(1.25),
            Value::Null,
        ])
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let enc = r.encode();
        assert_eq!(Row::decode(&enc).unwrap(), r);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = sample().encode();
        enc.push(0xAB);
        assert!(Row::decode(&enc).is_err());
    }

    #[test]
    fn project_and_concat() {
        let r = sample();
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p, Row::new(vec![Value::Float(1.25), Value::Int(7)]));
        assert!(r.project(&[99]).is_err());
        let c = p.concat(&Row::new(vec![Value::Bool(true)]));
        assert_eq!(c.arity(), 3);
    }

    #[test]
    fn composite_key_orders() {
        let a = row![1, "a"];
        let b = row![1, "b"];
        let c = row![2, "a"];
        let ka = a.encode_key(&[0, 1]).unwrap();
        let kb = b.encode_key(&[0, 1]).unwrap();
        let kc = c.encode_key(&[0, 1]).unwrap();
        assert!(ka < kb && kb < kc);
    }

    #[test]
    fn byte_size_tracks_encoding() {
        let r = sample();
        assert_eq!(r.byte_size(), r.encode().len());
    }

    #[test]
    fn row_macro() {
        let r = row![1, "x", 2.5, true];
        assert_eq!(r.arity(), 4);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[3], Value::Bool(true));
    }

    #[test]
    fn set_and_get() {
        let mut r = sample();
        r.set(0, Value::Int(99)).unwrap();
        assert_eq!(r.try_get(0).unwrap(), &Value::Int(99));
        assert!(r.set(42, Value::Null).is_err());
    }

    #[test]
    fn column_bytes_rejects_bad_input() {
        let enc = sample().encode();
        assert!(Row::column_bytes(&enc, 4).is_err(), "column out of range");
        assert!(Row::column_bytes(&enc[..1], 0).is_err(), "truncated header");
        assert!(Row::column_bytes(&[0, 1], 0).is_err(), "header, no value");
        assert!(Row::column_bytes(&[0, 1, 0x09], 0).is_err(), "bad tag");
        assert!(
            Row::column_bytes(&[0, 2, 0x07, 0x00], 1).is_err(),
            "bad tag on a skipped column"
        );
        // A string whose length prefix runs past the buffer.
        assert!(Row::column_bytes(&[0, 1, 0x03, 0xff, 0xff, 0xff, 0xff, b'x'], 0).is_err());
    }
}

#[cfg(test)]
mod encoded_key_properties {
    //! What the delta-side scan join rests on: two values are equal
    //! exactly when their encodings are, and a column's bytes can be cut
    //! out of an encoded row without decoding it.

    use super::*;
    use proptest::prelude::*;

    /// Values dense in collisions and edge cases: both zeros, NaNs of
    /// both signs, the empty string, equal payload bits across types.
    fn value() -> BoxedStrategy<Value> {
        prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::NAN),
                Just(-f64::NAN),
                Just(f64::INFINITY),
                Just(1.0),
                any::<f64>()
            ]
            .prop_map(Value::Float),
            ".{0,3}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn values_equal_iff_encodings_equal(a in value(), b in value()) {
            prop_assert_eq!(a == b, a.encode_key() == b.encode_key(), "{:?} vs {:?}", a, b);
            prop_assert_eq!(Value::encoded_len(&a.encode_key()).unwrap(), a.byte_size());
            prop_assert_eq!(a.is_null(), a.encode_key() == Value::NULL_ENCODING);
        }

        #[test]
        fn column_bytes_is_the_columns_encoding(
            values in proptest::collection::vec(value(), 0..8),
            cut in any::<usize>(),
            flip in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let row = Row::new(values);
            let enc = row.encode();
            for i in 0..row.arity() {
                prop_assert_eq!(Row::column_bytes(&enc, i).unwrap().to_vec(), row[i].encode_key());
            }
            prop_assert!(Row::column_bytes(&enc, row.arity()).is_err());
            // Splitting and re-assembling is the identity on the encoding.
            let mut cols = Vec::new();
            Row::split_columns(&enc, &mut cols).unwrap();
            prop_assert_eq!(cols.len(), row.arity());
            for (i, c) in cols.iter().enumerate() {
                prop_assert_eq!(*c, Row::column_bytes(&enc, i).unwrap());
            }
            let mut again = Vec::new();
            Row::encode_columns(cols.iter().copied(), &mut again);
            prop_assert_eq!(&again, &enc);
            // Damaged input: an error or in-bounds bytes, never a panic; a
            // prefix too short to hold the last column is always an error.
            let cut = cut % enc.len();
            let last = row.arity().saturating_sub(1);
            prop_assert!(Row::column_bytes(&enc[..cut], last).is_err());
            prop_assert!(Row::split_columns(&enc[..cut], &mut cols).is_err());
            let mut longer = enc.clone();
            longer.push(0x00);
            prop_assert!(Row::split_columns(&longer, &mut cols).is_err(), "trailing bytes");
            let mut bad = enc.clone();
            bad[flip % enc.len()] = byte;
            for i in 0..row.arity() + 1 {
                let _ = Row::column_bytes(&bad, i);
            }
            let _ = Row::split_columns(&bad, &mut cols);
        }
    }
}
