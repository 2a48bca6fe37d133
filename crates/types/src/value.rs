//! Typed scalar values and their data types.
//!
//! Values are the atoms stored in rows. They support a *total* order (NULLs
//! sort first, NaN sorts last among floats) so they can be used as B+tree
//! keys, and a stable, order-preserving binary encoding used both for row
//! serialization and for composite index keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// The data type of a column or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// Variable-length UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A scalar value. `Null` is a member of every type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    /// Data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if this value may be stored in a column of `dtype`.
    pub fn conforms_to(&self, dtype: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(dt) => dt == dtype,
        }
    }

    /// Integer accessor; `None` if not an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor; `None` if not a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor; `None` if not a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Estimated in-memory/stored size in bytes (used for page accounting
    /// and the MB figures of Table 1).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bool(_) => 2,
        }
    }

    /// What [`Value::encode_into`] writes for [`Value::Null`]: an encoded
    /// join key equal to this never matches.
    pub const NULL_ENCODING: &'static [u8] = &[0x00];

    /// Order-preserving binary encoding, appended to `out`.
    ///
    /// The encoding is self-delimiting and preserves the [`Value`] total
    /// order under lexicographic byte comparison *within a type tag*, which
    /// is all the B+tree needs (composite keys compare tag-then-payload).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0x00),
            Value::Int(v) => {
                out.push(0x01);
                // Flip the sign bit so lexicographic byte order matches
                // numeric order.
                let enc = (*v as u64) ^ (1u64 << 63);
                out.extend_from_slice(&enc.to_be_bytes());
            }
            Value::Float(v) => {
                out.push(0x02);
                out.extend_from_slice(&encode_f64_ordered(*v).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(0x03);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(0x04);
                out.push(u8::from(*b));
            }
        }
    }

    /// Decode one value from `buf`, returning the value and the number of
    /// bytes consumed.
    pub fn decode_from(buf: &[u8]) -> crate::Result<(Value, usize)> {
        use crate::PvmError;
        let tag = *buf
            .first()
            .ok_or_else(|| PvmError::Corrupt("empty value buffer".into()))?;
        match tag {
            0x00 => Ok((Value::Null, 1)),
            0x01 => {
                let raw = read_u64(&buf[1..])?;
                Ok((Value::Int((raw ^ (1u64 << 63)) as i64), 9))
            }
            0x02 => {
                let raw = read_u64(&buf[1..])?;
                Ok((Value::Float(decode_f64_ordered(raw)), 9))
            }
            0x03 => {
                let len = read_u32(&buf[1..])? as usize;
                let start = 5;
                let end = start + len;
                if buf.len() < end {
                    return Err(PvmError::Corrupt("truncated string value".into()));
                }
                let s = std::str::from_utf8(&buf[start..end])
                    .map_err(|_| PvmError::Corrupt("invalid utf-8 in value".into()))?;
                Ok((Value::Str(s.to_owned()), end))
            }
            0x04 => {
                let b = *buf
                    .get(1)
                    .ok_or_else(|| PvmError::Corrupt("truncated bool".into()))?;
                Ok((Value::Bool(b != 0), 2))
            }
            other => Err(PvmError::Corrupt(format!("unknown value tag {other:#x}"))),
        }
    }

    /// Length of the encoded value at the front of `buf`, read from its
    /// tag (and, for strings, the length prefix) without decoding the
    /// payload — how a reader skips to a later column of an encoded row.
    /// Errors when `buf` ends before the value does.
    pub fn encoded_len(buf: &[u8]) -> crate::Result<usize> {
        use crate::PvmError;
        let tag = *buf
            .first()
            .ok_or_else(|| PvmError::Corrupt("empty value buffer".into()))?;
        let len = match tag {
            0x00 => 1,
            0x01 | 0x02 => 9,
            0x03 => (read_u32(&buf[1..])? as usize).saturating_add(5),
            0x04 => 2,
            other => return Err(PvmError::Corrupt(format!("unknown value tag {other:#x}"))),
        };
        if buf.len() < len {
            return Err(PvmError::Corrupt("truncated value".into()));
        }
        Ok(len)
    }

    /// Encode this single value as a standalone key.
    pub fn encode_key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        self.encode_into(&mut out);
        out
    }
}

fn read_u64(buf: &[u8]) -> crate::Result<u64> {
    let arr: [u8; 8] = buf
        .get(..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| crate::PvmError::Corrupt("truncated u64".into()))?;
    Ok(u64::from_be_bytes(arr))
}

fn read_u32(buf: &[u8]) -> crate::Result<u32> {
    let arr: [u8; 4] = buf
        .get(..4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| crate::PvmError::Corrupt("truncated u32".into()))?;
    Ok(u32::from_be_bytes(arr))
}

/// Map an f64 onto a u64 whose unsigned order matches the float total order
/// (negative floats reversed, sign bit flipped for positives).
fn encode_f64_ordered(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn decode_f64_ordered(raw: u64) -> f64 {
    let bits = if raw & (1 << 63) != 0 {
        raw & !(1 << 63)
    } else {
        !raw
    };
    f64::from_bits(bits)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Int < Float < Str < Bool (cross-type by tag;
    /// well-typed schemas never compare across types), floats use the IEEE
    /// total order so NaN is comparable.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => encode_f64_ordered(*a).cmp(&encode_f64_ordered(*b)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                encode_f64_ordered(*v).hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Bool(_) => 4,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_and_order() {
        let vals = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for v in vals {
            let val = Value::Int(v);
            let enc = val.encode_key();
            let (dec, used) = Value::decode_from(&enc).unwrap();
            assert_eq!(dec, val);
            assert_eq!(used, enc.len());
            encoded.push(enc);
        }
        for w in encoded.windows(2) {
            assert!(w[0] < w[1], "int encoding must be order-preserving");
        }
    }

    #[test]
    fn float_roundtrip_and_order() {
        let vals = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1e-9, 2.5, f64::INFINITY];
        let mut prev: Option<Vec<u8>> = None;
        for v in vals {
            let val = Value::Float(v);
            let enc = val.encode_key();
            let (dec, _) = Value::decode_from(&enc).unwrap();
            assert_eq!(dec.as_float().unwrap().to_bits(), {
                // -0.0 and 0.0 distinguished by total order encoding
                v.to_bits()
            });
            if let Some(p) = prev {
                assert!(p <= enc);
            }
            prev = Some(enc);
        }
    }

    #[test]
    fn nan_is_orderable() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(one.cmp(&nan), Ordering::Less);
    }

    #[test]
    fn str_roundtrip() {
        for s in ["", "a", "hello world", "ünïcødé"] {
            let val = Value::from(s);
            let enc = val.encode_key();
            let (dec, used) = Value::decode_from(&enc).unwrap();
            assert_eq!(dec, val);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn null_and_bool_roundtrip() {
        for val in [Value::Null, Value::Bool(true), Value::Bool(false)] {
            let enc = val.encode_key();
            let (dec, used) = Value::decode_from(&enc).unwrap();
            assert_eq!(dec, val);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode_from(&[]).is_err());
        assert!(Value::decode_from(&[0xff]).is_err());
        assert!(Value::decode_from(&[0x01, 0x00]).is_err()); // truncated int
        assert!(Value::decode_from(&[0x03, 0, 0, 0, 9, b'x']).is_err()); // truncated str
    }

    #[test]
    fn conforms() {
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Str));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::from("x").to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
