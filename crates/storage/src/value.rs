//! Runtime values stored in tuples.
//!
//! The paper assumes a typical relational structure (§2): typed columns whose
//! fields hold "a single value (or null)". We support the four scalar types
//! the paper's examples need (integers, floats for salaries, text for names,
//! booleans for predicates) plus SQL `NULL`.
//!
//! Equality and ordering here are *storage-level*: deterministic, total, and
//! suitable for hash indexes and sorted output. SQL's three-valued comparison
//! semantics (where `NULL = NULL` is *unknown*) live in the query layer; see
//! [`Value::sql_cmp`] for the building block it uses.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use setrules_json::Json;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean truth value.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point.
    Float,
    /// UTF-8 text of arbitrary length.
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
        }
    }
}

impl DataType {
    /// JSON form: the lowercase type name as a string.
    pub fn to_json(self) -> Json {
        Json::Str(self.to_string())
    }

    /// Parse the JSON form written by [`DataType::to_json`].
    pub fn from_json(json: &Json) -> Option<DataType> {
        match json.as_str()? {
            "bool" => Some(DataType::Bool),
            "int" => Some(DataType::Int),
            "float" => Some(DataType::Float),
            "text" => Some(DataType::Text),
            _ => None,
        }
    }
}

/// A single field value: one of the scalar types, or `NULL`.
///
/// `Value` implements `Eq`, `Ord`, and `Hash` with *total* semantics so it
/// can serve as an index key and be sorted deterministically: `NULL` sorts
/// first, floats use IEEE total ordering, and integers compare numerically
/// with floats.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL `NULL` — the absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Text string.
    Text(String),
}

impl Value {
    /// The dynamic type of this value, or `None` for `NULL` (which inhabits
    /// every column type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// Whether this value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if the value is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view, if the value is `Text`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view, if the value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Coerce this value to `ty`, if a lossless conversion exists.
    ///
    /// `NULL` coerces to every type; `Int` widens to `Float`. Everything
    /// else must already match.
    pub fn coerce_to(&self, ty: DataType) -> Option<Value> {
        if !self.coerces_to(ty) {
            return None;
        }
        Some(match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            (v, _) => v.clone(),
        })
    }

    /// Whether [`Value::coerce_to`] succeeds for `ty`, without building
    /// the coerced value: the one statement of the legal coercions.
    pub fn coerces_to(&self, ty: DataType) -> bool {
        matches!((self, ty), (Value::Null, _) | (Value::Int(_), DataType::Float))
            || self.data_type() == Some(ty)
    }

    /// SQL comparison: `None` when either side is `NULL` (unknown) or the
    /// types are incomparable; numeric types compare across `Int`/`Float`.
    ///
    /// The query layer turns `None` into three-valued *unknown*.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality under three-valued logic: `None` = unknown.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Untagged JSON form for display: `NULL` → `null`, numbers and
    /// strings map directly. Not invertible: JSON has no NaN or infinity,
    /// so non-finite floats print as `null`. The exact (bit-preserving)
    /// value codec is `setrules_wal::value_to_json`.
    pub fn to_json(&self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::Int(*i),
            Value::Float(f) => Json::float(*f),
            Value::Text(s) => Json::Str(s.clone()),
        }
    }

    /// Storage-level total ordering rank of the variant, used by `Ord`.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }
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
    /// Total order: `NULL < Bool < numeric < Text`; `Int`/`Float` interleave
    /// numerically with ties broken so `Int(n)` sorts before `Float(n as f64)`
    /// (keeps the order antisymmetric while remaining numerically meaningful).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => match (*a as f64).total_cmp(b) {
                Ordering::Equal => Ordering::Less,
                o => o,
            },
            (Value::Float(a), Value::Int(b)) => match a.total_cmp(&(*b as f64)) {
                Ordering::Equal => Ordering::Greater,
                o => o,
            },
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
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
    fn data_types() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::Text("x".into()).data_type(), Some(DataType::Text));
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
    }

    #[test]
    fn sql_cmp_nulls_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(3.0).sql_cmp(&Value::Int(2)), Some(Ordering::Greater));
    }

    #[test]
    fn sql_cmp_incomparable_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Text("1".into())), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_is_antisymmetric_across_numeric() {
        let i = Value::Int(2);
        let f = Value::Float(2.0);
        assert_eq!(i.cmp(&f), Ordering::Less);
        assert_eq!(f.cmp(&i), Ordering::Greater);
        assert_ne!(i, f, "storage equality distinguishes Int(2) from Float(2.0)");
        assert_eq!(i.sql_eq(&f), Some(true), "SQL equality does not");
    }

    #[test]
    fn total_order_ranks() {
        let mut vs = vec![
            Value::Text("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(false),
            Value::Float(-1.0),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Float(-1.0),
                Value::Int(5),
                Value::Text("a".into()),
            ]
        );
    }

    #[test]
    fn coercion() {
        assert_eq!(Value::Int(3).coerce_to(DataType::Float), Some(Value::Float(3.0)));
        assert_eq!(Value::Null.coerce_to(DataType::Int), Some(Value::Null));
        assert_eq!(Value::Float(3.5).coerce_to(DataType::Int), None);
        assert_eq!(Value::Text("x".into()).coerce_to(DataType::Text), Some(Value::Text("x".into())));
    }

    #[test]
    fn display_round_readable() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Text("it's".into()).to_string(), "'it''s'");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn float_nan_hash_and_eq_are_consistent() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Float(f64::NAN));
        assert!(s.contains(&Value::Float(f64::NAN)));
    }
}
