//! Runtime values.

use std::cmp::Ordering;
use std::fmt;

/// A heap pointer: a block id plus an element offset.
///
/// Pointer arithmetic adjusts the offset; the block id never changes (MiniC
/// pointers cannot walk off one allocation into another — but *indices* can
/// run past a block's logical length, which is where the corruption model
/// in [`crate::heap`] takes over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtrVal {
    /// Which allocation this points into.
    pub block: u32,
    /// Element offset from the allocation base (may be negative after
    /// arithmetic; bounds are enforced at access time).
    pub offset: i64,
}

impl PtrVal {
    /// Total order used for pointer comparisons: by block, then offset.
    pub fn order(self, other: PtrVal) -> Ordering {
        (self.block, self.offset).cmp(&(other.block, other.offset))
    }
}

/// A dynamically typed MiniC value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// The null pointer.
    Null,
    /// A live pointer into the heap.
    Ptr(PtrVal),
}

impl Value {
    /// The zero value for a declared type.
    pub fn zero_of(ty: cbi_minic::Type) -> Value {
        match ty {
            cbi_minic::Type::Int => Value::Int(0),
            cbi_minic::Type::Ptr => Value::Null,
        }
    }

    /// Integer truthiness; `None` if the value is not an integer.
    #[cfg(test)]
    fn truthy(self) -> Option<bool> {
        match self {
            Value::Int(v) => Some(v != 0),
            _ => None,
        }
    }

    /// Three-way comparison for `__cmp` observations and relational
    /// operators; `None` when the values are not comparable (int vs ptr).
    pub fn compare(self, other: Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(&b)),
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            (Value::Null, Value::Ptr(_)) => Some(Ordering::Less),
            (Value::Ptr(_), Value::Null) => Some(Ordering::Greater),
            (Value::Ptr(a), Value::Ptr(b)) => Some(a.order(b)),
            _ => None,
        }
    }

    /// Sign classification for `__obs_sign`: pointers count as positive,
    /// null as zero (§3.2.1 treats pointer-returning calls like scalars).
    pub fn sign_class(self) -> usize {
        match self {
            Value::Int(v) if v < 0 => 0,
            Value::Int(0) => 1,
            Value::Int(_) => 2,
            Value::Null => 1,
            Value::Ptr(_) => 2,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Null => f.write_str("null"),
            Value::Ptr(p) => write!(f, "ptr({}+{})", p.block, p.offset),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert_eq!(Value::Int(0).truthy(), Some(false));
        assert_eq!(Value::Int(-3).truthy(), Some(true));
        assert_eq!(Value::Null.truthy(), None);
    }

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).compare(Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Null.compare(Value::Null), Some(Ordering::Equal));
        let p = Value::Ptr(PtrVal {
            block: 1,
            offset: 0,
        });
        let q = Value::Ptr(PtrVal {
            block: 1,
            offset: 4,
        });
        assert_eq!(p.compare(q), Some(Ordering::Less));
        assert_eq!(Value::Null.compare(p), Some(Ordering::Less));
        assert_eq!(p.compare(Value::Null), Some(Ordering::Greater));
        assert_eq!(Value::Int(1).compare(p), None);
    }

    #[test]
    fn sign_classes() {
        assert_eq!(Value::Int(-5).sign_class(), 0);
        assert_eq!(Value::Int(0).sign_class(), 1);
        assert_eq!(Value::Int(7).sign_class(), 2);
        assert_eq!(Value::Null.sign_class(), 1);
        assert_eq!(
            Value::Ptr(PtrVal {
                block: 0,
                offset: 0
            })
            .sign_class(),
            2
        );
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero_of(cbi_minic::Type::Int), Value::Int(0));
        assert_eq!(Value::zero_of(cbi_minic::Type::Ptr), Value::Null);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(
            Value::Ptr(PtrVal {
                block: 2,
                offset: 5
            })
            .to_string(),
            "ptr(2+5)"
        );
    }
}
