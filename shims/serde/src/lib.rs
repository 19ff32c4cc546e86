//! Offline shim for the subset of `serde` this workspace uses.
//!
//! Instead of serde's zero-copy visitor architecture, this shim models
//! data as a JSON-like [`Value`] tree: [`Serialize`] renders a type into
//! a `Value`, [`Deserialize`] rebuilds it. The `serde_json` shim then
//! prints/parses `Value` as real JSON. The `#[derive(Serialize,
//! Deserialize)]` macros (re-exported from `serde_derive`) understand
//! named/tuple/unit structs, unit/newtype/tuple/struct-variant enums,
//! and `#[serde(skip)]` fields (skipped on write, `Default`ed on read).

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON-like document tree: the serialization data model.
///
/// Integers keep their own `i128` variant so `u64` RNG seeds survive a
/// round trip that an `f64`-only model would truncate. Non-finite floats
/// serialize to [`Value::Null`] (JSON has no NaN/∞) and deserialize back
/// as `NAN`.
///
/// An array of numbers has two forms that mean the same thing: an
/// [`Array`](Value::Array) of [`Float`](Value::Float)s, and a packed
/// [`F32Array`](Value::F32Array). Every array consumer (`as_array`,
/// `Vec<T>`, `[T; N]`, tuples, derived tuple structs and variants,
/// `serde_json`) treats element `x` of a packed array as
/// `Value::Float(x as f64)`, and `==` compares the two forms element by
/// element on that rule.
#[derive(Debug, Clone)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number without a fractional part.
    Int(i128),
    /// JSON number with a fractional part or exponent.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON array of numbers, packed as `f32` (4 bytes per element
    /// instead of one `Value` each). The binary scenario cache decodes
    /// its f32 arrays into this form; `Serialize` impls never build it.
    F32Array(Vec<f32>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable lookup of a key in an object value (serde_json's
    /// `Value::get_mut` for a string key).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value out, leaving [`Value::Null`] in its place
    /// (serde_json's `Value::take`): how a large packed array leaves a
    /// tree without a copy.
    pub fn take(&mut self) -> Value {
        std::mem::replace(self, Value::Null)
    }

    /// The object's key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array's items, if this is an array: borrowed from an
    /// [`Array`](Value::Array), widened element by element from an
    /// [`F32Array`](Value::F32Array).
    pub fn as_array(&self) -> Option<Cow<'_, [Value]>> {
        match self {
            Value::Array(items) => Some(Cow::Borrowed(items)),
            Value::F32Array(packed) => Some(Cow::Owned(
                packed.iter().map(|&f| Value::Float(f as f64)).collect(),
            )),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (ints included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer payload (floats with zero fraction included).
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i128),
            _ => None,
        }
    }

    /// Boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Human-readable name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) | Value::F32Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl PartialEq for Value {
    /// Structural equality, with a packed [`F32Array`](Value::F32Array)
    /// equal to an [`Array`](Value::Array) of the same length whose
    /// items equal each element's `Value::Float(x as f64)`.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::F32Array(a), Value::F32Array(b)) => a == b,
            (Value::F32Array(packed), Value::Array(items))
            | (Value::Array(items), Value::F32Array(packed)) => {
                packed.len() == items.len()
                    && packed
                        .iter()
                        .zip(items)
                        .all(|(&f, item)| *item == Value::Float(f as f64))
            }
            (Value::Object(a), Value::Object(b)) => a == b,
            _ => false,
        }
    }
}

/// Deserialization error: a message plus an optional field path.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X, found Y"-style error.
    pub fn expected(what: &str, found: &Value) -> Self {
        DeError(format!("expected {what}, found {}", found.kind()))
    }

    /// A required struct field was absent.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        DeError(format!("missing field `{field}` for `{ty}`"))
    }

    /// An enum tag did not match any known variant.
    pub fn unknown_variant(tag: &str, ty: &str) -> Self {
        DeError(format!("unknown variant `{tag}` for `{ty}`"))
    }

    /// Prefixes the error with the field it occurred under.
    pub fn in_field(self, field: &str) -> Self {
        DeError(format!("{field}: {}", self.0))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a document tree.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `value` into `Self`.
    fn from_value(value: &Value) -> Result<Self, DeError>;

    /// The value to use when a struct field is absent entirely, or
    /// `None` if absence is an error. Only `Option<T>` overrides this
    /// (to `Some(None)`), matching upstream serde's treatment of
    /// missing `Option` fields.
    fn absent() -> Option<Self> {
        None
    }

    /// Rebuilds a `Vec<Self>` from a packed
    /// [`F32Array`](Value::F32Array): element `x` converts as
    /// `Value::Float(x as f64)` does. `f32` overrides it with a copy,
    /// which is the same conversion for every non-signaling value.
    fn vec_from_f32s(packed: &[f32]) -> Result<Vec<Self>, DeError> {
        packed
            .iter()
            .map(|&f| Self::from_value(&Value::Float(f as f64)))
            .collect()
    }
}

/// Derive-macro helper: extracts and deserializes one struct field.
pub fn __field<T: Deserialize>(v: &Value, field: &str, ty: &str) -> Result<T, DeError> {
    match v.get(field) {
        Some(inner) => T::from_value(inner).map_err(|e| e.in_field(field)),
        None => T::absent().ok_or_else(|| DeError::missing_field(field, ty)),
    }
}

// ---------------------------------------------------------------- impls

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let i = value
                    .as_i128()
                    .ok_or_else(|| DeError::expected("integer", value))?;
                <$t>::try_from(i).map_err(|_| {
                    DeError(format!("{i} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

macro_rules! float_impls {
    ($($t:ty => { $($extra:item)* }),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                if f.is_finite() { Value::Float(f) } else { Value::Null }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Null => Ok(<$t>::NAN),
                    _ => value
                        .as_f64()
                        .map(|f| f as $t)
                        .ok_or_else(|| DeError::expected("number", value)),
                }
            }
            $($extra)*
        }
    )*};
}

float_impls! {
    f32 => {
        fn vec_from_f32s(packed: &[f32]) -> Result<Vec<Self>, DeError> {
            Ok(packed.to_vec())
        }
    },
    f64 => {}
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_bool()
            .ok_or_else(|| DeError::expected("bool", value))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("string", value))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let s = value
            .as_str()
            .ok_or_else(|| DeError::expected("string", value))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single-char string, got {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    /// `None` serializes to `Null` — which means `Some(f32::NAN)` (also
    /// `Null`, JSON has no NaN) round-trips to `None`. Upstream
    /// serde_json has the identical asymmetry; kept for compatibility.
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            Value::F32Array(packed) => T::vec_from_f32s(packed),
            _ => Err(DeError::expected("array", value)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(value)?;
        let n = items.len();
        // try_into (not TryFrom::try_from) so the error type is
        // inference-friendly without requiring T: Debug.
        items
            .try_into()
            .map_err(|_: Vec<T>| DeError(format!("expected array of length {N}, found {n}")))
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(Box::new)
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value
                    .as_array()
                    .ok_or_else(|| DeError::expected("array (tuple)", value))?;
                let want = 0usize $(+ { let _ = $idx; 1 })+;
                if items.len() != want {
                    return Err(DeError(format!(
                        "expected tuple of length {want}, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for stable output; HashMap iteration order is arbitrary.
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_arrays_equal_their_elementwise_form() {
        let packed = Value::F32Array(vec![1.5, -0.0, f32::from_bits(1)]);
        let elementwise = Value::Array(vec![
            Value::Float(1.5),
            Value::Float(-0.0),
            Value::Float(f32::from_bits(1) as f64),
        ]);
        assert_eq!(packed, elementwise);
        assert_eq!(elementwise, packed);
        assert_eq!(packed.as_array().unwrap(), elementwise.as_array().unwrap());
        assert_eq!(packed.kind(), "array");
        // Equal means equal element by element, on `f64` rules.
        assert_eq!(
            Value::F32Array(vec![0.0]),
            Value::Array(vec![Value::Float(-0.0)])
        );
        assert_ne!(
            Value::F32Array(vec![1.5]),
            Value::Array(vec![Value::Int(1)])
        );
        assert_ne!(packed, Value::F32Array(vec![1.5, -0.0]));
        assert_ne!(
            Value::F32Array(vec![f32::NAN]),
            Value::F32Array(vec![f32::NAN])
        );
        assert_eq!(Value::F32Array(Vec::new()), Value::Array(Vec::new()));
    }

    #[test]
    fn take_moves_a_nested_value_out_through_get_mut() {
        let mut tree = Value::Object(vec![(
            "images".to_string(),
            Value::Object(vec![("data".to_string(), Value::F32Array(vec![0.5]))]),
        )]);
        let data = tree.get_mut("images").and_then(|v| v.get_mut("data"));
        assert_eq!(data.unwrap().take(), Value::F32Array(vec![0.5]));
        assert_eq!(tree.get("images").unwrap().get("data"), Some(&Value::Null));
        assert!(tree.get_mut("nowhere").is_none());
        assert!(Value::Int(1).get_mut("images").is_none());
    }

    #[test]
    fn array_consumers_read_packed_arrays() {
        let packed = Value::F32Array(vec![3.0, 0.5, -2.0]);
        assert_eq!(Vec::<f32>::from_value(&packed).unwrap(), [3.0, 0.5, -2.0]);
        assert_eq!(Vec::<f64>::from_value(&packed).unwrap(), [3.0, 0.5, -2.0]);
        // Integral floats convert to integers, as element-wise ones do.
        assert!(Vec::<i32>::from_value(&packed).is_err());
        let integral = Value::F32Array(vec![3.0, -2.0]);
        assert_eq!(Vec::<i32>::from_value(&integral).unwrap(), [3, -2]);
        assert_eq!(<[f32; 3]>::from_value(&packed).unwrap(), [3.0, 0.5, -2.0]);
        assert!(<[f32; 2]>::from_value(&packed).is_err());
        assert_eq!(
            <(f32, f64, f32)>::from_value(&packed).unwrap(),
            (3.0, 0.5, -2.0)
        );
        assert!(<(f32, f64)>::from_value(&packed).is_err());
        assert_eq!(
            Option::<Vec<f32>>::from_value(&packed)
                .unwrap()
                .unwrap()
                .len(),
            3
        );
    }
}
