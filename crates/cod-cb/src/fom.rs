//! Federation Object Model (FOM): the declared object and interaction classes.
//!
//! The paper adopts the HLA notions of *Publish Object Class* and *Subscribe
//! Object Class*; this module holds the class/attribute declarations that both
//! sides of a virtual channel agree on. Every computer of the cluster is
//! compiled against the same [`ClassRegistry`], exactly as every federate of an
//! HLA federation shares the same FOM file.

use crate::error::CbError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies an object class declared in the FOM.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectClassId(pub u16);

/// Identifies an interaction class declared in the FOM.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct InteractionClassId(pub u16);

/// Identifies an attribute within an object class.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AttributeId(pub u16);

/// A typed attribute or parameter value carried over the Communication Backbone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Boolean flag (e.g. an alarm state).
    Bool(bool),
    /// Unsigned integer (e.g. a score, a frame number).
    U32(u32),
    /// Double-precision scalar (e.g. a boom angle in radians).
    F64(f64),
    /// Three-component vector (e.g. a position or velocity).
    Vec3([f64; 3]),
    /// Short text (e.g. a scenario phase name).
    Text(String),
    /// Raw bytes for anything else.
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns the scalar if this value is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the vector if this value is a `Vec3`.
    pub fn as_vec3(&self) -> Option<[f64; 3]> {
        match self {
            Value::Vec3(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the flag if this value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the integer if this value is a `U32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the text if this value is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.4}"),
            Value::Vec3(v) => write!(f, "[{:.3}, {:.3}, {:.3}]", v[0], v[1], v[2]),
            Value::Text(v) => write!(f, "{v}"),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
        }
    }
}

/// A set of attribute values keyed by attribute id — the payload of an
/// *Update Attribute Values* / *Reflect Attribute Values* exchange.
///
/// A flat record: one vector of `(id, value)` pairs kept in ascending id
/// order with no id repeated. [`AttributeValues::insert`] replaces the value
/// of an id that is already present, and [`AttributeValues::iter`] yields the
/// pairs in ascending id order, which is the order they go on the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeValues(Vec<(AttributeId, Value)>);

impl AttributeValues {
    /// Creates an empty record.
    pub fn new() -> AttributeValues {
        AttributeValues(Vec::new())
    }

    /// Creates an empty record with room for `capacity` attributes.
    pub fn with_capacity(capacity: usize) -> AttributeValues {
        AttributeValues(Vec::with_capacity(capacity))
    }

    /// Builds a record from `pairs` in any order; where an id repeats, the
    /// last of its values wins, as with repeated [`AttributeValues::insert`].
    ///
    /// Pairs that arrive in ascending id order are kept as they are; any
    /// other order costs one stable sort, so no input makes this quadratic.
    pub(crate) fn from_pairs(mut pairs: Vec<(AttributeId, Value)>) -> AttributeValues {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            pairs.sort_by_key(|(id, _)| *id);
            // `dedup_by` keeps the first of a run of equal ids: move each
            // later value into it before the later pair is dropped.
            pairs.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        AttributeValues(pairs)
    }

    /// Sets the value of `id`, returning the value it replaces, if any.
    pub fn insert(&mut self, id: AttributeId, value: Value) -> Option<Value> {
        match self.0.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (id, value));
                None
            }
        }
    }

    /// The value of `id`, if present.
    pub fn get(&self, id: &AttributeId) -> Option<&Value> {
        self.0.binary_search_by_key(id, |(k, _)| *k).ok().map(|i| &self.0[i].1)
    }

    /// Number of attributes in the record.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the record is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (AttributeId, &Value)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

impl std::ops::Index<&AttributeId> for AttributeValues {
    type Output = Value;

    /// # Panics
    ///
    /// Panics if `id` is not in the record.
    fn index(&self, id: &AttributeId) -> &Value {
        self.get(id).unwrap_or_else(|| panic!("attribute {} not in the record", id.0))
    }
}

impl<const N: usize> From<[(AttributeId, Value); N]> for AttributeValues {
    fn from(pairs: [(AttributeId, Value); N]) -> AttributeValues {
        AttributeValues::from_pairs(Vec::from(pairs))
    }
}

/// Declaration of one object class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectClassDef {
    /// Class name, unique within the FOM.
    pub name: String,
    /// Attribute names; the index of a name is its [`AttributeId`].
    pub attributes: Vec<String>,
}

/// Declaration of one interaction class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InteractionClassDef {
    /// Class name, unique within the FOM.
    pub name: String,
    /// Parameter names; the index of a name is its [`AttributeId`].
    pub parameters: Vec<String>,
}

/// The shared declaration of every object and interaction class in the federation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassRegistry {
    object_classes: Vec<ObjectClassDef>,
    interaction_classes: Vec<InteractionClassDef>,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Declares an object class with its attributes and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::DuplicateName`] if the class name or an attribute
    /// name within the class is repeated.
    pub fn register_object_class(
        &mut self,
        name: &str,
        attributes: &[&str],
    ) -> Result<ObjectClassId, CbError> {
        if self.object_classes.iter().any(|c| c.name == name) {
            return Err(CbError::DuplicateName(name.to_owned()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for a in attributes {
            if !seen.insert(*a) {
                return Err(CbError::DuplicateName(format!("{name}.{a}")));
            }
        }
        let id = ObjectClassId(self.object_classes.len() as u16);
        self.object_classes.push(ObjectClassDef {
            name: name.to_owned(),
            attributes: attributes.iter().map(|s| (*s).to_owned()).collect(),
        });
        Ok(id)
    }

    /// Declares an interaction class with its parameters and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::DuplicateName`] if the class name is repeated.
    pub fn register_interaction_class(
        &mut self,
        name: &str,
        parameters: &[&str],
    ) -> Result<InteractionClassId, CbError> {
        if self.interaction_classes.iter().any(|c| c.name == name) {
            return Err(CbError::DuplicateName(name.to_owned()));
        }
        let id = InteractionClassId(self.interaction_classes.len() as u16);
        self.interaction_classes.push(InteractionClassDef {
            name: name.to_owned(),
            parameters: parameters.iter().map(|s| (*s).to_owned()).collect(),
        });
        Ok(id)
    }

    /// Looks up an object class by name.
    pub fn object_class_by_name(&self, name: &str) -> Option<ObjectClassId> {
        self.object_classes.iter().position(|c| c.name == name).map(|i| ObjectClassId(i as u16))
    }

    /// Looks up an interaction class by name.
    pub fn interaction_class_by_name(&self, name: &str) -> Option<InteractionClassId> {
        self.interaction_classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| InteractionClassId(i as u16))
    }

    /// The definition of an object class, if it exists.
    pub fn object_class(&self, id: ObjectClassId) -> Option<&ObjectClassDef> {
        self.object_classes.get(id.0 as usize)
    }

    /// The definition of an interaction class, if it exists.
    pub fn interaction_class(&self, id: InteractionClassId) -> Option<&InteractionClassDef> {
        self.interaction_classes.get(id.0 as usize)
    }

    /// The id of an attribute of an object class, looked up by name.
    pub fn attribute_id(&self, class: ObjectClassId, attribute: &str) -> Option<AttributeId> {
        self.object_class(class)?
            .attributes
            .iter()
            .position(|a| a == attribute)
            .map(|i| AttributeId(i as u16))
    }

    /// The id of a parameter of an interaction class, looked up by name.
    pub fn parameter_id(&self, class: InteractionClassId, parameter: &str) -> Option<AttributeId> {
        self.interaction_class(class)?
            .parameters
            .iter()
            .position(|p| p == parameter)
            .map(|i| AttributeId(i as u16))
    }

    /// Number of declared object classes.
    pub fn object_class_count(&self) -> usize {
        self.object_classes.len()
    }

    /// Number of declared interaction classes.
    pub fn interaction_class_count(&self) -> usize {
        self.interaction_classes.len()
    }

    /// True when `id` names a declared object class.
    pub fn contains_object_class(&self, id: ObjectClassId) -> bool {
        (id.0 as usize) < self.object_classes.len()
    }

    /// True when `id` names a declared interaction class.
    pub fn contains_interaction_class(&self, id: InteractionClassId) -> bool {
        (id.0 as usize) < self.interaction_classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (ClassRegistry, ObjectClassId, InteractionClassId) {
        let mut r = ClassRegistry::new();
        let crane = r
            .register_object_class("CraneState", &["position", "boom_angle", "cable_length"])
            .unwrap();
        let collision =
            r.register_interaction_class("CollisionEvent", &["location", "impulse"]).unwrap();
        (r, crane, collision)
    }

    #[test]
    fn lookup_by_name_and_id() {
        let (r, crane, collision) = sample();
        assert_eq!(r.object_class_by_name("CraneState"), Some(crane));
        assert_eq!(r.interaction_class_by_name("CollisionEvent"), Some(collision));
        assert_eq!(r.object_class(crane).unwrap().attributes.len(), 3);
        assert_eq!(r.attribute_id(crane, "boom_angle"), Some(AttributeId(1)));
        assert_eq!(r.parameter_id(collision, "impulse"), Some(AttributeId(1)));
        assert_eq!(r.attribute_id(crane, "missing"), None);
        assert!(r.contains_object_class(crane));
        assert!(!r.contains_object_class(ObjectClassId(99)));
    }

    #[test]
    fn duplicate_class_name_rejected() {
        let (mut r, _, _) = sample();
        assert!(matches!(
            r.register_object_class("CraneState", &["x"]),
            Err(CbError::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut r = ClassRegistry::new();
        assert!(matches!(
            r.register_object_class("Bad", &["a", "a"]),
            Err(CbError::DuplicateName(_))
        ));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::F64(3.5).as_f64(), Some(3.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::U32(7).as_u32(), Some(7));
        assert_eq!(Value::Vec3([1.0, 2.0, 3.0]).as_vec3(), Some([1.0, 2.0, 3.0]));
        assert_eq!(Value::Text("go".into()).as_text(), Some("go"));
        assert_eq!(Value::F64(1.0).as_bool(), None);
    }

    #[test]
    fn value_display_is_nonempty() {
        for v in [
            Value::Bool(false),
            Value::U32(1),
            Value::F64(0.5),
            Value::Vec3([0.0; 3]),
            Value::Text("t".into()),
            Value::Bytes(vec![1, 2]),
        ] {
            assert!(!format!("{v}").is_empty());
        }
    }
}
