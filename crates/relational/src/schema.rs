//! Relation names, per-relation schemas, and schemas (sets of relations).

use crate::RelationalError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The name of a relation.
///
/// Names are case-sensitive, compared and ordered as strings.  The paper uses
/// names such as `order`, `pay`, `past-order`, `sendbill`; hyphens are legal.
/// The text is shared, so cloning a name allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationName(Arc<str>);

impl RelationName {
    /// Creates a relation name.
    pub fn new(name: impl Into<String>) -> Self {
        RelationName(Arc::from(name.into()))
    }

    /// The textual name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The conventional name of the cumulative state relation corresponding to
    /// an input relation: `past-R` for input `R` (paper, §3.1, Definition
    /// item 1: `state = { past-R | R ∈ in }`).
    pub fn past(&self) -> RelationName {
        RelationName::new(format!("past-{}", self.0))
    }

    /// If this name is of the form `past-R`, returns `R`.
    pub fn strip_past(&self) -> Option<RelationName> {
        self.0.strip_prefix("past-").map(RelationName::new)
    }
}

impl fmt::Display for RelationName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for RelationName {
    fn from(s: &str) -> Self {
        RelationName(Arc::from(s))
    }
}

impl From<String> for RelationName {
    fn from(s: String) -> Self {
        RelationName::new(s)
    }
}

impl From<&RelationName> for RelationName {
    fn from(s: &RelationName) -> Self {
        s.clone()
    }
}

/// The schema of a single relation: its name and arity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationSchema {
    name: RelationName,
    arity: usize,
}

impl RelationSchema {
    /// Creates a relation schema.
    pub fn new(name: impl Into<RelationName>, arity: usize) -> Self {
        RelationSchema {
            name: name.into(),
            arity,
        }
    }

    /// The relation name.
    pub fn name(&self) -> &RelationName {
        &self.name
    }

    /// The relation arity (0 for propositional relations).
    pub fn arity(&self) -> usize {
        self.arity
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// A relational schema: a finite set of relation schemas with distinct names.
///
/// This is the `R` of the paper's "sequence over R" and the component type of
/// a transducer schema `(in, state, out, db, log)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    relations: BTreeMap<RelationName, usize>,
}

impl Schema {
    /// Creates a schema from a list of relation schemas.
    ///
    /// Fails with [`RelationalError::ConflictingRelation`] if the same name is
    /// declared twice with different arities (duplicate identical declarations
    /// are tolerated).
    pub fn new(relations: Vec<RelationSchema>) -> Result<Self, RelationalError> {
        let mut map = BTreeMap::new();
        for r in relations {
            match map.get(r.name()) {
                Some(&arity) if arity != r.arity() => {
                    return Err(RelationalError::ConflictingRelation {
                        name: r.name().as_str().to_string(),
                    })
                }
                _ => {
                    map.insert(r.name().clone(), r.arity());
                }
            }
        }
        Ok(Schema { relations: map })
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Builds a schema from `(name, arity)` pairs.
    pub fn from_pairs<I, N>(pairs: I) -> Result<Self, RelationalError>
    where
        I: IntoIterator<Item = (N, usize)>,
        N: Into<RelationName>,
    {
        Schema::new(
            pairs
                .into_iter()
                .map(|(n, a)| RelationSchema::new(n, a))
                .collect(),
        )
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the schema declares no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// True if the schema contains a relation with this name.
    pub fn contains(&self, name: impl Into<RelationName>) -> bool {
        self.relations.contains_key(&name.into())
    }

    /// The arity of the named relation, if present.
    pub fn arity_of(&self, name: impl Into<RelationName>) -> Option<usize> {
        self.relations.get(&name.into()).copied()
    }

    /// Iterates over `(name, arity)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelationName, usize)> {
        self.relations.iter().map(|(n, &a)| (n, a))
    }

    /// The relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &RelationName> {
        self.relations.keys()
    }

    /// Adds a relation; errors on a conflicting arity for an existing name.
    pub fn add(&mut self, rel: RelationSchema) -> Result<(), RelationalError> {
        match self.relations.get(rel.name()) {
            Some(&arity) if arity != rel.arity() => Err(RelationalError::ConflictingRelation {
                name: rel.name().as_str().to_string(),
            }),
            _ => {
                self.relations.insert(rel.name().clone(), rel.arity());
                Ok(())
            }
        }
    }

    /// The union of two schemas.  Fails if a name appears in both with
    /// different arities.
    pub fn union(&self, other: &Schema) -> Result<Schema, RelationalError> {
        let mut out = self.clone();
        for (name, arity) in other.iter() {
            out.add(RelationSchema::new(name.clone(), arity))?;
        }
        Ok(out)
    }

    /// True if the two schemas share no relation name.
    pub fn is_disjoint_from(&self, other: &Schema) -> bool {
        self.names().all(|n| !other.contains(n.clone()))
    }

    /// True if every relation of `self` appears in `other` with the same arity.
    pub fn is_subschema_of(&self, other: &Schema) -> bool {
        self.iter()
            .all(|(n, a)| other.arity_of(n.clone()) == Some(a))
    }

    /// Restricts the schema to the given names (names not present are ignored).
    pub fn restrict_to<I, N>(&self, names: I) -> Schema
    where
        I: IntoIterator<Item = N>,
        N: Into<RelationName>,
    {
        let mut map = BTreeMap::new();
        for n in names {
            let n = n.into();
            if let Some(&a) = self.relations.get(&n) {
                map.insert(n, a);
            }
        }
        Schema { relations: map }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, a)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}/{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(pairs: &[(&str, usize)]) -> Schema {
        Schema::from_pairs(pairs.iter().map(|&(n, a)| (n, a))).unwrap()
    }

    #[test]
    fn past_naming_convention() {
        let order = RelationName::new("order");
        assert_eq!(order.past().as_str(), "past-order");
        assert_eq!(order.past().strip_past(), Some(order));
        assert_eq!(RelationName::new("order").strip_past(), None);
    }

    #[test]
    fn duplicate_identical_declarations_are_tolerated() {
        let s = Schema::new(vec![
            RelationSchema::new("r", 2),
            RelationSchema::new("r", 2),
        ])
        .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn conflicting_arity_is_rejected() {
        let err = Schema::new(vec![
            RelationSchema::new("r", 2),
            RelationSchema::new("r", 3),
        ])
        .unwrap_err();
        assert!(matches!(err, RelationalError::ConflictingRelation { .. }));
    }

    #[test]
    fn arity_lookup_and_contains() {
        let s = schema(&[("order", 1), ("pay", 2)]);
        assert_eq!(s.arity_of("pay"), Some(2));
        assert_eq!(s.arity_of("nope"), None);
        assert!(s.contains("order"));
        assert!(!s.contains("deliver"));
    }

    #[test]
    fn union_and_disjointness() {
        let a = schema(&[("order", 1)]);
        let b = schema(&[("pay", 2)]);
        assert!(a.is_disjoint_from(&b));
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
        assert!(!u.is_disjoint_from(&a));
    }

    #[test]
    fn union_conflict_detected() {
        let a = schema(&[("r", 1)]);
        let b = schema(&[("r", 2)]);
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn subschema_relation() {
        let big = schema(&[("order", 1), ("pay", 2), ("deliver", 1)]);
        let small = schema(&[("pay", 2)]);
        assert!(small.is_subschema_of(&big));
        assert!(!big.is_subschema_of(&small));
        let wrong = schema(&[("pay", 3)]);
        assert!(!wrong.is_subschema_of(&big));
    }

    #[test]
    fn restriction_keeps_only_named() {
        let s = schema(&[("order", 1), ("pay", 2), ("deliver", 1)]);
        let r = s.restrict_to(["pay", "deliver", "missing"]);
        assert_eq!(r.len(), 2);
        assert!(r.contains("pay") && r.contains("deliver"));
    }

    #[test]
    fn display_formats() {
        let s = schema(&[("b", 0), ("a", 2)]);
        assert_eq!(s.to_string(), "{a/2, b/0}");
        assert_eq!(RelationSchema::new("a", 2).to_string(), "a/2");
    }

    #[test]
    fn empty_schema() {
        assert!(Schema::empty().is_empty());
        assert_eq!(Schema::empty().len(), 0);
    }
}
