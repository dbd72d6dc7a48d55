//! Relations (sets of tuples) and instances of a schema.

use crate::{RelationName, RelationalError, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The longest run [`Relation::insert_bulk`] inserts tuple by tuple: one
/// B-tree leaf's worth (a leaf holds 11 keys).  Up to this size the sorted
/// bulk build saves no node, so the run skips the sort.
const DIRECT_INSERT_MAX: usize = 11;

/// A relation instance: a finite set of tuples, all of the same arity.
///
/// The arity is fixed at construction time; inserting a tuple of a different
/// arity is an error.  A 0-ary relation behaves as a proposition: it is either
/// empty (false) or contains the unit tuple (true).
///
/// The tuple set is shared copy-on-write: cloning a relation (and therefore a
/// whole [`Instance`], e.g. the database recorded in every transducer run) is
/// O(1), and the set is only deep-copied when a shared relation is mutated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    arity: usize,
    tuples: Arc<BTreeSet<Tuple>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.  Allocates nothing:
    /// every empty relation starts out sharing one process-wide empty set,
    /// which copy-on-write replaces at the first insert.
    pub fn empty(arity: usize) -> Self {
        static EMPTY: OnceLock<Arc<BTreeSet<Tuple>>> = OnceLock::new();
        Relation {
            arity,
            tuples: Arc::clone(EMPTY.get_or_init(Arc::default)),
        }
    }

    /// Creates a relation from tuples; all tuples must share `arity`.  Built
    /// through [`Relation::insert_bulk`].
    pub fn from_tuples(
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelationalError> {
        let mut rel = Relation::empty(arity);
        rel.insert_bulk(&mut tuples.into_iter().collect())?;
        Ok(rel)
    }

    /// The relation arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The error for a tuple of the wrong arity.
    fn arity_mismatch(&self, actual: usize) -> RelationalError {
        RelationalError::ArityMismatch {
            relation: String::from("<anonymous>"),
            expected: self.arity,
            actual,
        }
    }

    /// Inserts a tuple, checking its arity.  Returns whether the tuple was new.
    ///
    /// An unshared set takes one B-tree descent.  A set shared with other
    /// clones is probed first, so inserting a duplicate never splits the
    /// sharing; a new tuple copies the set, then inserts.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, RelationalError> {
        if tuple.arity() != self.arity {
            return Err(self.arity_mismatch(tuple.arity()));
        }
        Ok(self.insert_unchecked(tuple))
    }

    fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        if let Some(own) = Arc::get_mut(&mut self.tuples) {
            return own.insert(tuple);
        }
        if self.tuples.contains(&tuple) {
            return false;
        }
        Arc::make_mut(&mut self.tuples).insert(tuple)
    }

    /// Inserts a run of tuples, draining `tuples` — the form the datalog
    /// engine turns a rule's output sink into a relation with.  Returns how
    /// many tuples were new.
    ///
    /// Every tuple's arity is checked first: on a mismatch the relation and
    /// the run are left untouched and the error is the one
    /// [`Relation::insert`] reports.  A run that fits one B-tree leaf (at
    /// most 11 tuples) is inserted tuple by tuple, and the drained vector
    /// keeps its capacity for the caller's next run.  A longer run is sorted
    /// and deduplicated; into an empty relation the set is then built in one
    /// linear pass from the sorted run, which fills every node instead of
    /// splitting half-full ones (the run's buffer is consumed), and
    /// otherwise the tuples are inserted in order, copy-on-write like
    /// [`Relation::insert`].
    pub fn insert_bulk(&mut self, tuples: &mut Vec<Tuple>) -> Result<usize, RelationalError> {
        if let Some(bad) = tuples.iter().find(|t| t.arity() != self.arity) {
            return Err(self.arity_mismatch(bad.arity()));
        }
        if tuples.len() > DIRECT_INSERT_MAX {
            tuples.sort_unstable();
            tuples.dedup();
            if self.tuples.is_empty() {
                let run = std::mem::take(tuples);
                let added = run.len();
                self.tuples = Arc::new(run.into_iter().collect());
                return Ok(added);
            }
        }
        let mut added = 0;
        for tuple in tuples.drain(..) {
            added += usize::from(self.insert_unchecked(tuple));
        }
        Ok(added)
    }

    /// Removes a tuple, checking its arity.  Returns whether the tuple was
    /// present.  Removal is copy-on-write like [`Relation::insert`]: a
    /// relation shared with other clones is deep-copied only when a tuple is
    /// actually removed, and removing an absent tuple never splits sharing.
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool, RelationalError> {
        if tuple.arity() != self.arity {
            return Err(self.arity_mismatch(tuple.arity()));
        }
        if let Some(own) = Arc::get_mut(&mut self.tuples) {
            return Ok(own.remove(tuple));
        }
        if !self.tuples.contains(tuple) {
            return Ok(false);
        }
        Ok(Arc::make_mut(&mut self.tuples).remove(tuple))
    }

    /// In-place set difference (`self := self \ other`): the retraction dual
    /// of [`Relation::absorb`].  Copy-on-write: nothing is copied when the
    /// relations are disjoint.
    pub fn subtract(&mut self, other: &Relation) -> Result<(), RelationalError> {
        if self.arity != other.arity {
            return Err(RelationalError::SchemaMismatch {
                detail: format!(
                    "cannot subtract relation of arity {} from arity {}",
                    other.arity, self.arity
                ),
            });
        }
        if other.tuples.is_empty() || self.tuples.is_empty() {
            return Ok(());
        }
        if other.tuples.iter().any(|t| self.tuples.contains(t)) {
            let own = Arc::make_mut(&mut self.tuples);
            for t in other.tuples.iter() {
                own.remove(t);
            }
        }
        Ok(())
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterates over tuples in order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Iterates over the tuples whose leading components equal `prefix`, in
    /// order.
    ///
    /// Tuples are ordered lexicographically, so the matching tuples form a
    /// contiguous range: this is an O(log n + matches) sorted-index lookup —
    /// the zero-build access path the datalog engine uses when a join probes
    /// a prefix of a relation's columns.
    pub fn scan_prefix<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = &'a Tuple> + 'a {
        self.scan_prefix_owned(crate::ValueVec::from_slice(prefix))
    }

    /// Like [`Relation::scan_prefix`], but the iterator owns the prefix, so
    /// the returned tuple references borrow only the relation.  This is the
    /// form the parallel datalog evaluator uses to collect a pass's outer
    /// candidates before fanning them out to worker threads (values are
    /// `Copy`, so owning the key costs nothing).
    pub fn scan_prefix_owned(&self, prefix: crate::ValueVec) -> impl Iterator<Item = &Tuple> + '_ {
        let start = Tuple::from_slice(&prefix);
        self.tuples
            .range(start..)
            .take_while(move |t| t.values().get(..prefix.len()) == Some(prefix.as_slice()))
    }

    /// Set union with another relation of the same arity.
    pub fn union(&self, other: &Relation) -> Result<Relation, RelationalError> {
        if self.arity != other.arity {
            return Err(RelationalError::SchemaMismatch {
                detail: format!(
                    "cannot union relations of arity {} and {}",
                    self.arity, other.arity
                ),
            });
        }
        let mut out = self.clone();
        out.absorb(other)?;
        Ok(out)
    }

    /// In-place union (cumulative-state semantics `past-R(X) +:- R(X)`).
    pub fn absorb(&mut self, other: &Relation) -> Result<(), RelationalError> {
        if self.arity != other.arity {
            return Err(RelationalError::SchemaMismatch {
                detail: format!(
                    "cannot absorb relation of arity {} into arity {}",
                    other.arity, self.arity
                ),
            });
        }
        if other.tuples.is_empty() {
            return Ok(());
        }
        if self.tuples.is_empty() {
            // Share the other side's set instead of copying it.
            self.tuples = Arc::clone(&other.tuples);
            return Ok(());
        }
        if !other.tuples.is_subset(&self.tuples) {
            Arc::make_mut(&mut self.tuples).extend(other.tuples.iter().cloned());
        }
        Ok(())
    }

    /// True if every tuple of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.tuples.is_subset(&other.tuples)
    }

    /// For 0-ary (propositional) relations: true iff the unit tuple is present.
    pub fn holds(&self) -> bool {
        !self.tuples.is_empty()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

/// A finite instance of a [`Schema`]: one [`Relation`] per declared name.
///
/// Every relation of the schema is materialised (possibly empty), so lookups
/// never fail for declared names and iteration order is the schema order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instance {
    relations: BTreeMap<RelationName, Relation>,
}

impl Instance {
    /// The empty instance over a schema: every relation present but empty.
    pub fn empty(schema: &Schema) -> Self {
        let relations = schema
            .iter()
            .map(|(name, arity)| (name.clone(), Relation::empty(arity)))
            .collect();
        Instance { relations }
    }

    /// Builds an instance over `schema` from `(relation, tuples)` groups.
    pub fn from_facts<N, I, T>(schema: &Schema, facts: I) -> Result<Self, RelationalError>
    where
        N: Into<RelationName>,
        I: IntoIterator<Item = (N, T)>,
        T: IntoIterator<Item = Tuple>,
    {
        let mut inst = Instance::empty(schema);
        for (name, tuples) in facts {
            let name = name.into();
            for t in tuples {
                inst.insert(name.clone(), t)?;
            }
        }
        Ok(inst)
    }

    /// The set of relation names materialised in this instance.
    pub fn schema(&self) -> Schema {
        Schema::from_pairs(self.relations.iter().map(|(n, r)| (n.clone(), r.arity())))
            .expect("an instance never holds conflicting relations")
    }

    /// The relation `name`, for a mutation.
    fn relation_mut(&mut self, name: &RelationName) -> Result<&mut Relation, RelationalError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelationalError::UnknownRelation {
                name: name.as_str().to_string(),
            })
    }

    /// Inserts a tuple into a relation.  Returns whether the tuple was new.
    pub fn insert(
        &mut self,
        name: impl Into<RelationName>,
        tuple: Tuple,
    ) -> Result<bool, RelationalError> {
        let name = name.into();
        let result = self.relation_mut(&name)?.insert(tuple);
        result.map_err(|e| named(&name, e))
    }

    /// Inserts a run of tuples into a relation through
    /// [`Relation::insert_bulk`], draining `tuples`.  Returns how many tuples
    /// were new; on an arity mismatch the relation is left untouched.
    pub fn insert_bulk(
        &mut self,
        name: impl Into<RelationName>,
        tuples: &mut Vec<Tuple>,
    ) -> Result<usize, RelationalError> {
        let name = name.into();
        let result = self.relation_mut(&name)?.insert_bulk(tuples);
        result.map_err(|e| named(&name, e))
    }

    /// Removes a tuple from a relation.  Returns whether the tuple was
    /// present — the mutation dual of [`Instance::insert`].
    pub fn remove(
        &mut self,
        name: impl Into<RelationName>,
        tuple: &Tuple,
    ) -> Result<bool, RelationalError> {
        let name = name.into();
        let result = self.relation_mut(&name)?.remove(tuple);
        result.map_err(|e| named(&name, e))
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: impl Into<RelationName>) -> Option<&Relation> {
        self.relations.get(&name.into())
    }

    /// Looks up a relation by reference, without cloning the name.
    ///
    /// This is the hot-path form used by the datalog engine, where the same
    /// name is resolved once per join level per evaluation.
    pub fn get(&self, name: &RelationName) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Looks up a relation by name, returning an error for unknown names.
    pub fn relation_checked(
        &self,
        name: impl Into<RelationName>,
    ) -> Result<&Relation, RelationalError> {
        let name = name.into();
        self.relations
            .get(&name)
            .ok_or_else(|| RelationalError::UnknownRelation {
                name: name.as_str().to_string(),
            })
    }

    /// True if the named relation contains the tuple.
    pub fn holds(&self, name: impl Into<RelationName>, tuple: &Tuple) -> bool {
        self.relation(name).is_some_and(|r| r.contains(tuple))
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelationName, &Relation)> {
        self.relations.iter()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// True if every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(Relation::is_empty)
    }

    /// Restriction of the instance to the relations named by `names`
    /// (the paper's `(I ∪ O) | log` operation that defines the log of a step).
    pub fn restrict_to<I, N>(&self, names: I) -> Instance
    where
        I: IntoIterator<Item = N>,
        N: Into<RelationName>,
    {
        let wanted: BTreeSet<RelationName> = names.into_iter().map(Into::into).collect();
        self.restrict_to_set(&wanted)
    }

    /// [`Instance::restrict_to`] against an already-built name set, cloning no
    /// names for the lookup — the form run assembly uses once per step.
    pub fn restrict_to_set(&self, names: &BTreeSet<RelationName>) -> Instance {
        let relations = self
            .relations
            .iter()
            .filter(|(n, _)| names.contains(*n))
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect();
        Instance { relations }
    }

    /// Union of two instances.  Relations present in both are unioned; a
    /// relation present in only one is copied.  Shared names must agree on
    /// arity.
    ///
    /// This implements the `I_i ∪ O_i` operation used when forming logs.
    pub fn union(&self, other: &Instance) -> Result<Instance, RelationalError> {
        let mut relations = self.relations.clone();
        for (name, rel) in other.relations.iter() {
            match relations.get_mut(name) {
                Some(existing) => existing.absorb(rel)?,
                None => {
                    relations.insert(name.clone(), rel.clone());
                }
            }
        }
        Ok(Instance { relations })
    }

    /// In-place cumulative union used by the Spocus state transition
    /// (`past-R := past-R ∪ R`): every relation of `other` whose name exists in
    /// `self` is absorbed; unknown names are errors.
    pub fn absorb(&mut self, other: &Instance) -> Result<(), RelationalError> {
        for (name, rel) in other.relations.iter() {
            self.relation_mut(name)?.absorb(rel)?;
        }
        Ok(())
    }

    /// In-place union of one relation of `other` into the same-named relation
    /// of `self` — the cumulative-state transition `past-R := past-R ∪ R`
    /// computed directly as a set union (sharing the other side's tuple set
    /// when the target is empty) instead of tuple-by-tuple insertion.
    pub fn absorb_relation(
        &mut self,
        name: impl Into<RelationName>,
        relation: &Relation,
    ) -> Result<(), RelationalError> {
        self.relation_mut(&name.into())?.absorb(relation)
    }

    /// Materialises an empty relation under `name` if the instance does not
    /// hold one yet; returns whether the relation was added.  An existing
    /// relation with a different arity is an error.
    ///
    /// This is how a long-lived database grows its schema in place (e.g. a
    /// resident database replaying `CreateTable` journal entries).
    pub fn ensure_relation(
        &mut self,
        name: impl Into<RelationName>,
        arity: usize,
    ) -> Result<bool, RelationalError> {
        let name = name.into();
        match self.relations.get(&name) {
            Some(existing) if existing.arity() != arity => Err(RelationalError::ArityMismatch {
                relation: name.as_str().to_string(),
                expected: existing.arity(),
                actual: arity,
            }),
            Some(_) => Ok(false),
            None => {
                self.relations.insert(name, Relation::empty(arity));
                Ok(true)
            }
        }
    }

    /// True if every tuple of every relation of `self` also appears in `other`.
    /// Relations absent from `other` count as empty.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.relations.iter().all(|(name, rel)| {
            rel.is_empty()
                || other
                    .relation(name.clone())
                    .is_some_and(|o| rel.is_subset_of(o))
        })
    }

    /// Renames relations according to `f` (used to replicate input relations
    /// as `R_1 … R_n` in the ∃*∀*FO reductions of §3.2).
    pub fn rename<F>(&self, mut f: F) -> Instance
    where
        F: FnMut(&RelationName) -> RelationName,
    {
        let relations = self
            .relations
            .iter()
            .map(|(n, r)| (f(n), r.clone()))
            .collect();
        Instance { relations }
    }
}

/// Names the relation in a [`Relation`]'s anonymous arity error.
fn named(name: &RelationName, error: RelationalError) -> RelationalError {
    match error {
        RelationalError::ArityMismatch {
            expected, actual, ..
        } => RelationalError::ArityMismatch {
            relation: name.as_str().to_string(),
            expected,
            actual,
        },
        other => other,
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (name, rel) in self.relations.iter() {
            if rel.is_empty() {
                continue;
            }
            if wrote {
                write!(f, "; ")?;
            }
            write!(f, "{name}{rel}")?;
            wrote = true;
        }
        if !wrote {
            write!(f, "∅")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn schema() -> Schema {
        Schema::from_pairs([("order", 1), ("pay", 2), ("pending-bills", 0)]).unwrap()
    }

    fn t1(a: &str) -> Tuple {
        Tuple::from_iter([a])
    }

    fn t2(a: &str, b: i64) -> Tuple {
        Tuple::new(vec![Value::str(a), Value::int(b)])
    }

    #[test]
    fn empty_instance_has_all_relations() {
        let inst = Instance::empty(&schema());
        assert!(inst.relation("order").is_some());
        assert!(inst.relation("pay").is_some());
        assert!(inst.relation("pending-bills").is_some());
        assert!(inst.relation("deliver").is_none());
        assert!(inst.is_empty());
        assert_eq!(inst.total_tuples(), 0);
    }

    #[test]
    fn insert_checks_arity_and_name() {
        let mut inst = Instance::empty(&schema());
        assert!(inst.insert("order", t1("time")).unwrap());
        assert!(!inst.insert("order", t1("time")).unwrap());
        let err = inst.insert("order", t2("time", 855)).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
        let err = inst.insert("deliver", t1("time")).unwrap_err();
        assert!(matches!(err, RelationalError::UnknownRelation { .. }));
    }

    #[test]
    fn propositional_relation_holds() {
        let mut inst = Instance::empty(&schema());
        assert!(!inst.relation("pending-bills").unwrap().holds());
        inst.insert("pending-bills", Tuple::unit()).unwrap();
        assert!(inst.relation("pending-bills").unwrap().holds());
    }

    #[test]
    fn restriction_projects_log_relations() {
        let mut inst = Instance::empty(&schema());
        inst.insert("order", t1("time")).unwrap();
        inst.insert("pay", t2("time", 855)).unwrap();
        let log = inst.restrict_to(["pay"]);
        assert!(log.relation("pay").is_some());
        assert!(log.relation("order").is_none());
        assert_eq!(log.total_tuples(), 1);
    }

    #[test]
    fn union_and_absorb() {
        let mut a = Instance::empty(&schema());
        a.insert("order", t1("time")).unwrap();
        let mut b = Instance::empty(&schema());
        b.insert("order", t1("newsweek")).unwrap();
        b.insert("pay", t2("time", 855)).unwrap();

        let u = a.union(&b).unwrap();
        assert_eq!(u.relation("order").unwrap().len(), 2);
        assert_eq!(u.relation("pay").unwrap().len(), 1);

        a.absorb(&b).unwrap();
        assert_eq!(a.relation("order").unwrap().len(), 2);
    }

    #[test]
    fn absorb_relation_unions_in_place() {
        let mut inst = Instance::empty(&schema());
        let extra = Relation::from_tuples(1, vec![t1("time"), t1("newsweek")]).unwrap();
        inst.absorb_relation("order", &extra).unwrap();
        assert_eq!(inst.relation("order").unwrap().len(), 2);
        // Absorbing into an unknown relation is an error; a wrong arity too.
        assert!(inst.absorb_relation("nope", &extra).is_err());
        let wide = Relation::from_tuples(2, vec![t2("time", 855)]).unwrap();
        assert!(inst.absorb_relation("order", &wide).is_err());
    }

    #[test]
    fn ensure_relation_grows_the_instance() {
        let mut inst = Instance::empty(&schema());
        assert!(inst.ensure_relation("category", 2).unwrap());
        assert!(!inst.ensure_relation("category", 2).unwrap());
        assert!(inst.ensure_relation("category", 3).is_err());
        inst.insert("category", t2("news", 1)).unwrap();
        assert_eq!(inst.relation("category").unwrap().len(), 1);
    }

    #[test]
    fn restrict_to_set_matches_restrict_to() {
        let mut inst = Instance::empty(&schema());
        inst.insert("order", t1("time")).unwrap();
        inst.insert("pay", t2("time", 855)).unwrap();
        let names: BTreeSet<RelationName> = [RelationName::new("pay")].into_iter().collect();
        assert_eq!(inst.restrict_to_set(&names), inst.restrict_to(["pay"]));
    }

    #[test]
    fn union_of_disjoint_schemas_copies() {
        let s1 = Schema::from_pairs([("a", 1)]).unwrap();
        let s2 = Schema::from_pairs([("b", 1)]).unwrap();
        let mut i1 = Instance::empty(&s1);
        i1.insert("a", t1("x")).unwrap();
        let mut i2 = Instance::empty(&s2);
        i2.insert("b", t1("y")).unwrap();
        let u = i1.union(&i2).unwrap();
        assert_eq!(u.total_tuples(), 2);
    }

    #[test]
    fn subinstance_check() {
        let mut small = Instance::empty(&schema());
        small.insert("order", t1("time")).unwrap();
        let mut big = Instance::empty(&schema());
        big.insert("order", t1("time")).unwrap();
        big.insert("order", t1("newsweek")).unwrap();
        assert!(small.is_subinstance_of(&big));
        assert!(!big.is_subinstance_of(&small));
    }

    #[test]
    fn rename_replicates_relations() {
        let mut inst = Instance::empty(&schema());
        inst.insert("order", t1("time")).unwrap();
        let renamed = inst.rename(|n| RelationName::new(format!("{}@1", n.as_str())));
        assert!(renamed.relation("order@1").is_some());
        assert!(renamed.relation("order").is_none());
    }

    #[test]
    fn relation_union_rejects_arity_mismatch() {
        let a = Relation::empty(1);
        let b = Relation::empty(2);
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn scan_prefix_returns_the_contiguous_match_range() {
        let rel = Relation::from_tuples(
            2,
            vec![
                t2("time", 855),
                t2("time", 900),
                t2("newsweek", 845),
                t2("lemonde", 8350),
            ],
        )
        .unwrap();
        let prefix = [Value::str("time")];
        let hits: Vec<_> = rel.scan_prefix(&prefix).collect();
        assert_eq!(hits, vec![&t2("time", 855), &t2("time", 900)]);
        assert_eq!(rel.scan_prefix(&[Value::str("nope")]).count(), 0);
        // The empty prefix scans everything; a full-tuple prefix is a lookup.
        assert_eq!(rel.scan_prefix(&[]).count(), 4);
        assert_eq!(
            rel.scan_prefix(&[Value::str("newsweek"), Value::int(845)])
                .count(),
            1
        );
    }

    #[test]
    fn cloned_relations_share_until_mutated() {
        let mut a = Relation::from_tuples(1, vec![t1("x")]).unwrap();
        let b = a.clone();
        // Inserting a duplicate does not split the sharing or change b.
        assert!(!a.insert(t1("x")).unwrap());
        // Inserting a new tuple copies-on-write: b is unaffected.
        assert!(a.insert(t1("y")).unwrap());
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_checks_arity_and_name() {
        let mut inst = Instance::empty(&schema());
        inst.insert("order", t1("time")).unwrap();
        assert!(inst.remove("order", &t1("time")).unwrap());
        assert!(!inst.remove("order", &t1("time")).unwrap());
        assert!(!inst.remove("order", &t1("newsweek")).unwrap());
        let err = inst.remove("order", &t2("time", 855)).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
        let err = inst.remove("deliver", &t1("time")).unwrap_err();
        assert!(matches!(err, RelationalError::UnknownRelation { .. }));
    }

    #[test]
    fn remove_is_copy_on_write() {
        let mut a = Relation::from_tuples(1, vec![t1("x"), t1("y")]).unwrap();
        let b = a.clone();
        // Removing an absent tuple does not split sharing or change b.
        assert!(!a.remove(&t1("z")).unwrap());
        // Removing a present tuple copies-on-write: b keeps both tuples.
        assert!(a.remove(&t1("x")).unwrap());
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert!(b.contains(&t1("x")));
    }

    #[test]
    fn subtract_is_set_difference() {
        let mut a = Relation::from_tuples(1, vec![t1("x"), t1("y"), t1("z")]).unwrap();
        let b = Relation::from_tuples(1, vec![t1("y"), t1("w")]).unwrap();
        a.subtract(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.contains(&t1("x")) && a.contains(&t1("z")));
        // Disjoint subtraction is a no-op that never copies.
        let shared = a.clone();
        let disjoint = Relation::from_tuples(1, vec![t1("q")]).unwrap();
        a.subtract(&disjoint).unwrap();
        assert_eq!(a, shared);
        // Arity mismatch is an error.
        assert!(a.subtract(&Relation::empty(2)).is_err());
    }

    #[test]
    fn relation_from_tuples() {
        let r = Relation::from_tuples(1, vec![t1("a"), t1("b"), t1("a")]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t1("a")));
        assert!(Relation::from_tuples(1, vec![t2("a", 1)]).is_err());
    }

    /// Arity-2 tuples over a small domain, so runs carry duplicates.
    fn pairs(spec: &[(usize, i64)]) -> Vec<Tuple> {
        spec.iter().map(|&(a, b)| t2(&format!("v{a}"), b)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// `insert_bulk` builds exactly what inserting the run tuple by tuple
        /// builds, into an empty, a non-empty or a shared relation (whose
        /// other clone stays as it was); both sides count the same new
        /// tuples.  With one tuple of the wrong arity anywhere in the run,
        /// it fails with the error `insert` reports and changes nothing.
        #[test]
        fn bulk_insert_matches_per_tuple_insert(
            base in proptest::collection::vec((0usize..6, 0i64..4), 1..24),
            run in proptest::collection::vec((0usize..6, 0i64..4), 0..48),
            target in 0usize..3,
            bad_at in 0usize..48,
        ) {
            let base = if target == 0 { Vec::new() } else { pairs(&base) };
            let run = pairs(&run);
            let mut expected = Relation::from_tuples(2, base.clone()).unwrap();
            let mut bulk = expected.clone();
            let other = (target == 2).then(|| bulk.clone());

            let mut expected_new = 0;
            for t in run.iter().cloned() {
                expected_new += usize::from(expected.insert(t).unwrap());
            }
            let mut sink = run.clone();
            proptest::prop_assert_eq!(bulk.insert_bulk(&mut sink).unwrap(), expected_new);
            proptest::prop_assert!(sink.is_empty());
            proptest::prop_assert_eq!(&bulk, &expected);
            if let Some(other) = other {
                proptest::prop_assert_eq!(other, Relation::from_tuples(2, base).unwrap());
            }

            let before = bulk.clone();
            let mut bad_run = run;
            bad_run.insert(bad_at % (bad_run.len() + 1), t1("odd"));
            let error = Relation::empty(2).insert(t1("odd")).unwrap_err();
            proptest::prop_assert_eq!(bulk.insert_bulk(&mut bad_run).unwrap_err(), error);
            proptest::prop_assert_eq!(&bulk, &before);
        }
    }

    #[test]
    fn instance_bulk_insert_names_the_relation_in_errors() {
        let mut inst = Instance::empty(&schema());
        let mut run: Vec<Tuple> = (0..20).map(|i| t2("time", i % 7)).collect();
        assert_eq!(inst.insert_bulk("pay", &mut run).unwrap(), 7);
        let mut bad = vec![t1("time")];
        let err = inst.insert_bulk("pay", &mut bad).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::ArityMismatch { ref relation, expected: 2, actual: 1 }
                if relation == "pay"
        ));
        let err = inst.insert_bulk("deliver", &mut bad).unwrap_err();
        assert!(matches!(err, RelationalError::UnknownRelation { .. }));
        assert_eq!(inst.relation("pay").unwrap().len(), 7);
    }

    #[test]
    fn instance_schema_roundtrip() {
        let s = schema();
        let inst = Instance::empty(&s);
        assert_eq!(inst.schema(), s);
    }

    #[test]
    fn display_is_compact() {
        let mut inst = Instance::empty(&schema());
        assert_eq!(inst.to_string(), "∅");
        inst.insert("order", t1("time")).unwrap();
        assert!(inst.to_string().contains("order{(time)}"));
    }
}
