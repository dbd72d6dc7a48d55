//! Row-level behaviour of the store's tables: set semantics, arity checks,
//! retraction, and selections, projections and joins evaluated over the
//! catalog with and without prepared indexes.

#[cfg(test)]
mod tests {
    use crate::{Store, StoreError};
    use rtx_datalog::{parse_program, CompiledProgram, EvalBudget, Parallelism};
    use rtx_relational::{Instance, RelationName, Tuple, Value};

    fn price(product: &str, amount: i64) -> Tuple {
        Tuple::from_iter(vec![Value::str(product), Value::int(amount)])
    }

    fn price_store() -> Store {
        let mut s = Store::new();
        s.create_table("price", 2, Some(vec!["product".into(), "amount".into()]))
            .unwrap();
        for (p, amount) in [("time", 855), ("newsweek", 845), ("lemonde", 8350)] {
            s.insert("price", price(p, amount)).unwrap();
        }
        s
    }

    fn compile(text: &str) -> CompiledProgram {
        CompiledProgram::compile(&parse_program(text).unwrap()).unwrap()
    }

    /// `program` over the catalog's resident database, through the indexes
    /// it prepares.
    fn query(store: &Store, program: &CompiledProgram) -> Instance {
        program
            .evaluate(
                &[],
                Some(&store.database().view_for(program)),
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap()
            .0
    }

    /// `program` over a plain snapshot of the catalog: no prepared index.
    fn query_unprepared(store: &Store, program: &CompiledProgram) -> Instance {
        program
            .evaluate(
                &[&store.snapshot()],
                None,
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap()
            .0
    }

    fn holds(store: &Store, row: &Tuple) -> bool {
        store.database().contains(&RelationName::new("price"), row)
    }

    #[test]
    fn insert_is_set_semantics_and_checks_arity() {
        let mut s = price_store();
        assert_eq!(s.op_count(), 4);
        assert!(!s.insert("price", price("time", 855)).unwrap());
        assert_eq!(s.op_count(), 4);
        assert_eq!(s.snapshot().relation("price").unwrap().len(), 3);
        assert!(matches!(
            s.insert("price", Tuple::from_iter(vec![Value::str("x")])),
            Err(StoreError::ArityMismatch {
                expected: 2,
                actual: 1,
                ..
            })
        ));
        assert!(holds(&s, &price("time", 855)));
        assert_eq!(s.database().schema().arity_of("price"), Some(2));
        let price = s.tables().find(|t| t.name.as_str() == "price").unwrap();
        assert_eq!(price.attributes.as_ref().map(Vec::len), Some(2));
    }

    #[test]
    fn remove_maintains_rows_primary_and_indexes() {
        let mut s = price_store();
        // Probing `price` on its second column prepares a hash index.
        let at = compile("hit(P) :- price(P, 855).");
        assert_eq!(query(&s, &at).relation("hit").unwrap().len(), 1);
        assert_eq!(s.database().index_count(), 1);

        // Absent rows and arity mismatches mirror insert's behaviour.
        assert!(!s.retract("price", &price("economist", 1)).unwrap());
        assert!(matches!(
            s.retract("price", &Tuple::from_iter(vec![Value::str("x")])),
            Err(StoreError::ArityMismatch { .. })
        ));
        assert_eq!(s.op_count(), 4);

        // A removal reaches the rows, the membership test and the index.
        let time = price("time", 855);
        assert!(s.retract("price", &time).unwrap());
        assert_eq!(s.snapshot().relation("price").unwrap().len(), 2);
        assert!(!holds(&s, &time));
        assert!(query(&s, &at).relation("hit").unwrap().is_empty());

        // Remove-then-reinsert round-trips.
        s.insert("price", time.clone()).unwrap();
        assert_eq!(query(&s, &at).relation("hit").unwrap().len(), 1);

        // Draining the table empties every probe.
        for row in s.snapshot().relation("price").unwrap().iter() {
            assert!(s.retract("price", row).unwrap());
        }
        assert!(s.snapshot().relation("price").unwrap().is_empty());
        assert!(query(&s, &at).relation("hit").unwrap().is_empty());
        assert_eq!(s.op_count(), 4 + 1 + 1 + 3);
    }

    #[test]
    fn select_with_and_without_index_agree() {
        let mut s = price_store();
        let select = compile("hit(P) :- price(P, 855).");
        let unindexed = query_unprepared(&s, &select);
        let indexed = query(&s, &select);
        assert_eq!(s.database().index_count(), 1);
        assert_eq!(unindexed, indexed);
        assert_eq!(indexed.relation("hit").unwrap().len(), 1);
        // The prepared index follows later inserts.
        s.insert("price", price("herald", 855)).unwrap();
        let indexed = query(&s, &select);
        assert_eq!(indexed.relation("hit").unwrap().len(), 2);
        assert_eq!(query_unprepared(&s, &select), indexed);
        // A value no row holds selects nothing.
        let missing = compile("hit(P) :- price(P, 1).");
        assert!(query(&s, &missing).relation("hit").unwrap().is_empty());
    }

    #[test]
    fn column_bounds_are_checked() {
        let mut s = price_store();
        let wide = Tuple::from_iter(vec![Value::str("time"), Value::int(855), Value::int(1)]);
        for result in [s.insert("price", wide.clone()), s.retract("price", &wide)] {
            assert_eq!(
                result,
                Err(StoreError::ArityMismatch {
                    table: "price".into(),
                    expected: 2,
                    actual: 3,
                })
            );
        }
        assert_eq!(
            s.insert("nope", wide),
            Err(StoreError::UnknownTable("nope".into()))
        );
        assert_eq!(s.op_count(), 4);
    }

    #[test]
    fn projection() {
        let s = price_store();
        let products = query(&s, &compile("product(P) :- price(P, A)."));
        let products = products.relation("product").unwrap();
        assert_eq!(products.len(), 3);
        assert!(products.contains(&Tuple::from_iter(vec![Value::str("lemonde")])));
    }

    #[test]
    fn hash_join() {
        let mut s = price_store();
        s.create_table("order", 1, None).unwrap();
        for p in ["time", "economist"] {
            s.insert("order", Tuple::from_iter([p])).unwrap();
        }
        let join = compile("bill(P, A) :- order(P), price(P, A).");
        let joined = query(&s, &join);
        let bills = joined.relation("bill").unwrap();
        assert_eq!(bills.len(), 1);
        assert!(bills.contains(&price("time", 855)));
        assert_eq!(query_unprepared(&s, &join), joined);
    }
}
