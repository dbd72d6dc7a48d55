//! Seeded input generation.  Everything the benchmark feeds the program —
//! catalogs, session scripts, the mutation stream — is a pure function of
//! `--seed`; the program under test only ever sees the generated inputs.
//!
//! Catalogs, browse sessions and catalog mutations come from
//! `rtx-workloads`.  Customer sessions are generated here: they have the
//! shape of `rtx_workloads::customer_session` (order one or two products,
//! pay for an earlier order 70% of the time), but look prices up in a table
//! built once — the library function scans the whole `price` relation for
//! every payment, which at 100k products would make generating a fleet take
//! longer than measuring it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx_core::models;
use rtx_relational::{Instance, Tuple, Value};

/// A generator for an independent stream of one run seed (`stream`
/// distinguishes the consumers: thread, script number, probe).
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Listed prices of the products `p0`, `p1`, … of a generated catalog.
#[derive(Debug)]
pub struct PriceTable {
    by_index: Vec<Option<i64>>,
}

impl PriceTable {
    pub fn of(catalog: &Instance) -> PriceTable {
        let mut by_index = Vec::new();
        for row in catalog.relation("price").into_iter().flat_map(|r| r.iter()) {
            let index = row
                .get(0)
                .and_then(Value::as_str)
                .and_then(|name| name.strip_prefix('p'))
                .and_then(|digits| digits.parse::<usize>().ok());
            if let (Some(index), Some(price)) = (index, row.get(1).and_then(Value::as_int)) {
                if by_index.len() <= index {
                    by_index.resize(index + 1, None);
                }
                // The first row in relation order wins, as in `price_of`.
                by_index[index].get_or_insert(price);
            }
        }
        PriceTable { by_index }
    }

    #[cfg(test)]
    pub fn products(&self) -> usize {
        self.by_index.len()
    }

    fn price(&self, index: usize) -> i64 {
        self.by_index.get(index).copied().flatten().unwrap_or(1)
    }
}

/// One customer session over the `order`/`pay` input schema: `steps` steps
/// over the first `products` products, paying the listed price with
/// probability `honesty`.
pub fn customer_script(
    rng: &mut StdRng,
    prices: &PriceTable,
    steps: usize,
    products: usize,
    honesty: f64,
) -> Vec<Instance> {
    let schema = models::short_input_schema();
    let products = products.max(1);
    let mut ordered: Vec<usize> = Vec::new();
    (0..steps)
        .map(|_| {
            let mut step = Instance::empty(&schema);
            for _ in 0..rng.gen_range(1..=2usize) {
                let product = rng.gen_range(0..products);
                step.insert("order", Tuple::from_iter([format!("p{product}")]))
                    .expect("order/1");
                ordered.push(product);
            }
            if rng.gen_bool(0.7) {
                let product = ordered[rng.gen_range(0..ordered.len())];
                let listed = prices.price(product);
                let amount = if rng.gen_bool(honesty) {
                    listed
                } else {
                    listed + 1
                };
                step.insert(
                    "pay",
                    Tuple::new(vec![Value::str(format!("p{product}")), Value::int(amount)]),
                )
                .expect("pay/2");
            }
            step
        })
        .collect()
}

/// FNV-1a over everything a schedule is made of, so two runs can be shown to
/// have been fed byte-identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleHash(u64);

impl Default for ScheduleHash {
    fn default() -> Self {
        ScheduleHash(0xcbf2_9ce4_8422_2325)
    }
}

impl ScheduleHash {
    pub fn feed(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_of_one_seed_are_independent_and_repeatable() {
        assert_eq!(stream_rng(1, 5).next_u64(), stream_rng(1, 5).next_u64());
        assert_ne!(stream_rng(1, 0).next_u64(), stream_rng(1, 1).next_u64());
        assert_ne!(stream_rng(1, 0).next_u64(), stream_rng(2, 0).next_u64());
    }

    #[test]
    fn honest_customers_pay_the_listed_price() {
        let catalog = rtx_workloads::category_catalog(50, 5, 9);
        let prices = PriceTable::of(&catalog);
        assert_eq!(prices.products(), 50);
        let script = customer_script(&mut stream_rng(5, 0), &prices, 40, 50, 1.0);
        assert_eq!(script.len(), 40);
        let mut pays = 0;
        for step in &script {
            assert!(!step.relation("order").unwrap().is_empty());
            for pay in step.relation("pay").unwrap().iter() {
                let product = pay.get(0).and_then(Value::as_str).unwrap();
                assert_eq!(
                    pay.get(1).and_then(Value::as_int),
                    rtx_workloads::price_of(&catalog, product)
                );
                pays += 1;
            }
        }
        assert!(pays > 15);
        // Same seed, same script; another seed, another script.
        assert_eq!(
            script,
            customer_script(&mut stream_rng(5, 0), &prices, 40, 50, 1.0)
        );
        assert_ne!(
            script,
            customer_script(&mut stream_rng(6, 0), &prices, 40, 50, 1.0)
        );
    }

    #[test]
    fn the_schedule_hash_separates_its_parts() {
        let hash = |parts: &[&str]| {
            let mut h = ScheduleHash::default();
            parts.iter().for_each(|p| h.feed(p.as_bytes()));
            h.value()
        };
        assert_eq!(hash(&["ab", "c"]), hash(&["ab", "c"]));
        assert_ne!(hash(&["ab", "c"]), hash(&["a", "bc"]));
        assert_ne!(hash(&["ab"]), hash(&["ab", ""]));
    }
}
