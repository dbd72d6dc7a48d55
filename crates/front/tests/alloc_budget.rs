//! Counted costs of the wire path (ROADMAP slice 11a): heap allocations per
//! warm wire `STEP` and per `OPEN` against a loopback [`FrontServer`], plus
//! the allocation-free empty relation, and the in-process cost of building
//! derived relations: a catalog-wide step, a bulk build, a shared duplicate
//! insert.  Counts are exact and repeat on every
//! run, so unlike a timer they can gate tier-1 on a shared 2-core box.
//!
//! Each count covers every thread of the process — the test's raw client
//! (which allocates nothing once warm), the connection thread and the shard
//! worker — and is the minimum over [`REPEATS`] identical sessions, because
//! the test harness may allocate on its own thread meanwhile (it only ever
//! adds).  Tests take [`SERIAL`] so no two of them count at once.
//!
//! The budgets are this change's measured counts.  The parent commit
//! (14995c4: an `mpsc::channel` and a `Vec<String>` of replies per request,
//! the model parsed and compiled per `OPEN`, the demand plan per demanded
//! `OPEN`, every step's state kept, every relation name a `String`, an `Arc`
//! per empty relation) measured, by this same test:
//!
//! | count | parent | budget |
//! |---|---|---|
//! | per `STEP`, `short` | 103–136 | 38–[`STEP_SHORT`] |
//! | per `STEP`, `category` | 154–308 | 54–[`STEP_CATEGORY`] |
//! | per `STEP`, demanded `storefront` | 155–194 | 71–[`STEP_STOREFRONT`] |
//! | warm `OPEN`, `short` | 810 | [`OPEN_SHORT`] |
//! | warm `OPEN`, `category` | 1,055 | [`OPEN_CATEGORY`] |
//! | warm demanded `OPEN`, `storefront` | 1,397 | [`OPEN_STOREFRONT`] |
//! | `Relation::empty` | 1 | 0 |
//!
//! The in-process fences count how derived relations are built.  The parent
//! commit (cd128b6: every derived tuple placed by its own set insert, two
//! B-tree descents each) measured, by this same test:
//!
//! | count | parent | budget |
//! |---|---|---|
//! | per warm in-process `STEP`, undemanded `storefront`, 2,000 products | 299–308 | 186–[`STEP_STOREFRONT_FULL`] |
//! | building 4,096 sorted tuples (`from_tuples` then; `insert_bulk` now) | 682 | 377, at most n/8 + 2 |
//! | inserting a duplicate into a relation shared with a clone | 0 | 0 |

use rtx_core::Runtime;
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_front::{combined_catalog, render_instance, FrontConfig, FrontServer};
use rtx_relational::{InstanceSequence, Relation, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Most allocations one warm `STEP` of a `short` session may take.
const STEP_SHORT: u64 = 59;
/// Most allocations one warm `STEP` of a `category` session may take.
const STEP_CATEGORY: u64 = 76;
/// Most allocations one warm `STEP` of a demanded `storefront` session may
/// take.
const STEP_STOREFRONT: u64 = 86;
/// Most allocations a warm `OPEN` of a `short` session may take.
const OPEN_SHORT: u64 = 16;
/// Most allocations a warm `OPEN` of a `category` session may take.
const OPEN_CATEGORY: u64 = 24;
/// Most allocations a warm demanded `OPEN` of a `storefront` session may
/// take: the demand plan compiled by the first one is reused.
const OPEN_STOREFRONT: u64 = 30;

/// Identical sessions each count is the minimum over.
const REPEATS: usize = 3;
/// Steps per measured session, as in the benchmark's `wire_fleet`.
const STEPS: usize = 16;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// The system allocator, counting every allocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation above goes through it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` obligations are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// A loopback server and a client that allocates nothing once warm: every
/// request is prebuilt, and replies are read into one reused buffer.
struct Loopback {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
    serving: JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    fn start() -> Loopback {
        let server = FrontServer::bind("127.0.0.1:0", FrontConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let serving = std::thread::spawn(move || server.serve());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Loopback {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            reply: String::with_capacity(1 << 16),
            serving,
        }
    }

    /// Sends one request line and reads its one-line reply, which must
    /// start with `prefix`; returns the allocations the round trip took.
    fn expect(&mut self, request: &str, prefix: &str) -> u64 {
        let before = allocations();
        self.writer.write_all(request.as_bytes()).unwrap();
        self.reply.clear();
        self.reader.read_line(&mut self.reply).unwrap();
        let took = allocations() - before;
        let reply = &self.reply;
        assert!(reply.starts_with(prefix), "{request:?} answered {reply:?}");
        took
    }

    fn stop(mut self) {
        self.expect("SHUTDOWN\n", "OK bye");
        drop((self.writer, self.reader));
        self.serving.join().unwrap().unwrap();
    }
}

/// One measured workload: a model, how it is opened, and its steps.
struct Workload {
    model: &'static str,
    open: &'static str,
    inputs: InstanceSequence,
}

impl Workload {
    fn short() -> Workload {
        let inputs = rtx_workloads::customer_session(&combined_catalog(), STEPS, 200, 0.9, 7);
        Workload {
            model: "short",
            open: "short",
            inputs,
        }
    }

    fn category() -> Workload {
        let inputs = rtx_workloads::customer_session(&combined_catalog(), STEPS, 200, 0.9, 8);
        Workload {
            model: "category",
            open: "category",
            inputs,
        }
    }

    fn storefront() -> Workload {
        Workload {
            model: "storefront",
            open: "storefront demand",
            inputs: rtx_workloads::browse_session(STEPS, 200, 9),
        }
    }
}

/// What one workload costs: the first (cold) `OPEN`, the warm `OPEN`, and
/// each warm `STEP`, every count the minimum over [`REPEATS`] sessions.
struct Costs {
    cold_open: u64,
    open: u64,
    steps: Vec<u64>,
}

fn measure(client: &mut Loopback, workload: &Workload) -> Costs {
    let steps: Vec<String> = workload.inputs.iter().map(render_instance).collect();
    // The first session warms the symbol table, the catalog indexes and
    // every reused buffer; only its `OPEN` is kept, as the cold count.
    let mut cold_open = 0;
    let mut open = u64::MAX;
    let mut step_costs = vec![u64::MAX; steps.len()];
    for repeat in 0..=REPEATS {
        let name = format!("{}-{repeat}", workload.model);
        let opening = format!("OPEN {name} {}\n", workload.open);
        let requests: Vec<String> = steps
            .iter()
            .map(|facts| format!("STEP {name} {facts}\n"))
            .collect();
        let closing = format!("CLOSE {name}\n");

        let took = client.expect(&opening, "OK open ");
        if repeat == 0 {
            cold_open = took;
        } else {
            open = open.min(took);
        }
        for (cost, request) in step_costs.iter_mut().zip(&requests) {
            let took = client.expect(request, "OUT ");
            if repeat > 0 {
                *cost = (*cost).min(took);
            }
        }
        client.expect(&closing, "OK close ");
    }
    Costs {
        cold_open,
        open,
        steps: step_costs,
    }
}

fn report(model: &str, costs: &Costs) -> u64 {
    let max = costs.steps.iter().copied().max().unwrap_or(0);
    let min = costs.steps.iter().copied().min().unwrap_or(0);
    eprintln!(
        "{model}: cold OPEN {}, warm OPEN {}, STEP {min}–{max}",
        costs.cold_open, costs.open
    );
    max
}

#[test]
fn wire_steps_and_opens_stay_within_their_allocation_budgets() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut client = Loopback::start();
    let short = measure(&mut client, &Workload::short());
    let category = measure(&mut client, &Workload::category());
    let storefront = measure(&mut client, &Workload::storefront());
    client.stop();

    let most = [
        report("short", &short),
        report("category", &category),
        report("storefront", &storefront),
    ];
    assert!(most[0] <= STEP_SHORT, "{most:?}");
    assert!(most[1] <= STEP_CATEGORY, "{most:?}");
    assert!(most[2] <= STEP_STOREFRONT, "{most:?}");
    assert!(short.open <= OPEN_SHORT, "{}", short.open);
    assert!(category.open <= OPEN_CATEGORY, "{}", category.open);
    assert!(storefront.open <= OPEN_STOREFRONT, "{}", storefront.open);
    // The first demanded `OPEN` compiled the demand plan; the later ones
    // reused it.
    assert!(
        storefront.cold_open > 4 * storefront.open,
        "{} vs {}",
        storefront.cold_open,
        storefront.open
    );
}

#[test]
fn an_empty_relation_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut least = u64::MAX;
    for _ in 0..REPEATS {
        let before = allocations();
        let relation = std::hint::black_box(Relation::empty(3));
        least = least.min(allocations() - before);
        drop(relation);
    }
    eprintln!("Relation::empty: {least}");
    assert_eq!(least, 0);
}

/// Products in the in-process `storefront` catalog.
const CATALOG_PRODUCTS: usize = 2_000;

/// Most allocations one warm, in-process, undemanded `storefront` step over a
/// [`CATALOG_PRODUCTS`]-product catalog may take: every step re-derives
/// `offer` for the whole catalog.
const STEP_STOREFRONT_FULL: u64 = 196;

#[test]
fn an_undemanded_storefront_step_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = rtx_workloads::category_catalog(CATALOG_PRODUCTS, 50, 5);
    let db = Arc::new(ResidentDb::new(catalog));
    let runtime = Runtime::shared_with(db, Parallelism::sequential());
    let model = Arc::new(rtx_workloads::storefront_model());
    let inputs = rtx_workloads::browse_session(STEPS, CATALOG_PRODUCTS, 10);
    // The first session warms the symbol table and the catalog; each step's
    // count is the minimum over the later ones.
    let mut costs = vec![u64::MAX; inputs.len()];
    for repeat in 0..=REPEATS {
        let name = format!("storefront-full-{repeat}");
        let mut session = runtime.open_session(name, Arc::clone(&model)).unwrap();
        for (cost, input) in costs.iter_mut().zip(inputs.iter()) {
            let before = allocations();
            let output = session.step(input).unwrap();
            let took = allocations() - before;
            let offers = output.relation("offer").unwrap().len();
            assert!(offers > CATALOG_PRODUCTS / 4, "{offers} offers");
            if repeat > 0 {
                *cost = (*cost).min(took);
            }
        }
    }
    let (least, most) = (costs.iter().min().unwrap(), costs.iter().max().unwrap());
    eprintln!("in-process undemanded storefront: STEP {least}–{most}");
    assert!(*most <= STEP_STOREFRONT_FULL, "{costs:?}");
}

/// Tuples in the bulk-built relation.
const BULK_TUPLES: usize = 4_096;

/// Sorted integer tuples `0..n`, built before any count starts.
fn sorted_run(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| Tuple::new(vec![Value::int(i)]))
        .collect()
}

#[test]
fn a_bulk_build_of_a_sorted_run_fills_whole_nodes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut least = u64::MAX;
    for _ in 0..REPEATS {
        let mut run = sorted_run(BULK_TUPLES);
        let mut relation = Relation::empty(1);
        let before = allocations();
        relation.insert_bulk(&mut run).unwrap();
        least = least.min(allocations() - before);
        assert_eq!(relation.len(), BULK_TUPLES);
    }
    eprintln!("bulk build of {BULK_TUPLES} sorted tuples: {least}");
    assert!(least <= BULK_TUPLES as u64 / 8 + 2, "{least}");
}

#[test]
fn a_duplicate_insert_never_splits_a_shared_relation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut relation = Relation::from_tuples(1, sorted_run(64)).unwrap();
    let mut least = u64::MAX;
    for _ in 0..REPEATS {
        let clone = relation.clone();
        let duplicate = Tuple::new(vec![Value::int(7)]);
        let before = allocations();
        let added = relation.insert(duplicate).unwrap();
        least = least.min(allocations() - before);
        assert!(!added);
        assert_eq!(clone, relation);
    }
    eprintln!("duplicate insert into a shared relation: {least}");
    assert_eq!(least, 0);
}
