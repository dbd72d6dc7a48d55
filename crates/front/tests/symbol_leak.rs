//! A rejected `STEP` interns no symbol.
//!
//! String values are interned into the process-wide, append-only
//! [`SymbolTable`] and never freed, so a client that sends facts the schema
//! rejects must not grow it: otherwise every typo or hostile request leaks
//! memory for the life of the server.  This file holds one test, so no
//! other test thread interns while it counts.

use rtx_front::{FrontClient, FrontConfig, FrontServer};
use rtx_relational::SymbolTable;

/// Rejected specs sent, each with tokens never seen before.
const REJECTED: usize = 1_000;

#[test]
fn a_rejected_step_interns_no_symbol() {
    let server = FrontServer::bind("127.0.0.1:0", FrontConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.serve());
    let mut client = FrontClient::connect(addr).unwrap();

    let opened = client.request("OPEN leak short").unwrap();
    assert!(opened.starts_with("OK open"), "{opened}");
    // One accepted step first, so whatever a first step interns is in.
    let stepped = client.request("STEP leak order(time)").unwrap();
    assert!(stepped.starts_with("OUT "), "{stepped}");

    let symbols = SymbolTable::len();
    for i in 0..REJECTED {
        let spec = match i % 3 {
            // A relation the input schema does not declare.
            0 => format!("nope-{i}(leak-a-{i})"),
            // `order` is unary.
            1 => format!("order(leak-b-{i},leak-c-{i})"),
            // A good fact, then a bad one: the whole spec is rejected.
            _ => format!("order(leak-d-{i});pay(leak-e-{i})"),
        };
        let reply = client.request(&format!("STEP leak {spec}")).unwrap();
        assert!(reply.starts_with("ERR "), "{spec} answered {reply}");
    }
    assert_eq!(
        SymbolTable::len(),
        symbols,
        "rejected steps interned symbols"
    );

    let bye = client.request("SHUTDOWN").unwrap();
    assert!(bye.starts_with("OK bye"), "{bye}");
    drop(client);
    serving.join().unwrap().unwrap();
}
