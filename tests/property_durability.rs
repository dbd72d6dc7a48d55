//! Kill-and-recover property sweep for the durable store.
//!
//! The harness runs a randomized insert/retract/checkpoint workload
//! ([`rtx::workloads::crash_churn`]) against a [`DurableStore`] whose
//! storage backend is wrapped in a [`FaultVfs`], and injects a crash at the
//! k-th I/O operation — for **every** k the workload performs, and for both
//! crash flavours (clean kill and torn write).  After each injected crash
//! the store is reopened from the surviving bytes and must recover a state
//! **bit-identical to the committed prefix**: the catalog after exactly the
//! `m` acknowledged operations, where `m` is either the acked count or (when
//! the crash hit after the bytes reached the backend but before the
//! acknowledgement) one more.  Torn final records must be dropped with a
//! report, never an error; everything is deterministic — no flakes.

use rtx::relational::Instance;
use rtx::store::{
    DurableStore, Fault, FaultVfs, FsyncPolicy, MemVfs, RecoveryReport, Store, StoreError,
};
use rtx::workloads::{crash_churn, ChurnOp};
use std::sync::Arc;

const N_OPS: usize = 120;
const SEED: u64 = 0xD15C;

/// Applies one churn op to a durable store, mapping `Checkpoint` to a real
/// checkpoint.  Returns `Err` when the injected fault fires.
fn apply(store: &mut DurableStore, op: &ChurnOp) -> Result<(), StoreError> {
    match op {
        ChurnOp::Create { table, arity } => store.create_table(table.clone(), *arity, None),
        ChurnOp::Insert { table, row } => store.insert(table, row.clone()).map(|_| ()),
        ChurnOp::Retract { table, row } => store.retract(table, row).map(|_| ()),
        ChurnOp::Checkpoint => store.checkpoint(),
    }
}

/// Reference states: `states[m]` is the catalog after the first `m` workload
/// operations, and `journaled[m]` how many of those were journaled data
/// operations (checkpoints are state-neutral and unjournaled).
fn reference_states(ops: &[ChurnOp]) -> (Vec<Instance>, Vec<usize>) {
    let mut store = Store::new();
    let mut states = vec![store.snapshot()];
    let mut journaled = vec![0usize];
    let mut data_ops = 0usize;
    for op in ops {
        match op {
            ChurnOp::Create { table, arity } => {
                store
                    .create_table(table.clone(), *arity, None)
                    .expect("churn creates are fresh");
                data_ops += 1;
            }
            ChurnOp::Insert { table, row } => {
                assert!(store
                    .insert(table, row.clone())
                    .expect("churn table exists"));
                data_ops += 1;
            }
            ChurnOp::Retract { table, row } => {
                assert!(store.retract(table, row).expect("churn table exists"));
                data_ops += 1;
            }
            ChurnOp::Checkpoint => {}
        }
        states.push(store.snapshot());
        journaled.push(data_ops);
    }
    (states, journaled)
}

/// Runs the whole workload against a fault-free counter to learn how many
/// I/O operations a clean run performs — the sweep range.
fn count_io_ops(ops: &[ChurnOp]) -> u64 {
    let counter = FaultVfs::new(MemVfs::new(), u64::MAX, Fault::Error);
    let observed = counter.clone();
    let (mut store, _) =
        DurableStore::open(Arc::new(counter), FsyncPolicy::Always).expect("clean open");
    for op in ops {
        apply(&mut store, op).expect("clean run");
    }
    observed.operations()
}

/// Reopens from the surviving bytes (no faults) and returns the recovered
/// store plus its report.  Recovery after a crash must always succeed.
fn recover(vfs: &MemVfs, k: u64, fault: Fault) -> (DurableStore, RecoveryReport) {
    DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always)
        .unwrap_or_else(|e| panic!("recovery failed after {fault:?} at I/O op {k}: {e}"))
}

#[test]
fn every_crash_point_recovers_the_committed_prefix() {
    let ops = crash_churn(N_OPS, SEED);
    let (states, journaled) = reference_states(&ops);
    let total_io = count_io_ops(&ops);
    assert!(
        total_io > 2 * N_OPS as u64,
        "sweep range sanity: {total_io}"
    );

    let mut torn_tails = 0usize;
    for fault in [Fault::Crash, Fault::TornWrite] {
        for k in 1..=total_io {
            let disk = MemVfs::new();
            let faulty = FaultVfs::new(disk.clone(), k, fault);

            // Drive the workload until the fault kills it.
            let mut acked = 0usize;
            match DurableStore::open(Arc::new(faulty), FsyncPolicy::Always) {
                Err(_) => {} // crashed during the very first open: nothing acked
                Ok((mut store, _)) => {
                    for op in &ops {
                        match apply(&mut store, op) {
                            Ok(()) => acked += 1,
                            Err(e) => {
                                assert!(
                                    matches!(e, StoreError::Io { .. }),
                                    "fault must surface as Io, got {e:?}"
                                );
                                break;
                            }
                        }
                    }
                }
            }

            // Reboot from the surviving bytes: the recovered catalog must be
            // the committed prefix — `acked` operations, or `acked + 1` when
            // the crash hit between persistence and acknowledgement.
            let (recovered, report) = recover(&disk, k, fault);
            torn_tails += usize::from(report.torn_tail.is_some());
            let got = recovered.store().snapshot();
            let candidates = [acked, (acked + 1).min(ops.len())];
            let matched = candidates.iter().find(|&&m| states[m] == got);
            let m = *matched.unwrap_or_else(|| {
                panic!(
                    "{fault:?} at I/O op {k}: recovered state matches neither \
                     {acked} nor {} committed ops",
                    acked + 1
                )
            });
            // The absolute operation numbering must agree with the prefix.
            assert_eq!(
                recovered.store().op_count(),
                journaled[m],
                "{fault:?} at I/O op {k}: operation count diverges from prefix {m}"
            );
        }
    }
    // Torn writes must actually have produced (and survived) torn tails
    // somewhere in the sweep, or the harness is not testing what it claims.
    assert!(torn_tails > 0, "sweep never produced a torn tail");

    // One past the sweep: no fault fires, the full workload commits.
    let disk = MemVfs::new();
    let faulty = FaultVfs::new(disk.clone(), total_io + 1, Fault::Crash);
    let (mut store, _) = DurableStore::open(Arc::new(faulty), FsyncPolicy::Always).unwrap();
    for op in &ops {
        apply(&mut store, op).unwrap();
    }
    drop(store);
    let (recovered, _) = recover(&disk, total_io + 1, Fault::Crash);
    assert_eq!(recovered.store().snapshot(), states[ops.len()]);
}

#[test]
fn group_commit_policies_recover_a_consistent_prefix() {
    // Under EveryN/Never the crash may lose acknowledged-but-unsynced
    // operations (that is the documented trade), but the recovered state
    // must still be *some* committed prefix of the workload — never a torn
    // mixture.  MemVfs persists appends immediately, so the prefix is in
    // fact the acked one; the property proved here is prefix-consistency of
    // the bytes recovery accepts.
    let ops = crash_churn(80, SEED ^ 0xBEEF);
    let (states, _) = reference_states(&ops);
    for policy in [FsyncPolicy::EveryN(8), FsyncPolicy::Never] {
        for k in [5u64, 17, 43, 71, 113] {
            let disk = MemVfs::new();
            let faulty = FaultVfs::new(disk.clone(), k, Fault::TornWrite);
            let mut acked = 0usize;
            if let Ok((mut store, _)) = DurableStore::open(Arc::new(faulty), policy) {
                for op in &ops {
                    if apply(&mut store, op).is_err() {
                        break;
                    }
                    acked += 1;
                }
            }
            let (recovered, _) = DurableStore::open(Arc::new(disk.clone()), policy)
                .unwrap_or_else(|e| panic!("recovery failed ({policy:?}, k={k}): {e}"));
            let got = recovered.store().snapshot();
            assert!(
                states.contains(&got),
                "{policy:?} at I/O op {k}: recovered state is not a workload prefix \
                 (acked {acked})"
            );
        }
    }
}

#[test]
fn short_reads_never_panic_and_stay_prefix_consistent() {
    // Build a fully committed image, then recover through a backend that
    // short-reads the k-th read.  A short snapshot read fails its checksum
    // (hard error, offset included); a short WAL read looks like a torn
    // tail and recovers a shorter — but still committed — prefix.  Either
    // way: no panic, no fabricated state.
    let ops = crash_churn(60, SEED ^ 0x5EAD);
    let (states, _) = reference_states(&ops);
    let disk = MemVfs::new();
    let (mut store, _) = DurableStore::open(Arc::new(disk.clone()), FsyncPolicy::Always).unwrap();
    let mut checkpoints = 0usize;
    for op in &ops {
        checkpoints += usize::from(matches!(op, ChurnOp::Checkpoint));
        apply(&mut store, op).unwrap();
    }
    assert!(checkpoints > 0, "workload must exercise snapshots");
    drop(store);

    for k in 1..=4u64 {
        let faulty = FaultVfs::new(disk.clone(), k, Fault::ShortRead);
        match DurableStore::open(Arc::new(faulty), FsyncPolicy::Always) {
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Io { .. }) => {}
            Err(other) => panic!("short read at op {k}: unexpected error {other:?}"),
            Ok((recovered, _)) => {
                let got = recovered.store().snapshot();
                assert!(
                    states.contains(&got),
                    "short read at op {k}: recovered state is not a workload prefix"
                );
            }
        }
    }

    // Mid-file corruption (not at the tail) is a hard error with an offset.
    let wal_len = disk.len_of("wal").expect("wal exists");
    assert!(wal_len > 64);
    disk.corrupt_byte("wal", 40);
    match DurableStore::open(Arc::new(disk.clone()), FsyncPolicy::Always) {
        Err(StoreError::Corrupt { offset, .. }) => assert!(offset >= 24),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
