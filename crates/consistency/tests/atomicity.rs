//! End-to-end tests for §5.2.1: s/lcp/gcp threads, automatic locking,
//! shadow recovery, two-phase commit, and crash recovery.

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_simnet::CostModel;
use std::sync::Arc;

/// A bank account whose deposits are labeled GCP and whose
/// unsafe_deposit stays an s-thread — the paper's "interesting (as well
/// as dangerous) execution time possibilities".
struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "deposit" | "unsafe_deposit" | "lcp_deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            "slow_deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)?;
                // Window for an s-thread to sneak in between the
                // cp-thread's read and its commit.
                std::thread::sleep(std::time::Duration::from_millis(80));
                ctx.persistent().write_u64(0, v + amount)?;
                encode_result(&(v + amount))
            }
            "fail_after_write" => {
                ctx.persistent().write_u64(0, 999_999)?;
                Err(CloudsError::Application("deliberate failure".into()))
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "deposit" | "slow_deposit" | "fail_after_write" => OperationLabel::Gcp,
            "lcp_deposit" => OperationLabel::Lcp,
            _ => OperationLabel::S,
        }
    }
}

/// Transfers between two accounts stored in *different objects* (and,
/// with two data servers, usually on different nodes): the classic
/// atomicity workload.
struct Transfer;

impl ObjectCode for Transfer {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "move" => {
                let (from, to, amount): (SysName, SysName, u64) = decode_args(args)?;
                // Withdraw...
                let balance_bytes = ctx.invoke(from, "balance", &clouds::encode_args(&())?)?;
                let balance: u64 = decode_args(&balance_bytes)?;
                if balance < amount {
                    return Err(CloudsError::Application("insufficient funds".into()));
                }
                ctx.invoke(from, "set", &clouds::encode_args(&(balance - amount))?)?;
                // ...then deposit.
                let to_balance: u64 =
                    decode_args(&ctx.invoke(to, "balance", &clouds::encode_args(&())?)?)?;
                ctx.invoke(to, "set", &clouds::encode_args(&(to_balance + amount))?)?;
                encode_result(&())
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "move" => OperationLabel::Gcp,
            _ => OperationLabel::S,
        }
    }
}

/// Raw account with set/balance for the transfer tests.
struct RawAccount;

impl ObjectCode for RawAccount {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "set" => {
                let v: u64 = decode_args(args)?;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&())
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn bed(computes: usize, datas: usize) -> (Cluster, Arc<ConsistencyRuntime>) {
    let cluster = Cluster::builder()
        .compute_servers(computes)
        .data_servers(datas)
        .workstations(0)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("account", Account).unwrap();
    cluster.register_class("raw-account", RawAccount).unwrap();
    cluster.register_class("transfer", Transfer).unwrap();
    let runtime = ConsistencyRuntime::install(&cluster);
    (cluster, runtime)
}

#[test]
fn gcp_deposit_commits_durably() {
    let (cluster, runtime) = bed(1, 2);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    let v: u64 = decode_args(
        &runtime
            .invoke_labeled(cs, acct, "deposit", &clouds::encode_args(&50u64).unwrap())
            .unwrap(),
    )
    .unwrap();
    assert_eq!(v, 50);
    // Visible to a plain s-thread afterwards.
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 50);
    assert_eq!(runtime.stats().commits, 1);
}

#[test]
fn failed_gcp_thread_leaves_no_trace() {
    let (cluster, runtime) = bed(1, 1);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    let err = runtime
        .invoke_labeled(cs, acct, "fail_after_write", &clouds::encode_args(&()).unwrap())
        .unwrap_err();
    assert!(matches!(err, CloudsError::Application(_)));
    // The write inside the failed cp-thread was a shadow: discarded.
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 0);
}

#[test]
fn read_only_gcp_thread_commits_nothing() {
    let (cluster, runtime) = bed(1, 1);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    let balance: u64 = decode_args(
        &runtime
            .invoke(
                cs,
                OperationLabel::Gcp,
                acct,
                "balance",
                &clouds::encode_args(&()).unwrap(),
                &CpOptions::default(),
            )
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 0);
    assert_eq!(runtime.participant(0).staged_count(), 0);
}

#[test]
fn lcp_deposit_commits() {
    let (cluster, runtime) = bed(1, 2);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    for _ in 0..3 {
        runtime
            .invoke_labeled(cs, acct, "lcp_deposit", &clouds::encode_args(&10u64).unwrap())
            .unwrap();
    }
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 30);
}

#[test]
fn concurrent_gcp_deposits_never_lose_updates() {
    let (cluster, runtime) = bed(2, 2);
    let acct = cluster.create_object("account", "A").unwrap();
    let mut handles = Vec::new();
    for i in 0..4 {
        let cs = cluster.compute(i % 2).clone();
        let runtime = Arc::clone(&runtime);
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                runtime
                    .invoke_labeled(&cs, acct, "deposit", &clouds::encode_args(&1u64).unwrap())
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let cs = cluster.compute(0);
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 40);
    assert_eq!(runtime.stats().commits, 40);
    assert_eq!(runtime.stats().failures, 0);
}

#[test]
fn s_threads_do_lose_updates_under_contention() {
    // The control experiment: the same workload WITHOUT cp semantics
    // exhibits lost updates — the paper's motivation for cp-threads.
    // (Not guaranteed every run; we only assert it never exceeds the
    // true total, and run enough rounds that losses are overwhelmingly
    // likely. If this test ever flakes "all updates survived", increase
    // the rounds.)
    let (cluster, _runtime) = bed(2, 1);
    let acct = cluster.create_object("account", "A").unwrap();
    let mut handles = Vec::new();
    for i in 0..4 {
        let cs = cluster.compute(i % 2).clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let _ = cs.invoke(
                    acct,
                    "unsafe_deposit",
                    &clouds::encode_args(&1u64).unwrap(),
                    None,
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let cs = cluster.compute(0);
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert!(balance <= 200, "balance {balance}");
}

#[test]
fn gcp_transfer_across_data_servers_is_atomic() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    // Force the two accounts onto different data servers.
    let from = cs
        .create_object("raw-account", Some("From"), Some(cluster.data_server(1).node_id()))
        .unwrap();
    let to = cs
        .create_object("raw-account", Some("To"), Some(cluster.data_server(2).node_id()))
        .unwrap();
    let mover = cs.create_object("transfer", Some("Mover"), None).unwrap();
    cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
        .unwrap();

    runtime
        .invoke_labeled(
            cs,
            mover,
            "move",
            &clouds::encode_args(&(from, to, 30u64)).unwrap(),
        )
        .unwrap();

    let f: u64 = decode_args(
        &cs.invoke(from, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    let t: u64 = decode_args(
        &cs.invoke(to, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!((f, t), (70, 30));

    // Insufficient funds: whole transfer rolls back, nothing moves.
    let err = runtime
        .invoke_labeled(
            cs,
            mover,
            "move",
            &clouds::encode_args(&(from, to, 1000u64)).unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, CloudsError::Application(_)));
    let f2: u64 = decode_args(
        &cs.invoke(from, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(f2, 70);
}

#[test]
fn deadlock_is_broken_by_timeout_and_retry() {
    // Two transfer threads in opposite directions: the canonical
    // deadlock. Lock-wait timeouts abort one side; retries succeed.
    let (cluster, runtime) = bed(2, 2);
    let cs0 = cluster.compute(0).clone();
    let cs1 = cluster.compute(1).clone();
    let a = cs0.create_object("raw-account", Some("AcctA"), None).unwrap();
    let b = cs0.create_object("raw-account", Some("AcctB"), None).unwrap();
    let mover = cs0.create_object("transfer", Some("M"), None).unwrap();
    cs0.invoke(a, "set", &clouds::encode_args(&500u64).unwrap(), None)
        .unwrap();
    cs0.invoke(b, "set", &clouds::encode_args(&500u64).unwrap(), None)
        .unwrap();

    let opts = CpOptions {
        lock_wait_ms: 150,
        max_retries: 30,
    };
    let r1 = {
        let runtime = Arc::clone(&runtime);
        let opts = opts.clone();
        std::thread::spawn(move || {
            for _ in 0..10 {
                runtime
                    .invoke(
                        &cs0,
                        OperationLabel::Gcp,
                        mover,
                        "move",
                        &clouds::encode_args(&(a, b, 1u64)).unwrap(),
                        &opts,
                    )
                    .unwrap();
            }
        })
    };
    let r2 = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || {
            for _ in 0..10 {
                runtime
                    .invoke(
                        &cs1,
                        OperationLabel::Gcp,
                        mover,
                        "move",
                        &clouds::encode_args(&(b, a, 1u64)).unwrap(),
                        &opts,
                    )
                    .unwrap();
            }
        })
    };
    r1.join().unwrap();
    r2.join().unwrap();

    let cs = cluster.compute(0);
    let fa: u64 = decode_args(
        &cs.invoke(a, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    let fb: u64 = decode_args(
        &cs.invoke(b, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    // Equal and opposite transfers: totals preserved and balanced.
    assert_eq!(fa + fb, 1000);
    assert_eq!(fa, 500);
    assert_eq!(runtime.stats().commits, 20);
}

#[test]
fn participant_crash_between_prepare_and_commit_recovers() {
    use clouds_consistency::TxnOutcome;
    let (cluster, runtime) = bed(1, 2);
    let cs = cluster.compute(0);
    let acct = cs
        .create_object("account", Some("A"), Some(cluster.data_server(1).node_id()))
        .unwrap();

    // Normal committed deposit to learn the txn machinery works.
    runtime
        .invoke_labeled(cs, acct, "deposit", &clouds::encode_args(&5u64).unwrap())
        .unwrap();

    // Simulate a participant that prepared and then crashed before the
    // commit message: stage pages directly, record the outcome, crash,
    // restart, recover.
    let participant = runtime.participant(1);
    let seg = {
        // Find the account's data segment by reading its meta.
        let meta = clouds::object::ObjectMeta::load(
            &**cluster.compute(0).object_manager().partition(),
            acct,
        )
        .unwrap();
        meta.data_seg
    };
    let mut page = cluster
        .data_server(1)
        .dsm()
        .read_stored(seg, 0, clouds_ra::PAGE_SIZE)
        .unwrap();
    page[..8].copy_from_slice(&777u64.to_le_bytes());

    // Stage via the wire path.
    let txn = 0xFEED;
    let prep = clouds_codec::to_bytes(&clouds_consistency::CommitRequest::Prepare {
        txn,
        pages: vec![clouds_consistency::PageImage {
            seg,
            page: 0,
            data: page,
        }],
    })
    .unwrap();
    cs.ratp()
        .call(
            cluster.data_server(1).node_id(),
            clouds_dsm::ports::COMMIT,
            bytes::Bytes::from(prep),
        )
        .unwrap();
    assert_eq!(participant.staged_count(), 1);
    runtime.registry().record(txn);
    assert_eq!(runtime.registry().outcome(txn), TxnOutcome::Committed);

    // Crash + restart the participant's node, its staged images lost
    // with its memory: only the intent record in the log brings the
    // transaction back, and recovery must install it.
    cluster.crash_data_server(1);
    participant.crash_volatile_state();
    assert_eq!(participant.staged_count(), 0);
    let recovered = cluster.restart_data_server(1);
    participant.resume_from_log(recovered);
    assert_eq!(participant.staged_count(), 1);
    let (installed, aborted) = participant.recover(
        cluster.data_server(1).ratp(),
        runtime.registry_node(),
    );
    assert_eq!((installed, aborted), (1, 0));

    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 777);
}



#[test]
fn mixing_s_threads_with_cp_threads_is_dangerous_as_documented() {
    // §5.2.1: "Since s-threads do not automatically acquire locks, nor
    // are they blocked by any system acquired locks, they can freely
    // interleave with other s-threads and cp-threads … various
    // combinations … lead to many interesting (as well as dangerous)
    // execution time possibilities."
    //
    // Here the danger is concrete: an s-thread writes while a gcp-thread
    // is between its read and its commit; the commit installs the
    // cp-thread's page image and the s-thread's update vanishes.
    let (cluster, runtime) = bed(2, 1);
    let acct = cluster.create_object("account", "A").unwrap();

    let cs0 = cluster.compute(0).clone();
    let rt = Arc::clone(&runtime);
    let gcp = std::thread::spawn(move || {
        rt.invoke_labeled(&cs0, acct, "slow_deposit", &clouds::encode_args(&10u64).unwrap())
            .unwrap()
    });
    // While the gcp-thread sleeps inside its window, an s-thread writes
    // straight through the DSM (no locks stop it).
    std::thread::sleep(std::time::Duration::from_millis(30));
    let cs1 = cluster.compute(1);
    cs1.invoke(
        acct,
        "unsafe_deposit",
        &clouds::encode_args(&5u64).unwrap(),
        None,
    )
    .unwrap();
    gcp.join().unwrap();

    let balance: u64 = decode_args(
        &cs1.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    // The s-thread's 5 was clobbered by the gcp commit image: 10, not 15.
    assert_eq!(
        balance, 10,
        "the documented s/cp anomaly should have destroyed the s-thread's update"
    );
}


#[test]
fn lcp_is_lightweight_gcp_is_atomic_under_partial_failure() {
    // The semantic difference the labels buy (§5.2.1): LCP commits
    // per data server with no cross-server atomicity; GCP is all-or-
    // nothing. With one of the two involved data servers dead at commit
    // time:
    //   * GCP's prepare phase fails → abort → nothing changes anywhere.
    //   * LCP applies at the live server, fails at the dead one → a
    //     PARTIAL update survives (lightweight, as advertised).
    let run_one = |label: OperationLabel| -> (u64, u64, bool) {
        let (cluster, runtime) = bed(1, 3);
        let cs = cluster.compute(0);
        let from = cs
            .create_object("raw-account", Some("From"), Some(cluster.data_server(1).node_id()))
            .unwrap();
        let to = cs
            .create_object("raw-account", Some("To"), Some(cluster.data_server(2).node_id()))
            .unwrap();
        let mover = cs.create_object("transfer", Some("Mover"), None).unwrap();
        cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
            .unwrap();

        // The destination's data server dies before the transfer; the
        // cp-thread still *executes* (shadow writes need no server), but
        // the commit must reach both servers.
        // NOTE: locks for `to` live on the dead server too, so use a
        // short lock wait and accept the abort path for GCP.
        cluster.crash_data_server(2);
        let outcome = runtime.invoke(
            cs,
            label,
            mover,
            "move",
            &clouds::encode_args(&(from, to, 30u64)).unwrap(),
            &CpOptions {
                lock_wait_ms: 100,
                max_retries: 0,
            },
        );
        let from_balance: u64 = decode_args(
            &cs.invoke(from, "balance", &clouds::encode_args(&()).unwrap(), None)
                .unwrap(),
        )
        .unwrap();
        // `to` is unreachable; report whether the source changed.
        (from_balance, 30, outcome.is_ok())
    };

    let (gcp_from, _, gcp_ok) = run_one(OperationLabel::Gcp);
    assert!(!gcp_ok, "gcp must fail without both participants");
    assert_eq!(gcp_from, 100, "gcp: all-or-nothing, source untouched");

    let (lcp_from, _, lcp_ok) = run_one(OperationLabel::Lcp);
    assert!(!lcp_ok, "lcp also reports the failure…");
    // …but, being lightweight, it may have already applied the source
    // debit at the live server: partial state is possible by design.
    // (Whether it did depends on commit ordering; assert only that LCP
    // does not *guarantee* atomicity — i.e. we accept either value —
    // while documenting the observed partial commit when it happens.)
    assert!(
        lcp_from == 70 || lcp_from == 100,
        "unexpected source balance {lcp_from}"
    );
}
