//! The handler pool: elastic enough that nested, blocking handlers never
//! deadlock, reused across sequential transactions, free of stale span
//! context, and gone once the node shuts down or drops.

use bytes::Bytes;
use clouds_obs::current_ctx;
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

const WORK: u16 = 1;
const CALLBACK: u16 = 2;
const NOTE: u16 = 3;

fn pair(config: RatpConfig) -> (Network, Arc<RatpNode>, Arc<RatpNode>) {
    let net = Network::new(CostModel::zero());
    let a = RatpNode::spawn(net.register(NodeId(1)).unwrap(), config.clone());
    let b = RatpNode::spawn(net.register(NodeId(2)).unwrap(), config);
    (net, a, b)
}

/// No retransmission within any plausible test run, so once the calls
/// have returned nothing more reaches the server.
fn quiet() -> RatpConfig {
    RatpConfig {
        retry_interval: Duration::from_secs(60),
        max_retries: 0,
        ..RatpConfig::default()
    }
}

/// Make `n` calls to `b`'s `WORK` port at once, from `n` client threads.
fn concurrent_calls(a: &Arc<RatpNode>, n: usize) -> Vec<Bytes> {
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let a = Arc::clone(a);
            std::thread::spawn(move || a.call(NodeId(2), WORK, Bytes::from(vec![i as u8])))
        })
        .collect();
    clients
        .into_iter()
        .map(|c| c.join().unwrap().expect("call"))
        .collect()
}

#[test]
fn nested_callbacks_beyond_any_fixed_pool_do_not_deadlock() {
    // Every handler waits until all K are running at once, then calls
    // back into the caller's node: a pool capped below K would hang.
    const K: usize = 48;
    let (_net, a, b) = pair(RatpConfig::default());
    a.register_service(CALLBACK, |req: Request| req.payload);
    let barrier = Arc::new(Barrier::new(K));
    let server = Arc::downgrade(&b);
    b.register_service(WORK, move |req: Request| {
        barrier.wait();
        let node = server.upgrade().expect("server alive");
        node.call(req.src, CALLBACK, req.payload)
            .expect("nested call")
    });
    let mut replies: Vec<u8> = concurrent_calls(&a, K).iter().map(|r| r[0]).collect();
    replies.sort_unstable();
    assert_eq!(replies, (0..K as u8).collect::<Vec<_>>());
}

#[test]
fn sequential_calls_reuse_one_worker() {
    let (_net, a, b) = pair(RatpConfig::default());
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let seen = Arc::clone(&threads);
    b.register_service(WORK, move |req: Request| {
        seen.lock().unwrap().insert(std::thread::current().id());
        req.payload
    });
    for i in 0..100u8 {
        let reply = a.call(NodeId(2), WORK, Bytes::from(vec![i])).unwrap();
        assert_eq!(&reply[..], &[i]);
    }
    // A worker counts itself idle before its reply goes out, so the
    // next request always finds it.
    assert_eq!(threads.lock().unwrap().len(), 1);
}

#[test]
fn reused_worker_carries_no_stale_span_context() {
    let (_net, a, b) = pair(RatpConfig::default());
    let (tx, rx) = mpsc::channel::<(ThreadId, Option<u64>)>();
    let report = Mutex::new(tx.clone());
    b.register_service(WORK, move |req: Request| {
        let ctx = current_ctx().map(|c| c.trace_id);
        report
            .lock()
            .unwrap()
            .send((std::thread::current().id(), ctx))
            .unwrap();
        req.payload
    });
    let report = Mutex::new(tx);
    b.register_service(NOTE, move |_req: Request| {
        let ctx = current_ctx().map(|c| c.trace_id);
        report
            .lock()
            .unwrap()
            .send((std::thread::current().id(), ctx))
            .unwrap();
        Bytes::new()
    });

    {
        let _root = a.obs().root_span(0xC0FFEE, "test", "root", "");
        a.call(NodeId(2), WORK, Bytes::from_static(b"traced"))
            .unwrap();
    }
    let (first, traced) = rx.recv().unwrap();
    assert_eq!(
        traced,
        Some(0xC0FFEE),
        "the wire context reaches the handler"
    );

    assert!(current_ctx().is_none());
    a.call(NodeId(2), WORK, Bytes::from_static(b"plain"))
        .unwrap();
    let (second, plain) = rx.recv().unwrap();
    a.notify(NodeId(2), NOTE, Bytes::from_static(b"note"));
    let (third, noted) = rx.recv().unwrap();

    assert_eq!(
        (second, third),
        (first, first),
        "one worker served all three"
    );
    assert_eq!(
        plain, None,
        "a reused worker keeps no context from its last job"
    );
    assert_eq!(noted, None, "a context-free notify sees none");
}

/// Counts live worker threads of one test: a handler registers its
/// thread on first use; the thread-local destructor, which runs before
/// a join returns, unregisters it.
struct Live(Arc<AtomicUsize>);

impl Drop for Live {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

thread_local! {
    static LIVE: RefCell<Option<Live>> = const { RefCell::new(None) };
}

/// A server whose `WORK` handlers hold until `n` run at once, so the
/// pool grows to `n` workers, each counted in the returned gauge.
fn server_with_workers(n: usize) -> (Network, Arc<RatpNode>, Arc<RatpNode>, Arc<AtomicUsize>) {
    let (net, a, b) = pair(quiet());
    let live = Arc::new(AtomicUsize::new(0));
    let gauge = Arc::clone(&live);
    let barrier = Barrier::new(n);
    b.register_service(WORK, move |req: Request| {
        LIVE.with(|l| {
            l.borrow_mut().get_or_insert_with(|| {
                gauge.fetch_add(1, Ordering::SeqCst);
                Live(Arc::clone(&gauge))
            });
        });
        barrier.wait();
        req.payload
    });
    concurrent_calls(&a, n);
    assert_eq!(live.load(Ordering::SeqCst), n);
    (net, a, b, live)
}

#[test]
fn workers_exit_on_shutdown() {
    let (_net, _a, b, live) = server_with_workers(4);
    b.shutdown();
    assert_eq!(live.load(Ordering::SeqCst), 0);
    b.shutdown(); // idempotent
}

#[test]
fn workers_exit_on_drop() {
    let (_net, _a, b, live) = server_with_workers(4);
    // The last job may still be sending its reply; it holds a handle
    // until it returns.
    while Arc::strong_count(&b) > 1 {
        std::thread::yield_now();
    }
    let weak = Arc::downgrade(&b);
    drop(b);
    assert!(weak.upgrade().is_none());
    assert_eq!(live.load(Ordering::SeqCst), 0);
}
