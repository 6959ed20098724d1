//! The per-node handler pool: elastic, so a job never waits behind a
//! running handler.
//!
//! Handlers block and nest — a DSM recall, an invocation, a 2PC
//! participant may each call other nodes, and those calls may come back
//! to this node — so a fixed-size pool could deadlock. Instead a worker
//! whose handler has returned parks on the pool's job channel and counts
//! itself idle; dispatch hands a job to the channel only after claiming
//! one of those idle workers, and spawns a fresh worker otherwise.
//! Every queued job therefore has a parked worker waiting for it, and
//! the pool grows to the node's peak handler concurrency and stays
//! there. There is no size knob.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One unit of work: a handler invocation and whatever follows it.
pub(crate) type Job = Box<dyn FnOnce(&Worker) + Send>;

const BUSY: u8 = 0;
const IDLE: u8 = 1;
const STOPPED: u8 = 2;

/// A worker as seen by the job it is running.
pub(crate) struct Worker {
    state: AtomicU8,
    idle: Arc<AtomicUsize>,
}

impl Worker {
    /// Count this worker idle. A job calls this once its handler has
    /// returned and only non-blocking work (sending the reply) is left,
    /// so the request that reply provokes finds the worker available.
    /// Later calls are no-ops; the worker calls it itself after every
    /// job.
    pub(crate) fn release(&self) {
        if self
            .state
            .compare_exchange(BUSY, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.idle.fetch_add(1, Ordering::SeqCst);
        }
    }
}

struct PoolState {
    /// `None` once shut down: parked workers see the channel disconnect.
    jobs: Option<Sender<Job>>,
    workers: Vec<(JoinHandle<()>, Arc<Worker>)>,
}

/// An elastic pool of handler threads (see the module docs).
pub(crate) struct WorkerPool {
    name: String,
    rx: Receiver<Job>,
    /// Workers counted idle and not yet claimed by a dispatch.
    idle: Arc<AtomicUsize>,
    state: Mutex<PoolState>,
}

impl WorkerPool {
    /// An empty pool; worker threads are named `{name}-w`.
    pub(crate) fn new(name: String) -> WorkerPool {
        let (tx, rx) = unbounded();
        WorkerPool {
            name,
            rx,
            idle: Arc::new(AtomicUsize::new(0)),
            state: Mutex::new(PoolState {
                jobs: Some(tx),
                workers: Vec::new(),
            }),
        }
    }

    /// Run `job` on an idle worker, or on a new one if none is idle.
    /// After [`WorkerPool::shutdown`] the job is dropped unrun.
    pub(crate) fn execute(&self, job: Job) {
        let claimed = self
            .idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        {
            let state = self.state.lock();
            let Some(jobs) = &state.jobs else { return };
            if claimed {
                // lint:allow(lock-across-call) — the job channel is unbounded; send never blocks.
                let _ = jobs.send(job);
                return;
            }
        }
        let worker = Arc::new(Worker {
            state: AtomicU8::new(BUSY),
            idle: Arc::clone(&self.idle),
        });
        let rx = self.rx.clone();
        let me = Arc::clone(&worker);
        let handle = std::thread::Builder::new()
            .name(format!("{}-w", self.name))
            .spawn(move || work(job, &me, &rx))
            .expect("spawn ratp worker thread");
        let mut state = self.state.lock();
        // Once shut down, the worker exits after this job on its own.
        if state.jobs.is_some() {
            state.workers.push((handle, worker));
        }
    }

    /// Stop the pool: drop queued jobs, let every worker exit once it is
    /// idle, and join the ones already idle. A worker still inside a
    /// handler is not waited for (its handler may be blocked on a peer
    /// that is shutting down too); it exits when the handler returns.
    /// Idempotent.
    pub(crate) fn shutdown(&self) {
        let (jobs, workers) = {
            let mut state = self.state.lock();
            (state.jobs.take(), std::mem::take(&mut state.workers))
        };
        drop(jobs);
        while self.rx.try_recv().is_ok() {}
        let me = std::thread::current().id();
        for (handle, worker) in workers {
            let parked = worker
                .state
                .compare_exchange(IDLE, STOPPED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            if parked && handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

fn work(first: Job, worker: &Worker, rx: &Receiver<Job>) {
    let mut job = first;
    loop {
        job(worker);
        worker.release();
        let Ok(next) = rx.recv() else { return };
        if worker
            .state
            .compare_exchange(IDLE, BUSY, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // stopped while parked
        }
        job = next;
    }
}
