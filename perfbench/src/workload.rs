//! The three workloads: their object classes, cluster set-up, warm-up and
//! the open-loop request driver with its output checks.

use crate::gen::{Mix, Op, Request, RequestGen};
use clouds::prelude::*;
use clouds::ComputeServer;
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_ra::PAGE_SIZE;
use clouds_simnet::{VirtualClock, Vt};
use std::sync::Arc;
use std::time::Instant;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot key-value sessions: invocation dispatch and page-cache hits.
    KvHot,
    /// gcp-thread deposits: locks, two-phase commit and the log.
    Ledger2pc,
    /// A working set larger than the page cache on two compute servers.
    DsmSpill,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [Workload::KvHot, Workload::Ledger2pc, Workload::DsmSpill];

/// Page objects in `dsm_spill` and their data pages: 8 × 160 pages is
/// 1280 pages, 2.5 × a compute server's default 512-frame page cache.
pub const SPILL_OBJECTS: usize = 8;
/// Data pages per `dsm_spill` object.
pub const SPILL_PAGES: u32 = 160;

/// What a workload runs and how much of it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Compute servers booted.
    pub computes: usize,
    /// Data servers booted.
    pub datas: usize,
    /// Request stream shape.
    pub mix: Mix,
    /// Offered load, requests per virtual second.
    pub rate: f64,
    /// Zipf exponent of key popularity.
    pub skew: f64,
    /// Requests in the fixed window the virtual tier and the per-layer
    /// counts are taken over.
    pub window: u64,
    /// Requests at the start of the window that the host tier is taken
    /// over: the first episode of an end-to-end run runs the whole
    /// window, and every later one replays only these.
    pub host_window: u64,
    /// Requests in the traced run's window, which the per-layer counts
    /// and self times are taken over: the first `trace_window` requests
    /// of the same stream.
    pub trace_window: u64,
    /// Warm-up requests per warm-up round.
    pub warm_round: u64,
    /// Warm-up rounds at most; warm-up stops earlier once pages granted
    /// per request level off between rounds.
    pub warm_rounds_max: u32,
}

impl Workload {
    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// Sizes and rates.
    pub fn spec(self) -> Spec {
        match self {
            Workload::KvHot => Spec {
                name: "kv_hot",
                computes: 1,
                datas: 1,
                mix: Mix::Kv {
                    objects: 64,
                    get_frac: 0.7,
                },
                rate: 40.0,
                skew: 0.99,
                window: 60000,
                host_window: 60000,
                trace_window: 5000,
                warm_round: 500,
                warm_rounds_max: 1,
            },
            Workload::Ledger2pc => Spec {
                name: "ledger_2pc",
                computes: 1,
                datas: 2,
                mix: Mix::Ledger { objects: 16 },
                rate: 8.0,
                skew: 0.99,
                window: 24000,
                host_window: 2000,
                trace_window: 2000,
                warm_round: 200,
                warm_rounds_max: 1,
            },
            Workload::DsmSpill => Spec {
                name: "dsm_spill",
                computes: 2,
                datas: 1,
                mix: Mix::Spill {
                    objects: SPILL_OBJECTS,
                    pages: SPILL_PAGES,
                    read_frac: 0.5,
                    computes: 2,
                },
                rate: 10.0,
                skew: 0.5,
                window: 20000,
                host_window: 5000,
                trace_window: 3000,
                warm_round: 1000,
                warm_rounds_max: 12,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Object classes
// ---------------------------------------------------------------------

/// One slot per session object.
struct Session;

impl ObjectCode for Session {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "get" => encode_result(&ctx.persistent().read_u64(0)?),
            "put" => {
                let v: u64 = decode_args(args)?;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&())
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Journal slots of an account: a ring of running balances that starts
/// right after the balance and crosses from page 0 into page 1 halfway,
/// so a deposit commits one dirty page or two depending on where the
/// account's journal stands.
const JOURNAL_SLOTS: u64 = 2046;

/// Offset of the journal slot a deposit that brings the balance to
/// `balance` (≥ 1) writes.
fn journal_at(balance: u64) -> u64 {
    8 + 8 * ((balance - 1) % JOURNAL_SLOTS)
}

/// A bank account whose deposits run as gcp-threads: a balance plus a
/// journal ring of running balances.
struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, v)?;
                ctx.persistent().write_u64(journal_at(v), v)?;
                encode_result(&v)
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            // The balance and the newest journal entry, which must agree.
            "audit" => {
                let v = ctx.persistent().read_u64(0)?;
                let last = if v == 0 {
                    0
                } else {
                    ctx.persistent().read_u64(journal_at(v))?
                };
                encode_result(&(v, last))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "deposit" => OperationLabel::Gcp,
            _ => OperationLabel::S,
        }
    }

    fn data_segment_len(&self) -> u64 {
        2 * PAGE_SIZE as u64
    }
}

/// A multi-page data segment with one counter at the start of each page.
struct Pages;

impl ObjectCode for Pages {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        let at = |page: u32| u64::from(page) * PAGE_SIZE as u64;
        match entry {
            "read" => {
                let page: u32 = decode_args(args)?;
                encode_result(&ctx.persistent().read_u64(at(page))?)
            }
            "bump" => {
                let page: u32 = decode_args(args)?;
                let v = ctx.persistent().read_u64(at(page))? + 1;
                ctx.persistent().write_u64(at(page), v)?;
                encode_result(&v)
            }
            "sum" => {
                let mut sum = 0u64;
                for page in 0..SPILL_PAGES {
                    sum += ctx.persistent().read_u64(at(page))?;
                }
                encode_result(&sum)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn data_segment_len(&self) -> u64 {
        u64::from(SPILL_PAGES) * PAGE_SIZE as u64
    }
}

/// An entry point that does nothing: the cost of invocation itself.
struct Null;

impl ObjectCode for Null {
    fn dispatch(&self, entry: &str, _ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
        match entry {
            "nop" => encode_result(&()),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Class names the benchmark registers on every cluster.
pub const NULL_CLASS: &str = "perfbench.null";
/// Account class name (also used by the gcp probe).
pub const ACCOUNT_CLASS: &str = "perfbench.account";

/// gcp retry policy: generous, so that a deposit fails only when the
/// system is broken, not when it is slow.
pub const GCP_OPTS: CpOptions = CpOptions {
    lock_wait_ms: 500,
    max_retries: 40,
};

// ---------------------------------------------------------------------
// A prepared workload
// ---------------------------------------------------------------------

/// What the outputs must add up to, tracked as requests complete.
#[derive(Debug, Clone)]
enum Expect {
    /// Last value put per session; `None` after a failed put, whose
    /// effect is unknown.
    Kv(Vec<Option<u64>>),
    /// Deposits that committed.
    Ledger { committed: u64 },
    /// Bumps that returned, and bumps that failed (each may or may not
    /// have landed).
    Spill { done: u64, unknown: u64 },
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Virtual time from intended arrival to completion.
    pub vt_latency: u64,
    /// Virtual time from issue to completion (no queueing).
    pub vt_service: u64,
    /// Host nanoseconds spent in the call.
    pub host_ns: u64,
    /// Whether the call returned without error.
    pub ok: bool,
}

/// A booted, populated and warmed cluster ready for the timed window.
pub struct Bench {
    /// Workload sizes.
    pub spec: Spec,
    /// The system under test.
    pub cluster: Cluster,
    /// The consistency runtime, on workloads that use gcp-threads.
    pub runtime: Option<Arc<ConsistencyRuntime>>,
    objects: Vec<SysName>,
    clocks: Vec<Arc<VirtualClock>>,
    expect: Expect,
    seed: u64,
    issued: u64,
    /// Pages granted per request in each warm-up round.
    pub warm_grants: Vec<f64>,
}

impl Bench {
    /// Boot, create the objects and warm up. Everything here is charged
    /// to set-up time.
    ///
    /// # Errors
    ///
    /// A failed boot, creation or warm-up request, or a wrong answer.
    pub fn setup(spec: Spec, seed: u64) -> Result<Bench, String> {
        let cluster = Cluster::builder()
            .compute_servers(spec.computes)
            .data_servers(spec.datas)
            .workstations(0)
            .seed(seed)
            .build()
            .map_err(|e| format!("boot: {e}"))?;
        let reg =
            |name: &str, r: Result<(), CloudsError>| r.map_err(|e| format!("register {name}: {e}"));
        reg(NULL_CLASS, cluster.register_class(NULL_CLASS, Null))?;
        reg(
            ACCOUNT_CLASS,
            cluster.register_class(ACCOUNT_CLASS, Account),
        )?;
        let (class, count, expect, runtime) = match spec.mix {
            Mix::Kv { objects, .. } => {
                reg(
                    "session",
                    cluster.register_class("perfbench.session", Session),
                )?;
                (
                    "perfbench.session",
                    objects,
                    Expect::Kv(vec![Some(0); objects]),
                    None,
                )
            }
            Mix::Ledger { objects } => (
                ACCOUNT_CLASS,
                objects,
                Expect::Ledger { committed: 0 },
                Some(ConsistencyRuntime::install(&cluster)),
            ),
            Mix::Spill { objects, .. } => {
                reg("pages", cluster.register_class("perfbench.pages", Pages))?;
                (
                    "perfbench.pages",
                    objects,
                    Expect::Spill {
                        done: 0,
                        unknown: 0,
                    },
                    None,
                )
            }
        };
        let objects = (0..count)
            .map(|k| {
                cluster
                    .create_object(class, &format!("{}-{k}", spec.name))
                    .map_err(|e| format!("create object {k}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let clocks = cluster
            .computes()
            .iter()
            .map(|cs| {
                cluster
                    .network()
                    .clock(cs.node_id())
                    .expect("compute server has a clock")
            })
            .collect();
        let mut bench = Bench {
            spec,
            cluster,
            runtime,
            objects,
            clocks,
            expect,
            seed,
            issued: 0,
            warm_grants: Vec::new(),
        };
        bench.warm_up()?;
        Ok(bench)
    }

    /// Warm until the page traffic per request levels off: a separate
    /// seeded stream, rounds of `warm_round` requests, stopping when pages
    /// granted per request moved by less than 5% between two rounds.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut gen = RequestGen::new(
            self.seed ^ 0x003A_530F_F1CE,
            self.spec.mix,
            self.spec.rate,
            self.spec.skew,
        );
        for _ in 0..self.spec.warm_rounds_max {
            let before = self.pages_granted();
            let origin = self.origin();
            for _ in 0..self.spec.warm_round {
                let req = gen.next_request();
                self.issue(&req, origin)?;
            }
            let per_op = (self.pages_granted() - before) as f64 / self.spec.warm_round as f64;
            let settled = self
                .warm_grants
                .last()
                .is_some_and(|&prev| (per_op - prev).abs() <= 0.05 * prev.max(per_op));
            self.warm_grants.push(per_op);
            if settled {
                break;
            }
        }
        Ok(())
    }

    fn pages_granted(&self) -> u64 {
        self.cluster
            .computes()
            .iter()
            .map(|cs| cs.dsm().stats().pages_granted)
            .sum()
    }

    /// The measured request stream of this run.
    pub fn stream(&self) -> RequestGen {
        RequestGen::new(self.seed, self.spec.mix, self.spec.rate, self.spec.skew)
    }

    /// Virtual origin for a new window: the latest compute-server clock,
    /// so the first arrival is never in any server's past.
    pub fn origin(&self) -> Vt {
        self.clocks
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(Vt::ZERO)
    }

    /// Issue one request, open-loop in virtual time: advance the serving
    /// compute server's clock to the intended arrival if it is idle, and
    /// charge latency from that arrival.
    ///
    /// # Errors
    ///
    /// A wrong answer. A call that returns an error is not one: it comes
    /// back as a sample with `ok == false`.
    pub fn issue(&mut self, req: &Request, origin: Vt) -> Result<Sample, String> {
        let cs: &ComputeServer = self.cluster.compute(req.compute);
        let clock = &self.clocks[req.compute];
        let arrival = origin + Vt::from_nanos(req.arrival_ns);
        let issued_at = clock.advance_to(arrival);
        let obj = self.objects[req.object];
        let trace_id = clouds_obs::derive_trace_id(self.seed, self.issued);
        self.issued += 1;
        // The root span opens at the intended arrival and parents the
        // invocation through the ambient context: one trace tree per request.
        let span =
            cs.ratp()
                .obs()
                .root_span_at(arrival, trace_id, "bench", "request", self.spec.name);
        let start = Instant::now();
        let result = match req.op {
            Op::Get => cs.invoke(obj, "get", &encode_args(&()).expect("unit encodes"), None),
            Op::Put(v) => cs.invoke(obj, "put", &encode_args(&v).expect("u64 encodes"), None),
            Op::Deposit => self
                .runtime
                .as_ref()
                .expect("ledger has a consistency runtime")
                .invoke(
                    cs,
                    OperationLabel::Gcp,
                    obj,
                    "deposit",
                    &encode_args(&1u64).expect("u64 encodes"),
                    &GCP_OPTS,
                ),
            Op::Read(page) => {
                cs.invoke(obj, "read", &encode_args(&page).expect("u32 encodes"), None)
            }
            Op::Bump(page) => {
                cs.invoke(obj, "bump", &encode_args(&page).expect("u32 encodes"), None)
            }
        };
        let host_ns = start.elapsed().as_nanos() as u64;
        drop(span);
        let done = clock.now();
        self.check(req, result.as_deref().ok())?;
        Ok(Sample {
            vt_latency: done.saturating_sub(arrival).as_nanos(),
            vt_service: done.saturating_sub(issued_at).as_nanos(),
            host_ns,
            ok: result.is_ok(),
        })
    }

    /// Check one reply against the expected state and fold the request
    /// into it. `reply` is `None` when the call failed.
    fn check(&mut self, req: &Request, reply: Option<&[u8]>) -> Result<(), String> {
        let decode = |bytes: &[u8]| -> Result<u64, String> {
            clouds_codec::from_bytes::<u64>(bytes).map_err(|e| format!("undecodable reply: {e}"))
        };
        match (&mut self.expect, req.op) {
            (Expect::Kv(slots), Op::Get) => {
                if let (Some(bytes), Some(want)) = (reply, slots[req.object]) {
                    let got = decode(bytes)?;
                    if got != want {
                        return Err(format!(
                            "session {} read {got}, last put was {want}",
                            req.object
                        ));
                    }
                }
            }
            (Expect::Kv(slots), Op::Put(v)) => slots[req.object] = reply.map(|_| v),
            (Expect::Ledger { committed }, Op::Deposit) => *committed += u64::from(reply.is_some()),
            (Expect::Spill { .. }, Op::Read(_)) => {
                if let Some(bytes) = reply {
                    decode(bytes)?;
                }
            }
            (Expect::Spill { done, unknown }, Op::Bump(_)) => match reply {
                Some(_) => *done += 1,
                None => *unknown += 1,
            },
            (_, op) => return Err(format!("{op:?} does not belong to {}", self.spec.name)),
        }
        Ok(())
    }

    /// Read every object back and check the totals the run implies.
    ///
    /// # Errors
    ///
    /// A failed read-back or a total that does not add up.
    pub fn verify(&self) -> Result<(), String> {
        let cs = self.cluster.compute(0);
        let read = |obj: SysName, entry: &str| -> Result<u64, String> {
            let bytes = cs
                .invoke(obj, entry, &encode_args(&()).expect("unit encodes"), None)
                .map_err(|e| format!("read-back {entry}: {e}"))?;
            clouds_codec::from_bytes::<u64>(&bytes).map_err(|e| format!("read-back {entry}: {e}"))
        };
        match &self.expect {
            Expect::Kv(slots) => {
                for (k, want) in slots.iter().enumerate() {
                    let got = read(self.objects[k], "get")?;
                    if want.is_some_and(|w| w != got) {
                        return Err(format!("session {k} holds {got}, last put was {want:?}"));
                    }
                }
            }
            Expect::Ledger { committed } => {
                let mut total = 0;
                for (k, &obj) in self.objects.iter().enumerate() {
                    let bytes = cs
                        .invoke(obj, "audit", &encode_args(&()).expect("unit encodes"), None)
                        .map_err(|e| format!("read-back audit: {e}"))?;
                    let (balance, last): (u64, u64) = clouds_codec::from_bytes(&bytes)
                        .map_err(|e| format!("read-back audit: {e}"))?;
                    if balance != last {
                        return Err(format!(
                            "account {k} holds {balance}, its journal ends at {last}"
                        ));
                    }
                    total += balance;
                }
                if total != *committed {
                    return Err(format!(
                        "balances sum to {total}, {committed} deposits committed"
                    ));
                }
            }
            Expect::Spill { done, unknown } => {
                let mut total = 0;
                for &obj in &self.objects {
                    total += read(obj, "sum")?;
                }
                if total < *done || total > done + unknown {
                    return Err(format!(
                        "page counters sum to {total}, {done} bumps returned ({unknown} failed)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Requests issued so far, warm-up included (the next trace sequence).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Trace id of the `seq`-th request issued on this bench.
    pub fn trace_id(&self, seq: u64) -> u64 {
        clouds_obs::derive_trace_id(self.seed, seq)
    }
}
