//! Per-layer attribution: counter snapshots diffed across a window, host
//! probes of each layer's public calls, and virtual self times from the
//! program's span ring.

use crate::workload::{Bench, ACCOUNT_CLASS, GCP_OPTS, NULL_CLASS};
use bytes::Bytes;
use clouds::prelude::*;
use clouds_dsm::proto::{decode_shared, encode, DsmReply};
use clouds_obs::causal;
use clouds_ra::{Partition, PAGE_SIZE};
use clouds_store::{IntentPage, LogConfig, LogRecord, LogStore};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Every counter the attribution reads, summed over the cluster's nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Snapshot the registries, the network and the page caches.
    pub fn snapshot(bench: &Bench) -> Counters {
        let cluster = &bench.cluster;
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        for (_node, registry) in cluster.registries() {
            for (name, value) in registry.snapshot().counters {
                *map.entry(name).or_default() += value;
            }
        }
        let net = cluster.network().stats();
        map.insert("simnet.frames".into(), net.frames_sent);
        map.insert("simnet.bytes".into(), net.bytes_sent);
        map.insert("simnet.frames_dropped".into(), net.frames_dropped);
        for cs in cluster.computes() {
            let cache = cs.kernel().page_cache().stats();
            for (name, value) in [
                ("ra.cache.hits", cache.hits),
                ("ra.cache.misses", cache.misses),
                ("ra.cache.evictions", cache.evictions),
                ("ra.cache.prefetch_installs", cache.prefetch_installs),
                ("ra.cache.prefetch_hits", cache.prefetch_hits),
            ] {
                *map.entry(name.into()).or_default() += value;
            }
        }
        Counters(map)
    }

    /// `self − earlier`, name by name.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }

    /// A counter's value (0 when the cluster never registered it).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Host cost of one call into each layer, medians in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// RaTP echo call, 16-byte payload.
    pub ratp_call_us: f64,
    /// RaTP echo call, 8 KiB payload.
    pub ratp_call_8k_us: f64,
    /// Encode one DSM page grant.
    pub page_encode_us: f64,
    /// Decode one DSM page grant.
    pub page_decode_us: f64,
    /// One cold page read through a mapped address space.
    pub fault_us: f64,
    /// One log append of a page-sized 2PC intent record.
    pub append_us: f64,
    /// One uncontended gcp deposit.
    pub gcp_us: f64,
    /// One invocation of an empty entry point.
    pub null_invoke_us: f64,
}

/// Calls timed per probe, as (repetitions, calls per repetition): RaTP
/// echo with a 16-byte payload.
pub const RATP_REPS: (usize, usize) = (200, 1);
/// RaTP echo with an 8 KiB payload.
pub const RATP_8K_REPS: (usize, usize) = (100, 1);
/// Codec encode and decode, each.
pub const CODEC_REPS: (usize, usize) = (30, 200);
/// Cold page faults.
pub const FAULT_REPS: (usize, usize) = (64, 1);
/// Log appends.
pub const APPEND_REPS: (usize, usize) = (200, 1);
/// Null invocations.
pub const NULL_REPS: (usize, usize) = (200, 1);
/// Uncontended gcp deposits.
pub const GCP_REPS: (usize, usize) = (30, 1);

/// RaTP port of the benchmark's echo service.
const ECHO_PORT: u16 = 4242;

/// Median of `reps` timings of `f`, each over `batch` calls, in µs per call.
fn time_us((reps, batch): (usize, usize), mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// Time each layer's public call on the bench's cluster, after its window.
///
/// # Errors
///
/// Any probe call that fails.
pub fn probe(bench: &Bench) -> Result<Probes, String> {
    let cluster = &bench.cluster;
    let cs = cluster.compute(0);
    let ds = cluster.data_server(0);

    ds.ratp()
        .register_service(ECHO_PORT, |req: clouds_ratp::Request| req.payload);
    let mut ratp_err = None;
    let mut echo = |payload: &Bytes| {
        if let Err(e) = cs.ratp().call(ds.node_id(), ECHO_PORT, payload.clone()) {
            ratp_err = Some(format!("ratp echo: {e:?}"));
        }
    };
    let small = Bytes::from(vec![7u8; 16]);
    let page = Bytes::from(vec![7u8; PAGE_SIZE]);
    let ratp_call_us = time_us(RATP_REPS, || echo(&small));
    let ratp_call_8k_us = time_us(RATP_8K_REPS, || echo(&page));
    ds.ratp().unregister_service(ECHO_PORT);
    if let Some(e) = ratp_err {
        return Err(e);
    }

    let grant = DsmReply::Page {
        data: clouds_codec::PageBytes::copy_from_slice(&page),
        version: 3,
        zero_filled: false,
        grant_seq: 11,
    };
    let wire = encode(&grant);
    let page_encode_us = time_us(CODEC_REPS, || {
        black_box(encode(black_box(&grant)));
    });
    let page_decode_us = time_us(CODEC_REPS, || {
        black_box(decode_shared::<DsmReply>(black_box(&wire)).expect("grant decodes"));
    });

    let fault_us = probe_faults(cs)?;

    let log = LogStore::new(LogConfig::default());
    let mut txn = 0u64;
    let image = vec![5u8; PAGE_SIZE];
    let append_us = time_us(APPEND_REPS, || {
        txn += 1;
        log.append(LogRecord::TxnIntent {
            txn,
            pages: vec![IntentPage {
                seg: SysName::from_parts(0xBE7C, txn),
                page: 0,
                data: image.clone(),
            }],
        });
    });

    let null = cluster
        .create_object(NULL_CLASS, "perfbench-null-probe")
        .map_err(|e| format!("null probe object: {e}"))?;
    let unit = encode_args(&()).expect("unit encodes");
    let mut invoke_err = None;
    let mut nop = || {
        if let Err(e) = cs.invoke(null, "nop", &unit, None) {
            invoke_err = Some(format!("null invoke: {e}"));
        }
    };
    nop();
    let null_invoke_us = time_us(NULL_REPS, &mut nop);
    if let Some(e) = invoke_err {
        return Err(e);
    }

    let runtime = match &bench.runtime {
        Some(rt) => std::sync::Arc::clone(rt),
        None => clouds_consistency::ConsistencyRuntime::install(cluster),
    };
    let account = cluster
        .create_object(ACCOUNT_CLASS, "perfbench-gcp-probe")
        .map_err(|e| format!("gcp probe object: {e}"))?;
    let one = encode_args(&1u64).expect("u64 encodes");
    let mut gcp_err = None;
    let mut deposit = || {
        if let Err(e) = runtime.invoke(cs, OperationLabel::Gcp, account, "deposit", &one, &GCP_OPTS)
        {
            gcp_err = Some(format!("gcp probe: {e}"));
        }
    };
    deposit();
    let gcp_us = time_us(GCP_REPS, &mut deposit);
    if let Some(e) = gcp_err {
        return Err(e);
    }

    Ok(Probes {
        ratp_call_us,
        ratp_call_8k_us,
        page_encode_us,
        page_decode_us,
        fault_us,
        append_us,
        gcp_us,
        null_invoke_us,
    })
}

/// Cold single-page faults: a fresh segment mapped into a fresh address
/// space, read back to front so no read looks sequential to read-ahead.
fn probe_faults(cs: &clouds::ComputeServer) -> Result<f64, String> {
    const PAGES: u64 = FAULT_REPS.0 as u64;
    const BASE: u64 = 0x4000_0000;
    let seg = cs.kernel().new_sysname();
    let len = PAGES * PAGE_SIZE as u64;
    cs.dsm()
        .create_segment(seg, len)
        .map_err(|e| format!("fault probe segment: {e}"))?;
    let mut space = cs.kernel().new_address_space();
    space
        .map(BASE, seg, 0, len, false)
        .map_err(|e| format!("fault probe map: {e}"))?;
    let mut times = Vec::with_capacity(PAGES as usize);
    for page in (0..PAGES).rev() {
        let t = Instant::now();
        space
            .read(BASE + page * PAGE_SIZE as u64, 8)
            .map_err(|e| format!("fault probe read: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(space);
    cs.dsm()
        .destroy_segment(seg)
        .map_err(|e| format!("fault probe destroy: {e}"))?;
    times.sort_by(f64::total_cmp);
    Ok(times[times.len() / 2])
}

/// Virtual self time per layer, summed over the request trees whose
/// trace ids are in `traces`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VtSelf {
    /// Nanoseconds of self time by span layer.
    pub by_layer: BTreeMap<String, u64>,
    /// Sum of the request root spans' durations.
    pub roots_ns: u64,
    /// Request trees found in the ring.
    pub trees: u64,
}

/// Rebuild the request trees from the ring and charge each span's self
/// time (its duration less its children's) to its layer.
///
/// One serial client means a request's spans run one after another, so
/// every span is on the request's critical path; summing all children
/// (rather than following only the longest, as `TraceTree::critical_path`
/// does) keeps sequential siblings such as a gcp's invoke and its commit.
/// Overlapping children (a parallel fan-out) are over-subtracted and show
/// up in the residual.
///
/// # Errors
///
/// A ring that does not parse, or causal edges that do not check out.
pub fn vt_self_times(bench: &Bench, traces: &BTreeSet<u64>) -> Result<VtSelf, String> {
    let events = causal::parse_jsonl(&bench.cluster.trace_sink().canonical_jsonl())?;
    let wanted: Vec<causal::ParsedEvent> = events
        .into_iter()
        .filter(|e| traces.contains(&e.trace))
        .collect();
    let (forest, report) = causal::build_forest(&wanted);
    if !report.orphans.is_empty() || !report.duplicates.is_empty() || !report.cycles.is_empty() {
        return Err(format!(
            "broken trace trees: {}",
            report.findings().join("; ")
        ));
    }
    let mut out = VtSelf::default();
    for tree in forest.trees.values() {
        out.trees += tree.roots.len() as u64;
        for &root in &tree.roots {
            out.roots_ns += tree.spans[&root].dur.unwrap_or(0);
        }
        for span in tree.spans.values() {
            let children: u64 = tree
                .children
                .get(&span.span)
                .into_iter()
                .flatten()
                .filter_map(|id| tree.spans.get(id))
                .map(|c| c.dur.unwrap_or(0))
                .sum();
            *out.by_layer.entry(span.layer.clone()).or_default() +=
                span.dur.unwrap_or(0).saturating_sub(children);
        }
    }
    Ok(out)
}
