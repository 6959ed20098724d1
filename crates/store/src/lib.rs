//! `clouds-store` — the data server's stable store as a
//! **segment-structured append-only log** (§5.2's single-level store,
//! made recoverable for real).
//!
//! Until this crate existed, a data server's durability was simulated
//! by keeping the process-wide `SegmentStore` map alive across a
//! "crash". Clouds' storage story is stronger than that: segments are
//! the *only* persistence abstraction, and a data server that crashes
//! must come back with exactly the committed state. This crate earns
//! those semantics the way real object stores do — from a recoverable
//! log:
//!
//! * The only durable state is [`LogStore`]'s **media**: a list of
//!   fixed-size log segments (byte buffers, [`LogConfig::segment_bytes`]
//!   each, the layout Pelikan's seg cache popularized) holding
//!   checksummed, length-prefixed records. Everything else — the
//!   `(segment, page) → latest record` index, the live-segment table,
//!   the pending-intent map — is volatile and rebuilt by replay.
//! * [`LogStore::append`] serializes a [`LogRecord`] into the open log
//!   segment, sealing it and opening a fresh one when full.
//! * [`LogStore::crash`] models the power failure: every volatile
//!   structure is dropped on the floor; only the media bytes remain.
//! * [`LogStore::replay`] rescans the media record by record, verifying
//!   each record's checksum, and folds the survivors into a
//!   [`ReplayState`]: materialized pages (highest version wins),
//!   pending two-phase-commit intents (intent without a matching
//!   resolution), the commit-outcome set, and replica/epoch metadata.
//!   A torn final record — a tail truncated mid-write — fails its
//!   length or checksum test and is **dropped, not applied**.
//! * [`LogStore::compact`] rewrites the live records into fresh log
//!   segments and discards the dead ones (superseded page versions,
//!   resolved intents, destroyed segments). Replay of the compacted
//!   log is equivalent to replay of the original — a property pinned
//!   by this crate's proptest suite.
//!
//! Replay order-insensitivity is by construction, not by luck: pages
//! carry monotonically increasing versions (highest wins), intents pair
//! with resolutions by transaction id, replica configs carry epochs
//! (highest wins), and destruction beats creation outright — sysnames
//! are never reused, so "a destroy record exists" means the segment is
//! gone no matter where the record sits.
//!
//! # Cost model
//!
//! Appends charge no virtual time: the pre-existing store writes were
//! already free (the write-behind is assumed to overlap with the next
//! request, as a battery-backed controller would), and keeping them
//! free preserves every calibrated number in EXPERIMENTS.md. Replay
//! *is* on the critical recovery path, so [`replay_cost`] models a
//! 1988-class disk scanning the log sequentially: one seek per log
//! segment plus ~1 MB/s of streaming reads. The data server charges
//! its virtual clock with this cost and records it in the
//! `store.replay` histogram (see OBS_SCHEMA.md).
//!
//! ```
//! use clouds_ra::{SysName, PAGE_SIZE};
//! use clouds_store::{LogConfig, LogRecord, LogStore};
//!
//! let store = LogStore::new(LogConfig::default());
//! let seg = SysName::from_parts(1, 1);
//! store.append(LogRecord::SegmentCreate { seg, len: PAGE_SIZE as u64 });
//! store.append(LogRecord::PageWrite { seg, page: 0, version: 1, data: vec![7; PAGE_SIZE] });
//!
//! store.crash(); // power fails: only the media bytes survive
//! let replayed = store.replay();
//! assert_eq!(replayed.state.segments[&seg].pages[&0].1[0], 7);
//! ```

#![forbid(unsafe_code)]

use clouds_obs::{Counter, NodeObs};
use clouds_ra::SysName;
use clouds_simnet::Vt;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Default size of one log segment: 256 KiB holds ~31 page records.
pub const LOG_SEGMENT_BYTES: usize = 256 * 1024;

/// Bytes of framing before each record payload: a `u32` length and a
/// `u32` FNV-1a checksum of the payload.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Virtual-time cost of the seek to the start of each log segment
/// during replay (1988-class disk).
pub const REPLAY_SEEK: Vt = Vt::from_millis(10);

/// Virtual-time cost per byte streamed during replay: 1 µs/byte, i.e.
/// the ~1 MB/s sequential bandwidth of the era's SCSI disks.
pub const REPLAY_NS_PER_BYTE: u64 = 1_000;

/// Virtual time a data server spends replaying `bytes` of log spread
/// over `log_segments` log segments: one seek per segment plus the
/// sequential streaming cost. This is what `DataServer::restart`
/// charges its clock and records in the `store.replay` histogram.
pub fn replay_cost(bytes: u64, log_segments: u64) -> Vt {
    REPLAY_SEEK.mul(log_segments) + Vt::from_nanos(REPLAY_NS_PER_BYTE).mul(bytes)
}

/// One page image staged by a two-phase-commit prepare, as carried in a
/// [`LogRecord::TxnIntent`] write-ahead record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentPage {
    /// Segment the staged write targets.
    pub seg: SysName,
    /// Page index within the segment.
    pub page: u32,
    /// The staged bytes (at most one page).
    pub data: Vec<u8>,
}

/// The durable record of which nodes hold a segment's replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRecord {
    /// Raw node ids, primary first.
    pub members: Vec<u32>,
    /// Configuration epoch; higher epochs supersede lower ones.
    pub epoch: u64,
}

/// One record in the log. Every durable mutation of a data server is
/// exactly one append of one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A segment was created with `len` bytes.
    SegmentCreate {
        /// The new segment's sysname.
        seg: SysName,
        /// Its length in bytes.
        len: u64,
    },
    /// A segment was destroyed. Destruction beats creation regardless
    /// of record order: sysnames are never reused.
    SegmentDestroy {
        /// The destroyed segment.
        seg: SysName,
    },
    /// A page reached version `version`. Replay keeps the highest
    /// version per `(seg, page)`, which is what makes it insensitive
    /// to record order within a log segment.
    PageWrite {
        /// Owning segment.
        seg: SysName,
        /// Page index within the segment.
        page: u32,
        /// Monotonic per-page version assigned by the store.
        version: u64,
        /// The full page image.
        data: Vec<u8>,
    },
    /// Write-ahead intent: transaction `txn` staged these page images
    /// at prepare time and this participant voted to commit.
    TxnIntent {
        /// Transaction id.
        txn: u64,
        /// The staged images.
        pages: Vec<IntentPage>,
    },
    /// Transaction `txn`'s staged intent was resolved (committed pages
    /// were logged as `PageWrite`s, or the abort dropped them); the
    /// intent is no longer pending.
    TxnResolved {
        /// Transaction id.
        txn: u64,
    },
    /// The commit coordinator durably decided *commit* for `txn`
    /// (the outcome registry's record; presumed abort otherwise).
    TxnOutcome {
        /// Transaction id.
        txn: u64,
    },
    /// The replica set of `seg` changed (creation, adoption, or
    /// promotion). Replay keeps the highest epoch.
    ReplicaConfig {
        /// The replicated segment.
        seg: SysName,
        /// The new configuration.
        config: ReplicaRecord,
    },
}

/// Tuning knobs for a [`LogStore`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Capacity of one log segment; a record larger than this gets a
    /// private oversized segment.
    pub segment_bytes: usize,
    /// Automatically compact when the dead bytes in the media exceed
    /// half of it and the media exceeds `compact_min_bytes`.
    pub auto_compact: bool,
    /// Minimum media size before auto-compaction considers running.
    pub compact_min_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            segment_bytes: LOG_SEGMENT_BYTES,
            auto_compact: true,
            compact_min_bytes: 4 * LOG_SEGMENT_BYTES as u64,
        }
    }
}

/// Everything replay reconstructed about one stored segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySegment {
    /// Segment length in bytes.
    pub len: u64,
    /// Materialized pages: index → (version, image). Pages never
    /// written stay zero-filled and are absent here.
    pub pages: BTreeMap<u32, (u64, Vec<u8>)>,
}

/// The state a data server reconstructs from the log alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayState {
    /// Live segments (created, not destroyed) and their pages.
    pub segments: BTreeMap<SysName, ReplaySegment>,
    /// Prepared-but-unresolved transactions and their staged images;
    /// the 2PC participant re-stages these and resolves them against
    /// the outcome registry (presumed abort).
    pub pending_intents: BTreeMap<u64, Vec<IntentPage>>,
    /// Transactions the local outcome registry durably committed.
    pub outcomes: BTreeSet<u64>,
    /// Replica configuration per segment, highest epoch.
    pub replicas: BTreeMap<SysName, ReplicaRecord>,
}

/// A [`ReplayState`] plus the scan statistics of the pass that built it.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The reconstructed state.
    pub state: ReplayState,
    /// Valid records scanned.
    pub records: u64,
    /// Media bytes scanned (including framing).
    pub bytes: u64,
    /// Log segments scanned.
    pub log_segments: u64,
    /// Torn tails detected and dropped (length/checksum mismatches at
    /// the end of a log segment's valid prefix).
    pub torn_dropped: u64,
}

/// Counters describing a [`LogStore`]'s lifetime so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended.
    pub appends: u64,
    /// Media bytes appended (including framing).
    pub append_bytes: u64,
    /// Log segments sealed because they filled up.
    pub segments_sealed: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Current media size in bytes.
    pub media_bytes: u64,
    /// Current number of log segments (sealed + open).
    pub media_segments: u64,
    /// Estimated dead bytes awaiting compaction (superseded page
    /// versions, resolved intents, destroyed segments).
    pub dead_bytes: u64,
}

/// Obs counters, resolved once at construction; metric names are
/// literals here and listed in OBS_SCHEMA.md (the `obs-schema` lint
/// keeps the two in sync).
struct StoreMetrics {
    appends: Arc<Counter>,
    append_bytes: Arc<Counter>,
    segments_sealed: Arc<Counter>,
    compactions: Arc<Counter>,
    replay_records: Arc<Counter>,
    torn_dropped: Arc<Counter>,
}

impl StoreMetrics {
    fn new(obs: &NodeObs) -> StoreMetrics {
        StoreMetrics {
            appends: obs.counter("store.appends"),
            append_bytes: obs.counter("store.append_bytes"),
            segments_sealed: obs.counter("store.segments_sealed"),
            compactions: obs.counter("store.compactions"),
            replay_records: obs.counter("store.replay.records"),
            torn_dropped: obs.counter("store.replay.torn_dropped"),
        }
    }
}

/// Size of the latest record for a `(seg, page)` in the media, for
/// dead-byte accounting when a newer version supersedes it.
#[derive(Debug, Clone, Copy)]
struct RecordPtr {
    framed_len: u64,
}

/// Volatile state: the index and live-set caches that a crash destroys
/// and replay rebuilds. Byte-for-byte derivable from the media.
#[derive(Default)]
struct VolatileIndex {
    /// (seg, page) → latest record, for dead-byte accounting.
    pages: BTreeMap<(SysName, u32), RecordPtr>,
    /// Live segment lengths.
    creates: BTreeMap<SysName, u64>,
    /// Pending intents: txn → framed length of the intent record.
    intents: BTreeMap<u64, u64>,
    /// Estimated dead bytes in the media.
    dead_bytes: u64,
}

struct LogInner {
    /// The durable media: sealed log segments plus the open tail.
    media: Vec<Vec<u8>>,
    /// Volatile; `None` after a crash until replay rebuilds it.
    index: Option<VolatileIndex>,
    stats: StoreStats,
}

/// Receipt that a record reached the log media.
///
/// Only [`LogStore::append`] mints one: the field is private to this
/// crate, so a function whose signature promises a `Logged` cannot
/// return without appending. Data-server paths that acknowledge a
/// durable mutation carry this receipt to the ack, which makes the
/// write-ahead discipline a property of their types.
#[derive(Debug)]
pub struct Logged {
    _minted_by_append: (),
}

/// The append-only log store. One per data server; the simulated disk.
pub struct LogStore {
    cfg: LogConfig,
    inner: Mutex<LogInner>,
    metrics: Option<StoreMetrics>,
}

/// FNV-1a over the payload; cheap, deterministic, and plenty to catch
/// a torn tail (we are detecting truncation, not adversaries).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn put_sysname(out: &mut Vec<u8>, s: SysName) {
    let v = s.as_u128();
    out.extend_from_slice(&((v >> 64) as u64).to_le_bytes());
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let b = buf.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let b = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

fn get_sysname(buf: &[u8], at: &mut usize) -> Option<SysName> {
    let hi = get_u64(buf, at)?;
    let lo = get_u64(buf, at)?;
    Some(SysName::from_parts(hi, lo))
}

const TAG_CREATE: u8 = 1;
const TAG_DESTROY: u8 = 2;
const TAG_PAGE: u8 = 3;
const TAG_INTENT: u8 = 4;
const TAG_RESOLVED: u8 = 5;
const TAG_OUTCOME: u8 = 6;
const TAG_REPLICAS: u8 = 7;

impl LogRecord {
    /// Serialize the payload (tag byte + fixed-width little-endian
    /// fields + raw page bytes). Hand-rolled rather than codec-based:
    /// the layout *is* the on-media format and must stay stable.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            LogRecord::SegmentCreate { seg, len } => {
                out.push(TAG_CREATE);
                put_sysname(&mut out, *seg);
                out.extend_from_slice(&len.to_le_bytes());
            }
            LogRecord::SegmentDestroy { seg } => {
                out.push(TAG_DESTROY);
                put_sysname(&mut out, *seg);
            }
            LogRecord::PageWrite {
                seg,
                page,
                version,
                data,
            } => {
                out.reserve(data.len() + 40);
                out.push(TAG_PAGE);
                put_sysname(&mut out, *seg);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            LogRecord::TxnIntent { txn, pages } => {
                out.push(TAG_INTENT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    put_sysname(&mut out, p.seg);
                    out.extend_from_slice(&p.page.to_le_bytes());
                    out.extend_from_slice(&(p.data.len() as u32).to_le_bytes());
                    out.extend_from_slice(&p.data);
                }
            }
            LogRecord::TxnResolved { txn } => {
                out.push(TAG_RESOLVED);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::TxnOutcome { txn } => {
                out.push(TAG_OUTCOME);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::ReplicaConfig { seg, config } => {
                out.push(TAG_REPLICAS);
                put_sysname(&mut out, *seg);
                out.extend_from_slice(&config.epoch.to_le_bytes());
                out.extend_from_slice(&(config.members.len() as u32).to_le_bytes());
                for m in &config.members {
                    out.extend_from_slice(&m.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode one payload; `None` on any malformation (unknown tag,
    /// short buffer, trailing garbage) — the caller treats that the
    /// same as a checksum failure.
    fn decode(buf: &[u8]) -> Option<LogRecord> {
        let tag = *buf.first()?;
        let mut at = 1usize;
        let rec = match tag {
            TAG_CREATE => LogRecord::SegmentCreate {
                seg: get_sysname(buf, &mut at)?,
                len: get_u64(buf, &mut at)?,
            },
            TAG_DESTROY => LogRecord::SegmentDestroy {
                seg: get_sysname(buf, &mut at)?,
            },
            TAG_PAGE => {
                let seg = get_sysname(buf, &mut at)?;
                let page = get_u32(buf, &mut at)?;
                let version = get_u64(buf, &mut at)?;
                let dlen = get_u32(buf, &mut at)? as usize;
                let data = buf.get(at..at + dlen)?.to_vec();
                at += dlen;
                LogRecord::PageWrite {
                    seg,
                    page,
                    version,
                    data,
                }
            }
            TAG_INTENT => {
                let txn = get_u64(buf, &mut at)?;
                let count = get_u32(buf, &mut at)?;
                let mut pages = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let seg = get_sysname(buf, &mut at)?;
                    let page = get_u32(buf, &mut at)?;
                    let dlen = get_u32(buf, &mut at)? as usize;
                    let data = buf.get(at..at + dlen)?.to_vec();
                    at += dlen;
                    pages.push(IntentPage { seg, page, data });
                }
                LogRecord::TxnIntent { txn, pages }
            }
            TAG_RESOLVED => LogRecord::TxnResolved {
                txn: get_u64(buf, &mut at)?,
            },
            TAG_OUTCOME => LogRecord::TxnOutcome {
                txn: get_u64(buf, &mut at)?,
            },
            TAG_REPLICAS => {
                let seg = get_sysname(buf, &mut at)?;
                let epoch = get_u64(buf, &mut at)?;
                let count = get_u32(buf, &mut at)?;
                let mut members = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    members.push(get_u32(buf, &mut at)?);
                }
                LogRecord::ReplicaConfig {
                    seg,
                    config: ReplicaRecord { members, epoch },
                }
            }
            _ => return None,
        };
        (at == buf.len()).then_some(rec)
    }
}

impl LogStore {
    /// A store with no obs wiring (tests, benches).
    pub fn new(cfg: LogConfig) -> LogStore {
        LogStore {
            cfg,
            inner: Mutex::new(LogInner {
                media: vec![Vec::new()],
                index: Some(VolatileIndex::default()),
                stats: StoreStats::default(),
            }),
            metrics: None,
        }
    }

    /// A store whose counters feed `obs`'s metrics registry.
    pub fn with_obs(cfg: LogConfig, obs: &NodeObs) -> LogStore {
        LogStore {
            metrics: Some(StoreMetrics::new(obs)),
            ..LogStore::new(cfg)
        }
    }

    /// Append one record durably. This is the *only* way state enters
    /// the media, and the returned [`Logged`] receipt is what a caller
    /// acknowledging the operation the record describes must hold
    /// (write-ahead discipline).
    pub fn append(&self, rec: LogRecord) -> Logged {
        let payload = rec.encode();
        let framed_len = (RECORD_HEADER_BYTES + payload.len()) as u64;
        let mut inner = self.inner.lock();
        let inner = &mut *inner;

        // Seal the open segment if this record will not fit.
        let open_len = inner.media.last().map_or(0, Vec::len);
        if open_len > 0 && open_len + RECORD_HEADER_BYTES + payload.len() > self.cfg.segment_bytes {
            inner.media.push(Vec::new());
            inner.stats.segments_sealed += 1;
            if let Some(m) = &self.metrics {
                m.segments_sealed.add(1);
            }
        }
        let open = inner.media.last_mut().expect("media always has an open segment");
        open.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        open.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        open.extend_from_slice(&payload);

        inner.stats.appends += 1;
        inner.stats.append_bytes += framed_len;
        inner.stats.media_bytes += framed_len;
        inner.stats.media_segments = inner.media.len() as u64;
        if let Some(m) = &self.metrics {
            m.appends.add(1);
            m.append_bytes.add(framed_len);
        }

        // Dead-byte accounting, tracked only while the volatile index
        // is alive (after a crash nothing appends until replay).
        if let Some(idx) = inner.index.as_mut() {
            match &rec {
                LogRecord::SegmentCreate { seg, len } => {
                    idx.creates.insert(*seg, *len);
                }
                LogRecord::SegmentDestroy { seg } => {
                    idx.creates.remove(seg);
                    let doomed: Vec<(SysName, u32)> = idx
                        .pages
                        .range((*seg, 0)..=(*seg, u32::MAX))
                        .map(|(k, _)| *k)
                        .collect();
                    for k in doomed {
                        if let Some(p) = idx.pages.remove(&k) {
                            idx.dead_bytes += p.framed_len;
                        }
                    }
                    // The destroy + create records themselves die too;
                    // count the pair's framing as dead.
                    idx.dead_bytes += 2 * framed_len;
                }
                LogRecord::PageWrite { seg, page, .. } => {
                    let ptr = RecordPtr { framed_len };
                    if let Some(old) = idx.pages.insert((*seg, *page), ptr) {
                        idx.dead_bytes += old.framed_len;
                    }
                }
                LogRecord::TxnIntent { txn, .. } => {
                    idx.intents.insert(*txn, framed_len);
                }
                LogRecord::TxnResolved { txn } => {
                    if let Some(intent_len) = idx.intents.remove(txn) {
                        idx.dead_bytes += intent_len + framed_len;
                    }
                }
                LogRecord::TxnOutcome { .. } | LogRecord::ReplicaConfig { .. } => {}
            }
            inner.stats.dead_bytes = idx.dead_bytes;
        }

        if self.cfg.auto_compact
            && inner.stats.media_bytes >= self.cfg.compact_min_bytes
            && inner.index.as_ref().is_some_and(|i| 2 * i.dead_bytes >= inner.stats.media_bytes)
        {
            self.compact_locked(inner);
        }
        Logged {
            _minted_by_append: (),
        }
    }

    /// The power failure: drop every volatile structure. The media —
    /// and nothing else — survives; [`LogStore::replay`] rebuilds the
    /// rest. Appends between crash and replay would be a bug in the
    /// caller (a crashed server serves nothing), and are not indexed.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.index = None;
        inner.stats.dead_bytes = 0;
    }

    /// Scan the media and reconstruct the store's logical state,
    /// rebuilding the volatile index as a side effect. Torn tails are
    /// detected (length or checksum mismatch), dropped, and truncated
    /// off the media so subsequent appends land after valid data.
    pub fn replay(&self) -> ReplayOutcome {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let scan = scan_media(&inner.media);
        let outcome = scan.outcome;
        for (segment, &prefix) in inner.media.iter_mut().zip(&scan.valid_prefix) {
            segment.truncate(prefix);
        }
        while inner.media.len() > 1 && inner.media.last().is_some_and(Vec::is_empty) {
            inner.media.pop();
        }
        inner.stats.media_bytes = inner.media.iter().map(|s| s.len() as u64).sum();
        inner.stats.media_segments = inner.media.len() as u64;

        // Rebuild the volatile index from the replayed state.
        let mut idx = VolatileIndex::default();
        for (seg, rs) in &outcome.state.segments {
            idx.creates.insert(*seg, rs.len);
            for (page, (version, data)) in &rs.pages {
                let framed_len = (RECORD_HEADER_BYTES
                    + LogRecord::PageWrite {
                        seg: *seg,
                        page: *page,
                        version: *version,
                        data: data.clone(),
                    }
                    .encode()
                    .len()) as u64;
                idx.pages.insert((*seg, *page), RecordPtr { framed_len });
            }
        }
        for (txn, pages) in &outcome.state.pending_intents {
            let framed_len = (RECORD_HEADER_BYTES
                + LogRecord::TxnIntent {
                    txn: *txn,
                    pages: pages.clone(),
                }
                .encode()
                .len()) as u64;
            idx.intents.insert(*txn, framed_len);
        }
        // Dead bytes cannot be reconstructed per-record cheaply; the
        // conservative estimate is "everything the live set does not
        // account for", which is exactly what compaction would free.
        let live: u64 = idx.pages.values().map(|p| p.framed_len).sum::<u64>()
            + idx.intents.values().sum::<u64>();
        idx.dead_bytes = inner.stats.media_bytes.saturating_sub(live);
        inner.stats.dead_bytes = idx.dead_bytes;
        inner.index = Some(idx);

        if let Some(m) = &self.metrics {
            m.replay_records.add(outcome.records);
            m.torn_dropped.add(outcome.torn_dropped);
        }
        outcome
    }

    /// Rewrite live records into fresh log segments and discard the
    /// dead ones. `replay(compact(log)) ≡ replay(log)` — pinned by the
    /// proptest suite.
    pub fn compact(&self) {
        let mut inner = self.inner.lock();
        self.compact_locked(&mut inner);
    }

    fn compact_locked(&self, inner: &mut LogInner) {
        let state = scan_media(&inner.media).outcome.state;
        let mut media = vec![Vec::new()];
        let mut append_raw = |payload: Vec<u8>| {
            let open_len = media.last().map_or(0, Vec::len);
            if open_len > 0 && open_len + RECORD_HEADER_BYTES + payload.len() > self.cfg.segment_bytes
            {
                media.push(Vec::new());
            }
            let open = media.last_mut().expect("media always has an open segment");
            open.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            open.extend_from_slice(&fnv1a(&payload).to_le_bytes());
            open.extend_from_slice(&payload);
        };
        let mut idx = VolatileIndex::default();
        for (seg, rs) in &state.segments {
            append_raw(
                LogRecord::SegmentCreate {
                    seg: *seg,
                    len: rs.len,
                }
                .encode(),
            );
            idx.creates.insert(*seg, rs.len);
            for (page, (version, data)) in &rs.pages {
                let rec = LogRecord::PageWrite {
                    seg: *seg,
                    page: *page,
                    version: *version,
                    data: data.clone(),
                };
                let payload = rec.encode();
                idx.pages.insert(
                    (*seg, *page),
                    RecordPtr {
                        framed_len: (RECORD_HEADER_BYTES + payload.len()) as u64,
                    },
                );
                append_raw(payload);
            }
        }
        for (seg, config) in &state.replicas {
            // Keep the config even for destroyed segments? No: a
            // destroyed segment has no replicas to resync.
            if state.segments.contains_key(seg) {
                append_raw(
                    LogRecord::ReplicaConfig {
                        seg: *seg,
                        config: config.clone(),
                    }
                    .encode(),
                );
            }
        }
        for (txn, pages) in &state.pending_intents {
            let payload = LogRecord::TxnIntent {
                txn: *txn,
                pages: pages.clone(),
            }
            .encode();
            idx.intents
                .insert(*txn, (RECORD_HEADER_BYTES + payload.len()) as u64);
            append_raw(payload);
        }
        for txn in &state.outcomes {
            append_raw(LogRecord::TxnOutcome { txn: *txn }.encode());
        }

        inner.stats.media_bytes = media.iter().map(|s| s.len() as u64).sum();
        inner.stats.media_segments = media.len() as u64;
        inner.stats.compactions += 1;
        inner.stats.dead_bytes = 0;
        inner.media = media;
        inner.index = Some(idx);
        if let Some(m) = &self.metrics {
            m.compactions.add(1);
        }
    }

    /// Lifetime counters and current media shape.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// Truncate `drop_bytes` off the end of the media, simulating a
    /// write torn by the power failure. Test hook for the torn-tail
    /// recovery path; a real caller never truncates its own log.
    pub fn tear_tail(&self, drop_bytes: usize) {
        let mut inner = self.inner.lock();
        let mut remaining = drop_bytes;
        while remaining > 0 {
            let Some(last) = inner.media.last_mut() else { break };
            let cut = remaining.min(last.len());
            let new_len = last.len() - cut;
            last.truncate(new_len);
            remaining -= cut;
            if new_len == 0 && inner.media.len() > 1 {
                inner.media.pop();
            } else {
                break;
            }
        }
        let media_bytes = inner.media.iter().map(|s| s.len() as u64).sum();
        inner.stats.media_bytes = media_bytes;
        inner.stats.media_segments = inner.media.len() as u64;
    }
}

/// A [`ReplayOutcome`] plus, per media segment, the length of the
/// prefix that parsed cleanly (everything after it is torn).
struct ScanResult {
    outcome: ReplayOutcome,
    valid_prefix: Vec<usize>,
}

/// Pure scan of media bytes → replayed state. Order-insensitive within
/// a log segment by construction (versions, epochs, id-pairing,
/// destroy-beats-create).
fn scan_media(media: &[Vec<u8>]) -> ScanResult {
    let mut records = 0u64;
    let mut bytes = 0u64;
    let mut torn = 0u64;
    let mut valid_prefix = Vec::with_capacity(media.len());

    let mut creates: BTreeMap<SysName, u64> = BTreeMap::new();
    let mut destroyed: BTreeSet<SysName> = BTreeSet::new();
    let mut pages: BTreeMap<(SysName, u32), (u64, Vec<u8>)> = BTreeMap::new();
    let mut intents: BTreeMap<u64, Vec<IntentPage>> = BTreeMap::new();
    let mut resolved: BTreeSet<u64> = BTreeSet::new();
    let mut outcomes: BTreeSet<u64> = BTreeSet::new();
    let mut replicas: BTreeMap<SysName, ReplicaRecord> = BTreeMap::new();

    for segment in media {
        let mut at = 0usize;
        let mut clean_to = 0usize;
        while at < segment.len() {
            // Frame: [len u32][crc u32][payload]. Anything that does
            // not parse cleanly is a torn tail: drop it and stop
            // scanning this log segment (append-only means nothing
            // valid can follow a torn write).
            let Some(hdr) = segment.get(at..at + RECORD_HEADER_BYTES) else {
                torn += 1;
                break;
            };
            let len = u32::from_le_bytes(hdr[0..4].try_into().expect("4-byte slice")) as usize;
            let crc = u32::from_le_bytes(hdr[4..8].try_into().expect("4-byte slice"));
            let Some(payload) = segment.get(at + RECORD_HEADER_BYTES..at + RECORD_HEADER_BYTES + len)
            else {
                torn += 1;
                break;
            };
            if fnv1a(payload) != crc {
                torn += 1;
                break;
            }
            let Some(rec) = LogRecord::decode(payload) else {
                torn += 1;
                break;
            };
            at += RECORD_HEADER_BYTES + len;
            clean_to = at;
            records += 1;
            bytes += (RECORD_HEADER_BYTES + len) as u64;

            match rec {
                LogRecord::SegmentCreate { seg, len } => {
                    creates.insert(seg, len);
                }
                LogRecord::SegmentDestroy { seg } => {
                    destroyed.insert(seg);
                }
                LogRecord::PageWrite {
                    seg,
                    page,
                    version,
                    data,
                } => {
                    let slot = pages.entry((seg, page)).or_insert((0, Vec::new()));
                    if version >= slot.0 {
                        *slot = (version, data);
                    }
                }
                LogRecord::TxnIntent { txn, pages: p } => {
                    intents.insert(txn, p);
                }
                LogRecord::TxnResolved { txn } => {
                    resolved.insert(txn);
                }
                LogRecord::TxnOutcome { txn } => {
                    outcomes.insert(txn);
                }
                LogRecord::ReplicaConfig { seg, config } => {
                    match replicas.get(&seg) {
                        Some(existing) if existing.epoch > config.epoch => {}
                        _ => {
                            replicas.insert(seg, config);
                        }
                    }
                }
            }
        }
        valid_prefix.push(clean_to);
    }

    let mut segments: BTreeMap<SysName, ReplaySegment> = BTreeMap::new();
    for (seg, len) in creates {
        if !destroyed.contains(&seg) {
            segments.insert(
                seg,
                ReplaySegment {
                    len,
                    pages: BTreeMap::new(),
                },
            );
        }
    }
    for ((seg, page), (version, data)) in pages {
        if let Some(rs) = segments.get_mut(&seg) {
            rs.pages.insert(page, (version, data));
        }
    }
    replicas.retain(|seg, _| segments.contains_key(seg));
    intents.retain(|txn, _| !resolved.contains(txn));

    let log_segments = media.len() as u64;
    ScanResult {
        outcome: ReplayOutcome {
            state: ReplayState {
                segments,
                pending_intents: intents,
                outcomes,
                replicas,
            },
            records,
            bytes,
            log_segments,
            torn_dropped: torn,
        },
        valid_prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_ra::PAGE_SIZE;

    fn seg(n: u64) -> SysName {
        SysName::from_parts(7, n)
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let records = vec![
            LogRecord::SegmentCreate { seg: seg(1), len: 16384 },
            LogRecord::SegmentDestroy { seg: seg(2) },
            LogRecord::PageWrite { seg: seg(1), page: 1, version: 3, data: page(9) },
            LogRecord::TxnIntent {
                txn: 42,
                pages: vec![IntentPage { seg: seg(1), page: 0, data: page(1) }],
            },
            LogRecord::TxnResolved { txn: 42 },
            LogRecord::TxnOutcome { txn: 42 },
            LogRecord::ReplicaConfig {
                seg: seg(1),
                config: ReplicaRecord { members: vec![3, 4, 5], epoch: 2 },
            },
        ];
        for rec in records {
            let enc = rec.encode();
            assert_eq!(LogRecord::decode(&enc).as_ref(), Some(&rec));
        }
    }

    #[test]
    fn replay_survives_crash() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate { seg: seg(1), len: 3 * PAGE_SIZE as u64 });
        store.append(LogRecord::PageWrite { seg: seg(1), page: 0, version: 1, data: page(1) });
        store.append(LogRecord::PageWrite { seg: seg(1), page: 0, version: 2, data: page(2) });
        store.append(LogRecord::PageWrite { seg: seg(1), page: 2, version: 1, data: page(3) });
        store.crash();
        let out = store.replay();
        let rs = &out.state.segments[&seg(1)];
        assert_eq!(rs.pages[&0], (2, page(2)));
        assert_eq!(rs.pages[&2], (1, page(3)));
        assert_eq!(out.records, 4);
        assert_eq!(out.torn_dropped, 0);
    }

    #[test]
    fn destroy_beats_create_in_any_order() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentDestroy { seg: seg(1) });
        store.append(LogRecord::SegmentCreate { seg: seg(1), len: PAGE_SIZE as u64 });
        store.append(LogRecord::PageWrite { seg: seg(1), page: 0, version: 1, data: page(1) });
        assert!(store.replay().state.segments.is_empty());
    }

    #[test]
    fn pending_intent_pairs_with_resolution() {
        let store = LogStore::new(LogConfig::default());
        let images = vec![IntentPage { seg: seg(1), page: 0, data: page(5) }];
        store.append(LogRecord::TxnIntent { txn: 1, pages: images.clone() });
        store.append(LogRecord::TxnIntent { txn: 2, pages: images.clone() });
        store.append(LogRecord::TxnResolved { txn: 1 });
        store.append(LogRecord::TxnOutcome { txn: 1 });
        let out = store.replay();
        assert_eq!(out.state.pending_intents.len(), 1);
        assert_eq!(out.state.pending_intents[&2], images);
        assert!(out.state.outcomes.contains(&1));
    }

    #[test]
    fn torn_final_record_is_dropped_not_applied() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate { seg: seg(1), len: 2 * PAGE_SIZE as u64 });
        store.append(LogRecord::PageWrite { seg: seg(1), page: 0, version: 1, data: page(1) });
        store.append(LogRecord::PageWrite { seg: seg(1), page: 1, version: 1, data: page(2) });
        // Power fails mid-way through the last page write: the tail of
        // the record never hit the media.
        store.tear_tail(100);
        store.crash();
        let out = store.replay();
        assert_eq!(out.torn_dropped, 1);
        let rs = &out.state.segments[&seg(1)];
        assert_eq!(rs.pages[&0], (1, page(1)), "earlier records still apply");
        assert!(!rs.pages.contains_key(&1), "torn record must not apply");

        // A half-written *checksum* (garbage bytes, full length) is
        // equally torn.
        store.append(LogRecord::PageWrite { seg: seg(1), page: 1, version: 2, data: page(3) });
        store.tear_tail(1);
        {
            let mut inner = store.inner.lock();
            inner.media.last_mut().unwrap().push(0xFF);
        }
        let out = store.replay();
        assert_eq!(out.torn_dropped, 1);
        assert!(!out.state.segments[&seg(1)].pages.contains_key(&1));
    }

    #[test]
    fn segments_seal_and_compaction_shrinks_media() {
        let cfg = LogConfig {
            segment_bytes: 64 * 1024,
            auto_compact: false,
            ..LogConfig::default()
        };
        let store = LogStore::new(cfg);
        store.append(LogRecord::SegmentCreate { seg: seg(1), len: PAGE_SIZE as u64 });
        for version in 1..=40u64 {
            store.append(LogRecord::PageWrite { seg: seg(1), page: 0, version, data: page(version as u8) });
        }
        let before = store.stats();
        assert!(before.segments_sealed >= 4, "40 page records overflow 64 KiB segments");
        assert!(before.dead_bytes > 0);

        let replay_before = store.replay().state;
        store.compact();
        let after = store.stats();
        assert!(after.media_bytes < before.media_bytes / 10, "39 of 40 page records were dead");
        assert_eq!(after.compactions, 1);
        assert_eq!(store.replay().state, replay_before);
    }

    #[test]
    fn auto_compaction_bounds_media_growth() {
        let cfg = LogConfig {
            segment_bytes: 64 * 1024,
            auto_compact: true,
            compact_min_bytes: 128 * 1024,
        };
        let store = LogStore::new(cfg);
        store.append(LogRecord::SegmentCreate { seg: seg(1), len: PAGE_SIZE as u64 });
        for version in 1..=200u64 {
            store.append(LogRecord::PageWrite { seg: seg(1), page: 0, version, data: page(version as u8) });
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "rewriting one page 200 times must trigger compaction");
        assert!(
            stats.media_bytes < 256 * 1024,
            "media stays bounded near the live set, got {}",
            stats.media_bytes
        );
        assert_eq!(store.replay().state.segments[&seg(1)].pages[&0], (200, page(200)));
    }

    #[test]
    fn replay_cost_charges_seek_plus_stream() {
        let cost = replay_cost(1_000_000, 4);
        assert_eq!(cost, Vt::from_millis(40) + Vt::from_millis(1_000));
    }
}
