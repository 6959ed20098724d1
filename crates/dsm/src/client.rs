//! The DSM client partition for diskless compute servers.
//!
//! "Compute servers do not have any secondary storage… Secondary storage
//! is provided by data servers" (§3). A compute server reaches every
//! segment through this partition: it discovers which data server homes
//! a segment, demand-pages over RaTP, and answers the data server's
//! recall/downgrade requests against the node's page cache.

use crate::proto::{
    self, ports, DsmReply, DsmRequest, RecallReply, RecallRequest, WireInstallAck, WireMode,
    WireWriteBack,
};
use clouds_codec::PageBytes;
use clouds_obs::{current_ctx, install_ctx, Counter, Histogram, NodeObs};
use clouds_ra::{
    AccessMode, PageCache, PageFetch, Partition, RaError, ReclaimOutcome, SysName, WriteBackItem,
};
use clouds_ratp::{CallError, RatpNode, Request};
use clouds_simnet::NodeId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Failover patience: how many times a faulting operation re-resolves
/// the segment's home after a retriable failure before surfacing the
/// error. A crashed primary first burns the operation's own call budget,
/// then each attempt here costs one bounded home re-discovery — by which
/// time the failure-detector has long since promoted a backup.
const FAILOVER_ATTEMPTS: u32 = 10;

/// Pause between failover re-resolutions: gives the data servers' monitor
/// a beat to detect the dead primary and re-home the segment.
const FAILOVER_BACKOFF: Duration = Duration::from_millis(25);

/// Retry budget for home-discovery probes. Bounded (unlike ordinary
/// calls) so a probe to a *crashed* server abandons quickly instead of
/// pinning the resolve for the full patient call budget — a live server
/// answers a probe in one or two round trips, and a false negative only
/// costs one [`FAILOVER_ATTEMPTS`] round.
const PROBE_RETRIES: u32 = 80;

/// Tunables for a [`DsmClientPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmClientConfig {
    /// Maximum pages requested per sequential read fault (the faulting
    /// page plus up to `read_ahead_window - 1` read-ahead pages). Set to
    /// `0` or `1` to disable read-ahead entirely — every fault then
    /// issues a single-page `FetchPage` exactly as before.
    pub read_ahead_window: u32,
    /// Coalesce [`Partition::write_back_batch`] into one `WriteBackBatch`
    /// RPC per home server (pipelined across homes). `false` falls back
    /// to one RPC per page.
    pub batch_write_backs: bool,
}

impl Default for DsmClientConfig {
    fn default() -> DsmClientConfig {
        DsmClientConfig {
            read_ahead_window: 8,
            batch_write_backs: true,
        }
    }
}

/// Client-side paging counters: how much batching actually happened.
///
/// This struct is a **read shim** over the node's
/// [`clouds_obs::MetricsRegistry`] (counters `dsm.client.*`) plus the
/// page cache's prefetch counters; the partition itself keeps no ad-hoc
/// statistics. [`DsmClientPartition::stats`] assembles a snapshot with
/// the historical field names so existing consumers keep working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmClientStats {
    /// Fetch RPCs issued (`FetchPage` + `FetchPages`).
    pub fetch_rpcs: u64,
    /// Multi-page `FetchPages` RPCs issued (subset of `fetch_rpcs`).
    pub batch_fetches: u64,
    /// Total pages granted across all fetch RPCs.
    pub pages_granted: u64,
    /// Read-ahead frames installed into the cache.
    pub prefetch_installs: u64,
    /// Faults avoided because read-ahead had the page resident.
    pub prefetch_hits: u64,
    /// Read-ahead frames evicted or recalled before first use.
    pub prefetch_wasted: u64,
    /// `WriteBackBatch` RPCs issued.
    pub batch_write_back_rpcs: u64,
    /// Dirty pages shipped inside those batches.
    pub pages_written_batched: u64,
    /// Dirty evictions whose release rode on the write-back message.
    pub merged_evictions: u64,
    /// Round trips avoided versus the unbatched protocol: one per
    /// prefetch hit, one per batched page beyond the first of its RPC,
    /// and one per merged dirty eviction.
    pub rtts_saved: u64,
}

/// A [`Partition`] that pages segments from remote data servers with
/// coherence. See the crate-level example.
pub struct DsmClientPartition {
    ratp: Arc<RatpNode>,
    cache: Arc<PageCache>,
    data_servers: Vec<NodeId>,
    homes: Mutex<HashMap<SysName, NodeId>>,
    config: DsmClientConfig,
    /// Sequential-access detector: per segment, the page index one past
    /// the newest grant. A read fault landing exactly there is part of a
    /// sequential scan and fetches a whole window.
    next_expected: Mutex<HashMap<SysName, u32>>,
    obs: Arc<NodeObs>,
    metrics: ClientMetrics,
}

/// Registry-backed paging counters (`dsm.client.*`), cached at install
/// so the fault path never resolves names.
struct ClientMetrics {
    fetch_rpcs: Arc<Counter>,
    batch_fetches: Arc<Counter>,
    pages_granted: Arc<Counter>,
    batch_write_back_rpcs: Arc<Counter>,
    pages_written_batched: Arc<Counter>,
    merged_evictions: Arc<Counter>,
    fetch_latency: Arc<Histogram>,
}

impl ClientMetrics {
    fn new(obs: &NodeObs) -> ClientMetrics {
        ClientMetrics {
            fetch_rpcs: obs.counter("dsm.client.fetch_rpcs"),
            batch_fetches: obs.counter("dsm.client.batch_fetches"),
            pages_granted: obs.counter("dsm.client.pages_granted"),
            batch_write_back_rpcs: obs.counter("dsm.client.batch_write_back_rpcs"),
            pages_written_batched: obs.counter("dsm.client.pages_written_batched"),
            merged_evictions: obs.counter("dsm.client.merged_evictions"),
            fetch_latency: obs.histogram("dsm.client.fetch"),
        }
    }
}

impl fmt::Debug for DsmClientPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsmClientPartition")
            .field("node", &self.ratp.node_id())
            .field("data_servers", &self.data_servers)
            .finish()
    }
}

impl DsmClientPartition {
    /// Create the partition and register the recall service
    /// ([`ports::DSM_CLIENT`]) on this node.
    ///
    /// # Panics
    ///
    /// Panics if `data_servers` is empty.
    pub fn install(
        ratp: &Arc<RatpNode>,
        cache: Arc<PageCache>,
        data_servers: Vec<NodeId>,
    ) -> Arc<DsmClientPartition> {
        DsmClientPartition::install_with_config(ratp, cache, data_servers, DsmClientConfig::default())
    }

    /// Like [`DsmClientPartition::install`] with explicit tunables (e.g.
    /// `read_ahead_window: 1` to disable read-ahead).
    ///
    /// # Panics
    ///
    /// Panics if `data_servers` is empty.
    pub fn install_with_config(
        ratp: &Arc<RatpNode>,
        cache: Arc<PageCache>,
        data_servers: Vec<NodeId>,
        config: DsmClientConfig,
    ) -> Arc<DsmClientPartition> {
        assert!(
            !data_servers.is_empty(),
            "a DSM client needs at least one data server"
        );
        let obs = Arc::clone(ratp.obs());
        let part = Arc::new(DsmClientPartition {
            ratp: Arc::clone(ratp),
            cache: Arc::clone(&cache),
            data_servers,
            homes: Mutex::new(HashMap::new()),
            config,
            next_expected: Mutex::new(HashMap::new()),
            metrics: ClientMetrics::new(&obs),
            obs,
        });
        let obs = Arc::clone(part.ratp.obs());
        ratp.register_service(ports::DSM_CLIENT, move |req: Request| {
            let reply = match proto::decode::<RecallRequest>(&req.payload) {
                Ok(RecallRequest::Reclaim { seg, page }) => {
                    obs.instant("dsm.client", "recall", format!("seg={seg} page={page}"));
                    match cache.reclaim((seg, page)) {
                        ReclaimOutcome::NotPresent => RecallReply::NotPresent,
                        ReclaimOutcome::Taken { dirty_data: None } => RecallReply::Clean,
                        ReclaimOutcome::Taken {
                            dirty_data: Some(data),
                        } => RecallReply::Dirty(PageBytes::from(data)),
                    }
                }
                Ok(RecallRequest::Downgrade { seg, page }) => {
                    obs.instant("dsm.client", "downgrade", format!("seg={seg} page={page}"));
                    match cache.downgrade((seg, page)) {
                        Some(data) => RecallReply::Dirty(PageBytes::from(data)),
                        None => RecallReply::Clean,
                    }
                }
                Err(_) => RecallReply::NotPresent,
            };
            proto::encode(&reply)
        });
        part
    }

    /// This node's page cache (the one recalls are served from).
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The tunables this partition was installed with.
    pub fn config(&self) -> DsmClientConfig {
        self.config
    }

    /// Snapshot of the client-side paging counters: the read shim over
    /// the metrics registry (`dsm.client.*`), merged with the cache's
    /// prefetch counters.
    pub fn stats(&self) -> DsmClientStats {
        let cache = self.cache.stats();
        let batch_rpcs = self.metrics.batch_write_back_rpcs.get();
        let batch_pages = self.metrics.pages_written_batched.get();
        let merged = self.metrics.merged_evictions.get();
        DsmClientStats {
            fetch_rpcs: self.metrics.fetch_rpcs.get(),
            batch_fetches: self.metrics.batch_fetches.get(),
            pages_granted: self.metrics.pages_granted.get(),
            prefetch_installs: cache.prefetch_installs,
            prefetch_hits: cache.prefetch_hits,
            prefetch_wasted: cache.prefetch_wasted,
            batch_write_back_rpcs: batch_rpcs,
            pages_written_batched: batch_pages,
            merged_evictions: merged,
            rtts_saved: cache.prefetch_hits + batch_pages.saturating_sub(batch_rpcs) + merged,
        }
    }

    /// This node's observability handle (same as the transport's).
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    /// The data servers this client knows about.
    pub fn data_servers(&self) -> &[NodeId] {
        &self.data_servers
    }

    /// Create a segment on a *specific* data server (used for explicit
    /// replica placement by PET).
    ///
    /// # Errors
    ///
    /// Propagates the server's error or transport failure.
    pub fn create_segment_at(&self, seg: SysName, len: u64, home: NodeId) -> clouds_ra::Result<()> {
        match self.call(home, &DsmRequest::CreateSegment { seg, len })? {
            DsmReply::Ok => {
                self.homes.lock().insert(seg, home);
                Ok(())
            }
            DsmReply::Err(e) => Err(e.into()),
            other => Err(unexpected(other)),
        }
    }

    /// Create a segment replicated across `members` (primary first,
    /// backups in promotion order). The primary creates the canonical
    /// copy and pushes a `MirrorCreate` to every backup before replying,
    /// so the whole replica set exists before the first write. The caller
    /// is expected to also register the set with the naming directory
    /// (`NameClient::register_replicas`) so failover can re-home it.
    ///
    /// # Errors
    ///
    /// Propagates the primary's error (including any backup's refusal,
    /// surfaced by the primary) or transport failure; rejects an empty
    /// member list.
    pub fn create_replicated_segment(
        &self,
        seg: SysName,
        len: u64,
        members: &[NodeId],
    ) -> clouds_ra::Result<()> {
        let Some((&primary, _)) = members.split_first() else {
            return Err(RaError::PartitionUnavailable(
                "replica set must name at least a primary".into(),
            ));
        };
        let wire = members.iter().map(|n| n.0).collect();
        match self.call(
            primary,
            &DsmRequest::CreateReplicated {
                seg,
                len,
                members: wire,
            },
        )? {
            DsmReply::Ok => {
                self.homes.lock().insert(seg, primary);
                Ok(())
            }
            DsmReply::Err(e) => Err(e.into()),
            other => Err(unexpected(other)),
        }
    }

    /// Default placement for a fresh segment: hash over the data servers.
    pub fn default_home(&self, seg: SysName) -> NodeId {
        let idx = (seg.as_u128() % self.data_servers.len() as u128) as usize;
        self.data_servers[idx]
    }

    /// Drop any cached home mapping (tests, failover).
    pub fn forget_home(&self, seg: SysName) {
        self.homes.lock().remove(&seg);
    }

    /// The data server homing `seg` (discovering it if unknown). Used by
    /// lock placement: segment locks live on the segment's home server.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] if no data server has the segment.
    pub fn home_of(&self, seg: SysName) -> clouds_ra::Result<NodeId> {
        self.resolve(seg)
    }

    /// The transport node this partition runs on.
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.ratp
    }

    fn call(&self, server: NodeId, req: &DsmRequest) -> clouds_ra::Result<DsmReply> {
        match self.ratp.call(server, ports::DSM_SERVER, proto::encode(req)) {
            // Shared decode: granted page images stay refcounted slices
            // of the reply buffer; the only copy left on the fetch path
            // is the one installing the frame into the page cache.
            Ok(bytes) => proto::decode_shared(&bytes),
            Err(CallError::TimedOut) => Err(RaError::PartitionUnavailable(format!(
                "data server {server} unreachable"
            ))),
            Err(e) => Err(RaError::PartitionUnavailable(e.to_string())),
        }
    }

    /// Find (and remember) the data server homing `seg`, probing all
    /// known data servers on a cache miss.
    ///
    /// All candidates are probed in parallel: only the actual home
    /// answers `Len`, so the first positive reply wins, and a crashed
    /// server burns its call timeout on its own probe thread instead of
    /// serially stalling the fault for the full timeout per dead server.
    fn resolve(&self, seg: SysName) -> clouds_ra::Result<NodeId> {
        if let Some(home) = self.homes.lock().get(&seg) {
            return Ok(*home);
        }
        if let [server] = self.data_servers[..] {
            return match self.call(server, &DsmRequest::SegmentLen { seg }) {
                Ok(DsmReply::Len(_)) => {
                    self.homes.lock().insert(seg, server);
                    Ok(server)
                }
                _ => Err(RaError::SegmentNotFound(seg)),
            };
        }
        let (tx, rx) = std::sync::mpsc::channel();
        // Probe threads inherit the faulting thread's causal context so
        // their RaTP calls stay inside the ambient trace.
        let ctx = current_ctx();
        for &server in &self.data_servers {
            let ratp = Arc::clone(&self.ratp);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _trace = ctx.map(install_ctx);
                let found = matches!(
                    ratp.call_with_budget(
                        server,
                        ports::DSM_SERVER,
                        proto::encode(&DsmRequest::SegmentLen { seg }),
                        PROBE_RETRIES,
                    )
                    .map(|bytes| proto::decode::<DsmReply>(&bytes)),
                    Ok(Ok(DsmReply::Len(_)))
                );
                let _ = tx.send((server, found));
            });
        }
        drop(tx);
        while let Ok((server, found)) = rx.recv() {
            if found {
                self.homes.lock().insert(seg, server);
                return Ok(server);
            }
        }
        Err(RaError::SegmentNotFound(seg))
    }

    fn is_sequential(&self, seg: SysName, page: u32) -> bool {
        self.next_expected.lock().get(&seg) == Some(&page)
    }

    /// Record that pages `first .. first + granted` were just granted,
    /// arming the detector for the page right after the run.
    fn note_grant(&self, seg: SysName, first: u32, granted: u32) {
        self.next_expected
            .lock()
            .insert(seg, first.saturating_add(granted));
    }

    /// Sequential read fault: fetch a whole window with one RPC. The
    /// faulting page is returned (the cache installs and acks it as
    /// usual); the read-ahead tail is installed here as clean frames and
    /// every tail grant is acknowledged in one batched notify — pages
    /// the cache declined (full, or slot raced) are acked with
    /// `installed: false` so the server forgets those copies.
    fn fetch_batch(&self, seg: SysName, first: u32, window: u32) -> clouds_ra::Result<PageFetch> {
        self.metrics.fetch_rpcs.inc();
        self.metrics.batch_fetches.inc();
        let detail = format!("seg={seg} first={first} window={window}");
        let mut span = self
            .obs
            .traced_span("dsm.client", "fetch_pages", &detail)
            .with_histogram(Arc::clone(&self.metrics.fetch_latency));
        span.set_args(detail);
        self.on_home(seg, |home| {
            match self.call(
                home,
                &DsmRequest::FetchPages {
                    seg,
                    first,
                    count: window,
                    mode: WireMode::Read,
                },
            )? {
                DsmReply::Pages { first: f, mut pages } if f == first && !pages.is_empty() => {
                    self.metrics.pages_granted.add(pages.len() as u64);
                    let tail = pages.split_off(1);
                    let head = pages.pop().expect("non-empty checked above");
                    let mut acks = Vec::with_capacity(tail.len());
                    for (i, grant) in tail.into_iter().enumerate() {
                        let page = first + 1 + i as u32;
                        let installed = self.cache.install_prefetched(
                            (seg, page),
                            grant.data.to_vec(),
                            grant.version,
                        );
                        acks.push(WireInstallAck {
                            page,
                            grant_seq: grant.grant_seq,
                            installed,
                        });
                    }
                    let granted = 1 + acks.len() as u32;
                    if !acks.is_empty() {
                        self.ratp.notify(
                            home,
                            ports::DSM_SERVER,
                            proto::encode(&DsmRequest::InstallAckBatch { seg, acks }),
                        );
                    }
                    self.note_grant(seg, first, granted);
                    Ok(PageFetch {
                        data: head.data.to_vec(),
                        version: head.version,
                        zero_filled: head.zero_filled,
                        grant_seq: head.grant_seq,
                    })
                }
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Ship one home server's group of dirty pages in a single RPC,
    /// returning per-page results aligned with `pages`.
    fn send_write_back_batch(
        &self,
        home: NodeId,
        pages: Vec<WireWriteBack>,
    ) -> Vec<clouds_ra::Result<u64>> {
        let n = pages.len();
        self.metrics.batch_write_back_rpcs.inc();
        self.metrics.pages_written_batched.add(n as u64);
        let detail = format!("home={} pages={n}", home.0);
        let mut span = self.obs.traced_span("dsm.client", "write_back_batch", &detail);
        span.set_args(detail);
        match self.call(home, &DsmRequest::WriteBackBatch { pages }) {
            Ok(DsmReply::WriteBackResults { results }) if results.len() == n => results
                .into_iter()
                .map(|r| r.map_err(RaError::from))
                .collect(),
            Ok(DsmReply::Err(e)) => {
                let e: RaError = e.into();
                (0..n).map(|_| Err(e.clone())).collect()
            }
            Ok(other) => {
                let e = unexpected(other);
                (0..n).map(|_| Err(e.clone())).collect()
            }
            Err(e) => (0..n).map(|_| Err(e.clone())).collect(),
        }
    }

    /// Run `f` against the segment's home, riding out re-homing: a
    /// `SegmentNotFound` (stale home cache, or a backup not yet promoted)
    /// or `PartitionUnavailable` (home crashed mid-call) drops the cached
    /// home and rediscovers, up to [`FAILOVER_ATTEMPTS`] times. An
    /// in-flight fetch or write-back therefore lands on the *new* primary
    /// after a failover instead of surfacing the crash to the fault
    /// handler. `ReplicaUnavailable` is *not* retried — the home is
    /// reachable but one of its backups is not, so each re-resolution
    /// would find the same home and burn the full mirror patience again;
    /// it surfaces promptly instead.
    fn on_home<T>(
        &self,
        seg: SysName,
        f: impl Fn(NodeId) -> clouds_ra::Result<T>,
    ) -> clouds_ra::Result<T> {
        let mut last = None;
        for attempt in 0..FAILOVER_ATTEMPTS {
            if attempt > 0 {
                self.forget_home(seg);
                std::thread::sleep(FAILOVER_BACKOFF);
            }
            match self.resolve(seg).and_then(&f) {
                Err(e @ (RaError::SegmentNotFound(_) | RaError::PartitionUnavailable(_))) => {
                    last = Some(e);
                }
                other => return other,
            }
        }
        Err(last.expect("FAILOVER_ATTEMPTS > 0"))
    }
}

fn unexpected(reply: DsmReply) -> RaError {
    RaError::PartitionUnavailable(format!("unexpected DSM reply: {reply:?}"))
}

impl Partition for DsmClientPartition {
    fn create_segment(&self, seg: SysName, len: u64) -> clouds_ra::Result<()> {
        self.create_segment_at(seg, len, self.default_home(seg))
    }

    fn destroy_segment(&self, seg: SysName) -> clouds_ra::Result<()> {
        self.on_home(seg, |home| {
            match self.call(home, &DsmRequest::DestroySegment { seg })? {
                DsmReply::Ok => Ok(()),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })
        .inspect(|()| self.forget_home(seg))
    }

    fn segment_len(&self, seg: SysName) -> clouds_ra::Result<u64> {
        self.on_home(seg, |home| {
            match self.call(home, &DsmRequest::SegmentLen { seg })? {
                DsmReply::Len(len) => Ok(len),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })
    }

    fn fetch_page(&self, seg: SysName, page: u32, mode: AccessMode) -> clouds_ra::Result<PageFetch> {
        let window = self.config.read_ahead_window;
        if mode == AccessMode::Read && window > 1 && self.is_sequential(seg, page) {
            return self.fetch_batch(seg, page, window);
        }
        let wire_mode = match mode {
            AccessMode::Read => WireMode::Read,
            AccessMode::Write => WireMode::Write,
        };
        self.metrics.fetch_rpcs.inc();
        let detail = format!("seg={seg} page={page} mode={mode:?}");
        let mut span = self
            .obs
            .traced_span("dsm.client", "fetch_page", &detail)
            .with_histogram(Arc::clone(&self.metrics.fetch_latency));
        span.set_args(detail);
        let fetched = self.on_home(seg, |home| {
            match self.call(
                home,
                &DsmRequest::FetchPage {
                    seg,
                    page,
                    mode: wire_mode,
                },
            )? {
                DsmReply::Page {
                    data,
                    version,
                    zero_filled,
                    grant_seq,
                } => Ok(PageFetch {
                    data: data.to_vec(),
                    version,
                    zero_filled,
                    grant_seq,
                }),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })?;
        self.metrics.pages_granted.inc();
        if mode == AccessMode::Read {
            self.note_grant(seg, page, 1);
        }
        Ok(fetched)
    }

    fn write_back(&self, seg: SysName, page: u32, data: &[u8]) -> clouds_ra::Result<u64> {
        self.on_home(seg, |home| {
            match self.call(
                home,
                &DsmRequest::WriteBack {
                    seg,
                    page,
                    data: PageBytes::copy_from_slice(data),
                    release: false,
                },
            )? {
                DsmReply::Ok => Ok(0),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })
    }

    /// One `WriteBackBatch` RPC per home server, pipelined across
    /// distinct homes with scoped threads: an N-page commit flush costs
    /// one round trip per server instead of N. A single home is sent
    /// inline.
    fn write_back_batch(&self, items: &[WriteBackItem]) -> Vec<clouds_ra::Result<u64>> {
        if !self.config.batch_write_backs || items.len() <= 1 {
            return items
                .iter()
                .map(|p| self.write_back(p.seg, p.page, &p.data))
                .collect();
        }
        let mut results: Vec<clouds_ra::Result<u64>> = items
            .iter()
            .map(|_| {
                Err(RaError::PartitionUnavailable(
                    "write-back batch item unresolved".into(),
                ))
            })
            .collect();
        let mut groups: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            match self.resolve(item.seg) {
                Ok(home) => groups.entry(home).or_default().push(i),
                Err(e) => results[i] = Err(e),
            }
        }
        let send_group = |home: NodeId, idxs: Vec<usize>| {
            let pages: Vec<WireWriteBack> = idxs
                .iter()
                .map(|&i| WireWriteBack {
                    seg: items[i].seg,
                    page: items[i].page,
                    data: PageBytes::copy_from_slice(&items[i].data),
                })
                .collect();
            let res = self.send_write_back_batch(home, pages);
            (idxs, res)
        };
        let outcomes: Vec<(Vec<usize>, Vec<clouds_ra::Result<u64>>)> = if groups.len() <= 1 {
            groups
                .into_iter()
                .map(|(home, idxs)| send_group(home, idxs))
                .collect()
        } else {
            // Per-home threads inherit the committing thread's causal
            // context: the batch spans parent under the ambient span.
            let ctx = current_ctx();
            std::thread::scope(|s| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|(home, idxs)| {
                        s.spawn(move || {
                            let _trace = ctx.map(install_ctx);
                            send_group(home, idxs)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("write-back batch thread panicked"))
                    .collect()
            })
        };
        for (idxs, group_results) in outcomes {
            for (i, r) in idxs.into_iter().zip(group_results) {
                results[i] = r;
            }
        }
        // Pages fenced off by a stale home — `SegmentNotFound` from a
        // demoted ex-primary or a not-yet-promoted backup — are
        // re-driven through the single-page path, whose `on_home` loop
        // drops the cached home and rediscovers across the failover.
        // Only the fencing error is re-driven: a transport failure
        // (`PartitionUnavailable`) keeps the historical flush contract
        // (the flush fails, frames stay dirty, the caller retries), and
        // `ReplicaUnavailable` means the home answered but a backup is
        // down — re-resolution cannot change either.
        for (i, item) in items.iter().enumerate() {
            if matches!(results[i], Err(RaError::SegmentNotFound(_))) {
                self.forget_home(item.seg);
                results[i] = self.write_back(item.seg, item.page, &item.data);
            }
        }
        results
    }

    /// Dirty eviction in one round trip: the write-back message carries
    /// the release flag instead of a separate `ReleasePage` call.
    fn write_back_and_release(&self, seg: SysName, page: u32, data: &[u8]) -> clouds_ra::Result<u64> {
        self.on_home(seg, |home| {
            match self.call(
                home,
                &DsmRequest::WriteBack {
                    seg,
                    page,
                    data: PageBytes::copy_from_slice(data),
                    release: true,
                },
            )? {
                DsmReply::Ok => Ok(0),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })
        .inspect(|_| {
            self.metrics.merged_evictions.inc();
        })
    }

    fn release_page(&self, seg: SysName, page: u32) -> clouds_ra::Result<()> {
        self.on_home(seg, |home| {
            match self.call(home, &DsmRequest::ReleasePage { seg, page })? {
                DsmReply::Ok => Ok(()),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(unexpected(other)),
            }
        })
    }

    fn ack_page_install(&self, seg: SysName, page: u32, grant_seq: u64) {
        // Fire-and-forget: if the ack is lost the manager's deadline
        // expires and coherence proceeds conservatively.
        // Copy the home out first: an `if let` scrutinee would keep the
        // `homes` guard alive across the notify send.
        let home = self.homes.lock().get(&seg).copied();
        if let Some(home) = home {
            self.ratp.notify(
                home,
                ports::DSM_SERVER,
                proto::encode(&DsmRequest::InstallAck {
                    seg,
                    page,
                    grant_seq,
                }),
            );
        }
    }
}
