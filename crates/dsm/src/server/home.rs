//! The segments a data server homes, behind the two fences that guard
//! them: the crash/restart [`Lifecycle`] and the per-segment serving
//! fence.
//!
//! [`Home`]'s fields are private to this module, so the rest of the
//! server reaches the segment store only through the accessors here,
//! one per plane:
//!
//! * **client plane** — [`Home::check_serving`] returns a [`Serving`]
//!   token holding the segment. The client-op handlers take that token
//!   instead of a sysname, so an arm that skips the fence does not
//!   compile.
//! * **mirror and promotion plane** — [`Home::mirror`],
//!   [`Home::mirror_destroy`] and [`Home::promote`] run their own epoch
//!   checks instead of the serving fence.
//! * **creation and 2PC install** — [`Home::create`] acts before a
//!   segment is served; [`Home::commit_write`] installs the images of a
//!   decided transaction.
//! * **replay** — [`Down::replay`] restores the log only while the
//!   lifecycle is `Replaying`.
//!
//! Every durable mutation appends its own log record and returns the
//! [`Logged`] receipt, which the acknowledging paths carry to the ack.

use super::DsmServer;
use clouds_ra::{RaError, Segment, SegmentStore, SysName};
use clouds_simnet::NodeId;
use clouds_store::{
    replay_cost, LogRecord, LogStore, Logged, ReplayOutcome, ReplayState, ReplicaRecord,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a data server is in its crash/restart lifecycle:
/// `Down → Replaying → Resyncing → Serving`, and back to `Down` on a
/// crash from any state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Crashed: DRAM is gone and the log not yet replayed. The volatile
    /// maps are empty placeholders, not valid state; nothing is served.
    Down,
    /// The log is being replayed into the volatile maps; nothing is
    /// served.
    Replaying,
    /// Replayed, but the replica view may predate a promotion that
    /// happened while this server was down. Serving a replicated
    /// segment on it could be a split brain, so replicated segments stay
    /// fenced until the view is refreshed from the naming directory.
    /// Mirror pushes and promotions still apply: they are how the view
    /// catches up.
    Resyncing,
    /// Serving every segment this server is the primary of.
    Serving,
}

#[derive(Debug)]
struct Phase {
    state: Lifecycle,
    /// Bumped by every crash, so a token minted before a crash can
    /// never move the server after it.
    incarnation: u64,
}

/// Replica configuration of one replicated segment, as this server
/// currently believes it: the full membership in promotion order
/// (`members[0]` is the primary) and the epoch fencing re-homing.
///
/// Like the segment store, this map is volatile: the durable "which
/// disks hold this segment" record is the `ReplicaConfig` entry in the
/// log, from which replay reconstructs this view before the
/// naming-directory resync refines it. A restarted ex-primary may hold a
/// *stale* view; every mirror push carries the sender's view and epoch
/// so stale receivers adopt the newer configuration lazily, and
/// [`DsmServer::adopt_replica_config`] lets a rebooting server resync
/// from the naming directory eagerly.
#[derive(Debug, Clone)]
struct ReplicaState {
    members: Vec<NodeId>,
    epoch: u64,
}

/// The directory stripe owning `key` among `stripes`: a deterministic
/// mix of the 128-bit sysname and the page index, masked to the stripe
/// count. Pure arithmetic (no per-process hasher seed) so runs are
/// reproducible and a one-shard and an eight-shard server agree on
/// every placement decision trivially.
pub(super) fn stripe_of(key: (SysName, u32), stripes: usize) -> usize {
    let raw = key.0.as_u128();
    let mut h =
        (raw as u64) ^ ((raw >> 64) as u64) ^ u64::from(key.1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h as usize) & (stripes - 1)
}

/// The durable state of a data server and the fences in front of it.
pub(super) struct Home {
    node: NodeId,
    /// Volatile page cache over the log; every durable mutation appends
    /// to the log before it is acknowledged.
    store: SegmentStore,
    /// The append-only log: the only state that survives a crash.
    log: Arc<LogStore>,
    /// Replica configuration per replicated segment (absent for plain
    /// single-home segments). `BTreeMap` so enumeration is
    /// deterministic; `RwLock` because the hot path (`check_serving`, on
    /// every request) only reads it.
    replicas: RwLock<BTreeMap<SysName, ReplicaState>>,
    /// Mirror version gates, striped like the coherence directory:
    /// highest primary-side version applied per mirrored page; orders
    /// racing mirror pushes and absorbs duplicates.
    mirror_versions: Vec<Mutex<BTreeMap<(SysName, u32), u64>>>,
    phase: RwLock<Phase>,
}

impl Home {
    pub(super) fn new(node: NodeId, store: SegmentStore, log: LogStore, stripes: usize) -> Home {
        Home {
            node,
            store,
            log: Arc::new(log),
            replicas: RwLock::new(BTreeMap::new()),
            mirror_versions: (0..stripes).map(|_| Mutex::new(BTreeMap::new())).collect(),
            phase: RwLock::new(Phase {
                state: Lifecycle::Serving,
                incarnation: 0,
            }),
        }
    }

    pub(super) fn log(&self) -> &Arc<LogStore> {
        &self.log
    }

    pub(super) fn lifecycle(&self) -> Lifecycle {
        self.phase.read().state
    }

    /// Current incarnation if the lifecycle is in `state`.
    fn incarnation_in(&self, state: Lifecycle) -> Option<u64> {
        let phase = self.phase.read();
        (phase.state == state).then_some(phase.incarnation)
    }

    /// Move `from → to`, unless a crash intervened since the caller's
    /// token was minted.
    fn advance(&self, incarnation: u64, from: Lifecycle, to: Lifecycle) -> bool {
        let mut phase = self.phase.write();
        let moved = phase.incarnation == incarnation && phase.state == from;
        if moved {
            phase.state = to;
        }
        moved
    }

    // --- client plane ----------------------------------------------------

    /// The serving fence. A server that is down or replaying serves
    /// nothing; a resyncing one serves no replicated segment; and a
    /// replicated segment is served only by its primary. A refused
    /// segment answers `SegmentNotFound`, exactly as if this server did
    /// not hold it, so home discovery and failover retries land on the
    /// current primary and never see two servers claiming one segment.
    pub(super) fn check_serving(&self, seg: SysName) -> clouds_ra::Result<Serving<'_>> {
        let state = self.lifecycle();
        let fenced = match state {
            Lifecycle::Down | Lifecycle::Replaying => true,
            Lifecycle::Resyncing => self.replicas.read().contains_key(&seg),
            Lifecycle::Serving => self
                .replicas
                .read()
                .get(&seg)
                .is_some_and(|st| st.members.first() != Some(&self.node)),
        };
        if fenced {
            return Err(RaError::SegmentNotFound(seg));
        }
        Ok(Serving {
            home: self,
            seg,
            segment: self.store.get(seg)?,
        })
    }

    // --- creation and 2PC install ----------------------------------------

    pub(super) fn create(&self, seg: SysName, len: u64) -> clouds_ra::Result<Logged> {
        self.store.create(seg, len)?;
        Ok(self.log.append(LogRecord::SegmentCreate { seg, len }))
    }

    /// Create `seg` as the primary of `members` at epoch 1.
    pub(super) fn create_replicated(
        &self,
        seg: SysName,
        len: u64,
        members: &[NodeId],
    ) -> clouds_ra::Result<Logged> {
        self.create(seg, len)?;
        self.replicas.write().insert(
            seg,
            ReplicaState {
                members: members.to_vec(),
                epoch: 1,
            },
        );
        Ok(self.log_replica_config(seg, members, 1))
    }

    /// Install one page image of a decided transaction. Unfenced: the
    /// two-phase commit decided it, and the caller mirrors it.
    pub(super) fn commit_write(
        &self,
        seg: SysName,
        page: u32,
        data: &[u8],
    ) -> clouds_ra::Result<(u64, Logged)> {
        let version = self.store.get(seg)?.write().write_page(page, data)?;
        Ok((version, self.page_record(seg, page, version, data)))
    }

    fn page_record(&self, seg: SysName, page: u32, version: u64, data: &[u8]) -> Logged {
        self.log.append(LogRecord::PageWrite {
            seg,
            page,
            version,
            data: data.to_vec(),
        })
    }

    // --- replica views and the promotion plane ---------------------------

    pub(super) fn replica_view(&self, seg: SysName) -> Option<(Vec<NodeId>, u64)> {
        self.replicas
            .read()
            .get(&seg)
            .map(|st| (st.members.clone(), st.epoch))
    }

    pub(super) fn replicated_segments(&self) -> Vec<(SysName, Vec<NodeId>, u64)> {
        self.replicas
            .read()
            .iter()
            .map(|(seg, st)| (*seg, st.members.clone(), st.epoch))
            .collect()
    }

    /// The membership and epoch of `seg` if this server is its primary.
    pub(super) fn primary_view(&self, seg: SysName) -> Option<(Vec<NodeId>, u64)> {
        let reps = self.replicas.read();
        let st = reps.get(&seg)?;
        (st.members.first() == Some(&self.node)).then(|| (st.members.clone(), st.epoch))
    }

    pub(super) fn adopt_replica_config(&self, seg: SysName, members: Vec<NodeId>, epoch: u64) {
        let mut reps = self.replicas.write();
        let adopted = match reps.get_mut(&seg) {
            Some(st) if epoch >= st.epoch => {
                st.members = members.clone();
                st.epoch = epoch;
                true
            }
            Some(_) => false,
            None => {
                reps.insert(
                    seg,
                    ReplicaState {
                        members: members.clone(),
                        epoch,
                    },
                );
                true
            }
        };
        drop(reps);
        if adopted {
            self.log_replica_config(seg, &members, epoch);
        }
    }

    /// Append the durable record of a replica-view change; replay keeps
    /// the highest epoch, so logging adoptions unconditionally is safe.
    fn log_replica_config(&self, seg: SysName, members: &[NodeId], epoch: u64) -> Logged {
        self.log.append(LogRecord::ReplicaConfig {
            seg,
            config: ReplicaRecord {
                members: members.iter().map(|n| n.0).collect(),
                epoch,
            },
        })
    }

    /// Assume the primary role for `seg` at `epoch`; `Ok(None)` unless
    /// the epoch was newer and the view changed. The demoted primary
    /// moves to the back of the promotion order.
    pub(super) fn promote(&self, seg: SysName, epoch: u64) -> clouds_ra::Result<Option<Logged>> {
        let mut reps = self.replicas.write();
        let st = reps.get_mut(&seg).ok_or(RaError::SegmentNotFound(seg))?;
        if epoch <= st.epoch {
            return Ok(None);
        }
        if st.members.first() != Some(&self.node) {
            let old = st.members[0];
            st.members.retain(|&n| n != self.node && n != old);
            st.members.insert(0, self.node);
            st.members.push(old);
        }
        st.epoch = epoch;
        let members = st.members.clone();
        drop(reps);
        Ok(Some(self.log_replica_config(seg, &members, epoch)))
    }

    // --- mirror plane ----------------------------------------------------

    /// Accept (or refuse) a mirror push's configuration: the sender must
    /// be the primary of its own view, and its epoch must not be older
    /// than ours — a stale ex-primary that missed its demotion is fenced
    /// off here. An equal-or-newer view is adopted, which is how a
    /// restarted replica with stale membership catches up lazily. The
    /// returned [`Mirror`] is the mirror plane's access to the segment.
    pub(super) fn mirror(
        &self,
        src: NodeId,
        seg: SysName,
        members: &[u32],
        epoch: u64,
    ) -> clouds_ra::Result<Mirror<'_>> {
        if members.first() != Some(&src.0) {
            return Err(RaError::PartitionUnavailable(format!(
                "mirror push from {} which is not the primary of its own view",
                src.0
            )));
        }
        let nodes: Vec<NodeId> = members.iter().map(|&n| NodeId(n)).collect();
        let mut reps = self.replicas.write();
        let changed = match reps.get_mut(&seg) {
            Some(st) => {
                if epoch < st.epoch {
                    return Err(RaError::PartitionUnavailable(format!(
                        "stale mirror epoch {epoch} < {} for {seg}",
                        st.epoch
                    )));
                }
                // Only log real view changes — this runs on every mirror
                // push, and the common case is an unchanged view.
                let changed = st.epoch != epoch || st.members != nodes;
                st.members = nodes.clone();
                st.epoch = epoch;
                changed
            }
            None => {
                reps.insert(
                    seg,
                    ReplicaState {
                        members: nodes.clone(),
                        epoch,
                    },
                );
                true
            }
        };
        drop(reps);
        if changed {
            self.log_replica_config(seg, &nodes, epoch);
        }
        Ok(Mirror { home: self, seg })
    }

    /// Apply a mirrored destroy unless its epoch is stale; `Ok(None)` for
    /// a duplicate.
    pub(super) fn mirror_destroy(
        &self,
        seg: SysName,
        epoch: u64,
    ) -> clouds_ra::Result<Option<Logged>> {
        {
            let mut reps = self.replicas.write();
            match reps.get(&seg) {
                None => return Ok(None),
                Some(st) if epoch < st.epoch => {
                    return Err(RaError::PartitionUnavailable(format!(
                        "stale mirror destroy epoch {epoch} < {}",
                        st.epoch
                    )))
                }
                Some(_) => {}
            }
            reps.remove(&seg);
        }
        let logged = self.log.append(LogRecord::SegmentDestroy { seg });
        self.drop_mirror_versions(seg);
        match self.store.destroy(seg) {
            Ok(()) | Err(RaError::SegmentNotFound(_)) => Ok(Some(logged)),
            Err(e) => Err(e),
        }
    }

    /// Drop every mirror version record of `seg`, visiting the stripes
    /// in ascending index order (one guard at a time).
    fn drop_mirror_versions(&self, seg: SysName) {
        for idx in 0..self.mirror_versions.len() {
            self.mirror_versions[idx]
                .lock()
                .retain(|(s, _), _| *s != seg);
        }
    }

    // --- inspection ------------------------------------------------------

    pub(super) fn holds(&self, seg: SysName) -> bool {
        self.store.contains(seg)
    }

    pub(super) fn read_stored(
        &self,
        seg: SysName,
        offset: u64,
        len: usize,
    ) -> clouds_ra::Result<Vec<u8>> {
        self.store.get(seg)?.read().read(offset, len)
    }

    pub(super) fn segment_count(&self) -> usize {
        self.store.len()
    }

    // --- lifecycle -------------------------------------------------------

    /// Enter `Down` and drop everything volatile: the segment cache, the
    /// replica view, the mirror version gates and the log's own index.
    /// Stripes are visited in ascending index order, one guard at a
    /// time.
    fn crash(&self) -> u64 {
        let incarnation = {
            let mut phase = self.phase.write();
            phase.state = Lifecycle::Down;
            phase.incarnation += 1;
            phase.incarnation
        };
        self.store.clear();
        self.replicas.write().clear();
        for idx in 0..self.mirror_versions.len() {
            self.mirror_versions[idx].lock().clear();
        }
        self.log.crash();
        incarnation
    }

    /// Rebuild the segment cache, replica view and mirror version gates
    /// from replayed state; allowed only while `Replaying`.
    fn restore(&self, _authority: &Replaying, state: &ReplayState) {
        for (seg, rs) in &state.segments {
            // A segment already in place is fine: restore_page is
            // idempotent per (page, version).
            let _ = self.store.create(*seg, rs.len);
            if let Ok(segment) = self.store.get(*seg) {
                let mut guard = segment.write();
                for (page, (version, data)) in &rs.pages {
                   
                    let _ = guard.restore_page(*page, data, *version);
                }
            }
        }
        {
            let mut reps = self.replicas.write();
            for (seg, config) in &state.replicas {
                reps.insert(
                    *seg,
                    ReplicaState {
                        members: config.members.iter().map(|&n| NodeId(n)).collect(),
                        epoch: config.epoch,
                    },
                );
            }
        }
        // Mirror version gates resume at the logged page versions so a
        // re-pushed (duplicate) mirror write from before the crash is
        // still recognized as a duplicate.
        for (seg, rs) in &state.segments {
            if state.replicas.contains_key(seg) {
                for (page, (version, _)) in &rs.pages {
                   
                    let idx = stripe_of((*seg, *page), self.mirror_versions.len());
                    self.mirror_versions[idx]
                        .lock()
                        .insert((*seg, *page), *version);
                }
            }
        }
    }
}

/// Proof that this server serves a segment right now, holding the
/// segment itself.
///
/// Only [`DsmServer::check_serving`] mints one, and the client-op
/// handlers ([`DsmServer::fetch`], [`DsmServer::write_back`] and the
/// rest of the wire arms) take a `Serving` where they would otherwise
/// take a sysname. Skipping the fence therefore leaves a handler
/// nothing to run on:
///
/// ```
/// # use clouds_dsm::{proto::{DsmReply, WireMode}, DsmServer};
/// # use clouds_ra::SysName;
/// # use clouds_simnet::NodeId;
/// fn fetch_page(server: &DsmServer, src: NodeId, seg: SysName, page: u32) -> DsmReply {
///     match server.check_serving(seg) {
///         Ok(serving) => server.fetch(src, &serving, page, WireMode::Read),
///         Err(e) => DsmReply::Err(e.into()),
///     }
/// }
/// ```
///
/// An unfenced `FetchPage` — the bug class of a demoted replica serving
/// reads on the wrong side of a promotion — does not compile:
///
/// ```compile_fail,E0308
/// # use clouds_dsm::{proto::{DsmReply, WireMode}, DsmServer};
/// # use clouds_ra::SysName;
/// # use clouds_simnet::NodeId;
/// fn fetch_page(server: &DsmServer, src: NodeId, seg: SysName, page: u32) -> DsmReply {
///     server.fetch(src, seg, page, WireMode::Read)
/// }
/// ```
///
/// Nor does a `WriteBackBatch` that applies its pages without fencing
/// each one's segment — the hole that once let a demoted ex-primary
/// collect write-backs the real primary never saw:
///
/// ```compile_fail,E0308
/// # use clouds_dsm::{proto::WireWriteBack, DsmServer};
/// # use clouds_simnet::NodeId;
/// fn write_back_batch(server: &DsmServer, src: NodeId, pages: &[WireWriteBack]) {
///     for p in pages {
///         let _ = server.write_back(src, p.seg, p.page, &p.data, false);
///     }
/// }
/// ```
pub struct Serving<'a> {
    home: &'a Home,
    seg: SysName,
    segment: Arc<RwLock<Segment>>,
}

impl Serving<'_> {
    /// The served segment's sysname.
    pub fn seg(&self) -> SysName {
        self.seg
    }

    /// Read access to the served segment.
    pub(super) fn read(&self) -> RwLockReadGuard<'_, Segment> {
        self.segment.read()
    }

    /// Write one page and append its record; the version and the
    /// receipt come back together.
    pub(super) fn write_logged(&self, page: u32, data: &[u8]) -> clouds_ra::Result<(u64, Logged)> {
        // The segment guard is a statement temporary: released before
        // the log append.
        let version = self.segment.write().write_page(page, data)?;
        Ok((
            version,
            self.home.page_record(self.seg, page, version, data),
        ))
    }

    /// Drop the segment, its replica entry and its mirror version gates,
    /// and log the destroy.
    pub(super) fn destroy(self) -> clouds_ra::Result<Logged> {
        let home = self.home;
        home.store.destroy(self.seg)?;
        let logged = home.log.append(LogRecord::SegmentDestroy { seg: self.seg });
        home.replicas.write().remove(&self.seg);
        home.drop_mirror_versions(self.seg);
        Ok(logged)
    }
}

/// The mirror plane's access to one segment, minted by [`Home::mirror`]
/// once the push's epoch passed.
pub(super) struct Mirror<'a> {
    home: &'a Home,
    seg: SysName,
}

impl Mirror<'_> {
    /// Create the backup copy; `Ok(None)` when a retransmitted create
    /// finds it in place (the duplicate case, already logged).
    pub(super) fn create(&self, len: u64) -> clouds_ra::Result<Option<Logged>> {
        match self.home.create(self.seg, len) {
            Ok(logged) => Ok(Some(logged)),
            Err(RaError::SegmentExists(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Apply a pushed page image at the primary's `version`; `Ok(None)`
    /// for a duplicate or superseded push. Applied under the page's
    /// version-stripe lock so a racing older push can never overwrite a
    /// newer image.
    pub(super) fn apply_page(
        &self,
        page: u32,
        data: &[u8],
        version: u64,
    ) -> clouds_ra::Result<Option<Logged>> {
        let home = self.home;
        let idx = stripe_of((self.seg, page), home.mirror_versions.len());
        let mut versions = home.mirror_versions[idx].lock();
        let slot = versions.entry((self.seg, page)).or_insert(0);
        if version <= *slot {
            return Ok(None);
        }
        home.store.get(self.seg)?.write().write_page(page, data)?;
        *slot = version;
        // Log the *primary's* version, not the local counter: after a
        // replay the gate above must resume at the highest version this
        // backup ever applied.
        Ok(Some(home.page_record(self.seg, page, version, data)))
    }
}

/// Proof that the log may be replayed into the store: held only inside
/// [`Down::replay`] while the lifecycle is `Replaying`.
struct Replaying(());

/// A crashed server. The only way out of `Down` is [`Down::replay`]:
/// the fence cannot lift on the empty maps a crash leaves behind.
///
/// ```
/// # fn restart(server: &clouds_dsm::DsmServer) {
/// let (resyncing, _outcome) = server.crash().replay();
/// resyncing.serve();
/// # }
/// ```
///
/// Lifting the fence straight from `Down` — serving from the maps the
/// crash emptied, where a demoted ex-primary's missing replica view
/// would fence nothing — does not compile:
///
/// ```compile_fail,E0599
/// # fn restart(server: &clouds_dsm::DsmServer) {
/// server.crash().serve();
/// # }
/// ```
#[derive(Debug)]
pub struct Down<'a> {
    server: &'a DsmServer,
    incarnation: u64,
}

impl<'a> Down<'a> {
    /// `Down → Replaying → Resyncing`: rebuild the segment cache, replica
    /// view and mirror version gates from the log alone, charging this
    /// node's virtual clock the sequential scan cost ([`replay_cost`])
    /// and recording it in the `store.replay` histogram. Returns the
    /// [`Resyncing`] token with the full [`ReplayOutcome`], from which
    /// co-located services (the 2PC participant, the outcome registry)
    /// resume their own durable state.
    pub fn replay(self) -> (Resyncing<'a>, ReplayOutcome) {
        let server = self.server;
        let home = &server.home;
        let replaying = home
            .advance(self.incarnation, Lifecycle::Down, Lifecycle::Replaying)
            .then_some(Replaying(()));
        let out = home.log.replay();
        let cost = replay_cost(out.bytes, out.log_segments);
        server.obs.clock().charge(cost);
        server.metrics.replay.record(cost);
        if let Some(authority) = &replaying {
            home.restore(authority, &out.state);
            home.advance(self.incarnation, Lifecycle::Replaying, Lifecycle::Resyncing);
        }
        server.obs.instant(
            "dsm.server",
            "log_replay",
            format!(
                "records={} bytes={} torn={} cost={cost}",
                out.records, out.bytes, out.torn_dropped
            ),
        );
        let resyncing = Resyncing {
            server,
            incarnation: self.incarnation,
        };
        (resyncing, out)
    }
}

/// A replayed server whose replica views still need the naming
/// directory's word before replicated segments are served again.
#[derive(Debug)]
pub struct Resyncing<'a> {
    server: &'a DsmServer,
    incarnation: u64,
}

impl Resyncing<'_> {
    /// `Resyncing → Serving`: lift the recovery fence. Call once every
    /// replicated segment's view was refreshed. A crash since this token
    /// was minted makes it a no-op.
    pub fn serve(self) {
        self.server
            .home
            .advance(self.incarnation, Lifecycle::Resyncing, Lifecycle::Serving);
    }
}

impl DsmServer {
    /// Where this server is in its crash/restart lifecycle.
    pub fn lifecycle(&self) -> Lifecycle {
        self.home.lifecycle()
    }

    /// The crash wiping this node's DRAM: the lifecycle enters `Down`
    /// and the coherence directory, every cached segment image, the
    /// replica view, the mirror version gates, the log's volatile index
    /// ([`LogStore::crash`]) and the transport's volatile state are
    /// dropped. Only the log media survives; [`Down::replay`] rebuilds
    /// the rest.
    pub fn crash(&self) -> Down<'_> {
        let incarnation = self.home.crash();
        self.clear_directory();
        self.ratp.reset_volatile_state();
        Down {
            server: self,
            incarnation,
        }
    }

    /// The `Down` token, if the server is down.
    pub fn down(&self) -> Option<Down<'_>> {
        let incarnation = self.home.incarnation_in(Lifecycle::Down)?;
        Some(Down {
            server: self,
            incarnation,
        })
    }

    /// The `Resyncing` token, if the server is resyncing — how a resync
    /// deferred by an unreachable naming directory is finished later.
    pub fn resyncing(&self) -> Option<Resyncing<'_>> {
        let incarnation = self.home.incarnation_in(Lifecycle::Resyncing)?;
        Some(Resyncing {
            server: self,
            incarnation,
        })
    }
}
