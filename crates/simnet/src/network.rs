//! The network itself: registration, delivery, faults, crash/restart.

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::frame::{Frame, MTU};
use crate::schedule::{FaultAction, FaultEvent, FaultSchedule};
use crate::stats::{NetworkStats, Stats};
use crate::time::{VirtualClock, Vt};
use crate::NodeId;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors returned by [`Endpoint::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SendError {
    /// Payload exceeds [`MTU`]; fragment at the transport layer.
    FrameTooLarge(usize),
    /// Destination node id was never registered.
    UnknownNode(NodeId),
    /// The sending node is crashed.
    SourceCrashed,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::FrameTooLarge(n) => write!(f, "frame payload {n} exceeds MTU {MTU}"),
            SendError::UnknownNode(id) => write!(f, "unknown destination {id}"),
            SendError::SourceCrashed => write!(f, "sending node is crashed"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors returned by the receive operations on [`Endpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecvError {
    /// No frame arrived before the timeout expired.
    Timeout,
    /// The receiving node is crashed.
    Crashed,
    /// The endpoint was detached from the network.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Crashed => write!(f, "receiving node is crashed"),
            RecvError::Disconnected => write!(f, "network disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

struct NodeSlot {
    tx: Sender<Frame>,
    /// Kept so [`Network::restart`] can drain frames queued while crashed.
    rx: Receiver<Frame>,
    clock: Arc<VirtualClock>,
    crashed: Arc<AtomicBool>,
}

/// Compiled [`FaultSchedule`] plus the application cursor.
#[derive(Default)]
struct ScheduleState {
    events: Vec<FaultEvent>,
    /// Index of the first event not yet applied.
    next: usize,
    /// Highest virtual time the schedule has been advanced to.
    high_water: Vt,
}

/// Frames held back by reorder faults may queue up to this many per
/// destination before newer traffic forces delivery.
const REORDER_LIMBO_CAP: usize = 4;

struct NetInner {
    cost: CostModel,
    nodes: RwLock<HashMap<NodeId, NodeSlot>>,
    faults: Mutex<FaultPlan>,
    rng: Mutex<StdRng>,
    stats: Stats,
    seq: AtomicU64,
    schedule: Mutex<ScheduleState>,
    /// Frames held back by reorder faults, per destination; they are
    /// released after the next normally-delivered frame to that node.
    limbo: Mutex<BTreeMap<NodeId, Vec<Frame>>>,
}

/// Handle to the simulated network; cheap to clone.
///
/// One `Network` models one Ethernet segment connecting all Clouds
/// compute servers, data servers and user workstations (paper Figure 3).
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.inner.nodes.read().len())
            .field("stats", &self.inner.stats.snapshot())
            .finish()
    }
}

impl Network {
    /// Create a network with the given cost model and a fixed default seed.
    pub fn new(cost: CostModel) -> Network {
        Network::with_seed(cost, 0xC10D5)
    }

    /// Create a network whose fault randomness is driven by `seed`.
    pub fn with_seed(cost: CostModel, seed: u64) -> Network {
        Network {
            inner: Arc::new(NetInner {
                cost,
                nodes: RwLock::new(HashMap::new()),
                faults: Mutex::new(FaultPlan::none()),
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                stats: Stats::default(),
                seq: AtomicU64::new(0),
                schedule: Mutex::new(ScheduleState::default()),
                limbo: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Attach a node and return its endpoint.
    ///
    /// # Errors
    ///
    /// Returns `None` if `id` is already registered.
    #[allow(clippy::result_unit_err)]
    pub fn register(&self, id: NodeId) -> Option<Endpoint> {
        let mut nodes = self.inner.nodes.write();
        if nodes.contains_key(&id) {
            return None;
        }
        let (tx, rx) = channel::unbounded();
        let clock = Arc::new(VirtualClock::new());
        let crashed = Arc::new(AtomicBool::new(false));
        nodes.insert(
            id,
            NodeSlot {
                tx,
                rx: rx.clone(),
                clock: Arc::clone(&clock),
                crashed: Arc::clone(&crashed),
            },
        );
        Some(Endpoint {
            id,
            clock,
            rx,
            crashed,
            net: Arc::clone(&self.inner),
        })
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Virtual clock of a registered node.
    pub fn clock(&self, id: NodeId) -> Option<Arc<VirtualClock>> {
        self.inner.nodes.read().get(&id).map(|s| Arc::clone(&s.clock))
    }

    /// Replace the whole fault plan.
    pub fn set_faults(&self, plan: FaultPlan) {
        *self.inner.faults.lock() = plan;
    }

    /// Set the global frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_loss(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.inner.faults.lock().global_loss = p;
    }

    /// Set the loss probability of the directed link `src → dst`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_link_loss(&self, src: NodeId, dst: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.inner.faults.lock().link_loss.insert((src, dst), p);
    }

    /// Set the frame duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_duplication(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "duplication probability out of range");
        self.inner.faults.lock().duplication = p;
    }

    /// Partition the network between `left` and `right` node sets.
    pub fn partition(&self, left: &[NodeId], right: &[NodeId]) {
        self.inner.faults.lock().partition(left, right);
    }

    /// Remove all partitions.
    pub fn heal(&self) {
        self.inner.faults.lock().heal();
    }

    /// Crash a node: frames to and from it are dropped until
    /// [`Network::restart`].
    pub fn crash(&self, id: NodeId) {
        if let Some(slot) = self.inner.nodes.read().get(&id) {
            slot.crashed.store(true, Ordering::Release);
        }
    }

    /// Restart a crashed node, discarding any frames queued while it was
    /// down (they were "on the wire" to a dead machine).
    pub fn restart(&self, id: NodeId) {
        if let Some(slot) = self.inner.nodes.read().get(&id) {
            while slot.rx.try_recv().is_ok() {}
            slot.crashed.store(false, Ordering::Release);
        }
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.inner
            .nodes
            .read()
            .get(&id)
            .is_some_and(|s| s.crashed.load(Ordering::Acquire))
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetworkStats {
        self.inner.stats.snapshot()
    }

    /// Install a time-varying fault schedule.
    ///
    /// The current fault plan is replaced with a clean one; the schedule's
    /// compiled events then fire as virtual time advances past them.
    /// Virtual time is observed at each send (the sender's clock), so
    /// events apply lazily with traffic; use
    /// [`Network::advance_schedule_to`] to force all events up to an
    /// instant — e.g. the schedule horizon — regardless of traffic.
    pub fn set_schedule(&self, schedule: &FaultSchedule) {
        let events = schedule.events();
        let mut sched = self.inner.schedule.lock();
        *self.inner.faults.lock() = FaultPlan::none();
        *sched = ScheduleState {
            events,
            next: 0,
            high_water: Vt::ZERO,
        };
    }

    /// Apply every schedule event with threshold `≤ t` and release any
    /// frames held back by reorder faults.
    ///
    /// Calling this with a time at or past [`FaultSchedule::healed_by`]
    /// guarantees the network is fully healed: all scheduled crashes have
    /// restarted, partitions are reconnected, and probabilistic faults are
    /// back to zero.
    pub fn advance_schedule_to(&self, t: Vt) {
        self.inner.apply_schedule(t);
        self.inner.flush_limbo();
    }

    /// Number of schedule events not yet applied.
    pub fn schedule_pending(&self) -> usize {
        let sched = self.inner.schedule.lock();
        sched.events.len() - sched.next
    }

    /// Highest virtual clock across all registered nodes — a convenient
    /// "global now" for driving [`Network::advance_schedule_to`].
    pub fn max_now(&self) -> Vt {
        self.inner
            .nodes
            .read()
            // lint:allow(hash-iter) — commutative max.
            .values()
            .map(|s| s.clock.now())
            .max()
            .unwrap_or(Vt::ZERO)
    }
}

impl NetInner {
    fn deliver(&self, src: NodeId, src_now: Vt, dst: NodeId, payload: Bytes) -> Result<(), SendError> {
        if payload.len() > MTU {
            return Err(SendError::FrameTooLarge(payload.len()));
        }
        // Fire schedule events virtual time has reached, before taking the
        // node table lock (applying a crash/restart needs it too).
        self.apply_schedule(src_now);
        let nodes = self.nodes.read();
        let slot = nodes.get(&dst).ok_or(SendError::UnknownNode(dst))?;

        let (lost, duplicated, jitter, corrupt_at, stash) = {
            let faults = self.faults.lock();
            if faults.is_partitioned(src, dst) {
                self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                return Ok(()); // silently dropped, like a cut cable
            }
            let loss = faults.loss_probability(src, dst);
            let mut rng = self.rng.lock();
            let lost = loss > 0.0 && rng.gen_bool(loss.clamp(0.0, 1.0));
            let duplicated =
                faults.duplication > 0.0 && rng.gen_bool(faults.duplication.clamp(0.0, 1.0));
            let jitter = if faults.jitter > Vt::ZERO {
                Vt::from_nanos(rng.gen_range(0..=faults.jitter.as_nanos()))
            } else {
                Vt::ZERO
            };
            let corrupt_at = (!payload.is_empty()
                && faults.corruption > 0.0
                && rng.gen_bool(faults.corruption.clamp(0.0, 1.0)))
            .then(|| (rng.gen_range(0..payload.len()), rng.gen_range(0..8u32)));
            let stash = faults.reorder > 0.0 && rng.gen_bool(faults.reorder.clamp(0.0, 1.0));
            (lost, duplicated, jitter, corrupt_at, stash)
        };

        if slot.crashed.load(Ordering::Acquire) || lost {
            self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        let payload = match corrupt_at {
            Some((idx, bit)) => {
                self.stats.frames_corrupted.fetch_add(1, Ordering::Relaxed);
                let mut bytes = payload.to_vec();
                bytes[idx] ^= 1 << bit;
                Bytes::from(bytes)
            }
            None => payload,
        };

        let arrival = src_now + self.cost.frame_delay(payload.len()) + jitter;
        let frame = Frame {
            src,
            dst,
            payload,
            arrival,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);

        if stash {
            let mut limbo = self.limbo.lock();
            let held = limbo.entry(dst).or_default();
            if held.len() < REORDER_LIMBO_CAP {
                self.stats.frames_reordered.fetch_add(1, Ordering::Relaxed);
                held.push(frame);
                return Ok(());
            }
        }

        if duplicated {
            self.stats.frames_duplicated.fetch_add(1, Ordering::Relaxed);
            // lint:allow(lock-across-call) — slot.tx is unbounded; send never blocks.
            let _ = slot.tx.send(frame.clone());
        }
        // lint:allow(lock-across-call) — slot.tx is unbounded; send never blocks.
        let _ = slot.tx.send(frame);
        // Anything held back for this destination now goes out *after*
        // the newer frame — that is the reordering. Take the batch out
        // under the lock, send after releasing it.
        let held = self.limbo.lock().remove(&dst);
        if let Some(held) = held {
            for f in held {
                // lint:allow(lock-across-call) — slot.tx is unbounded; send never blocks.
                let _ = slot.tx.send(f);
            }
        }
        Ok(())
    }

    /// Apply every schedule event with threshold `≤ now`, in order.
    fn apply_schedule(&self, now: Vt) {
        let mut sched = self.schedule.lock();
        if now > sched.high_water {
            sched.high_water = now;
        }
        while let Some(event) = sched.events.get(sched.next) {
            if event.at > now {
                break;
            }
            let action = event.action.clone();
            sched.next += 1;
            // lint:allow(lock-across-call) — apply_action only feeds
            // unbounded in-process queues; holding the schedule lock
            // keeps fault application atomic w.r.t. the threshold.
            self.apply_action(&action);
        }
    }

    fn apply_action(&self, action: &FaultAction) {
        match action {
            FaultAction::Crash(id) => {
                if let Some(slot) = self.nodes.read().get(id) {
                    slot.crashed.store(true, Ordering::Release);
                }
            }
            FaultAction::Restart(id) => {
                if let Some(slot) = self.nodes.read().get(id) {
                    while slot.rx.try_recv().is_ok() {}
                    slot.crashed.store(false, Ordering::Release);
                }
            }
            FaultAction::Partition { left, right } => self.faults.lock().partition(left, right),
            FaultAction::Unpartition { left, right } => {
                self.faults.lock().unpartition(left, right)
            }
            FaultAction::SetLoss(p) => self.faults.lock().global_loss = *p,
            FaultAction::SetDuplication(p) => self.faults.lock().duplication = *p,
            FaultAction::SetJitter(j) => self.faults.lock().jitter = *j,
            FaultAction::SetReorder(p) => {
                self.faults.lock().reorder = *p;
                if *p == 0.0 {
                    // The reorder window closed; release held frames so
                    // none are stranded.
                    self.flush_limbo();
                }
            }
            FaultAction::SetCorruption(p) => self.faults.lock().corruption = *p,
        }
    }

    /// Deliver (or, for crashed destinations, drop) every frame held back
    /// by reorder faults.
    fn flush_limbo(&self) {
        let nodes = self.nodes.read();
        let drained = std::mem::take(&mut *self.limbo.lock());
        for (dst, frames) in drained {
            if let Some(slot) = nodes.get(&dst) {
                if slot.crashed.load(Ordering::Acquire) {
                    self.stats
                        .frames_dropped
                        .fetch_add(frames.len() as u64, Ordering::Relaxed);
                } else {
                    for f in frames {
                        // lint:allow(lock-across-call) — slot.tx is unbounded; send never blocks.
                        let _ = slot.tx.send(f);
                    }
                }
            }
        }
    }
}

/// A node's attachment to the network.
///
/// Owned by the node's kernel; receive operations advance the node's
/// virtual clock to each frame's arrival time, so "waiting for the wire"
/// is visible in virtual time without any real sleeping.
pub struct Endpoint {
    id: NodeId,
    clock: Arc<VirtualClock>,
    rx: Receiver<Frame>,
    crashed: Arc<AtomicBool>,
    net: Arc<NetInner>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Endpoint {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The network's cost model (shared by all nodes).
    pub fn cost_model(&self) -> &CostModel {
        &self.net.cost
    }

    /// Transmit one frame.
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MTU`], the destination is unknown,
    /// or this node is crashed. Loss/partition faults are *not* errors —
    /// the frame silently disappears, as on a real wire.
    pub fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), SendError> {
        if self.crashed.load(Ordering::Acquire) {
            return Err(SendError::SourceCrashed);
        }
        self.net.deliver(self.id, self.clock.now(), dst, payload)
    }

    /// Receive the next frame, waiting up to `timeout` of *real* time.
    ///
    /// On success the node's virtual clock advances to the frame's
    /// arrival instant.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived, [`RecvError::Crashed`]
    /// if this node is down, [`RecvError::Disconnected`] if the endpoint
    /// was detached and its queue is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError> {
        if self.crashed.load(Ordering::Acquire) {
            return Err(RecvError::Crashed);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => {
                if self.crashed.load(Ordering::Acquire) {
                    return Err(RecvError::Crashed);
                }
                self.clock.advance_to(frame.arrival);
                Ok(frame)
            }
            Err(channel::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(channel::RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Wait for the next frame with no timeout, also while this node is
    /// crashed (nothing is delivered to a crashed node, so the wait
    /// lasts until a restart and fresh traffic, or a detach).
    ///
    /// # Errors
    ///
    /// [`RecvError::Crashed`] for a frame that arrives while this node
    /// is down (it is discarded), [`RecvError::Disconnected`] once the
    /// endpoint is detached and drained.
    pub fn recv(&self) -> Result<Frame, RecvError> {
        let frame = self.rx.recv().map_err(|_| RecvError::Disconnected)?;
        if self.crashed.load(Ordering::Acquire) {
            return Err(RecvError::Crashed);
        }
        self.clock.advance_to(frame.arrival);
        Ok(frame)
    }

    /// Remove this node from the network for good: frames addressed to
    /// it fail with [`SendError::UnknownNode`], and once the frames
    /// already queued are drained, [`Endpoint::recv_timeout`] returns
    /// [`RecvError::Disconnected`] at once instead of waiting. The id
    /// may be registered again afterwards. Idempotent.
    pub fn detach(&self) {
        let mut nodes = self.net.nodes.write();
        if nodes
            .get(&self.id)
            .is_some_and(|slot| Arc::ptr_eq(&slot.clock, &self.clock))
        {
            nodes.remove(&self.id);
        }
    }

    /// Receive without blocking.
    ///
    /// # Errors
    ///
    /// Same as [`Endpoint::recv_timeout`], with [`RecvError::Timeout`]
    /// meaning "no frame queued right now".
    pub fn try_recv(&self) -> Result<Frame, RecvError> {
        self.recv_timeout(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cost: CostModel) -> (Network, Endpoint, Endpoint) {
        let net = Network::new(cost);
        let a = net.register(NodeId(1)).unwrap();
        let b = net.register(NodeId(2)).unwrap();
        (net, a, b)
    }

    #[test]
    fn basic_delivery_advances_clock() {
        let (_net, a, b) = pair(CostModel::sun3_ethernet());
        a.send(NodeId(2), Bytes::from(vec![0u8; 72])).unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(f.src, NodeId(1));
        assert_eq!(f.len(), 72);
        assert_eq!(b.clock().now(), Vt::from_micros(1200));
    }

    #[test]
    fn echo_round_trip_matches_paper() {
        let (_net, a, b) = pair(CostModel::sun3_ethernet());
        a.send(NodeId(2), Bytes::from(vec![0u8; 72])).unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.send(NodeId(1), f.payload).unwrap();
        a.recv_timeout(Duration::from_secs(1)).unwrap();
        // Paper §4.3: Ethernet round trip for a short (72 byte) message
        // is 2.4 ms.
        assert_eq!(a.clock().now(), Vt::from_micros(2400));
    }

    #[test]
    fn oversized_frame_rejected() {
        let (_net, a, _b) = pair(CostModel::zero());
        let err = a.send(NodeId(2), Bytes::from(vec![0u8; MTU + 1])).unwrap_err();
        assert_eq!(err, SendError::FrameTooLarge(MTU + 1));
    }

    #[test]
    fn unknown_destination_rejected() {
        let (_net, a, _b) = pair(CostModel::zero());
        let err = a.send(NodeId(9), Bytes::new()).unwrap_err();
        assert_eq!(err, SendError::UnknownNode(NodeId(9)));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let net = Network::new(CostModel::zero());
        assert!(net.register(NodeId(1)).is_some());
        assert!(net.register(NodeId(1)).is_none());
    }

    #[test]
    fn detach_drains_then_disconnects() {
        let (net, a, b) = pair(CostModel::zero());
        a.send(NodeId(2), Bytes::from_static(b"queued")).unwrap();
        b.detach();
        assert_eq!(
            a.send(NodeId(2), Bytes::new()),
            Err(SendError::UnknownNode(NodeId(2)))
        );
        assert!(b.recv().is_ok());
        assert!(matches!(b.recv(), Err(RecvError::Disconnected)));
        // A stale endpoint's detach leaves a re-registration alone.
        let again = net.register(NodeId(2)).unwrap();
        b.detach();
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        assert!(again.try_recv().is_ok());
    }

    #[test]
    fn detach_wakes_a_crashed_receiver() {
        let (net, _a, b) = pair(CostModel::zero());
        net.crash(NodeId(2));
        let b = Arc::new(b);
        let waiting = Arc::clone(&b);
        let waiter = std::thread::spawn(move || waiting.recv());
        b.detach();
        assert!(matches!(
            waiter.join().unwrap(),
            Err(RecvError::Disconnected)
        ));
    }

    #[test]
    fn total_loss_drops_everything() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_loss(1.0);
        for _ in 0..10 {
            a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        }
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        assert_eq!(net.stats().frames_dropped, 10);
    }

    #[test]
    fn partition_blocks_both_directions_and_heals() {
        let (net, a, b) = pair(CostModel::zero());
        net.partition(&[NodeId(1)], &[NodeId(2)]);
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        b.send(NodeId(1), Bytes::from_static(b"y")).unwrap();
        assert!(matches!(a.try_recv(), Err(RecvError::Timeout)));
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        net.heal();
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn crash_and_restart() {
        let (net, a, b) = pair(CostModel::zero());
        net.crash(NodeId(2));
        assert!(net.is_crashed(NodeId(2)));
        a.send(NodeId(2), Bytes::from_static(b"lost")).unwrap();
        assert!(matches!(b.try_recv(), Err(RecvError::Crashed)));
        assert!(matches!(
            b.send(NodeId(1), Bytes::new()),
            Err(SendError::SourceCrashed)
        ));
        net.restart(NodeId(2));
        assert!(!net.is_crashed(NodeId(2)));
        // The frame sent while crashed is gone.
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        a.send(NodeId(2), Bytes::from_static(b"alive")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
            b"alive"
        );
    }

    #[test]
    fn duplication_injects_copies() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_duplication(1.0);
        a.send(NodeId(2), Bytes::from_static(b"d")).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert_eq!(net.stats().frames_duplicated, 1);
    }

    #[test]
    fn seeded_loss_is_reproducible() {
        let observed: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let net = Network::with_seed(CostModel::zero(), 42);
                let a = net.register(NodeId(1)).unwrap();
                let b = net.register(NodeId(2)).unwrap();
                net.set_loss(0.5);
                let mut got = Vec::new();
                for i in 0..32u64 {
                    a.send(NodeId(2), Bytes::from(i.to_le_bytes().to_vec())).unwrap();
                    if let Ok(f) = b.try_recv() {
                        got.push(u64::from_le_bytes(f.payload[..].try_into().unwrap()));
                    }
                }
                got
            })
            .collect();
        assert_eq!(observed[0], observed[1]);
        assert!(!observed[0].is_empty());
        assert!(observed[0].len() < 32);
    }

    #[test]
    fn stats_count_bytes() {
        let (net, a, b) = pair(CostModel::zero());
        a.send(NodeId(2), Bytes::from(vec![0u8; 100])).unwrap();
        a.send(NodeId(2), Bytes::from(vec![0u8; 50])).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let s = net.stats();
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 150);
    }

    #[test]
    fn clock_only_moves_forward_across_messages() {
        let (_net, a, b) = pair(CostModel::sun3_ethernet());
        // b does heavy local work first.
        b.clock().charge(Vt::from_millis(50));
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        // Arrival (≈1.2ms) is in b's past; clock must not rewind.
        assert!(b.clock().now() >= Vt::from_millis(50));
    }

    // ---- schedule engine -------------------------------------------------

    use crate::schedule::{Disruption, DisruptionKind};

    fn window(at: Vt, until: Vt, kind: DisruptionKind) -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            disruptions: vec![Disruption { at, until, kind }],
        }
    }

    #[test]
    fn schedule_crash_applies_and_recovers_with_virtual_time() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::from_millis(1),
            Vt::from_millis(2),
            DisruptionKind::Crash(NodeId(2)),
        ));
        // Before the window: delivered.
        a.send(NodeId(2), Bytes::from_static(b"pre")).unwrap();
        assert!(b.try_recv().is_ok());
        // Advance the sender's clock into the window; sending applies the
        // crash, so the frame is lost.
        a.clock().charge(Vt::from_millis(1));
        a.send(NodeId(2), Bytes::from_static(b"mid")).unwrap();
        assert!(matches!(b.try_recv(), Err(RecvError::Crashed)));
        // Past the window: the restart fires before delivery.
        a.clock().charge(Vt::from_millis(1));
        a.send(NodeId(2), Bytes::from_static(b"post")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
            b"post"
        );
        assert_eq!(net.schedule_pending(), 0);
    }

    #[test]
    fn schedule_corruption_flips_exactly_one_bit() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(10),
            DisruptionKind::Corruption(1.0),
        ));
        let sent = vec![0u8; 64];
        a.send(NodeId(2), Bytes::from(sent.clone())).unwrap();
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap().payload;
        let diff_bits: u32 = got.iter().zip(&sent).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(diff_bits, 1);
        assert_eq!(net.stats().frames_corrupted, 1);
    }

    #[test]
    fn schedule_reordering_delivers_out_of_order() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(10),
            DisruptionKind::Reorder(1.0),
        ));
        for i in 0..5u8 {
            a.send(NodeId(2), Bytes::from(vec![i])).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(f) = b.try_recv() {
            got.push(f.payload[0]);
        }
        // All five arrive (the limbo cap forces the flush), out of order.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_ne!(got, vec![0, 1, 2, 3, 4]);
        assert!(net.stats().frames_reordered >= 1);
    }

    #[test]
    fn schedule_jitter_delays_arrival() {
        let (_net, a, b) = pair(CostModel::zero());
        _net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(10),
            DisruptionKind::Jitter(Vt::from_millis(1)),
        ));
        a.send(NodeId(2), Bytes::from_static(b"j")).unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        // Zero cost model: any delay is pure jitter, within the bound.
        assert!(f.arrival <= Vt::from_millis(1));
        assert!(f.arrival > Vt::ZERO);
    }

    #[test]
    fn advance_schedule_to_flushes_reorder_limbo() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(1),
            DisruptionKind::Reorder(1.0),
        ));
        a.send(NodeId(2), Bytes::from_static(b"one")).unwrap();
        a.send(NodeId(2), Bytes::from_static(b"two")).unwrap();
        // Both are stashed; nothing is deliverable yet.
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        net.advance_schedule_to(Vt::from_millis(2));
        assert!(b.try_recv().is_ok());
        assert!(b.try_recv().is_ok());
        assert_eq!(net.schedule_pending(), 0);
    }

    #[test]
    fn generated_schedules_always_heal_by_horizon() {
        let horizon = Vt::from_millis(20);
        for seed in 0..10 {
            let net = Network::with_seed(CostModel::zero(), seed);
            let a = net.register(NodeId(1)).unwrap();
            let b = net.register(NodeId(2)).unwrap();
            let _c = net.register(NodeId(3)).unwrap();
            let schedule = FaultSchedule::generate(seed, &[NodeId(3)], horizon);
            net.set_schedule(&schedule);
            // Drive traffic across the whole horizon so events fire.
            for step in 0..40u64 {
                a.clock().charge(Vt::from_micros(500));
                let _ = a.send(NodeId(2), Bytes::from(step.to_le_bytes().to_vec()));
            }
            net.advance_schedule_to(horizon);
            assert_eq!(net.schedule_pending(), 0, "seed {seed}");
            assert!(!net.is_crashed(NodeId(3)), "seed {seed}");
            // Fault-free again: a fresh frame goes straight through.
            while b.try_recv().is_ok() {}
            a.send(NodeId(2), Bytes::from_static(b"after")).unwrap();
            assert_eq!(
                &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
                b"after",
                "seed {seed}"
            );
        }
    }
}
