//! The three machine roles of the Clouds environment (§3, Figure 3):
//! compute servers, data servers, and user workstations.
//!
//! * A [`ComputeServer`] is "a machine that is available for use as a
//!   computational engine": diskless, reaching all storage through the
//!   DSM client partition, running the object manager and thread
//!   manager, and exposing an invocation service so threads can span
//!   machines.
//! * A [`DataServer`] is "a machine whose purpose is to function as a
//!   repository for long-lived (i.e., persistent) data": the DSM server
//!   with its canonical segment store, the lock manager and the
//!   distributed semaphore service (and, on the first data server, the
//!   name server).
//! * A [`Workstation`] "provides the programming environment": it
//!   creates objects and threads on compute servers, runs the user I/O
//!   manager, and owns the terminals threads print to.

use crate::class::ClassRegistry;
use crate::consistency_hooks::CpSession;
use crate::error::CloudsError;
use crate::failover::{self, FailoverConfig};
use crate::invocation::Invocation;
use crate::io::{IoReply, IoRequest, UserIoManager, USER_IO_PORT};
use crate::object_manager::ObjectManager;
use crate::thread::{ThreadHandle, ThreadId, ThreadState};
use clouds_dsm::{
    ports, DsmClientPartition, DsmServer, LockService, RecoveredTxns, SemaphoreService,
};
use clouds_naming::{NameClient, NameServer};
use clouds_obs::{Histogram, MetricsRegistry, NodeObs, TraceSink};
use clouds_ra::{PageCache, RaKernel, SysName};
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{Network, NodeId};
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Wire form of an invocation target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireTarget {
    /// A sysname.
    Sysname(SysName),
    /// A user name, resolved by the executing compute server.
    Name(String),
}

/// Wire form of [`CloudsError`] for cross-node invocation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireError {
    /// Unknown object.
    NoSuchObject(SysName),
    /// Unknown class.
    NoSuchClass(String),
    /// Unknown entry point.
    NoSuchEntryPoint(String),
    /// Application-raised error.
    Application(String),
    /// Consistency abort.
    Consistency(String),
    /// Anything else, as text.
    Other(String),
}

impl From<CloudsError> for WireError {
    fn from(e: CloudsError) -> WireError {
        match e {
            CloudsError::NoSuchObject(s) => WireError::NoSuchObject(s),
            CloudsError::NoSuchClass(c) => WireError::NoSuchClass(c),
            CloudsError::NoSuchEntryPoint(e) => WireError::NoSuchEntryPoint(e),
            CloudsError::Application(m) => WireError::Application(m),
            CloudsError::ConsistencyAbort(m) => WireError::Consistency(m),
            other => WireError::Other(other.to_string()),
        }
    }
}

impl From<WireError> for CloudsError {
    fn from(e: WireError) -> CloudsError {
        match e {
            WireError::NoSuchObject(s) => CloudsError::NoSuchObject(s),
            WireError::NoSuchClass(c) => CloudsError::NoSuchClass(c),
            WireError::NoSuchEntryPoint(e) => CloudsError::NoSuchEntryPoint(e),
            WireError::Application(m) => CloudsError::Application(m),
            WireError::Consistency(m) => CloudsError::ConsistencyAbort(m),
            WireError::Other(m) => CloudsError::Transport(m),
        }
    }
}

/// Requests accepted by a compute server's invocation service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ComputeRequest {
    /// Run one (possibly continuing) thread invocation to completion.
    Invoke {
        /// Existing thread id to continue, or `None` to create one.
        thread: Option<u64>,
        /// Originating workstation (raw node id) for terminal I/O.
        origin_ws: Option<u32>,
        /// What to invoke.
        target: WireTarget,
        /// Entry point name.
        entry: String,
        /// Encoded arguments.
        args: Vec<u8>,
    },
    /// Create an object of a class.
    CreateObject {
        /// Class name.
        class: String,
        /// Explicit data-server placement (raw node id).
        placement: Option<u32>,
    },
    /// Destroy an object.
    DestroyObject {
        /// Victim object.
        sysname: SysName,
    },
    /// Query scheduler load (for placement policies).
    Load,
}

/// Replies from a compute server's invocation service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ComputeReply {
    /// Invocation result.
    Result(Result<Vec<u8>, WireError>),
    /// Created object sysname.
    Created(Result<SysName, WireError>),
    /// Generic ack.
    Ok(Result<(), WireError>),
    /// Load report.
    Load(u64),
}

/// Shared internals of a compute server (used by [`Invocation`]).
pub(crate) struct ComputeInner {
    pub node: NodeId,
    pub kernel: Arc<RaKernel>,
    pub ratp: Arc<RatpNode>,
    pub dsm: Arc<DsmClientPartition>,
    pub object_manager: ObjectManager,
    pub naming: NameClient,
    /// Data server hosting the semaphore service.
    pub sync_server: NodeId,
    pub thread_counter: AtomicU32,
    /// The `invoke.call` histogram, resolved on the first invocation.
    pub invoke_call: OnceLock<Arc<Histogram>>,
    /// Console output of headless threads (no workstation attached).
    pub console: Mutex<String>,
    /// Weak self-reference so invocations can hand `Arc<ComputeInner>`
    /// to nested contexts; set once at boot.
    pub(crate) self_ref: Mutex<Option<std::sync::Weak<ComputeInner>>>,
}

/// Deepest allowed invocation nesting per thread segment. Invocations
/// "can be nested or recursive" (§2.2), but unbounded recursion would
/// exhaust the (host) stack; a real kernel would fault the thread.
pub const MAX_INVOCATION_DEPTH: u32 = 64;

impl ComputeInner {
    /// Execute a (possibly nested) invocation on this node.
    pub(crate) fn invoke_local(
        &self,
        thread: &mut ThreadState,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        if thread.depth >= MAX_INVOCATION_DEPTH {
            return Err(CloudsError::ThreadFailed(format!(
                "invocation depth limit ({MAX_INVOCATION_DEPTH}) exceeded by {}",
                thread.id
            )));
        }
        let self_arc = self.self_arc();
        let obs = self.ratp.obs();
        let detail = format!("obj={target} entry={entry} depth={}", thread.depth);
        // Invocation entry is where causal traces begin. A top-level
        // invocation (no ambient context — a fresh thread, or a caller
        // outside the traced stack) roots a new trace whose id is
        // derived from the deterministic thread id and the thread's
        // root counter; nested and remotely continued invocations
        // attach to the ambient context instead (for the remote path
        // the RaTP handler installed the caller's wire context).
        let mut span = if clouds_obs::current_ctx().is_some() {
            obs.traced_span("invoke", "invoke", &detail)
        } else {
            thread.trace_roots += 1;
            let trace_id = clouds_obs::derive_trace_id(thread.id.0, thread.trace_roots);
            obs.root_span(trace_id, "invoke", "invoke", &detail)
        }
        .with_histogram(Arc::clone(
            self.invoke_call.get_or_init(|| obs.histogram("invoke.call")),
        ));
        span.set_args(detail);
        let activation = self.object_manager.activate(target)?;
        let cost = self.kernel.cost().clone();
        // Entering the object: context switch + stack remap (§4.3).
        self.kernel
            .clock()
            .charge(cost.context_switch + cost.invocation_setup);
        let memory = self
            .object_manager
            .build_memory(&activation, thread.session.clone())?;
        thread.visited.push(target);
        thread.depth += 1;
        let mut ctx = Invocation {
            object: target,
            entry: entry.to_string(),
            memory,
            thread,
            services: self_arc,
            per_invocation: std::collections::HashMap::new(),
        };
        let result = activation.class.code().dispatch(entry, &mut ctx, args);
        ctx.thread.depth -= 1;
        // Leaving the object.
        self.kernel
            .clock()
            .charge(cost.context_switch + cost.invocation_setup);
        result
    }

    /// Run an object's constructor.
    pub(crate) fn construct_object(
        &self,
        meta: &crate::object::ObjectMeta,
        class: &crate::class::Class,
    ) -> Result<(), CloudsError> {
        let self_arc = self.self_arc();
        let id = self.next_thread_id();
        let mut thread = ThreadState::new(id, None);
        let activation = crate::object_manager::Activation {
            meta: meta.clone(),
            class: class.clone(),
        };
        let memory = self.object_manager.build_memory(&activation, None)?;
        let mut ctx = Invocation {
            object: meta.sysname,
            entry: "<constructor>".to_string(),
            memory,
            thread: &mut thread,
            services: self_arc,
            per_invocation: std::collections::HashMap::new(),
        };
        class.code().construct(&mut ctx)
    }

    pub(crate) fn next_thread_id(&self) -> ThreadId {
        ThreadId::new(self.node, self.thread_counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Create an object, optionally registering a user name.
    pub(crate) fn create_object(
        &self,
        class: &str,
        user_name: Option<&str>,
        placement: Option<NodeId>,
    ) -> Result<SysName, CloudsError> {
        let meta = self
            .object_manager
            .create_object(class, placement, |meta, class| {
                self.construct_object(meta, class)
            })?;
        if let Some(name) = user_name {
            self.naming.register(name, meta.sysname)?;
        }
        Ok(meta.sysname)
    }

    /// Ship an invocation to another compute server and wait for its
    /// result.
    pub(crate) fn invoke_remote(
        &self,
        thread: ThreadId,
        origin_ws: Option<NodeId>,
        node: NodeId,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        let req = ComputeRequest::Invoke {
            thread: Some(thread.0),
            origin_ws: origin_ws.map(|n| n.0),
            target: WireTarget::Sysname(target),
            entry: entry.to_string(),
            args: args.to_vec(),
        };
        let reply = self
            .ratp
            .call(node, ports::INVOCATION, encode(&req))
            .map_err(|e| CloudsError::Transport(e.to_string()))?;
        match decode::<ComputeReply>(&reply)? {
            ComputeReply::Result(Ok(bytes)) => Ok(bytes),
            ComputeReply::Result(Err(e)) => Err(e.into()),
            other => Err(CloudsError::Transport(format!(
                "unexpected compute reply {other:?}"
            ))),
        }
    }

    pub(crate) fn io_write(
        &self,
        origin: Option<NodeId>,
        thread: ThreadId,
        text: &str,
    ) -> Result<(), CloudsError> {
        match origin {
            None => {
                self.console.lock().push_str(text);
                Ok(())
            }
            Some(ws) => {
                let req = IoRequest::Write {
                    thread: thread.0,
                    text: text.to_string(),
                };
                let reply = self
                    .ratp
                    .call(ws, USER_IO_PORT, encode(&req))
                    .map_err(|e| CloudsError::Transport(e.to_string()))?;
                match decode::<IoReply>(&reply)? {
                    IoReply::Ok => Ok(()),
                    other => Err(CloudsError::Transport(format!(
                        "unexpected io reply {other:?}"
                    ))),
                }
            }
        }
    }

    pub(crate) fn io_read(
        &self,
        origin: Option<NodeId>,
        thread: ThreadId,
        wait_ms: u64,
    ) -> Result<Option<String>, CloudsError> {
        match origin {
            None => Ok(None),
            Some(ws) => {
                let req = IoRequest::ReadLine {
                    thread: thread.0,
                    wait_ms,
                };
                let reply = self
                    .ratp
                    .call(ws, USER_IO_PORT, encode(&req))
                    .map_err(|e| CloudsError::Transport(e.to_string()))?;
                match decode::<IoReply>(&reply)? {
                    IoReply::Line(l) => Ok(Some(l)),
                    IoReply::NoInput => Ok(None),
                    other => Err(CloudsError::Transport(format!(
                        "unexpected io reply {other:?}"
                    ))),
                }
            }
        }
    }

    pub(crate) fn sem_create(&self, count: u32) -> Result<SysName, CloudsError> {
        use clouds_dsm::{SemReply, SemRequest};
        let id = self.kernel.new_sysname();
        let reply = self
            .ratp
            .call(
                self.sync_server,
                ports::SEMAPHORES,
                encode(&SemRequest::Create { id, count }),
            )
            .map_err(|e| CloudsError::Transport(e.to_string()))?;
        match decode::<SemReply>(&reply)? {
            SemReply::Ok => Ok(id),
            other => Err(CloudsError::Transport(format!("semaphore create: {other:?}"))),
        }
    }

    pub(crate) fn sem_p(&self, sem: SysName, wait_ms: u64) -> Result<bool, CloudsError> {
        use clouds_dsm::{SemReply, SemRequest};
        let reply = self
            .ratp
            .call(
                self.sync_server,
                ports::SEMAPHORES,
                encode(&SemRequest::P { id: sem, wait_ms }),
            )
            .map_err(|e| CloudsError::Transport(e.to_string()))?;
        match decode::<SemReply>(&reply)? {
            SemReply::Ok => Ok(true),
            SemReply::Timeout => Ok(false),
            other => Err(CloudsError::Transport(format!("semaphore p: {other:?}"))),
        }
    }

    pub(crate) fn sem_v(&self, sem: SysName) -> Result<(), CloudsError> {
        use clouds_dsm::{SemReply, SemRequest};
        let reply = self
            .ratp
            .call(
                self.sync_server,
                ports::SEMAPHORES,
                encode(&SemRequest::V { id: sem }),
            )
            .map_err(|e| CloudsError::Transport(e.to_string()))?;
        match decode::<SemReply>(&reply)? {
            SemReply::Ok => Ok(()),
            other => Err(CloudsError::Transport(format!("semaphore v: {other:?}"))),
        }
    }

    /// Start a new Clouds thread (fresh id) running on this node's
    /// scheduler; used by asynchronous invocation.
    pub(crate) fn start_thread_async(
        &self,
        target: SysName,
        entry: &str,
        args: Vec<u8>,
        origin_workstation: Option<NodeId>,
    ) -> ThreadHandle {
        let id = self.next_thread_id();
        let (tx, rx) = bounded(1);
        let inner = self.self_arc();
        let entry = entry.to_string();
        self.kernel.scheduler().spawn(
            clouds_ra::sched::StackKind::User,
            move |ictx| {
                let result = ictx.blocking(|| {
                    let mut thread = ThreadState::new(id, origin_workstation);
                    let r = inner.invoke_local(&mut thread, target, &entry, &args);
                    let _ = inner
                        .kernel
                        .page_cache()
                        .flush(&**inner.object_manager.partition());
                    r
                });
                let _ = tx.send(result);
            },
        );
        ThreadHandle { id, rx }
    }

    /// The `Arc` this inner lives in (set once at construction).
    fn self_arc(&self) -> Arc<ComputeInner> {
        self.self_ref
            .lock()
            .as_ref()
            .and_then(|w| w.upgrade())
            .expect("compute inner self-reference set at construction")
    }
}

/// Build a node's observability handle: joined to the cluster-shared
/// trace sink when one is given, otherwise standalone.
fn make_obs(
    net: &Network,
    node: NodeId,
    sink: Option<&Arc<TraceSink>>,
) -> Arc<NodeObs> {
    let clock = net.clock(node).expect("node registered");
    match sink {
        Some(sink) => NodeObs::new(
            node.0 as u64,
            clock,
            Arc::new(MetricsRegistry::new()),
            Arc::clone(sink),
        ),
        None => NodeObs::solo(node.0 as u64, clock),
    }
}

fn encode<T: Serialize>(value: &T) -> bytes::Bytes {
    bytes::Bytes::from(clouds_codec::to_bytes(value).expect("protocol types encode"))
}

fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T, CloudsError> {
    clouds_codec::from_bytes(bytes)
        .map_err(|e| CloudsError::Transport(format!("malformed message: {e}")))
}

/// A Clouds compute server.
#[derive(Clone)]
pub struct ComputeServer {
    inner: Arc<ComputeInner>,
}

impl fmt::Debug for ComputeServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComputeServer")
            .field("node", &self.inner.node)
            .finish()
    }
}

impl ComputeServer {
    /// Boot a compute server on `node`: registers it on the network,
    /// spawns RaTP, the DSM client partition, the Ra kernel, the object
    /// manager and the invocation service.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered on the network.
    #[allow(clippy::too_many_arguments)]
    pub fn boot(
        net: &Network,
        node: NodeId,
        data_servers: Vec<NodeId>,
        naming_server: NodeId,
        registry: ClassRegistry,
        ratp_config: RatpConfig,
        cpus: usize,
        cache_frames: usize,
    ) -> ComputeServer {
        ComputeServer::boot_traced(
            net,
            node,
            data_servers,
            naming_server,
            registry,
            ratp_config,
            cpus,
            cache_frames,
            None,
        )
    }

    /// [`ComputeServer::boot`], joining the node to a cluster-shared
    /// trace sink when one is given.
    #[allow(clippy::too_many_arguments)]
    pub fn boot_traced(
        net: &Network,
        node: NodeId,
        data_servers: Vec<NodeId>,
        naming_server: NodeId,
        registry: ClassRegistry,
        ratp_config: RatpConfig,
        cpus: usize,
        cache_frames: usize,
        sink: Option<&Arc<TraceSink>>,
    ) -> ComputeServer {
        let endpoint = net.register(node).expect("node id unique");
        let clock = net.clock(node).expect("registered above");
        let cost = net.cost_model().clone();
        let obs = make_obs(net, node, sink);
        let ratp = RatpNode::spawn_with_obs(endpoint, ratp_config, obs);
        let cache = Arc::new(PageCache::new(cache_frames));
        let dsm = DsmClientPartition::install(&ratp, Arc::clone(&cache), data_servers);
        let kernel = RaKernel::new_with_cache(
            node,
            clock,
            cost,
            Arc::clone(&dsm) as Arc<dyn clouds_ra::Partition>,
            cpus,
            cache,
        );
        // The scheduler cannot depend on the transport layer, so its
        // trace hookup is installed here at boot.
        kernel.scheduler().set_obs(Arc::clone(ratp.obs()));
        let object_manager =
            ObjectManager::new_dsm(Arc::clone(&kernel), Arc::clone(&dsm), registry);
        let naming = NameClient::new(&ratp, naming_server);
        let inner = Arc::new(ComputeInner {
            node,
            kernel,
            ratp: Arc::clone(&ratp),
            dsm,
            object_manager,
            naming,
            sync_server: naming_server,
            thread_counter: AtomicU32::new(1),
            invoke_call: OnceLock::new(),
            console: Mutex::new(String::new()),
            self_ref: Mutex::new(None),
        });
        *inner.self_ref.lock() = Some(Arc::downgrade(&inner));

        // The invocation service: lets workstations and other compute
        // servers run thread segments here.
        let service_inner = Arc::clone(&inner);
        ratp.register_service(ports::INVOCATION, move |req: Request| {
            let reply = match clouds_codec::from_bytes::<ComputeRequest>(&req.payload) {
                Ok(message) => service_inner.handle_compute_request(message),
                Err(e) => ComputeReply::Result(Err(WireError::Other(format!(
                    "malformed request: {e}"
                )))),
            };
            encode(&reply)
        });

        ComputeServer { inner }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.inner.node
    }

    /// The Ra kernel.
    pub fn kernel(&self) -> &Arc<RaKernel> {
        &self.inner.kernel
    }

    /// The RaTP transport.
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.inner.ratp
    }

    /// The DSM client partition.
    pub fn dsm(&self) -> &Arc<DsmClientPartition> {
        &self.inner.dsm
    }

    /// The object manager.
    pub fn object_manager(&self) -> &ObjectManager {
        &self.inner.object_manager
    }

    /// The name client bound to the cluster's name server.
    pub fn naming(&self) -> &NameClient {
        &self.inner.naming
    }

    /// Console output of headless threads run on this server.
    pub fn console(&self) -> String {
        self.inner.console.lock().clone()
    }

    /// Create an object (optionally registering `user_name`, optionally
    /// placed on a specific data server).
    ///
    /// # Errors
    ///
    /// Unknown class, storage/naming failures, constructor errors.
    pub fn create_object(
        &self,
        class: &str,
        user_name: Option<&str>,
        placement: Option<NodeId>,
    ) -> Result<SysName, CloudsError> {
        self.inner.create_object(class, user_name, placement)
    }

    /// Destroy an object and its segments.
    ///
    /// # Errors
    ///
    /// Unknown object or storage failures.
    pub fn destroy_object(&self, sysname: SysName) -> Result<(), CloudsError> {
        self.inner.object_manager.destroy_object(sysname)
    }

    /// The consistency label of `entry` on the target's class.
    ///
    /// # Errors
    ///
    /// Unknown object / class errors from activation.
    pub fn entry_label(
        &self,
        target: SysName,
        entry: &str,
    ) -> Result<crate::class::OperationLabel, CloudsError> {
        let activation = self.inner.object_manager.activate(target)?;
        Ok(activation.class.code().label(entry))
    }

    /// Run an invocation synchronously on the calling thread, creating a
    /// fresh Clouds thread (optionally a cp-thread via `session`).
    ///
    /// # Errors
    ///
    /// As for [`Invocation::invoke`].
    pub fn invoke(
        &self,
        target: SysName,
        entry: &str,
        args: &[u8],
        session: Option<Arc<CpSession>>,
    ) -> Result<Vec<u8>, CloudsError> {
        let id = self.inner.next_thread_id();
        let mut thread = ThreadState::new(id, None);
        thread.session = session;
        let result = self.inner.invoke_local(&mut thread, target, entry, args);
        if thread.session.is_none() {
            // s-thread durability point: flush dirty pages at thread end.
            self.inner
                .kernel
                .page_cache()
                .flush(&**self.inner.object_manager.partition())?;
        }
        result
    }

    /// Start a Clouds thread on this server's IsiBa scheduler and return
    /// a handle to await it.
    pub fn start_thread(
        &self,
        target: SysName,
        entry: &str,
        args: Vec<u8>,
        origin_workstation: Option<NodeId>,
    ) -> ThreadHandle {
        let id = self.inner.next_thread_id();
        self.start_thread_with_id(id, target, entry, args, origin_workstation)
    }

    /// [`ComputeServer::start_thread`] with an externally allocated id
    /// (continuing a distributed thread).
    pub fn start_thread_with_id(
        &self,
        id: ThreadId,
        target: SysName,
        entry: &str,
        args: Vec<u8>,
        origin_workstation: Option<NodeId>,
    ) -> ThreadHandle {
        let (tx, rx) = bounded(1);
        let inner = Arc::clone(&self.inner);
        let entry = entry.to_string();
        self.inner.kernel.scheduler().spawn(
            clouds_ra::sched::StackKind::User,
            move |ictx| {
                // Clouds threads spend their blocking time (page faults,
                // remote calls) off the virtual CPU.
                let result = ictx.blocking(|| {
                    let mut thread = ThreadState::new(id, origin_workstation);
                    let r = inner.invoke_local(&mut thread, target, &entry, &args);
                    let _ = inner
                        .kernel
                        .page_cache()
                        .flush(&**inner.object_manager.partition());
                    r
                });
                let _ = tx.send(result);
            },
        );
        ThreadHandle { id, rx }
    }

    /// Scheduler load (live IsiBas: running, ready or blocked), for
    /// placement policies.
    pub fn load(&self) -> u64 {
        self.inner.kernel.scheduler().live_count() as u64
    }

    /// Crash this compute server: volatile state (page frames,
    /// activations, transport state) is lost and the node drops off the
    /// network until [`ComputeServer::restart`].
    pub fn crash(&self, net: &Network) {
        net.crash(self.inner.node);
        self.inner.kernel.crash_volatile_state();
        self.inner.object_manager.deactivate_all();
        self.inner.ratp.reset_volatile_state();
    }

    /// Restart after a crash.
    pub fn restart(&self, net: &Network) {
        net.restart(self.inner.node);
    }

    pub(crate) fn inner(&self) -> &Arc<ComputeInner> {
        &self.inner
    }
}

impl ComputeInner {
    fn handle_compute_request(self: &Arc<Self>, req: ComputeRequest) -> ComputeReply {
        match req {
            ComputeRequest::Invoke {
                thread,
                origin_ws,
                target,
                entry,
                args,
            } => {
                let id = match thread {
                    Some(raw) => ThreadId(raw),
                    None => self.next_thread_id(),
                };
                let origin = origin_ws.map(NodeId);
                let target = match target {
                    WireTarget::Sysname(s) => Ok(s),
                    WireTarget::Name(n) => {
                        self.naming.lookup(&n).map_err(CloudsError::from)
                    }
                };
                let result = target.and_then(|t| {
                    let mut state = ThreadState::new(id, origin);
                    let r = self.invoke_local(&mut state, t, &entry, &args);
                    let _ = self
                        .kernel
                        .page_cache()
                        .flush(&**self.object_manager.partition());
                    r
                });
                ComputeReply::Result(result.map_err(WireError::from))
            }
            ComputeRequest::CreateObject { class, placement } => ComputeReply::Created(
                self.create_object(&class, None, placement.map(NodeId))
                    .map_err(WireError::from),
            ),
            ComputeRequest::DestroyObject { sysname } => ComputeReply::Ok(
                self.object_manager
                    .destroy_object(sysname)
                    .map_err(WireError::from),
            ),
            ComputeRequest::Load => {
                ComputeReply::Load(self.kernel.scheduler().live_count() as u64)
            }
        }
    }
}

/// A Clouds data server.
pub struct DataServer {
    node: NodeId,
    ratp: Arc<RatpNode>,
    dsm: Arc<DsmServer>,
    locks: Arc<LockService>,
    semaphores: Arc<SemaphoreService>,
    naming: Option<Arc<NameServer>>,
    failover: Mutex<Option<FailoverState>>,
}

/// Book-keeping for a running failover monitor: its stop flag, plus the
/// naming node a restarted server resyncs its replica views from.
struct FailoverState {
    stop: Arc<AtomicBool>,
    naming_server: NodeId,
}

/// Restart-time directory resync attempts before the remaining work is
/// left to the failover monitor's per-tick retry (the server stays
/// fenced meanwhile).
const RESYNC_ATTEMPTS: u32 = 3;
/// Pause between restart-time resync attempts.
const RESYNC_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);

impl fmt::Debug for DataServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataServer")
            .field("node", &self.node)
            .field("naming", &self.naming.is_some())
            .finish()
    }
}

impl DataServer {
    /// Boot a data server on `node`. `with_naming` additionally hosts
    /// the cluster's name server here.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered on the network.
    pub fn boot(
        net: &Network,
        node: NodeId,
        ratp_config: RatpConfig,
        with_naming: bool,
    ) -> DataServer {
        DataServer::boot_traced(net, node, ratp_config, with_naming, None)
    }

    /// [`DataServer::boot`], joining the node to a cluster-shared trace
    /// sink when one is given.
    pub fn boot_traced(
        net: &Network,
        node: NodeId,
        ratp_config: RatpConfig,
        with_naming: bool,
        sink: Option<&Arc<TraceSink>>,
    ) -> DataServer {
        let endpoint = net.register(node).expect("node id unique");
        let obs = make_obs(net, node, sink);
        let ratp = RatpNode::spawn_with_obs(endpoint, ratp_config, obs);
        let dsm = DsmServer::install(&ratp);
        let locks = LockService::install(&ratp);
        let semaphores = SemaphoreService::install(&ratp);
        let naming = with_naming.then(|| NameServer::install(&ratp));
        DataServer {
            node,
            ratp,
            dsm,
            locks,
            semaphores,
            naming,
            failover: Mutex::new(None),
        }
    }

    /// Start this server's failover monitor: beacon the peer data
    /// servers, watch the primaries of replicated segments this server
    /// backs up, and promote on a confirmed primary death (see
    /// [`crate::failover`]). `naming_server` is also remembered so a
    /// post-crash [`DataServer::restart`] resyncs replica views from the
    /// directory before serving again.
    pub fn start_failover(
        &self,
        peers: Vec<NodeId>,
        naming_server: NodeId,
        config: FailoverConfig,
    ) {
        let stop = failover::spawn_monitor(
            Arc::clone(&self.ratp),
            Arc::clone(&self.dsm),
            peers,
            naming_server,
            config,
        );
        let mut slot = self.failover.lock();
        if let Some(prev) = slot.take() {
            prev.stop.store(true, Ordering::SeqCst);
        }
        *slot = Some(FailoverState {
            stop,
            naming_server,
        });
    }

    /// Stop the failover monitor (it exits within one tick). The
    /// remembered naming server is kept so restart resync still works.
    pub fn stop_failover(&self) {
        if let Some(st) = self.failover.lock().as_ref() {
            st.stop.store(true, Ordering::SeqCst);
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The DSM server (canonical store + coherence directory).
    pub fn dsm(&self) -> &Arc<DsmServer> {
        &self.dsm
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockService> {
        &self.locks
    }

    /// The semaphore service.
    pub fn semaphores(&self) -> &Arc<SemaphoreService> {
        &self.semaphores
    }

    /// The name server, if hosted here.
    pub fn naming(&self) -> Option<&Arc<NameServer>> {
        self.naming.as_ref()
    }

    /// The RaTP transport (to co-locate more services, e.g. the 2PC
    /// participant).
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.ratp
    }

    /// Crash the data server: only the append-only log survives (it is
    /// disk); the segment cache, coherence directory, replica views and
    /// transport state are all volatile and lost ([`DsmServer::crash`]).
    /// Nothing is served until the restart replays the log, and
    /// replicated segments not until the views are resynced — the crash
    /// may sleep through a demotion.
    ///
    /// Services co-located with the data server keep their own volatile
    /// state: a harness modelling their loss too crashes them itself
    /// (e.g. `CommitParticipant::crash_volatile_state`).
    pub fn crash(&self, net: &Network) {
        net.crash(self.node);
        self.dsm.crash();
    }

    /// Restart after a crash: replay the surviving log to reconstruct
    /// pages and replica views, then — if a failover monitor was
    /// configured — refresh every replicated segment's view from the
    /// naming directory *before* serving resumes: a rebooted ex-primary
    /// must learn it was demoted while down, or two servers would
    /// answer home probes for the same segment.
    ///
    /// Serving resumes only once *every* replicated segment's view was
    /// successfully refreshed. If the directory stays unreachable past a
    /// short retry budget the server stays
    /// [`Resyncing`](clouds_dsm::Lifecycle::Resyncing) —
    /// resuming on the stale pre-crash view (in which this server may
    /// still be primary) is exactly the split brain the fence exists to
    /// prevent — and the failover monitor, which retries naming calls
    /// every tick, lifts the fence when a later full refresh succeeds.
    ///
    /// Returns the pending 2PC intents and recorded outcomes the replay
    /// found, for the co-located commit participant to resume from
    /// (empty if the server was not down).
    pub fn restart(&self, net: &Network) -> RecoveredTxns {
        net.restart(self.node);
        let Some(down) = self.dsm.down() else {
            return RecoveredTxns::default();
        };
        let (resyncing, out) = down.replay();
        let naming_server = self.failover.lock().as_ref().map(|st| st.naming_server);
        // Without a failover monitor nothing could have re-homed
        // segments while this server was down.
        let refreshed = naming_server.is_none_or(|ns| {
            let directory = NameClient::new(&self.ratp, ns);
            (0..RESYNC_ATTEMPTS).any(|_| {
                let done = failover::refresh_replica_views(&self.dsm, &directory);
                if !done {
                    std::thread::sleep(RESYNC_BACKOFF);
                }
                done
            })
        });
        if refreshed {
            resyncing.serve();
        } else {
            self.ratp.obs().instant(
                "core.failover",
                "resync_deferred",
                "naming directory unreachable; replicated segments stay fenced".to_string(),
            );
        }
        (out.state.pending_intents, out.state.outcomes)
    }
}

/// A user workstation.
pub struct Workstation {
    node: NodeId,
    ratp: Arc<RatpNode>,
    io: Arc<UserIoManager>,
    naming: NameClient,
    computes: Vec<NodeId>,
    rr: AtomicU32,
    thread_counter: AtomicU32,
}

impl fmt::Debug for Workstation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workstation")
            .field("node", &self.node)
            .finish()
    }
}

/// Handle to a thread started from a workstation.
pub struct WsThread {
    id: ThreadId,
    rx: crossbeam::channel::Receiver<Result<Vec<u8>, CloudsError>>,
}

impl fmt::Debug for WsThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WsThread").field("id", &self.id).finish()
    }
}

impl WsThread {
    /// The thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Wait for completion and take the encoded result.
    ///
    /// # Errors
    ///
    /// The invocation's error, or [`CloudsError::ThreadFailed`].
    pub fn join(self) -> Result<Vec<u8>, CloudsError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(CloudsError::ThreadFailed("executor disappeared".into()))
        })
    }

    /// Wait for completion and decode the result.
    ///
    /// # Errors
    ///
    /// As for [`WsThread::join`], plus decode failures.
    pub fn join_decode<R: serde::de::DeserializeOwned>(self) -> Result<R, CloudsError> {
        let bytes = self.join()?;
        crate::decode_args(&bytes)
    }
}

impl Workstation {
    /// Boot a workstation on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered on the network.
    pub fn boot(
        net: &Network,
        node: NodeId,
        computes: Vec<NodeId>,
        naming_server: NodeId,
        ratp_config: RatpConfig,
    ) -> Workstation {
        Workstation::boot_traced(net, node, computes, naming_server, ratp_config, None)
    }

    /// [`Workstation::boot`], joining the node to a cluster-shared trace
    /// sink when one is given.
    pub fn boot_traced(
        net: &Network,
        node: NodeId,
        computes: Vec<NodeId>,
        naming_server: NodeId,
        ratp_config: RatpConfig,
        sink: Option<&Arc<TraceSink>>,
    ) -> Workstation {
        let endpoint = net.register(node).expect("node id unique");
        let obs = make_obs(net, node, sink);
        let ratp = RatpNode::spawn_with_obs(endpoint, ratp_config, obs);
        let io = UserIoManager::install(&ratp);
        let naming = NameClient::new(&ratp, naming_server);
        Workstation {
            node,
            ratp,
            io,
            naming,
            computes,
            rr: AtomicU32::new(0),
            thread_counter: AtomicU32::new(1),
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The name client.
    pub fn naming(&self) -> &NameClient {
        &self.naming
    }

    /// The terminal multiplexer.
    pub fn io(&self) -> &Arc<UserIoManager> {
        &self.io
    }

    /// The workstation's transport endpoint (its observability handle —
    /// metrics registry and trace sink — hangs off it).
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.ratp
    }

    fn pick_compute(&self) -> NodeId {
        // The "scheduling decision" of §3.2: round-robin by default.
        let i = self.rr.fetch_add(1, Ordering::Relaxed) as usize;
        self.computes[i % self.computes.len()]
    }

    /// Ask every compute server for its scheduler load and return the
    /// least loaded one — the load-aware variant of §3.2's "may depend
    /// on … the load at each compute server".
    pub fn least_loaded_compute(&self) -> NodeId {
        let mut best = (u64::MAX, self.computes[0]);
        for &node in &self.computes {
            let load = self
                .ratp
                .call_with_budget(node, ports::INVOCATION, encode(&ComputeRequest::Load), 5)
                .ok()
                .and_then(|b| decode::<ComputeReply>(&b).ok())
                .and_then(|r| match r {
                    ComputeReply::Load(l) => Some(l),
                    _ => None,
                })
                .unwrap_or(u64::MAX); // unreachable server: never pick
            if load < best.0 {
                best = (load, node);
            }
        }
        best.1
    }

    /// Create an object of `class` and register `user_name` for it.
    ///
    /// # Errors
    ///
    /// Unknown class, storage/naming failures.
    pub fn create_object(&self, class: &str, user_name: &str) -> Result<SysName, CloudsError> {
        let req = ComputeRequest::CreateObject {
            class: class.to_string(),
            placement: None,
        };
        let compute = self.pick_compute();
        let reply = self
            .ratp
            .call(compute, ports::INVOCATION, encode(&req))
            .map_err(|e| CloudsError::Transport(e.to_string()))?;
        match decode::<ComputeReply>(&reply)? {
            ComputeReply::Created(Ok(sysname)) => {
                self.naming.register(user_name, sysname)?;
                Ok(sysname)
            }
            ComputeReply::Created(Err(e)) => Err(e.into()),
            other => Err(CloudsError::Transport(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Start a thread invoking `name.entry(args)` on a compute server
    /// chosen round-robin. Output appears on this workstation's
    /// terminal for the returned thread id.
    pub fn spawn(&self, name: &str, entry: &str, args: Vec<u8>) -> WsThread {
        self.spawn_at(None, name, entry, args)
    }

    /// [`Workstation::spawn`] on an explicit compute server.
    pub fn spawn_at(
        &self,
        compute: Option<NodeId>,
        name: &str,
        entry: &str,
        args: Vec<u8>,
    ) -> WsThread {
        let id = ThreadId::new(
            self.node,
            self.thread_counter.fetch_add(1, Ordering::Relaxed),
        );
        let compute = compute.unwrap_or_else(|| self.pick_compute());
        let req = ComputeRequest::Invoke {
            thread: Some(id.0),
            origin_ws: Some(self.node.0),
            target: WireTarget::Name(name.to_string()),
            entry: entry.to_string(),
            args,
        };
        let (tx, rx) = bounded(1);
        let ratp = Arc::clone(&self.ratp);
        std::thread::Builder::new()
            .name(format!("ws-{id}"))
            .spawn(move || {
                let result = (|| {
                    let reply = ratp
                        .call(compute, ports::INVOCATION, encode(&req))
                        .map_err(|e| CloudsError::Transport(e.to_string()))?;
                    match decode::<ComputeReply>(&reply)? {
                        ComputeReply::Result(Ok(bytes)) => Ok(bytes),
                        ComputeReply::Result(Err(e)) => Err(e.into()),
                        other => Err(CloudsError::Transport(format!(
                            "unexpected reply {other:?}"
                        ))),
                    }
                })();
                let _ = tx.send(result);
            })
            .expect("spawn workstation thread");
        WsThread { id, rx }
    }

    /// Invoke synchronously and return the encoded result.
    ///
    /// # Errors
    ///
    /// As for [`Invocation::invoke`].
    pub fn run_wait<T: Serialize>(
        &self,
        name: &str,
        entry: &str,
        args: &T,
    ) -> Result<Vec<u8>, CloudsError> {
        let encoded = crate::encode_args(args)?;
        self.spawn(name, entry, encoded).join()
    }

    /// Invoke synchronously and decode the result.
    ///
    /// # Errors
    ///
    /// As for [`Workstation::run_wait`], plus decode failures.
    pub fn run_wait_decode<T: Serialize, R: serde::de::DeserializeOwned>(
        &self,
        name: &str,
        entry: &str,
        args: &T,
    ) -> Result<R, CloudsError> {
        let bytes = self.run_wait(name, entry, args)?;
        crate::decode_args(&bytes)
    }

    /// Destroy an object through a compute server.
    ///
    /// # Errors
    ///
    /// Unknown object or storage/transport failures.
    pub fn destroy_object(&self, sysname: SysName) -> Result<(), CloudsError> {
        let compute = self.pick_compute();
        let reply = self
            .ratp
            .call(
                compute,
                ports::INVOCATION,
                encode(&ComputeRequest::DestroyObject { sysname }),
            )
            .map_err(|e| CloudsError::Transport(e.to_string()))?;
        match decode::<ComputeReply>(&reply)? {
            ComputeReply::Ok(Ok(())) => Ok(()),
            ComputeReply::Ok(Err(e)) => Err(e.into()),
            other => Err(CloudsError::Transport(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Terminal output of one thread.
    pub fn output(&self, thread: ThreadId) -> String {
        self.io.output_of(thread.0)
    }

    /// Type a line at a thread's terminal.
    pub fn type_line(&self, thread: ThreadId, line: &str) {
        self.io.push_input(thread.0, line);
    }
}
