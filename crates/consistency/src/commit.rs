//! Two-phase commit: participants on data servers, plus the durable
//! transaction-outcome registry.
//!
//! "The updated segments are written using a 2-phase commit mechanism
//! when the cp-thread completes" (§5.2.1). The coordinator is the
//! committing cp-thread itself; the participants are the data servers
//! that home the written segments.
//!
//! Crash behaviour:
//!
//! * The in-memory staged-transaction table ([`CommitLog`]) and the
//!   outcome table ([`OutcomeRegistry`]) are *volatile*. Durability
//!   comes from the data server's append-only log (`clouds-store`):
//!   `Prepare` appends a `TxnIntent` record before voting yes,
//!   `Commit`/`Abort` append `TxnResolved`, and `RecordOutcome` appends
//!   `TxnOutcome` — so a participant that genuinely lost its memory
//!   reconstructs both tables from the log replay
//!   ([`CommitParticipant::resume_from_log`]). Each of those acks is
//!   built from the [`Logged`] receipt of its append, so an arm that
//!   dropped the append would not compile.
//! * A participant that restarts with *staged* (prepared, undecided)
//!   transactions consults the [`OutcomeRegistry`]: committed ⇒ install
//!   the staged pages; unknown ⇒ presumed abort
//!   ([`CommitParticipant::recover`]).
//! * The coordinator records the commit decision durably in the registry
//!   *before* sending any `Commit`, so the decision is never lost.

use clouds::CloudsError;
use clouds_dsm::{ports, DsmServer, RecoveredTxns};
use clouds_ra::SysName;
use clouds_store::{IntentPage, LogRecord, Logged};
use clouds_ratp::{RatpNode, Request};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One page image to install at commit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageImage {
    /// Segment sysname.
    pub seg: SysName,
    /// Page index.
    pub page: u32,
    /// Full page contents.
    pub data: Vec<u8>,
}

/// Requests to a data server's commit participant ([`ports::COMMIT`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CommitRequest {
    /// Phase one: stage pages for `txn`.
    Prepare {
        /// Global transaction id.
        txn: u64,
        /// Pages to install on commit.
        pages: Vec<PageImage>,
    },
    /// Phase two: install staged pages.
    Commit {
        /// Global transaction id.
        txn: u64,
    },
    /// Phase two (failure): discard staged pages.
    Abort {
        /// Global transaction id.
        txn: u64,
    },
    /// Lightweight path (lcp): stage and install in one atomic local
    /// step — no cross-server atomicity.
    ApplyLocal {
        /// Global transaction id.
        txn: u64,
        /// Pages to install now.
        pages: Vec<PageImage>,
    },
    /// Record a commit decision (outcome registry, first data server).
    RecordOutcome {
        /// Global transaction id.
        txn: u64,
    },
    /// Query a commit decision (participant recovery).
    QueryOutcome {
        /// Global transaction id.
        txn: u64,
    },
}

/// Replies from the commit participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitReply {
    /// Prepare accepted / operation done.
    Ok,
    /// Prepare or apply refused (storage failure).
    Refused,
    /// Outcome query: the transaction committed.
    Committed,
    /// Outcome query: no commit record (presumed abort).
    Unknown,
}

/// Verdict recorded for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Commit decision durably recorded.
    Committed,
    /// No record: presumed abort.
    Unknown,
}

#[derive(Debug, Clone)]
enum LogState {
    Staged(Vec<PageImage>),
}

/// The staged-transaction table of one participant: a volatile cache of
/// the `TxnIntent` records in the data server's append-only log.
#[derive(Debug, Clone, Default)]
struct CommitLog {
    entries: Arc<Mutex<BTreeMap<u64, LogState>>>,
}

/// The transaction-outcome table hosted on the first data server. This
/// in-memory set is a volatile cache: the durable record is the
/// `TxnOutcome` entry the host appends to its log on `RecordOutcome`,
/// and a crash rebuilds the set from log replay
/// ([`CommitParticipant::resume_from_log`]).
#[derive(Debug, Clone, Default)]
pub struct OutcomeRegistry {
    committed: Arc<Mutex<std::collections::BTreeSet<u64>>>,
}

impl OutcomeRegistry {
    /// An empty registry.
    pub fn new() -> OutcomeRegistry {
        OutcomeRegistry::default()
    }

    /// Record that `txn` committed (in the volatile cache; the caller is
    /// responsible for the matching durable log append).
    pub fn record(&self, txn: u64) {
        self.committed.lock().insert(txn);
    }

    /// Look up a transaction's outcome.
    pub fn outcome(&self, txn: u64) -> TxnOutcome {
        if self.committed.lock().contains(&txn) {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Unknown
        }
    }

    /// Crash simulation: forget every cached outcome.
    pub fn clear(&self) {
        self.committed.lock().clear();
    }
}

/// The commit participant service co-located with a [`DsmServer`].
pub struct CommitParticipant {
    dsm: Arc<DsmServer>,
    log: CommitLog,
    /// Outcome registry, when this participant hosts it.
    registry: Option<OutcomeRegistry>,
    /// Keeps the node's transport alive.
    _ratp: Mutex<Option<Arc<RatpNode>>>,
}

impl fmt::Debug for CommitParticipant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitParticipant")
            .field("node", &self.dsm.node_id())
            .field("staged", &self.log.entries.lock().len())
            .field("hosts_registry", &self.registry.is_some())
            .finish()
    }
}

impl CommitParticipant {
    /// Install the participant on a data server; `registry` is `Some` on
    /// the data server hosting the outcome registry.
    pub fn install(
        ratp: &Arc<RatpNode>,
        dsm: Arc<DsmServer>,
        registry: Option<OutcomeRegistry>,
    ) -> Arc<CommitParticipant> {
        let participant = Arc::new(CommitParticipant {
            dsm,
            log: CommitLog::default(),
            registry,
            _ratp: Mutex::new(Some(Arc::clone(ratp))),
        });
        let handler = Arc::clone(&participant);
        ratp.register_service(ports::COMMIT, move |req: Request| {
            let reply = match clouds_codec::from_bytes::<CommitRequest>(&req.payload) {
                Ok(message) => handler.handle(message),
                Err(_) => CommitReply::Refused,
            };
            bytes::Bytes::from(clouds_codec::to_bytes(&reply).expect("encodes"))
        });
        participant
    }

    fn handle(&self, req: CommitRequest) -> CommitReply {
        match req {
            CommitRequest::Prepare { txn, pages } => ack(self.prepare(txn, pages)),
            CommitRequest::Commit { txn } => {
                let staged = self.log.entries.lock().remove(&txn);
                match staged {
                    Some(LogState::Staged(pages)) => ack(self.install_pages(&pages).map(|_| {
                        // Installed pages are in the log (commit_page
                        // appends them); retire the intent so a replay
                        // does not re-stage a decided transaction.
                        self.dsm.log().append(LogRecord::TxnResolved { txn })
                    })),
                    // Duplicate commit (retransmission after apply).
                    None => CommitReply::Ok,
                }
            }
            CommitRequest::Abort { txn } => {
                if self.log.entries.lock().remove(&txn).is_some() {
                    self.dsm.log().append(LogRecord::TxnResolved { txn });
                }
                CommitReply::Ok
            }
            CommitRequest::ApplyLocal { txn: _, pages } => ack(self.install_pages(&pages)),
            CommitRequest::RecordOutcome { txn } => ack(self.registry.as_ref().map(|reg| {
                // The decision itself is what must survive the host's
                // crash: log it before acknowledging to the coordinator.
                let logged = self.dsm.log().append(LogRecord::TxnOutcome { txn });
                reg.record(txn);
                logged
            })),
            CommitRequest::QueryOutcome { txn } => match &self.registry {
                Some(reg) => match reg.outcome(txn) {
                    TxnOutcome::Committed => CommitReply::Committed,
                    TxnOutcome::Unknown => CommitReply::Unknown,
                },
                None => CommitReply::Refused,
            },
        }
    }

    /// Phase one: validate, log the intent, stage. The yes vote is a
    /// durable promise, so the intent is in the log before it is staged
    /// and before the reply leaves.
    fn prepare(&self, txn: u64, pages: Vec<PageImage>) -> Option<Logged> {
        // Validate the pages are installable before voting yes.
        if !pages.iter().all(|page| self.dsm.holds(page.seg)) {
            return None;
        }
        let logged = self.dsm.log().append(LogRecord::TxnIntent {
            txn,
            pages: pages
                .iter()
                .map(|p| IntentPage {
                    seg: p.seg,
                    page: p.page,
                    data: p.data.clone(),
                })
                .collect(),
        });
        self.log
            .entries
            .lock()
            .insert(txn, LogState::Staged(pages));
        Some(logged)
    }

    /// Install every page, or stop at the first refusal; one receipt
    /// per installed page.
    fn install_pages(&self, pages: &[PageImage]) -> Option<Vec<Logged>> {
        pages
            .iter()
            .map(|page| self.dsm.commit_page(page.seg, page.page, &page.data).ok())
            .collect()
    }

    /// Number of staged (prepared, undecided) transactions.
    pub fn staged_count(&self) -> usize {
        self.log.entries.lock().len()
    }

    /// Crash simulation: forget every staged transaction and (when this
    /// participant hosts it) every cached outcome. Pairs with
    /// [`CommitParticipant::resume_from_log`], which rebuilds both from
    /// the data server's replayed log.
    pub fn crash_volatile_state(&self) {
        self.log.entries.lock().clear();
        if let Some(reg) = &self.registry {
            reg.clear();
        }
    }

    /// Rebuild the staged-transaction table and the outcome registry
    /// from the pending intents and outcomes the data server's log
    /// replay found (what `DataServer::restart` returns). Call after the
    /// data server replayed its log and before
    /// [`CommitParticipant::recover`] resolves the re-staged
    /// transactions.
    ///
    /// Returns `(staged, outcomes)` counts.
    pub fn resume_from_log(&self, recovered: RecoveredTxns) -> (usize, usize) {
        let (pending, outcomes) = recovered;
        let outcome_count = outcomes.len();
        if let Some(reg) = &self.registry {
            for txn in outcomes {
                reg.record(txn);
            }
        }
        let staged = pending.len();
        let mut entries = self.log.entries.lock();
        for (txn, pages) in pending {
            let images = pages
                .into_iter()
                .map(|p| PageImage {
                    seg: p.seg,
                    page: p.page,
                    data: p.data,
                })
                .collect();
            entries.insert(txn, LogState::Staged(images));
        }
        (staged, outcome_count)
    }

    /// Crash-recovery: resolve staged transactions against the outcome
    /// registry (reached through `ratp` at `registry_node`). Committed
    /// transactions are installed; unknown ones are presumed aborted.
    ///
    /// Returns `(installed, aborted)` transaction counts.
    pub fn recover(
        &self,
        ratp: &Arc<RatpNode>,
        registry_node: clouds_simnet::NodeId,
    ) -> (usize, usize) {
        let staged: Vec<(u64, Vec<PageImage>)> = {
            let mut log = self.log.entries.lock();
            std::mem::take(&mut *log)
                .into_iter()
                .map(|(txn, LogState::Staged(pages))| (txn, pages))
                .collect()
        };
        let mut installed = 0;
        let mut aborted = 0;
        for (txn, pages) in staged {
            let verdict = if let Some(registry) = self.registry.as_ref() {
                // We host the registry: answer locally.
                match registry.outcome(txn) {
                    TxnOutcome::Committed => CommitReply::Committed,
                    TxnOutcome::Unknown => CommitReply::Unknown,
                }
            } else {
                let req = CommitRequest::QueryOutcome { txn };
                let payload =
                    bytes::Bytes::from(clouds_codec::to_bytes(&req).expect("encodes"));
                ratp.call(registry_node, ports::COMMIT, payload)
                    .ok()
                    .and_then(|b| clouds_codec::from_bytes(&b).ok())
                    .unwrap_or(CommitReply::Unknown)
            };
            if verdict == CommitReply::Committed {
                self.install_pages(&pages);
                installed += 1;
            } else {
                aborted += 1;
            }
            // Either way the transaction is decided: retire the intent so
            // the next replay does not re-stage it.
            self.dsm.log().append(LogRecord::TxnResolved { txn });
        }
        (installed, aborted)
    }
}

/// What an acknowledging arm must hold: the receipts of its log appends.
trait Receipt {}
impl Receipt for Logged {}
impl Receipt for Vec<Logged> {}

/// The reply acknowledging a logged mutation, or refusing one that did
/// not happen.
fn ack(receipt: Option<impl Receipt>) -> CommitReply {
    match receipt {
        Some(_) => CommitReply::Ok,
        None => CommitReply::Refused,
    }
}

/// Errors helper: map a refused reply into a [`CloudsError`].
pub(crate) fn refused(what: &str) -> CloudsError {
    CloudsError::ConsistencyAbort(format!("{what} refused by participant"))
}
