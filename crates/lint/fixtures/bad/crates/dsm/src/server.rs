//! Fixture: a DSM server handler seeding one violation per rule family
//! that looks across functions or arms, each scoped so it trips *only*
//! its own rule:
//!
//! * `flush_dirty` — stripe guard held across a blocking `.call(…)`
//!   → **lock-across-call**;
//! * the `lint:allow(wall-clock)` below anchors a line that produces no
//!   wall-clock finding → **stale-allow**;
//! * `AdoptReplicaConfig` has no arm → **dispatch-arm**.

use crate::proto::{DsmReply, DsmRequest};

pub struct DsmServer {
    store: Store,
    log: Log,
    ratp: Ratp,
    dirty: parking_lot::Mutex<Vec<u32>>,
}

impl DsmServer {
    pub fn handle(&self, req: DsmRequest) -> DsmReply {
        match req {
            DsmRequest::FetchPage { seg, page } => {
                let version = self.store.read_version(seg, page);
                DsmReply::Grant { version }
            }
            DsmRequest::WriteBack { seg, page } => self.apply_write(seg, page),
            DsmRequest::CreateReplicated { seg } => {
                self.store.create(seg);
                self.log.append(seg);
                DsmReply::Ok
            }
            DsmRequest::MirrorCreate { seg } => {
                self.store.create(seg);
                self.log.append(seg);
                DsmReply::Ok
            }
            DsmRequest::MirrorPage { seg, page } => self.apply_write(seg, page),
            DsmRequest::Promote { seg, epoch } => {
                // lint:allow(wall-clock) — stale: nothing here has ever
                // read a wall clock.
                self.log.append(seg + epoch);
                DsmReply::Ok
            }
        }
    }

    fn apply_write(&self, seg: u64, page: u32) -> DsmReply {
        self.store.write_page(seg, page);
        self.log.append(seg);
        DsmReply::Ok
    }

    /// Stripe guard live across a blocking RaTP call.
    fn flush_dirty(&self) {
        let dirty = self.dirty.lock();
        for page in dirty.iter() {
            self.ratp.call(*page);
        }
    }
}

pub struct Store;
impl Store {
    pub fn read_version(&self, _seg: u64, _page: u32) -> u64 {
        0
    }
    pub fn write_page(&self, _seg: u64, _page: u32) {}
    pub fn create(&self, _seg: u64) {}
}

pub struct Log;
impl Log {
    pub fn append(&self, _rec: u64) {}
}

pub struct Ratp;
impl Ratp {
    pub fn call(&self, _page: u32) {}
}
