//! RaTP wire format, version 1.
//!
//! Every frame carries exactly one packet:
//!
//! ```text
//! byte 0      ver | kind  high nibble: wire version (1); low nibble:
//!                          kind (1 = request fragment, 2 = reply
//!                          fragment, 3 = negative reply: service not
//!                          found, 4 = one-way notify, 5 = liveness
//!                          heartbeat)
//! bytes 1..3  port        destination service (requests) / 0 (replies)
//! bytes 3..11 txn         transaction id (client node id << 32 | counter)
//! bytes 11..13 frag_index fragment number, 0-based
//! bytes 13..15 frag_count total fragments in the message
//! byte 15     flags       bit 0: span-context extension present
//! bytes 16..20 checksum   FNV-1a over the whole packet (checksum field
//!                          zeroed), extensions and payload included;
//!                          corrupted frames fail [`Packet::decode`] and
//!                          are re-covered by retransmission
//! bytes 20..44 span ctx   (flag bit 0 only) trace_id, span_id,
//!                          parent_id — the sender's causal identity,
//!                          re-installed by the receiving handler
//! bytes 20/44.. payload   fragment payload
//! ```
//!
//! Version-0 peers (no version nibble) see kind bytes `0x11`–`0x14` and
//! reject them as unknown kinds; version-1 decode likewise rejects the
//! version-0 byte range — a clean mutual refusal rather than a
//! misparse.

use bytes::{Bytes, BytesMut};
use clouds_obs::SpanContext;
use clouds_simnet::MTU;

/// Wire format version carried in the high nibble of byte 0.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of fixed RaTP header per fragment (excludes extensions).
pub const HEADER_LEN: usize = 20;

/// Bytes of the optional span-context extension.
pub const CTX_LEN: usize = 24;

/// Byte offset of the flags field within the header.
const FLAGS_OFFSET: usize = 15;

/// Byte offset of the checksum field within the header.
const CHECKSUM_OFFSET: usize = 16;

/// Flags bit 0: the span-context extension follows the header.
const FLAG_CTX: u8 = 0x01;

/// FNV-1a, 32-bit, over a packet image with the checksum field zeroed.
fn checksum(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for part in parts {
        for &b in *part {
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// Maximum payload bytes carried by one fragment. Reserved assuming the
/// context extension is present, so fragmentation geometry — and with
/// it message framing and virtual-time cost — is independent of whether
/// a message happens to be traced.
pub const MAX_FRAGMENT_PAYLOAD: usize = MTU - HEADER_LEN - CTX_LEN;

/// Packet type discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Fragment of a client request.
    Request = 1,
    /// Fragment of a server reply.
    Reply = 2,
    /// Negative reply: no service is registered on the requested port.
    NoService = 3,
    /// Fragment of a one-way notification: delivered to the service but
    /// never answered. Acks use this so a fire-and-forget message costs
    /// exactly its own transmission — a `Request` would make the
    /// receiver synthesize, send and bill a reply nobody is waiting for.
    Notify = 4,
    /// Liveness beacon between data servers: a single unfragmented
    /// packet whose payload is the sender's virtual clock (8 bytes,
    /// little-endian). Handled inside the receive loop — no service, no
    /// handler worker, no reply — so a heartbeat costs exactly one
    /// packet and cannot be delayed by a busy dispatcher.
    Heartbeat = 5,
}

impl PacketKind {
    fn from_u8(v: u8) -> Option<PacketKind> {
        match v {
            1 => Some(PacketKind::Request),
            2 => Some(PacketKind::Reply),
            3 => Some(PacketKind::NoService),
            4 => Some(PacketKind::Notify),
            5 => Some(PacketKind::Heartbeat),
            _ => None,
        }
    }
}

/// One RaTP packet (a single fragment of a message transaction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet type.
    pub kind: PacketKind,
    /// Destination service port (meaningful for requests).
    pub port: u16,
    /// Transaction identifier, unique per originating client.
    pub txn: u64,
    /// This fragment's index, `0..frag_count`.
    pub frag_index: u16,
    /// Total number of fragments in the message.
    pub frag_count: u16,
    /// Causal context of the sending span ([`SpanContext::NONE`] when
    /// untraced; carried on the wire only when present).
    pub ctx: SpanContext,
    /// Fragment payload.
    pub payload: Bytes,
}

impl Packet {
    /// Serialize to wire bytes.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_FRAGMENT_PAYLOAD`]; fragments
    /// are produced by the crate's fragmentation, which respects the limit.
    pub fn encode(&self) -> Bytes {
        assert!(self.payload.len() <= MAX_FRAGMENT_PAYLOAD);
        let traced = self.ctx.is_some();
        let mut buf = BytesMut::with_capacity(HEADER_LEN + CTX_LEN + self.payload.len());
        buf.extend_from_slice(&[(WIRE_VERSION << 4) | self.kind as u8]);
        buf.extend_from_slice(&self.port.to_le_bytes());
        buf.extend_from_slice(&self.txn.to_le_bytes());
        buf.extend_from_slice(&self.frag_index.to_le_bytes());
        buf.extend_from_slice(&self.frag_count.to_le_bytes());
        buf.extend_from_slice(&[if traced { FLAG_CTX } else { 0 }]);
        buf.extend_from_slice(&[0u8; 4]); // checksum placeholder
        if traced {
            buf.extend_from_slice(&self.ctx.trace_id.to_le_bytes());
            buf.extend_from_slice(&self.ctx.span_id.to_le_bytes());
            buf.extend_from_slice(&self.ctx.parent_id.to_le_bytes());
        }
        buf.extend_from_slice(&self.payload);
        let sum = checksum(&[&buf]);
        buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&sum.to_le_bytes());
        buf.freeze()
    }

    /// Parse from wire bytes; `None` on malformed, corrupted or
    /// version-mismatched input.
    pub fn decode(mut raw: Bytes) -> Option<Packet> {
        if raw.len() < HEADER_LEN {
            return None;
        }
        let stored = u32::from_le_bytes(
            raw[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].try_into().ok()?,
        );
        let computed = checksum(&[&raw[..CHECKSUM_OFFSET], &[0u8; 4], &raw[CHECKSUM_OFFSET + 4..]]);
        if stored != computed {
            return None; // bit rot in transit; the sender will retransmit
        }
        if raw[0] >> 4 != WIRE_VERSION {
            return None; // other wire versions refused, not misparsed
        }
        let header = raw.split_to(HEADER_LEN);
        let kind = PacketKind::from_u8(header[0] & 0x0F)?;
        let port = u16::from_le_bytes([header[1], header[2]]);
        let txn = u64::from_le_bytes(header[3..11].try_into().ok()?);
        let frag_index = u16::from_le_bytes([header[11], header[12]]);
        let frag_count = u16::from_le_bytes([header[13], header[14]]);
        let flags = header[FLAGS_OFFSET];
        if frag_count == 0 || frag_index >= frag_count {
            return None;
        }
        if flags & !FLAG_CTX != 0 {
            return None; // unknown extension bits
        }
        let ctx = if flags & FLAG_CTX != 0 {
            if raw.len() < CTX_LEN {
                return None;
            }
            let ext = raw.split_to(CTX_LEN);
            let ctx = SpanContext {
                trace_id: u64::from_le_bytes(ext[0..8].try_into().ok()?),
                span_id: u64::from_le_bytes(ext[8..16].try_into().ok()?),
                parent_id: u64::from_le_bytes(ext[16..24].try_into().ok()?),
            };
            if !ctx.is_some() {
                return None; // flagged extension must carry a real trace
            }
            ctx
        } else {
            SpanContext::NONE
        };
        Some(Packet {
            kind,
            port,
            txn,
            frag_index,
            frag_count,
            ctx,
            payload: raw,
        })
    }
}

/// Split a message into fragments ready for transmission, each carrying
/// `ctx` (every fragment repeats it so reassembly order cannot lose the
/// trace).
///
/// An empty message still produces one (empty) fragment so the receiver
/// learns about the transaction.
///
/// # Panics
///
/// Panics if the message would need more than `u16::MAX` fragments
/// (≈95 MB), far beyond any Clouds transfer.
pub fn fragment(
    kind: PacketKind,
    port: u16,
    txn: u64,
    message: Bytes,
    ctx: SpanContext,
) -> Vec<Packet> {
    let frag_count = message.len().div_ceil(MAX_FRAGMENT_PAYLOAD).max(1);
    assert!(frag_count <= u16::MAX as usize, "message too large for RaTP");
    let mut out = Vec::with_capacity(frag_count);
    for i in 0..frag_count {
        let start = i * MAX_FRAGMENT_PAYLOAD;
        let end = ((i + 1) * MAX_FRAGMENT_PAYLOAD).min(message.len());
        out.push(Packet {
            kind,
            port,
            txn,
            frag_index: i as u16,
            frag_count: frag_count as u16,
            ctx,
            payload: message.slice(start..end),
        });
    }
    out
}

/// Reassembly buffer for one in-flight message.
#[derive(Debug)]
pub struct Reassembly {
    frag_count: u16,
    received: Vec<Option<Bytes>>,
    have: u16,
}

impl Reassembly {
    /// Fresh buffer expecting `frag_count` fragments.
    pub fn new(frag_count: u16) -> Reassembly {
        Reassembly {
            frag_count,
            received: vec![None; frag_count as usize],
            have: 0,
        }
    }

    /// Insert a fragment; returns the full message when complete.
    /// Duplicate or inconsistent fragments are ignored.
    pub fn insert(&mut self, pkt: Packet) -> Option<Bytes> {
        if pkt.frag_count != self.frag_count
            || pkt.frag_index >= self.frag_count
            || self.received.is_empty()
        {
            // Inconsistent fragment, or a duplicate arriving after the
            // message already completed and the buffer was drained.
            return None;
        }
        // Single-fragment fast path: the fragment's payload *is* the
        // message — hand the arrival buffer through without re-copying
        // (an 8 KB page grant rides one fragment end to end). Draining
        // the slot vector keeps the duplicate-after-completion guard
        // above working.
        if self.frag_count == 1 {
            self.received.clear();
            self.have = 1;
            return Some(pkt.payload);
        }
        let slot = &mut self.received[pkt.frag_index as usize];
        if slot.is_none() {
            *slot = Some(pkt.payload);
            self.have += 1;
        }
        if self.have == self.frag_count {
            let total: usize = self
                .received
                .iter()
                .map(|p| p.as_ref().map_or(0, Bytes::len))
                .sum();
            let mut whole = BytesMut::with_capacity(total);
            for piece in self.received.drain(..) {
                whole.extend_from_slice(&piece.expect("all fragments present"));
            }
            Some(whole.freeze())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: SpanContext = SpanContext {
        trace_id: 0x1111_2222_3333_4444,
        span_id: 0x5555_6666_7777_8888,
        parent_id: 0x9999_AAAA_BBBB_CCCC,
    };

    #[test]
    fn encode_decode_roundtrip() {
        let p = Packet {
            kind: PacketKind::Request,
            port: 42,
            txn: 0xDEADBEEF,
            frag_index: 2,
            frag_count: 5,
            ctx: SpanContext::NONE,
            payload: Bytes::from_static(b"chunk"),
        };
        let decoded = Packet::decode(p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn encode_decode_roundtrip_with_span_context() {
        let p = Packet {
            kind: PacketKind::Request,
            port: 42,
            txn: 0xDEADBEEF,
            frag_index: 2,
            frag_count: 5,
            ctx: CTX,
            payload: Bytes::from_static(b"chunk"),
        };
        let wire = p.encode();
        assert_eq!(wire.len(), HEADER_LEN + CTX_LEN + 5);
        let decoded = Packet::decode(wire).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn heartbeat_roundtrip() {
        let p = Packet {
            kind: PacketKind::Heartbeat,
            port: 0,
            txn: 0,
            frag_index: 0,
            frag_count: 1,
            ctx: SpanContext::NONE,
            payload: Bytes::copy_from_slice(&42u64.to_le_bytes()),
        };
        let decoded = Packet::decode(p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Packet::decode(Bytes::from_static(b"short")).is_none());
        // Bad kind byte.
        let mut raw = vec![9u8; HEADER_LEN];
        raw[13] = 1; // frag_count = 1
        assert!(Packet::decode(Bytes::from(raw)).is_none());
        // frag_count == 0.
        let p = Packet {
            kind: PacketKind::Reply,
            port: 0,
            txn: 1,
            frag_index: 0,
            frag_count: 1,
            ctx: SpanContext::NONE,
            payload: Bytes::new(),
        };
        let mut raw = p.encode().to_vec();
        raw[13] = 0;
        raw[14] = 0;
        assert!(Packet::decode(Bytes::from(raw)).is_none());
    }

    /// Rewrite byte 0 and repair the checksum, isolating the version /
    /// flags checks from corruption detection.
    fn with_patched_byte(wire: &[u8], offset: usize, value: u8) -> Bytes {
        let mut raw = wire.to_vec();
        raw[offset] = value;
        raw[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&[0; 4]);
        let sum = checksum(&[&raw]);
        raw[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&sum.to_le_bytes());
        Bytes::from(raw)
    }

    #[test]
    fn decode_rejects_other_wire_versions() {
        let p = Packet {
            kind: PacketKind::Request,
            port: 1,
            txn: 2,
            frag_index: 0,
            frag_count: 1,
            ctx: SpanContext::NONE,
            payload: Bytes::from_static(b"x"),
        };
        let wire = p.encode();
        assert_eq!(wire[0] >> 4, WIRE_VERSION);
        // A version-0 peer's kind byte (no version nibble).
        assert!(Packet::decode(with_patched_byte(&wire, 0, PacketKind::Request as u8)).is_none());
        // A hypothetical version-2 peer.
        assert!(Packet::decode(with_patched_byte(&wire, 0, (2 << 4) | 1)).is_none());
    }

    #[test]
    fn decode_rejects_unknown_flags_and_truncated_ctx() {
        let p = Packet {
            kind: PacketKind::Request,
            port: 1,
            txn: 2,
            frag_index: 0,
            frag_count: 1,
            ctx: SpanContext::NONE,
            payload: Bytes::new(),
        };
        let wire = p.encode();
        // Unknown extension bit.
        assert!(Packet::decode(with_patched_byte(&wire, FLAGS_OFFSET, 0x02)).is_none());
        // Context flag set but no context bytes follow (empty payload,
        // so the frame is exactly HEADER_LEN).
        assert!(Packet::decode(with_patched_byte(&wire, FLAGS_OFFSET, FLAG_CTX)).is_none());
    }

    #[test]
    fn decode_rejects_any_single_bit_flip() {
        let p = Packet {
            kind: PacketKind::Request,
            port: 7,
            txn: 0x0123_4567_89AB_CDEF,
            frag_index: 0,
            frag_count: 1,
            ctx: CTX,
            payload: Bytes::from_static(b"payload under test"),
        };
        let wire = p.encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut damaged = wire.to_vec();
                damaged[byte] ^= 1 << bit;
                assert!(
                    Packet::decode(Bytes::from(damaged)).is_none(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_covers_payload_not_just_header() {
        let a = Packet {
            kind: PacketKind::Reply,
            port: 0,
            txn: 3,
            frag_index: 0,
            frag_count: 1,
            ctx: SpanContext::NONE,
            payload: Bytes::from_static(b"aaaa"),
        };
        let mut raw = a.encode().to_vec();
        // Swap the payload wholesale while keeping the header: must fail.
        raw[HEADER_LEN..].copy_from_slice(b"bbbb");
        assert!(Packet::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn fragment_empty_message() {
        let frags = fragment(PacketKind::Request, 1, 7, Bytes::new(), SpanContext::NONE);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].frag_count, 1);
        assert!(frags[0].payload.is_empty());
    }

    #[test]
    fn fragment_and_reassemble_out_of_order() {
        let msg: Vec<u8> = (0..(3 * MAX_FRAGMENT_PAYLOAD + 17))
            .map(|i| (i % 256) as u8)
            .collect();
        let mut frags = fragment(PacketKind::Reply, 0, 9, Bytes::from(msg.clone()), CTX);
        assert_eq!(frags.len(), 4);
        for f in &frags {
            assert_eq!(f.ctx, CTX, "every fragment repeats the context");
        }
        frags.reverse();
        let mut re = Reassembly::new(4);
        let mut result = None;
        for f in frags {
            result = re.insert(f);
        }
        assert_eq!(&result.unwrap()[..], &msg[..]);
    }

    #[test]
    fn reassembly_ignores_duplicates() {
        let msg = Bytes::from(vec![1u8; 2 * MAX_FRAGMENT_PAYLOAD]);
        let frags = fragment(PacketKind::Reply, 0, 9, msg.clone(), SpanContext::NONE);
        let mut re = Reassembly::new(2);
        assert!(re.insert(frags[0].clone()).is_none());
        assert!(re.insert(frags[0].clone()).is_none()); // dup
        let whole = re.insert(frags[1].clone()).unwrap();
        assert_eq!(whole.len(), msg.len());
    }

    #[test]
    fn reassembly_ignores_duplicate_after_completion() {
        let msg = Bytes::from_static(b"done");
        let frags = fragment(PacketKind::Reply, 0, 9, msg, SpanContext::NONE);
        let mut re = Reassembly::new(1);
        assert!(re.insert(frags[0].clone()).is_some());
        // A straggling duplicate must be ignored, not panic.
        assert!(re.insert(frags[0].clone()).is_none());
    }

    #[test]
    fn fragments_respect_mtu() {
        let msg = Bytes::from(vec![0u8; 50_000]);
        for f in fragment(PacketKind::Request, 3, 11, msg, CTX) {
            assert!(f.encode().len() <= MTU);
        }
    }
}
