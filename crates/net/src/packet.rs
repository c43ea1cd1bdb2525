//! Radio frames: the unit of transmission on the simulated medium.
//!
//! Every frame is physically a broadcast (wireless is a shared channel); the
//! [`LinkDest`] field is the link-layer *filter* — unicast frames are still
//! heard by all neighbours, and protocol layers may snoop them, exactly as
//! the paper's transport exploits overheard leader announcements.
//!
//! Frame sizes drive both the 50 kb/s serialisation delay and the link
//! utilisation number in Table 1, so [`Frame::size_bytes`] models the MICA
//! TinyOS packet: a fixed header plus the payload. The payload *is* the
//! on-air encoding — there is one wire format — so the charged length
//! ([`Frame::wire_len`]) is taken from it once, when the frame is built.

use bytes::Bytes;
use envirotrack_world::field::NodeId;

/// Link-layer addressing: who the frame is *for* (everyone hears it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDest {
    /// Addressed to every node in radio range.
    Broadcast,
    /// Addressed to one neighbour (a routing hop).
    Node(NodeId),
}

impl LinkDest {
    /// Whether `node` should process a frame with this destination.
    #[must_use]
    pub fn accepts(self, node: NodeId) -> bool {
        match self {
            LinkDest::Broadcast => true,
            LinkDest::Node(n) => n == node,
        }
    }
}

/// A small tag identifying the protocol message class inside a frame.
///
/// The net crate treats kinds opaquely; `envirotrack-core` defines the
/// actual constants (heartbeats, sensor reports, …). Per-kind delivery
/// statistics let the harness separate heartbeat loss from data loss, as
/// Table 1 of the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameKind(pub u8);

impl std::fmt::Display for FrameKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kind{}", self.0)
    }
}

/// FNV-1a over a byte string: the shadow hash stamped on frames at build
/// time so the simulation can audit, end to end, that no frame the fault
/// injectors garbled is ever *accepted* by a receiver. This is simulator
/// bookkeeping, not protocol state — nothing on the modelled air carries it.
#[must_use]
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One radio frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The transmitting node.
    pub src: NodeId,
    /// The link-layer destination filter.
    pub link_dst: LinkDest,
    /// Protocol message class (opaque to the radio).
    pub kind: FrameKind,
    /// Link-layer sequence number for unicast acknowledgement/retransmit
    /// (0 for broadcast and unacknowledged frames).
    pub link_seq: u32,
    /// Serialised protocol payload.
    pub payload: Bytes,
    /// On-air payload length in bytes, fixed when the frame is built: what
    /// the radio charges for serialisation. Equals `payload.len()` until a
    /// fault injector truncates the payload in flight — the sender keyed
    /// the whole frame, so airtime stays charged from this field.
    pub wire_len: u16,
    /// Shadow hash of the payload *as the sender built it* (`fnv64`).
    /// The chaos medium's corruption injectors mutate `payload` but never
    /// this field, so a receiver-side audit can tell "decoded fine" from
    /// "decoded fine but the bytes were garbled" — the accepted-corrupt
    /// invariant. Simulation-only; carries zero on-air bytes.
    pub shadow: u64,
}

impl Frame {
    /// Link-layer header size in bytes: the TinyOS `TOS_Msg` header (dest,
    /// AM type, group, length, CRC) used on MICA motes.
    pub const HEADER_BYTES: usize = 7;

    /// Physical-layer preamble + start symbol, charged per transmission.
    pub(crate) const PREAMBLE_BYTES: usize = 18;

    /// Creates a broadcast frame, charged its payload's length on air.
    #[must_use]
    pub fn broadcast(src: NodeId, kind: FrameKind, payload: Bytes) -> Self {
        Self::new(src, LinkDest::Broadcast, kind, payload)
    }

    /// Creates a unicast (single-hop) frame.
    #[must_use]
    pub fn unicast(src: NodeId, to: NodeId, kind: FrameKind, payload: Bytes) -> Self {
        Self::new(src, LinkDest::Node(to), kind, payload)
    }

    /// The one writer of `wire_len` and `shadow`. Nothing bounds a payload
    /// (a heartbeat carries application state), so the charged length
    /// saturates: an oversized frame is charged the most the field holds,
    /// never its length modulo 65 536.
    fn new(src: NodeId, link_dst: LinkDest, kind: FrameKind, payload: Bytes) -> Self {
        let wire_len = u16::try_from(payload.len()).unwrap_or(u16::MAX);
        let shadow = fnv64(&payload);
        Frame {
            src,
            link_dst,
            kind,
            link_seq: 0,
            payload,
            wire_len,
            shadow,
        }
    }

    /// Whether the payload still hashes to the sender's shadow — `false`
    /// exactly when a fault injector garbled the frame in flight.
    #[must_use]
    pub fn payload_is_pristine(&self) -> bool {
        fnv64(&self.payload) == self.shadow
    }

    /// Sets the link-layer sequence number; chainable.
    #[must_use]
    pub fn with_link_seq(mut self, seq: u32) -> Self {
        self.link_seq = seq;
        self
    }

    /// Bytes occupying the channel, excluding the physical preamble.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        Self::HEADER_BYTES + usize::from(self.wire_len)
    }

    /// Total on-air size in bits, including the preamble — what the 50 kb/s
    /// radio actually serialises.
    #[must_use]
    pub fn on_air_bits(&self) -> u64 {
        ((Self::PREAMBLE_BYTES + self.size_bytes()) * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_dest_filters_receivers() {
        assert!(LinkDest::Broadcast.accepts(NodeId(3)));
        assert!(LinkDest::Node(NodeId(3)).accepts(NodeId(3)));
        assert!(!LinkDest::Node(NodeId(3)).accepts(NodeId(4)));
    }

    #[test]
    fn sizes_include_header_and_preamble() {
        let f = Frame::broadcast(NodeId(0), FrameKind(1), Bytes::from_static(&[0u8; 10]));
        assert_eq!(f.size_bytes(), 17);
        assert_eq!(f.on_air_bits(), (18 + 17) * 8);
    }

    #[test]
    fn constructors_set_destinations() {
        let b = Frame::broadcast(NodeId(1), FrameKind(0), Bytes::new());
        assert_eq!(b.link_dst, LinkDest::Broadcast);
        let u = Frame::unicast(NodeId(1), NodeId(2), FrameKind(0), Bytes::new());
        assert_eq!(u.link_dst, LinkDest::Node(NodeId(2)));
    }

    #[test]
    fn a_70_000_byte_payload_is_charged_no_less_than_a_65_535_byte_one() {
        let of = |len: usize| Bytes::from(vec![0u8; len]);
        let full = Frame::broadcast(NodeId(0), FrameKind(1), of(65_535));
        let over = Frame::broadcast(NodeId(0), FrameKind(1), of(70_000));
        assert!(over.on_air_bits() >= full.on_air_bits());
        let over = Frame::unicast(NodeId(0), NodeId(1), FrameKind(1), of(70_000));
        assert!(over.on_air_bits() >= full.on_air_bits());
    }

    #[test]
    fn shadow_hash_tracks_payload_mutation() {
        let mut f = Frame::broadcast(NodeId(0), FrameKind(1), Bytes::from_static(b"pristine"));
        assert!(f.payload_is_pristine());
        f.payload = Bytes::from_static(b"garbledd");
        assert!(!f.payload_is_pristine());
        // The sentinel is a real FNV-1a: check the classic test vector.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
