//! Radio frames: the unit of transmission on the simulated medium.
//!
//! Every frame is physically a broadcast (wireless is a shared channel); the
//! [`LinkDest`] field is the link-layer *filter* — unicast frames are still
//! heard by all neighbours, and protocol layers may snoop them, exactly as
//! the paper's transport exploits overheard leader announcements.
//!
//! Frame sizes drive both the 50 kb/s serialisation delay and the link
//! utilisation number in Table 1, so [`Frame::size_bytes`] models the MICA
//! TinyOS packet: a fixed header plus the payload.

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

/// Which codec serialises protocol payloads into frame bytes.
///
/// [`Binary`](WireCodec::Binary) is the canonical on-air format: numeric
/// message-type tags, varint/zigzag integers, length-prefixed frames — what
/// a real mote would transmit, and what the 50 kb/s serialisation model
/// charges. [`Json`](WireCodec::Json) is a textual debug codec kept as a
/// cross-check (the same discipline as the brute-force neighbor-table
/// oracle): frames carry the JSON encoding of the very same message, but
/// the radio still charges the canonical binary size
/// ([`Frame::wire_len`]), so a fixed-seed run is *byte-identical* under
/// either codec — any semantic disagreement between the two codecs changes
/// what receivers decode and breaks that identity loudly.
///
/// The net crate treats the codec opaquely (it only carries the toggle);
/// `envirotrack-core`'s `wire` module implements both formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Compact varint-framed binary codec — the canonical wire format.
    #[default]
    Binary,
    /// Textual JSON codec, retained as a differential debug cross-check.
    Json,
}

impl WireCodec {
    /// Parses a codec name as used by CLI flags (`binary` / `json`).
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no codec.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "binary" => Ok(WireCodec::Binary),
            "json" => Ok(WireCodec::Json),
            other => Err(format!("unknown codec {other:?} (binary|json)")),
        }
    }
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireCodec::Binary => "binary",
            WireCodec::Json => "json",
        })
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
pub fn fnv64(bytes: &[u8]) -> u64 {
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
    /// Canonical on-air payload length in bytes: what the radio charges for
    /// serialisation. Equals `payload.len()` except under the JSON debug
    /// codec, where `payload` carries the textual cross-check encoding but
    /// the channel still serialises the canonical binary frame (see
    /// [`WireCodec`]).
    pub wire_len: u16,
    /// Shadow hash of the payload *as the sender built it* ([`fnv64`]).
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
    pub const PREAMBLE_BYTES: usize = 18;

    /// Creates a broadcast frame. The charged on-air length defaults to the
    /// payload's own length; JSON debug-codec senders override it with
    /// [`Frame::with_wire_len`].
    #[must_use]
    pub fn broadcast(src: NodeId, kind: FrameKind, payload: Bytes) -> Self {
        let wire_len = payload.len() as u16;
        let shadow = fnv64(&payload);
        Frame {
            src,
            link_dst: LinkDest::Broadcast,
            kind,
            link_seq: 0,
            payload,
            wire_len,
            shadow,
        }
    }

    /// Creates a unicast (single-hop) frame.
    #[must_use]
    pub fn unicast(src: NodeId, to: NodeId, kind: FrameKind, payload: Bytes) -> Self {
        let wire_len = payload.len() as u16;
        let shadow = fnv64(&payload);
        Frame {
            src,
            link_dst: LinkDest::Node(to),
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

    /// Overrides the canonical on-air payload length; chainable. Used by
    /// the JSON debug codec, whose in-memory payload is *not* what the
    /// modelled radio would serialise.
    #[must_use]
    pub fn with_wire_len(mut self, wire_len: u16) -> Self {
        self.wire_len = wire_len;
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
    fn wire_len_overrides_the_charged_size() {
        // A JSON debug payload of 100 bytes whose canonical binary frame is
        // 20 bytes must be charged 20 on air.
        let f = Frame::broadcast(NodeId(0), FrameKind(1), Bytes::copy_from_slice(&[0u8; 100]))
            .with_wire_len(20);
        assert_eq!(f.size_bytes(), Frame::HEADER_BYTES + 20);
        assert_eq!(f.on_air_bits(), ((18 + 7 + 20) * 8) as u64);
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

    #[test]
    fn codec_parses_and_displays() {
        assert_eq!(WireCodec::parse("binary"), Ok(WireCodec::Binary));
        assert_eq!(WireCodec::parse("json"), Ok(WireCodec::Json));
        assert!(WireCodec::parse("protobuf").is_err());
        assert_eq!(WireCodec::default(), WireCodec::Binary);
        assert_eq!(WireCodec::Json.to_string(), "json");
    }
}
