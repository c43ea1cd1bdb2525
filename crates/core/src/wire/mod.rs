//! The middleware's wire protocol: typed messages and their codecs.
//!
//! Every protocol exchange — heartbeats, member reports, directory traffic,
//! MTP segments — is a [`Message`] serialised into the payload of a radio
//! [`envirotrack_net::packet::Frame`]. Sizes are what the 50 kb/s channel
//! actually carries, so the one wire format is the compact varint-framed
//! [`binary`] codec (as on the real motes); Table 1's utilisation figures
//! depend on it, and a frame's payload is exactly the bytes the radio
//! charges. A textual JSON rendering of the same message set lives beside
//! the integration tests (`tests/support/json.rs`) as a reference they decode
//! against the binary codec; it is not part of the library.
//!
//! ```
//! use envirotrack_core::wire::{Heartbeat, Message};
//! use envirotrack_core::context::{ContextLabel, ContextTypeId};
//! use envirotrack_world::field::NodeId;
//! use envirotrack_world::geometry::Point;
//!
//! let msg = Message::Heartbeat(Heartbeat {
//!     label: ContextLabel { type_id: ContextTypeId(0), creator: NodeId(3), seq: 1 },
//!     leader: NodeId(3),
//!     leader_pos: Point::new(1.0, 2.0),
//!     weight: 17,
//!     hb_seq: 42,
//!     ttl: 1,
//!     state: None,
//! });
//! let bytes = msg.encode();
//! assert_eq!(Message::decode(&bytes).unwrap(), msg);
//! ```

pub mod binary;
pub mod crc;
pub mod session;
pub mod varint;

use bytes::Bytes;
use envirotrack_net::packet::FrameKind;
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use crate::aggregate::ReadingValue;
use crate::context::{ContextLabel, ContextTypeId};
use crate::transport::Port;

/// Frame kinds used by the middleware, for per-class channel statistics
/// (the `net.k<N>.*` counters). Each is read off the [`MessageType`] table;
/// link-layer acks carry no [`Message`] and so have no row there.
pub mod kinds {
    use super::MessageType;
    use envirotrack_net::packet::FrameKind;

    /// Leader heartbeats (Table 1's "HB loss" class).
    pub const HEARTBEAT: FrameKind = MessageType::Heartbeat.kind();
    /// Member sensor reports (Table 1's "Msg loss" class).
    pub const REPORT: FrameKind = MessageType::Report.kind();
    /// Leadership relinquish announcements.
    pub const RELINQUISH: FrameKind = MessageType::Relinquish.kind();
    /// Directory registrations, queries, and responses.
    pub const DIRECTORY: FrameKind = MessageType::DirRegister.kind();
    /// Geographically forwarded wrappers (multi-hop unicast legs).
    pub const GEO_FORWARD: FrameKind = MessageType::Geo.kind();
    /// Reports to the base station / pursuer.
    pub const BASE_REPORT: FrameKind = MessageType::Base.kind();
    /// Link-layer acknowledgements for reliable unicast hops.
    pub(crate) const LINK_ACK: FrameKind = FrameKind(8);
    /// End-to-end MTP acknowledgements (transport-layer reliability).
    pub const MTP_ACK: FrameKind = MessageType::MtpAckMsg.kind();
}

/// A leader's periodic announcement (paper §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Heartbeat {
    /// The context label the leader speaks for.
    pub label: ContextLabel,
    /// The current leader.
    pub leader: NodeId,
    /// The leader's position (lets the transport chase moving groups).
    pub leader_pos: Point,
    /// The leader weight: member messages received to date.
    pub weight: u32,
    /// Monotone per-leader heartbeat sequence, for flood deduplication.
    pub hb_seq: u32,
    /// Remaining flood hops past the hearing node.
    pub ttl: u8,
    /// Optional persistent object state carried for successor leaders.
    pub state: Option<Bytes>,
}

/// A leader stepping down because it no longer senses the entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Relinquish {
    /// The label being handed over.
    pub label: ContextLabel,
    /// The departing leader.
    pub from: NodeId,
    /// The weight the successor should inherit.
    pub weight: u32,
    /// The designated successor (freshest reporter), if any was known.
    pub successor: Option<NodeId>,
    /// Persistent object state to carry over.
    pub state: Option<Bytes>,
}

/// A member's raw sensor report to its leader (the data-collection
/// protocol of §3.2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The group's label.
    pub label: ContextLabel,
    /// The reporting member.
    pub member: NodeId,
    /// When the readings were taken.
    pub taken_at: Timestamp,
    /// `(aggregate-variable index, value)` pairs.
    pub values: Vec<(u8, ReadingValue)>,
}

/// A new or refreshed directory entry (paper §5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct DirRegister {
    /// The registering label.
    pub label: ContextLabel,
    /// Where the label's leader currently is.
    pub location: Point,
}

/// A "where are all the fires?" directory query.
#[derive(Debug, Clone, PartialEq)]
pub struct DirQuery {
    /// The context type being looked up.
    pub type_id: ContextTypeId,
    /// The querying node (response is geo-routed back to it).
    pub reply_to: NodeId,
    /// The querying node's position.
    pub reply_pos: Point,
    /// Correlates the response with the query.
    pub query_id: u32,
}

/// The directory's answer to a [`DirQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct DirResponse {
    /// Correlates with the query.
    pub query_id: u32,
    /// Known live labels of the requested type and their last locations.
    pub entries: Vec<(ContextLabel, Point)>,
}

/// A replica's anti-entropy digest of its directory store for one context
/// type: every live entry with its refresh timestamp. Replica-set peers
/// exchange these after partitions heal (and on a slow gossip timer) and
/// adopt whatever is missing or fresher — the repair path for
/// registrations lost to a dead or isolated home node.
#[derive(Debug, Clone, PartialEq)]
pub struct DirSync {
    /// The context type whose entries are being exchanged.
    pub type_id: ContextTypeId,
    /// The replica sending the digest.
    pub from: NodeId,
    /// Whether the receiver should answer with its own digest (the *pull*
    /// half of push-pull gossip). Replies carry `false`, bounding each
    /// exchange to one round trip.
    pub reply: bool,
    /// `(label, last location, refreshed-at)` for every stored entry of
    /// the type. The timestamp makes merging last-writer-wins.
    pub entries: Vec<(ContextLabel, Point, Timestamp)>,
}

/// One inter-object transport segment (paper §5.4's MTP).
#[derive(Debug, Clone, PartialEq)]
pub struct MtpSegment {
    /// Source connection endpoint.
    pub src_label: ContextLabel,
    /// Source port.
    pub src_port: Port,
    /// Destination connection endpoint.
    pub dst_label: ContextLabel,
    /// Destination port (selects the receiving object method).
    pub dst_port: Port,
    /// The sender's current leader — receivers update their tables from it.
    pub src_leader: NodeId,
    /// The sender leader's position.
    pub src_leader_pos: Point,
    /// Forwarding-chain hop count (bounds chasing through past leaders).
    pub chain_hops: u8,
    /// End-to-end sequence number, scoped to the sending node; pairs with
    /// [`MtpAck`] for bounded retransmission and receiver-side dedup.
    pub seq: u32,
    /// Application payload.
    pub payload: Bytes,
}

/// An end-to-end acknowledgement for one [`MtpSegment`], geo-routed back to
/// the segment's source leader. Carries the acker's current leadership so
/// the source refreshes its last-known-leader table for free.
#[derive(Debug, Clone, PartialEq)]
pub struct MtpAck {
    /// The acknowledged segment's destination label (who is acking).
    pub dst_label: ContextLabel,
    /// The acknowledged segment's source node (where the ack goes).
    pub src_node: NodeId,
    /// The acknowledged sequence number.
    pub seq: u32,
    /// The acking leader.
    pub acker: NodeId,
    /// The acking leader's position.
    pub acker_pos: Point,
}

/// An application report delivered to the base station / pursuer.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseReport {
    /// The reporting context label.
    pub label: ContextLabel,
    /// When the report was generated on the leader.
    pub generated_at: Timestamp,
    /// Application payload (e.g. an encoded position).
    pub payload: Bytes,
}

/// A message wrapped for greedy geographic forwarding to a coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoForward {
    /// The destination coordinate (delivery happens at its home node, or at
    /// `deliver_to` if that node is reached first).
    pub dest: Point,
    /// If set, any hop through this node delivers immediately.
    pub deliver_to: Option<NodeId>,
    /// The wrapped message.
    pub inner: Box<Message>,
}

/// Every protocol message the middleware exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Leader heartbeat.
    Heartbeat(Heartbeat),
    /// Leadership relinquish.
    Relinquish(Relinquish),
    /// Member sensor report.
    Report(Report),
    /// Directory registration.
    DirRegister(DirRegister),
    /// Directory query.
    DirQuery(DirQuery),
    /// Directory response.
    DirResponse(DirResponse),
    /// Inter-object transport segment.
    Mtp(MtpSegment),
    /// Base-station report.
    Base(BaseReport),
    /// Geographic forwarding wrapper.
    Geo(GeoForward),
    /// End-to-end MTP acknowledgement.
    MtpAckMsg(MtpAck),
    /// Directory anti-entropy digest.
    DirSyncMsg(DirSync),
}

/// Defines [`MessageType`] and everything read off it from one table: a
/// row per [`Message`] variant, carrying its wire tag and the number of the
/// [`FrameKind`] class its frames are counted under.
macro_rules! message_types {
    ($($variant:ident = $tag:literal => $class:literal,)*) => {
        /// The type of a [`Message`]: its discriminant is the wire tag, the
        /// leading varint of the binary body and the `"t"` field of the
        /// JSON form.
        #[repr(u8)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum MessageType {
            $(
                #[doc = concat!("[`Message::", stringify!($variant), "`].")]
                $variant = $tag,
            )*
        }

        impl MessageType {
            /// The wire tag.
            #[must_use]
            pub const fn to_u8(self) -> u8 {
                self as u8
            }

            /// The type a wire tag names, if any.
            #[must_use]
            pub const fn from_u8(tag: u8) -> Option<Self> {
                match tag {
                    $($tag => Some(Self::$variant),)*
                    _ => None,
                }
            }

            /// The frame kind the type's frames are counted under.
            #[must_use]
            pub(crate) const fn kind(self) -> FrameKind {
                match self {
                    $(Self::$variant => FrameKind($class),)*
                }
            }
        }

        impl Message {
            /// This message's row of the type table.
            #[must_use]
            pub fn message_type(&self) -> MessageType {
                match self {
                    $(Message::$variant(_) => MessageType::$variant,)*
                }
            }

            /// The frame kind used for channel statistics.
            #[must_use]
            pub fn kind(&self) -> FrameKind {
                self.message_type().kind()
            }
        }
    };
}

message_types! {
    Heartbeat = 1 => 1,
    Relinquish = 2 => 3,
    Report = 3 => 2,
    // The three directory messages share one channel class.
    DirRegister = 4 => 4,
    DirQuery = 5 => 4,
    DirResponse = 6 => 4,
    Mtp = 7 => 5,
    Base = 8 => 7,
    Geo = 9 => 6,
    MtpAckMsg = 10 => 9,
    DirSyncMsg = 11 => 10,
}

impl MessageType {
    /// The type a decoded tag field names.
    fn from_wire(tag: u64) -> Result<Self, DecodeError> {
        u8::try_from(tag)
            .ok()
            .and_then(Self::from_u8)
            .ok_or(DecodeError::UnknownTag { tag })
    }
}

impl Message {
    /// Serialises to the canonical binary wire format.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        binary::encode(self)
    }

    /// Parses a message from the canonical binary wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on any malformed input; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        binary::decode(bytes)
    }
}

/// Error returned when a wire message cannot be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// The leading type tag is not a known message.
    UnknownTag {
        /// The offending tag value.
        tag: u64,
    },
    /// Bytes remained after a complete message.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A varint ran past ten bytes or overflowed `u64`.
    VarintOverflow,
    /// A varint used more bytes than its value needs (a shorter encoding
    /// of the same value exists; canonical decoding rejects it).
    NonCanonicalVarint,
    /// A frame's length prefix disagreed with its body.
    LengthMismatch {
        /// The length the prefix declared.
        declared: usize,
        /// The bytes the body actually consumed.
        used: usize,
    },
    /// A field violated its own rules (bad option flag, out-of-range
    /// integer, malformed JSON, …).
    Malformed {
        /// A human-readable description of the violation.
        what: &'static str,
    },
    /// The frame's CRC-32 integrity trailer disagreed with its body — the
    /// channel (or an adversary) garbled the frame in flight.
    CrcMismatch {
        /// The checksum the trailer carried.
        stored: u32,
        /// The checksum the body actually has.
        computed: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after message")
            }
            DecodeError::VarintOverflow => f.write_str("varint overflows u64"),
            DecodeError::NonCanonicalVarint => f.write_str("non-canonical varint encoding"),
            DecodeError::LengthMismatch { declared, used } => {
                write!(f, "frame declared {declared} body bytes but used {used}")
            }
            DecodeError::Malformed { what } => write!(f, "malformed message: {what}"),
            DecodeError::CrcMismatch { stored, computed } => {
                write!(f, "crc mismatch: trailer {stored:#010x}, body {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(t: u16, n: u32, s: u32) -> ContextLabel {
        ContextLabel {
            type_id: ContextTypeId(t),
            creator: NodeId(n),
            seq: s,
        }
    }

    /// Appends a *valid* CRC trailer to hand-crafted frame bytes, so tests
    /// exercising structural errors get past the integrity check.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out.extend_from_slice(&crc::crc32(body).to_le_bytes());
        out
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let bytes = Message::Heartbeat(Heartbeat {
            label: label(1, 2, 3),
            leader: NodeId(2),
            leader_pos: Point::ORIGIN,
            weight: 9,
            hb_seq: 9,
            ttl: 0,
            state: None,
        })
        .encode();
        // A cut too short to hold a trailer is `Truncated`; any longer cut
        // turns the buffer's last four bytes into a bogus trailer, so the
        // CRC rejects it before structural parsing even starts.
        for cut in 0..bytes.len() {
            let err = Message::decode(&bytes[..cut]).unwrap_err();
            if cut < 4 {
                assert_eq!(err, DecodeError::Truncated, "cut at {cut} gave {err:?}");
            } else {
                assert!(
                    matches!(err, DecodeError::CrcMismatch { .. }),
                    "cut at {cut} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_error() {
        // A frame of declared length 2 whose body is the varint 200 — a
        // tag no message uses (sealed, so the CRC passes and the structural
        // check is what fires).
        assert_eq!(
            Message::decode(&seal(&[0x02, 0xC8, 0x01])).unwrap_err(),
            DecodeError::UnknownTag { tag: 200 }
        );
        let sealed = Message::DirResponse(DirResponse {
            query_id: 1,
            entries: vec![],
        })
        .encode();
        let mut frame = sealed[..sealed.len() - 4].to_vec();
        frame.push(0xAB);
        assert_eq!(
            Message::decode(&seal(&frame)).unwrap_err(),
            DecodeError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn length_prefix_lies_are_rejected() {
        // Grow a DirRegister frame's declared length by one and pad the
        // buffer to match: the body decodes but leaves a byte over. Re-seal
        // after tampering so the structural check (not the CRC) fires.
        let sealed = Message::DirRegister(DirRegister {
            label: label(0, 1, 1),
            location: Point::ORIGIN,
        })
        .encode();
        let mut padded = sealed[..sealed.len() - 4].to_vec();
        padded[0] += 1;
        padded.push(0x00);
        let declared = padded[0] as usize;
        assert_eq!(
            Message::decode(&seal(&padded)).unwrap_err(),
            DecodeError::LengthMismatch {
                declared,
                used: declared - 1,
            }
        );
    }

    #[test]
    fn kinds_separate_heartbeats_from_reports() {
        let hb = Message::Heartbeat(Heartbeat {
            label: label(0, 0, 0),
            leader: NodeId(0),
            leader_pos: Point::ORIGIN,
            weight: 0,
            hb_seq: 0,
            ttl: 0,
            state: None,
        });
        let rpt = Message::Report(Report {
            label: label(0, 0, 0),
            member: NodeId(0),
            taken_at: Timestamp::ZERO,
            values: vec![],
        });
        assert_eq!(hb.kind(), kinds::HEARTBEAT);
        assert_eq!(rpt.kind(), kinds::REPORT);
        assert_ne!(hb.kind(), rpt.kind());
    }

    /// The numbers on the air and in the `net.k<N>` counter names.
    #[test]
    fn the_type_table_keeps_its_tags_and_classes() {
        let classes = [1, 3, 2, 4, 4, 4, 5, 7, 6, 9, 10];
        for (tag, class) in (1u8..=11).zip(classes) {
            let ty = MessageType::from_u8(tag).expect("tags 1..=11 are assigned");
            assert_eq!(ty.to_u8(), tag);
            assert_eq!(ty.kind(), FrameKind(class), "{ty:?}");
            assert_ne!(ty.kind(), kinds::LINK_ACK, "acks share no class");
        }
        assert_eq!(MessageType::from_u8(0), None);
        assert_eq!(MessageType::from_u8(12), None);
        assert_eq!(
            MessageType::from_wire(256 + 1),
            Err(DecodeError::UnknownTag { tag: 257 })
        );
    }

    #[test]
    fn heartbeat_is_compact_on_the_wire() {
        // The mote radio carried ~36-byte packets; varint framing gets a
        // stateless heartbeat well under half of that.
        let hb = Message::Heartbeat(Heartbeat {
            label: label(1, 2, 3),
            leader: NodeId(2),
            leader_pos: Point::new(1.0, 2.0),
            weight: 17,
            hb_seq: 42,
            ttl: 1,
            state: None,
        });
        let binary = hb.encode().len();
        // 18 bytes of varint frame plus the 4-byte CRC trailer.
        assert!(binary <= 22, "heartbeat is {binary} bytes");
    }

    #[test]
    fn accepted_binary_input_reencodes_identically() {
        // The canonical-decoding property the adversarial suite leans on.
        let msg = Message::Mtp(MtpSegment {
            src_label: label(4, 1_000_000, 3),
            src_port: Port(700),
            dst_label: label(5, 2, 9),
            dst_port: Port(1),
            src_leader: NodeId(u32::MAX),
            src_leader_pos: Point::new(-3.75, 1e300),
            chain_hops: 255,
            seq: 123_456_789,
            payload: Bytes::from_static(&[0xde, 0xad]),
        });
        let bytes = msg.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
    }
}
