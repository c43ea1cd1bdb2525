//! The tracking-as-a-service **session protocol**: the messages a TCP
//! client exchanges with `envirotrack-serve`'s session server.
//!
//! These never ride the simulated radio — they cross a real socket between
//! an external client and the serving front-end — but they reuse the exact
//! wire discipline of the radio codec: LEB128 varint fields inside a
//! length-prefixed frame ending in a CRC-32 trailer (see [`super::varint`]
//! and [`super::crc`]), with the same canonicality invariant
//! (`decode(b) == Ok(m)` implies `encode(m) == b`). The tag space is
//! independent of [`super::Message`]'s: a session frame is only ever parsed
//! by the session server, a radio frame only by the medium.
//!
//! ```text
//! frame := uvarint(len) ++ body ++ crc32_le(uvarint(len) ++ body)
//! body  := uvarint(tag) ++ fields…          (tags 1..=9, one per variant)
//! ```
//!
//! The message shapes follow the classic session-layer split (HELLO/ACCEPT/
//! REJECT handshake with protocol-version and capability negotiation, DATA
//! both ways, PING/PONG keep-alive, CLOSE with a reason code):
//!
//! | Tag | Message | Direction | Purpose |
//! |---|---|---|---|
//! | 1 | [`Hello`] | client → server | open a session: version + capability bits |
//! | 2 | [`Accept`] | server → client | session granted: negotiated caps, send budget |
//! | 3 | [`Reject`] | server → client | session denied, with [`RejectReason`] |
//! | 4 | [`Subscribe`] | client → server | register a tracking query (DATA) |
//! | 5 | [`SubAck`] | server → client | query accepted / denied (DATA) |
//! | 6 | [`TrackEvent`] | server → client | one streamed label position (DATA) |
//! | 7 | `Ping` | either | keep-alive probe |
//! | 8 | `Pong` | either | keep-alive answer |
//! | 9 | [`Close`] | either | orderly teardown, with [`CloseReason`] |
//!
//! Timestamps in [`TrackEvent`] are **simulation virtual time** of the
//! shared world serving the query (monotone per query); everything else on
//! a session — timeouts, budgets — lives in server wall-clock time. See
//! DESIGN.md §16 for that determinism boundary.

use bytes::{BufMut, Bytes};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::varint::{
    get_f64, get_u16v, get_u32v, get_u8v, get_uvarint, put_f64, put_uvarint, MAX_UVARINT_BYTES,
};
use super::DecodeError;
use crate::context::{ContextLabel, ContextTypeId};

/// The session protocol version this tree speaks. A [`Hello`] carrying any
/// other version is answered with [`RejectReason::VersionUnsupported`].
pub const SESSION_VERSION: u16 = 1;

/// Capability bit: the client wants streamed tracking events.
pub const CAP_TRACK_EVENTS: u32 = 1;
/// Capability bit: the client may select non-default scenarios (the
/// "run scenario Y at seed Z" queries). Without it, only scenario 0 at the
/// server's default seed is served.
pub const CAP_SCENARIO_RUN: u32 = 2;
/// Every capability bit a current server understands.
pub const CAP_ALL: u32 = CAP_TRACK_EVENTS | CAP_SCENARIO_RUN;

/// Opens a session (client → server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The protocol version the client speaks; must equal
    /// [`SESSION_VERSION`] or the server rejects.
    pub version: u16,
    /// Capability bits the client requests ([`CAP_TRACK_EVENTS`], …).
    pub caps: u32,
    /// The client's advertised receive budget: how many event frames it is
    /// prepared to buffer. The server grants `min(this, its own cap)`.
    pub recv_budget: u32,
}

/// Grants a session (server → client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accept {
    /// Server-assigned session id, unique per server lifetime.
    pub session: u64,
    /// The version the session will speak (today always the client's,
    /// since mismatches are rejected).
    pub version: u16,
    /// Negotiated capabilities: the intersection of the client's request
    /// and the server's support.
    pub caps: u32,
    /// The per-session send budget the server granted: the most event
    /// frames it will queue before declaring the client a slow consumer.
    pub send_budget: u32,
}

/// Why a session (or connection attempt) was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The [`Hello`] version is not [`SESSION_VERSION`].
    VersionUnsupported = 1,
    /// The server is at its concurrent-session limit (overload shedding).
    Overloaded = 2,
    /// The first frame was not a well-formed [`Hello`].
    BadHello = 3,
}

impl RejectReason {
    fn from_u64(v: u64) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => RejectReason::VersionUnsupported,
            2 => RejectReason::Overloaded,
            3 => RejectReason::BadHello,
            _ => {
                return Err(DecodeError::Malformed {
                    what: "unknown reject reason",
                })
            }
        })
    }
}

/// Denies a session (server → client); the connection closes after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Why the session was denied.
    pub reason: RejectReason,
}

/// Registers a tracking query (client → server): *stream the label
/// positions of context type `type_id` from the shared run of scenario
/// `scenario` at seed `seed`*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// Client-chosen id correlating [`SubAck`]s and [`TrackEvent`]s.
    pub query_id: u32,
    /// Which scenario preset to run (0 = the paper's testbed field).
    /// Non-zero presets require the [`CAP_SCENARIO_RUN`] capability.
    pub scenario: u8,
    /// The seed of the shared simulation run serving this query. Sessions
    /// subscribing to the same `(scenario, seed)` share one world.
    pub seed: u64,
    /// The context type whose label positions are streamed.
    pub type_id: ContextTypeId,
}

/// Answers a [`Subscribe`] (server → client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubAck {
    /// The query being answered.
    pub query_id: u32,
    /// Whether the subscription was registered. `false` means the scenario
    /// or type id is unknown, the capability was not negotiated, or the
    /// world limit is reached; no events will follow.
    pub accepted: bool,
}

/// One streamed label observation (server → client).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackEvent {
    /// The query this event answers.
    pub query_id: u32,
    /// Per-query monotone sequence number, gapless from 0.
    pub seq: u64,
    /// Simulation virtual time of the observation, microseconds. Strictly
    /// non-decreasing per query.
    pub at: Timestamp,
    /// The context label being tracked.
    pub label: ContextLabel,
    /// The label's current position (its leader's coordinates).
    pub pos: Point,
}

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Orderly client-initiated close.
    Normal = 1,
    /// The peer sent nothing (not even PING) for the idle timeout.
    IdleTimeout = 2,
    /// The session's event queue overran its send budget — the client
    /// consumed too slowly and was shed to protect the shared run.
    SlowConsumer = 3,
    /// The peer violated the protocol (bad frame, unexpected message).
    ProtocolError = 4,
    /// The server is shutting down.
    Shutdown = 5,
}

impl CloseReason {
    fn from_u64(v: u64) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => CloseReason::Normal,
            2 => CloseReason::IdleTimeout,
            3 => CloseReason::SlowConsumer,
            4 => CloseReason::ProtocolError,
            5 => CloseReason::Shutdown,
            _ => {
                return Err(DecodeError::Malformed {
                    what: "unknown close reason",
                })
            }
        })
    }
}

/// Ends a session (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Close {
    /// Why the session is ending.
    pub reason: CloseReason,
}

/// Every message of the session protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionMsg {
    /// Session open request.
    Hello(Hello),
    /// Session granted.
    Accept(Accept),
    /// Session denied.
    Reject(Reject),
    /// Tracking-query registration.
    Subscribe(Subscribe),
    /// Query acknowledgement.
    SubAck(SubAck),
    /// Streamed label observation.
    Event(TrackEvent),
    /// Keep-alive probe with an opaque nonce, echoed by `Pong`.
    Ping {
        /// Correlates the answering `Pong`.
        nonce: u64,
    },
    /// Keep-alive answer.
    Pong {
        /// The probe's nonce, echoed.
        nonce: u64,
    },
    /// Orderly teardown.
    Close(Close),
}

impl SessionMsg {
    /// Serialises to the framed binary session form (length prefix, body,
    /// CRC-32 trailer).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        Bytes::copy_from_slice(&out)
    }

    /// Appends the framed form [`SessionMsg::encode`] returns to `out`,
    /// leaving what `out` already holds untouched: a sender writing many
    /// frames to one socket encodes them back to back into one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(0);
        encode_body(self, out);
        seal(out, start);
    }

    /// Parses one framed session message, requiring the buffer to contain
    /// it exactly. The CRC trailer is verified before structural parsing.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<SessionMsg, DecodeError> {
        let mut buf = super::crc::split_verified(bytes)?;
        let declared = get_uvarint(&mut buf)?;
        if (buf.len() as u64) < declared {
            return Err(DecodeError::Truncated);
        }
        let declared = declared as usize;
        let (mut body, rest) = buf.split_at(declared);
        if !rest.is_empty() {
            return Err(DecodeError::TrailingBytes { count: rest.len() });
        }
        let msg = decode_body(&mut body)?;
        if !body.is_empty() {
            return Err(DecodeError::LengthMismatch {
                declared,
                used: declared - body.len(),
            });
        }
        Ok(msg)
    }
}

/// Makes a frame of `out[start..]`, which holds one placeholder byte and
/// a body behind it: the placeholder becomes the length prefix and the CRC
/// trailer is appended. Every session body is shorter than 128 bytes (the
/// longest, an EVENT at its value edges, is 59), so the prefix is the one
/// byte reserved; a longer body moves over for its wider prefix.
fn seal(out: &mut Vec<u8>, start: usize) {
    let body_len = out.len() - start - 1;
    if let Ok(short @ 0..=0x7f) = u8::try_from(body_len) {
        out[start] = short;
    } else {
        let mut prefix = Vec::with_capacity(MAX_UVARINT_BYTES);
        put_uvarint(&mut prefix, body_len as u64);
        out.splice(start..=start, prefix);
    }
    let sum = super::crc::crc32(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// The body tags (the table in the [module docs](self)), written by
/// `encode_body` and matched by `decode_body`: one definition, so a tag
/// cannot change on one side only.
mod tag {
    pub(super) const HELLO: u64 = 1;
    pub(super) const ACCEPT: u64 = 2;
    pub(super) const REJECT: u64 = 3;
    pub(super) const SUBSCRIBE: u64 = 4;
    pub(super) const SUB_ACK: u64 = 5;
    pub(super) const EVENT: u64 = 6;
    pub(super) const PING: u64 = 7;
    pub(super) const PONG: u64 = 8;
    pub(super) const CLOSE: u64 = 9;
}

fn encode_body(msg: &SessionMsg, buf: &mut Vec<u8>) {
    match msg {
        SessionMsg::Hello(h) => {
            put_uvarint(buf, tag::HELLO);
            put_uvarint(buf, u64::from(h.version));
            put_uvarint(buf, u64::from(h.caps));
            put_uvarint(buf, u64::from(h.recv_budget));
        }
        SessionMsg::Accept(a) => {
            put_uvarint(buf, tag::ACCEPT);
            put_uvarint(buf, a.session);
            put_uvarint(buf, u64::from(a.version));
            put_uvarint(buf, u64::from(a.caps));
            put_uvarint(buf, u64::from(a.send_budget));
        }
        SessionMsg::Reject(r) => {
            put_uvarint(buf, tag::REJECT);
            put_uvarint(buf, r.reason as u64);
        }
        SessionMsg::Subscribe(s) => {
            put_uvarint(buf, tag::SUBSCRIBE);
            put_uvarint(buf, u64::from(s.query_id));
            put_uvarint(buf, u64::from(s.scenario));
            put_uvarint(buf, s.seed);
            put_uvarint(buf, u64::from(s.type_id.0));
        }
        SessionMsg::SubAck(a) => {
            put_uvarint(buf, tag::SUB_ACK);
            put_uvarint(buf, u64::from(a.query_id));
            buf.put_u8(u8::from(a.accepted));
        }
        SessionMsg::Event(e) => {
            put_uvarint(buf, tag::EVENT);
            put_uvarint(buf, u64::from(e.query_id));
            put_uvarint(buf, e.seq);
            put_uvarint(buf, e.at.as_micros());
            put_uvarint(buf, u64::from(e.label.type_id.0));
            put_uvarint(buf, u64::from(e.label.creator.0));
            put_uvarint(buf, u64::from(e.label.seq));
            put_f64(buf, e.pos.x);
            put_f64(buf, e.pos.y);
        }
        SessionMsg::Ping { nonce } => {
            put_uvarint(buf, tag::PING);
            put_uvarint(buf, *nonce);
        }
        SessionMsg::Pong { nonce } => {
            put_uvarint(buf, tag::PONG);
            put_uvarint(buf, *nonce);
        }
        SessionMsg::Close(c) => {
            put_uvarint(buf, tag::CLOSE);
            put_uvarint(buf, c.reason as u64);
        }
    }
}

fn decode_body(buf: &mut &[u8]) -> Result<SessionMsg, DecodeError> {
    Ok(match get_uvarint(buf)? {
        tag::HELLO => SessionMsg::Hello(Hello {
            version: get_u16v(buf)?,
            caps: get_u32v(buf)?,
            recv_budget: get_u32v(buf)?,
        }),
        tag::ACCEPT => SessionMsg::Accept(Accept {
            session: get_uvarint(buf)?,
            version: get_u16v(buf)?,
            caps: get_u32v(buf)?,
            send_budget: get_u32v(buf)?,
        }),
        tag::REJECT => SessionMsg::Reject(Reject {
            reason: RejectReason::from_u64(get_uvarint(buf)?)?,
        }),
        tag::SUBSCRIBE => SessionMsg::Subscribe(Subscribe {
            query_id: get_u32v(buf)?,
            scenario: get_u8v(buf)?,
            seed: get_uvarint(buf)?,
            type_id: ContextTypeId(get_u16v(buf)?),
        }),
        tag::SUB_ACK => SessionMsg::SubAck(SubAck {
            query_id: get_u32v(buf)?,
            accepted: get_flag(buf)?,
        }),
        tag::EVENT => SessionMsg::Event(TrackEvent {
            query_id: get_u32v(buf)?,
            seq: get_uvarint(buf)?,
            at: Timestamp::from_micros(get_uvarint(buf)?),
            label: ContextLabel {
                type_id: ContextTypeId(get_u16v(buf)?),
                creator: NodeId(get_u32v(buf)?),
                seq: get_u32v(buf)?,
            },
            pos: {
                let x = get_f64(buf)?;
                let y = get_f64(buf)?;
                Point::new(x, y)
            },
        }),
        tag::PING => SessionMsg::Ping {
            nonce: get_uvarint(buf)?,
        },
        tag::PONG => SessionMsg::Pong {
            nonce: get_uvarint(buf)?,
        },
        tag::CLOSE => SessionMsg::Close(Close {
            reason: CloseReason::from_u64(get_uvarint(buf)?)?,
        }),
        other => return Err(DecodeError::UnknownTag { tag: other }),
    })
}

fn get_flag(buf: &mut &[u8]) -> Result<bool, DecodeError> {
    let Some((&b, rest)) = buf.split_first() else {
        return Err(DecodeError::Truncated);
    };
    *buf = rest;
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::Malformed {
            what: "flag must be 0 or 1",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: SessionMsg) {
        let bytes = msg.encode();
        let back = SessionMsg::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        // Canonicality: accepted input re-encodes to itself.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(SessionMsg::Hello(Hello {
            version: SESSION_VERSION,
            caps: CAP_ALL,
            recv_budget: 256,
        }));
        round_trip(SessionMsg::Accept(Accept {
            session: u64::MAX,
            version: SESSION_VERSION,
            caps: CAP_TRACK_EVENTS,
            send_budget: 1024,
        }));
        round_trip(SessionMsg::Reject(Reject {
            reason: RejectReason::Overloaded,
        }));
        round_trip(SessionMsg::Subscribe(Subscribe {
            query_id: 7,
            scenario: 1,
            seed: 42,
            type_id: ContextTypeId(0),
        }));
        round_trip(SessionMsg::SubAck(SubAck {
            query_id: 7,
            accepted: true,
        }));
        round_trip(SessionMsg::Event(TrackEvent {
            query_id: 7,
            seq: 0,
            at: Timestamp::from_millis(1_500),
            label: ContextLabel {
                type_id: ContextTypeId(0),
                creator: NodeId(3),
                seq: 1,
            },
            pos: Point::new(4.5, 0.5),
        }));
        round_trip(SessionMsg::Ping { nonce: 0 });
        round_trip(SessionMsg::Pong { nonce: u64::MAX });
        round_trip(SessionMsg::Close(Close {
            reason: CloseReason::SlowConsumer,
        }));
    }

    #[test]
    fn session_and_radio_tag_spaces_are_independent() {
        // A session HELLO must not parse as a radio message and vice versa:
        // the session frame's tag-1 body has three fields where a radio
        // heartbeat (also tag 1) expects seven.
        let hello = SessionMsg::Hello(Hello {
            version: 1,
            caps: 3,
            recv_budget: 16,
        })
        .encode();
        assert!(super::super::Message::decode(&hello).is_err());
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let bytes = SessionMsg::Subscribe(Subscribe {
            query_id: 1,
            scenario: 0,
            seed: 9,
            type_id: ContextTypeId(0),
        })
        .encode();
        for cut in 0..bytes.len() {
            assert!(SessionMsg::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for byte in 0..bytes.len() {
            let mut garbled = bytes.to_vec();
            garbled[byte] ^= 0x40;
            assert!(SessionMsg::decode(&garbled).is_err(), "flip {byte}");
        }
    }

    /// `body` framed by the encoder's own `seal`.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = vec![0];
        out.extend_from_slice(body);
        seal(&mut out, 0);
        out
    }

    #[test]
    fn seal_widens_the_prefix_for_a_long_body_and_leaves_the_front_alone() {
        for len in [0usize, 1, 127, 128, 300, 20_000] {
            let body = vec![0xabu8; len];
            let mut expect = b"front".to_vec();
            put_uvarint(&mut expect, len as u64);
            expect.extend_from_slice(&body);
            let sum = super::super::crc::crc32(&expect[5..]);
            expect.extend_from_slice(&sum.to_le_bytes());

            let mut out = b"front".to_vec();
            out.push(0);
            out.extend_from_slice(&body);
            seal(&mut out, 5);
            assert_eq!(out, expect, "body of {len} bytes");
        }
    }

    #[test]
    fn unknown_reason_codes_are_malformed() {
        // Reject with reason 0 and Close with reason 99 are both illegal.
        assert!(matches!(
            SessionMsg::decode(&framed(&[0x03, 0x00])).unwrap_err(),
            DecodeError::Malformed { .. }
        ));
        assert!(matches!(
            SessionMsg::decode(&framed(&[0x09, 0x63])).unwrap_err(),
            DecodeError::Malformed { .. }
        ));
        // And an unknown top-level tag is its own error.
        assert_eq!(
            SessionMsg::decode(&framed(&[0x7f])).unwrap_err(),
            DecodeError::UnknownTag { tag: 127 }
        );
    }
}
