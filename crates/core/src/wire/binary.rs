//! The canonical binary wire codec: varint fields inside a length-prefixed
//! frame.
//!
//! Frame layout (all integers are LEB128 varints, floats are byte-swapped
//! bit varints — see [`super::varint`]):
//!
//! ```text
//! frame := uvarint(len)  ++ body          (len = byte length of body)
//! body  := uvarint(tag)  ++ fields…       (tag = the variant's `MessageType`)
//! ```
//!
//! Compound fields: a label is three uvarints (`type_id`, `creator`,
//! `seq`); a point is two float varints; byte strings are
//! `uvarint(len) ++ raw`; options are a `0x00`/`0x01` flag then the value;
//! vectors are `uvarint(count) ++ items`. A geo-forwarded inner message is
//! embedded in its *full framed form*, so nested decoding re-enters at the
//! frame level and the length prefix bounds it.
//!
//! Decoding is strict — canonical varints, exact length prefixes, flag
//! bytes limited to 0/1, range-checked narrow integers — which yields the
//! pinning property the golden and adversarial suites rely on: any byte
//! string the decoder accepts re-encodes to itself.

use bytes::{BufMut, Bytes, BytesMut};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::varint::{get_f64, get_uvarint, put_f64, put_uvarint};
use super::{
    BaseReport, DecodeError, DirQuery, DirRegister, DirResponse, DirSync, GeoForward, Heartbeat,
    Message, MessageType, MtpAck, MtpSegment, Relinquish, Report,
};
use crate::aggregate::ReadingValue;
use crate::context::{ContextLabel, ContextTypeId};
use crate::transport::Port;

/// Maximum accepted [`GeoForward`] nesting depth. The protocol produces at
/// most one wrapper (and never re-wraps a geo frame), so eight is far past
/// anything legitimate while keeping adversarial recursion bounded.
const MAX_GEO_DEPTH: u32 = 8;

/// Serialises `msg` into its framed binary form, ending in the CRC-32
/// integrity trailer (see [`super::crc`]). Only the outermost frame carries
/// a trailer — nested geo-forward frames are covered by it transitively.
#[must_use]
pub fn encode(msg: &Message) -> Bytes {
    let mut out = BytesMut::with_capacity(52);
    encode_frame(msg, &mut out);
    let sum = super::crc::crc32(&out);
    out.put_slice(&sum.to_le_bytes());
    out.freeze()
}

/// Appends the full frame (length prefix + body) for `msg`.
fn encode_frame(msg: &Message, out: &mut BytesMut) {
    let mut body = BytesMut::with_capacity(40);
    encode_body(msg, &mut body);
    put_uvarint(out, body.len() as u64);
    out.put_slice(&body);
}

/// Parses one framed message, requiring the buffer to contain it exactly.
///
/// The CRC-32 trailer is verified *first*: a garbled frame is rejected as
/// [`DecodeError::CrcMismatch`] (or [`DecodeError::Truncated`] when too
/// short to even hold a trailer) before any structural parsing runs.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input.
pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut buf = super::crc::split_verified(bytes)?;
    let msg = decode_frame(&mut buf, 0)?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes { count: buf.len() });
    }
    Ok(msg)
}

fn decode_frame(buf: &mut &[u8], depth: u32) -> Result<Message, DecodeError> {
    let declared = get_uvarint(buf)?;
    if (buf.len() as u64) < declared {
        return Err(DecodeError::Truncated);
    }
    let declared = declared as usize;
    let (body, rest) = buf.split_at(declared);
    *buf = rest;
    let mut b = body;
    let msg = decode_body(&mut b, depth)?;
    if !b.is_empty() {
        return Err(DecodeError::LengthMismatch {
            declared,
            used: declared - b.len(),
        });
    }
    Ok(msg)
}

fn encode_body(msg: &Message, buf: &mut BytesMut) {
    put_uvarint(buf, u64::from(msg.message_type().to_u8()));
    match msg {
        Message::Heartbeat(h) => {
            put_label(buf, h.label);
            put_uvarint(buf, u64::from(h.leader.0));
            put_point(buf, h.leader_pos);
            put_uvarint(buf, u64::from(h.weight));
            put_uvarint(buf, u64::from(h.hb_seq));
            put_uvarint(buf, u64::from(h.ttl));
            put_opt_bytes(buf, &h.state);
        }
        Message::Relinquish(r) => {
            put_label(buf, r.label);
            put_uvarint(buf, u64::from(r.from.0));
            put_uvarint(buf, u64::from(r.weight));
            match r.successor {
                Some(n) => {
                    buf.put_u8(1);
                    put_uvarint(buf, u64::from(n.0));
                }
                None => buf.put_u8(0),
            }
            put_opt_bytes(buf, &r.state);
        }
        Message::Report(r) => {
            put_label(buf, r.label);
            put_uvarint(buf, u64::from(r.member.0));
            put_uvarint(buf, r.taken_at.as_micros());
            put_uvarint(buf, r.values.len() as u64);
            for (idx, v) in &r.values {
                put_uvarint(buf, u64::from(*idx));
                put_reading(buf, *v);
            }
        }
        Message::DirRegister(d) => {
            put_label(buf, d.label);
            put_point(buf, d.location);
        }
        Message::DirQuery(d) => {
            put_uvarint(buf, u64::from(d.type_id.0));
            put_uvarint(buf, u64::from(d.reply_to.0));
            put_point(buf, d.reply_pos);
            put_uvarint(buf, u64::from(d.query_id));
        }
        Message::DirResponse(d) => {
            put_uvarint(buf, u64::from(d.query_id));
            put_uvarint(buf, d.entries.len() as u64);
            for (label, p) in &d.entries {
                put_label(buf, *label);
                put_point(buf, *p);
            }
        }
        Message::Mtp(m) => {
            put_label(buf, m.src_label);
            put_uvarint(buf, u64::from(m.src_port.0));
            put_label(buf, m.dst_label);
            put_uvarint(buf, u64::from(m.dst_port.0));
            put_uvarint(buf, u64::from(m.src_leader.0));
            put_point(buf, m.src_leader_pos);
            put_uvarint(buf, u64::from(m.chain_hops));
            put_uvarint(buf, u64::from(m.seq));
            put_bytes(buf, &m.payload);
        }
        Message::Base(b) => {
            put_label(buf, b.label);
            put_uvarint(buf, b.generated_at.as_micros());
            put_bytes(buf, &b.payload);
        }
        Message::Geo(g) => {
            put_point(buf, g.dest);
            match g.deliver_to {
                Some(n) => {
                    buf.put_u8(1);
                    put_uvarint(buf, u64::from(n.0));
                }
                None => buf.put_u8(0),
            }
            // Full framed form: nested decode re-enters at the frame level.
            encode_frame(&g.inner, buf);
        }
        Message::MtpAckMsg(a) => {
            put_label(buf, a.dst_label);
            put_uvarint(buf, u64::from(a.src_node.0));
            put_uvarint(buf, u64::from(a.seq));
            put_uvarint(buf, u64::from(a.acker.0));
            put_point(buf, a.acker_pos);
        }
        Message::DirSyncMsg(s) => {
            put_uvarint(buf, u64::from(s.type_id.0));
            put_uvarint(buf, u64::from(s.from.0));
            buf.put_u8(u8::from(s.reply));
            put_uvarint(buf, s.entries.len() as u64);
            for (label, p, refreshed) in &s.entries {
                put_label(buf, *label);
                put_point(buf, *p);
                put_uvarint(buf, refreshed.as_micros());
            }
        }
    }
}

fn decode_body(buf: &mut &[u8], depth: u32) -> Result<Message, DecodeError> {
    let tag = get_uvarint(buf)?;
    Ok(match MessageType::from_wire(tag)? {
        MessageType::Heartbeat => Message::Heartbeat(Heartbeat {
            label: get_label(buf)?,
            leader: NodeId(get_u32v(buf)?),
            leader_pos: get_point(buf)?,
            weight: get_u32v(buf)?,
            hb_seq: get_u32v(buf)?,
            ttl: get_u8v(buf)?,
            state: get_opt_bytes(buf)?,
        }),
        MessageType::Relinquish => Message::Relinquish(Relinquish {
            label: get_label(buf)?,
            from: NodeId(get_u32v(buf)?),
            weight: get_u32v(buf)?,
            successor: match get_flag(buf)? {
                true => Some(NodeId(get_u32v(buf)?)),
                false => None,
            },
            state: get_opt_bytes(buf)?,
        }),
        MessageType::Report => {
            let label = get_label(buf)?;
            let member = NodeId(get_u32v(buf)?);
            let taken_at = Timestamp::from_micros(get_uvarint(buf)?);
            let n = get_uvarint(buf)?;
            // Every reading costs ≥ 2 bytes, so `n` can't honestly exceed
            // the remaining buffer; cap the pre-allocation accordingly.
            let mut values = Vec::with_capacity(n.min(buf.len() as u64) as usize);
            for _ in 0..n {
                let idx = get_u8v(buf)?;
                values.push((idx, get_reading(buf)?));
            }
            Message::Report(Report {
                label,
                member,
                taken_at,
                values,
            })
        }
        MessageType::DirRegister => Message::DirRegister(DirRegister {
            label: get_label(buf)?,
            location: get_point(buf)?,
        }),
        MessageType::DirQuery => Message::DirQuery(DirQuery {
            type_id: ContextTypeId(get_u16v(buf)?),
            reply_to: NodeId(get_u32v(buf)?),
            reply_pos: get_point(buf)?,
            query_id: get_u32v(buf)?,
        }),
        MessageType::DirResponse => {
            let query_id = get_u32v(buf)?;
            let n = get_uvarint(buf)?;
            let mut entries = Vec::with_capacity(n.min(buf.len() as u64) as usize);
            for _ in 0..n {
                entries.push((get_label(buf)?, get_point(buf)?));
            }
            Message::DirResponse(DirResponse { query_id, entries })
        }
        MessageType::Mtp => Message::Mtp(MtpSegment {
            src_label: get_label(buf)?,
            src_port: Port(get_u16v(buf)?),
            dst_label: get_label(buf)?,
            dst_port: Port(get_u16v(buf)?),
            src_leader: NodeId(get_u32v(buf)?),
            src_leader_pos: get_point(buf)?,
            chain_hops: get_u8v(buf)?,
            seq: get_u32v(buf)?,
            payload: get_bytes(buf)?,
        }),
        MessageType::Base => Message::Base(BaseReport {
            label: get_label(buf)?,
            generated_at: Timestamp::from_micros(get_uvarint(buf)?),
            payload: get_bytes(buf)?,
        }),
        MessageType::Geo => {
            if depth >= MAX_GEO_DEPTH {
                return Err(DecodeError::Malformed {
                    what: "geo-forward nesting too deep",
                });
            }
            let dest = get_point(buf)?;
            let deliver_to = match get_flag(buf)? {
                true => Some(NodeId(get_u32v(buf)?)),
                false => None,
            };
            let inner = decode_frame(buf, depth + 1)?;
            Message::Geo(GeoForward {
                dest,
                deliver_to,
                inner: Box::new(inner),
            })
        }
        MessageType::MtpAckMsg => Message::MtpAckMsg(MtpAck {
            dst_label: get_label(buf)?,
            src_node: NodeId(get_u32v(buf)?),
            seq: get_u32v(buf)?,
            acker: NodeId(get_u32v(buf)?),
            acker_pos: get_point(buf)?,
        }),
        MessageType::DirSyncMsg => {
            let type_id = ContextTypeId(get_u16v(buf)?);
            let from = NodeId(get_u32v(buf)?);
            let reply = get_flag(buf)?;
            let n = get_uvarint(buf)?;
            let mut entries = Vec::with_capacity(n.min(buf.len() as u64) as usize);
            for _ in 0..n {
                let label = get_label(buf)?;
                let p = get_point(buf)?;
                entries.push((label, p, Timestamp::from_micros(get_uvarint(buf)?)));
            }
            Message::DirSyncMsg(DirSync {
                type_id,
                from,
                reply,
                entries,
            })
        }
    })
}

fn put_label(buf: &mut BytesMut, label: ContextLabel) {
    put_uvarint(buf, u64::from(label.type_id.0));
    put_uvarint(buf, u64::from(label.creator.0));
    put_uvarint(buf, u64::from(label.seq));
}

fn get_label(buf: &mut &[u8]) -> Result<ContextLabel, DecodeError> {
    Ok(ContextLabel {
        type_id: ContextTypeId(get_u16v(buf)?),
        creator: NodeId(get_u32v(buf)?),
        seq: get_u32v(buf)?,
    })
}

fn put_point(buf: &mut BytesMut, p: Point) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

fn get_point(buf: &mut &[u8]) -> Result<Point, DecodeError> {
    let x = get_f64(buf)?;
    let y = get_f64(buf)?;
    Ok(Point::new(x, y))
}

fn put_reading(buf: &mut BytesMut, v: ReadingValue) {
    match v {
        ReadingValue::Scalar(s) => {
            buf.put_u8(0);
            put_f64(buf, s);
        }
        ReadingValue::Position(p) => {
            buf.put_u8(1);
            put_point(buf, p);
        }
    }
}

fn get_reading(buf: &mut &[u8]) -> Result<ReadingValue, DecodeError> {
    match get_u8_raw(buf)? {
        0 => Ok(ReadingValue::Scalar(get_f64(buf)?)),
        1 => Ok(ReadingValue::Position(get_point(buf)?)),
        tag => Err(DecodeError::UnknownTag {
            tag: u64::from(tag),
        }),
    }
}

fn put_bytes(buf: &mut BytesMut, data: &Bytes) {
    put_uvarint(buf, data.len() as u64);
    buf.put_slice(data);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Bytes, DecodeError> {
    let len = get_uvarint(buf)?;
    if (buf.len() as u64) < len {
        return Err(DecodeError::Truncated);
    }
    let (data, rest) = buf.split_at(len as usize);
    let out = Bytes::copy_from_slice(data);
    *buf = rest;
    Ok(out)
}

fn put_opt_bytes(buf: &mut BytesMut, b: &Option<Bytes>) {
    match b {
        Some(data) => {
            buf.put_u8(1);
            put_bytes(buf, data);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_bytes(buf: &mut &[u8]) -> Result<Option<Bytes>, DecodeError> {
    match get_flag(buf)? {
        true => Ok(Some(get_bytes(buf)?)),
        false => Ok(None),
    }
}

/// Reads a strict presence flag: only `0x00` and `0x01` are legal, keeping
/// option encodings canonical.
fn get_flag(buf: &mut &[u8]) -> Result<bool, DecodeError> {
    match get_u8_raw(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::Malformed {
            what: "option flag must be 0 or 1",
        }),
    }
}

fn get_u8_raw(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    let Some((&b, rest)) = buf.split_first() else {
        return Err(DecodeError::Truncated);
    };
    *buf = rest;
    Ok(b)
}

fn get_u8v(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    u8::try_from(get_uvarint(buf)?).map_err(|_| DecodeError::Malformed {
        what: "varint exceeds u8 field",
    })
}

fn get_u16v(buf: &mut &[u8]) -> Result<u16, DecodeError> {
    u16::try_from(get_uvarint(buf)?).map_err(|_| DecodeError::Malformed {
        what: "varint exceeds u16 field",
    })
}

fn get_u32v(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    u32::try_from(get_uvarint(buf)?).map_err(|_| DecodeError::Malformed {
        what: "varint exceeds u32 field",
    })
}
