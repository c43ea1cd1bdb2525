//! The JSON reference codec: a textual rendering of every [`Message`],
//! written independently of the binary codec so tests can decode the same
//! value through both and compare.
//!
//! This is *not* what goes on the air, and it is not part of the library:
//! the `wire_props`, `wire_goldens` and `wire_adversarial` suites each
//! include this file as a module and drive [`encode`] and [`decode`]
//! directly, pinning that both decoders read every message the same way and
//! reject the same damage. It sees the crate as any other user does.
//!
//! Encoding rules, chosen for exactness rather than interchange:
//!
//! - One compact object per message, discriminated by `"t"` (the binary
//!   tag number).
//! - Floats print via Rust's `f64` `Display` — the shortest string that
//!   round-trips to the same bits — with bare `NaN`/`inf`/`-inf` tokens
//!   for the non-finite values (not standard JSON; this codec only ever
//!   talks to itself).
//! - Byte strings render as lowercase hex; labels as `[type, creator,
//!   seq]`; points as `[x, y]`; absent options as `null`.
//!
//! The parser is a minimal recursive-descent reader that returns
//! [`DecodeError`] on any malformed input — never panicking and bounding
//! both nesting depth and allocation by the input length.

use bytes::Bytes;
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use envirotrack_core::aggregate::ReadingValue;
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::report::json::hex;
use envirotrack_core::transport::Port;
use envirotrack_core::wire::crc::crc32;
use envirotrack_core::wire::{
    BaseReport, DecodeError, DirQuery, DirRegister, DirResponse, DirSync, GeoForward, Heartbeat,
    Message, MessageType, MtpAck, MtpSegment, Relinquish, Report,
};

/// Parser nesting limit: messages nest at most a few levels (geo wrappers,
/// value arrays); anything deeper is adversarial.
const MAX_DEPTH: u32 = 32;

fn err(what: &'static str) -> DecodeError {
    DecodeError::Malformed { what }
}

/// Serialises `msg` as one compact JSON object followed by the CRC-32
/// trailer in its textual form: `#` + 8 lowercase hex digits of the
/// checksum of everything before the `#` (see `wire::crc`). The result
/// stays a single printable UTF-8 line.
#[must_use]
pub fn encode(msg: &Message) -> Bytes {
    use std::fmt::Write;
    let mut out = String::with_capacity(104);
    write_message(msg, &mut out);
    let sum = crc32(out.as_bytes());
    // Writing to a String cannot fail.
    let _ = write!(out, "#{sum:08x}");
    Bytes::copy_from_slice(out.as_bytes())
}

/// Textual trailer length: `#` plus eight hex digits.
const TEXT_TRAILER: usize = 9;

/// Splits the textual CRC trailer off a JSON frame and verifies it.
fn split_verified(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    if bytes.len() < TEXT_TRAILER {
        return Err(DecodeError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TEXT_TRAILER);
    if trailer[0] != b'#' {
        return Err(err("missing crc trailer"));
    }
    let hex = std::str::from_utf8(&trailer[1..]).map_err(|_| err("crc trailer is not hex"))?;
    if hex.bytes().any(|b| !b.is_ascii_hexdigit() || b.is_ascii_uppercase()) {
        return Err(err("crc trailer is not lowercase hex"));
    }
    let stored = u32::from_str_radix(hex, 16).map_err(|_| err("crc trailer is not hex"))?;
    let computed = crc32(body);
    if stored != computed {
        return Err(DecodeError::CrcMismatch { stored, computed });
    }
    Ok(body)
}

/// Parses a message from its JSON form, verifying the trailer first.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input.
pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let bytes = split_verified(bytes)?;
    let text = std::str::from_utf8(bytes).map_err(|_| err("payload is not UTF-8"))?;
    let mut p = Parser { rest: text, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if !p.rest.is_empty() {
        return Err(DecodeError::TrailingBytes {
            count: p.rest.len(),
        });
    }
    message_from(&value)
}

// ---------------------------------------------------------------- encoder

fn write_message(msg: &Message, out: &mut String) {
    use std::fmt::Write;
    let w = |out: &mut String, args: std::fmt::Arguments<'_>| {
        // Writing to a String cannot fail.
        let _ = out.write_fmt(args);
    };
    w(out, format_args!("{{\"t\":{},", msg.message_type().to_u8()));
    match msg {
        Message::Heartbeat(h) => {
            w(out, format_args!("\"label\":{},", label(h.label)));
            w(
                out,
                format_args!(
                    "\"leader\":{},\"pos\":{},\"weight\":{},\"hb\":{},\"ttl\":{},\"state\":{}}}",
                    h.leader.0,
                    point(h.leader_pos),
                    h.weight,
                    h.hb_seq,
                    h.ttl,
                    opt_hex(&h.state)
                ),
            );
        }
        Message::Relinquish(r) => {
            w(
                out,
                format_args!(
                    "\"label\":{},\"from\":{},\"weight\":{},\"succ\":{},\"state\":{}}}",
                    label(r.label),
                    r.from.0,
                    r.weight,
                    r.successor.map_or_else(|| "null".into(), |n| n.0.to_string()),
                    opt_hex(&r.state)
                ),
            );
        }
        Message::Report(r) => {
            w(
                out,
                format_args!(
                    "\"label\":{},\"member\":{},\"at\":{},\"values\":[",
                    label(r.label),
                    r.member.0,
                    r.taken_at.as_micros()
                ),
            );
            for (i, (idx, v)) in r.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match v {
                    ReadingValue::Scalar(s) => {
                        w(out, format_args!("[{},0,{}]", idx, float(*s)));
                    }
                    ReadingValue::Position(p) => {
                        w(out, format_args!("[{},1,{},{}]", idx, float(p.x), float(p.y)));
                    }
                }
            }
            out.push_str("]}");
        }
        Message::DirRegister(d) => {
            w(
                out,
                format_args!(
                    "\"label\":{},\"loc\":{}}}",
                    label(d.label),
                    point(d.location)
                ),
            );
        }
        Message::DirQuery(d) => {
            w(
                out,
                format_args!(
                    "\"type\":{},\"reply_to\":{},\"reply_pos\":{},\"qid\":{}}}",
                    d.type_id.0,
                    d.reply_to.0,
                    point(d.reply_pos),
                    d.query_id
                ),
            );
        }
        Message::DirResponse(d) => {
            w(out, format_args!("\"qid\":{},\"entries\":[", d.query_id));
            for (i, (l, p)) in d.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                w(out, format_args!("[{},{}]", label(*l), point(*p)));
            }
            out.push_str("]}");
        }
        Message::Mtp(m) => {
            w(
                out,
                format_args!(
                    "\"src\":{},\"sport\":{},\"dst\":{},\"dport\":{},\"leader\":{},\
                     \"lpos\":{},\"hops\":{},\"seq\":{},\"payload\":\"{}\"}}",
                    label(m.src_label),
                    m.src_port.0,
                    label(m.dst_label),
                    m.dst_port.0,
                    m.src_leader.0,
                    point(m.src_leader_pos),
                    m.chain_hops,
                    m.seq,
                    hex(&m.payload)
                ),
            );
        }
        Message::Base(b) => {
            w(
                out,
                format_args!(
                    "\"label\":{},\"at\":{},\"payload\":\"{}\"}}",
                    label(b.label),
                    b.generated_at.as_micros(),
                    hex(&b.payload)
                ),
            );
        }
        Message::Geo(g) => {
            w(
                out,
                format_args!(
                    "\"dest\":{},\"deliver\":{},\"inner\":",
                    point(g.dest),
                    g.deliver_to.map_or_else(|| "null".into(), |n| n.0.to_string())
                ),
            );
            write_message(&g.inner, out);
            out.push('}');
        }
        Message::MtpAckMsg(a) => {
            w(
                out,
                format_args!(
                    "\"dst\":{},\"src\":{},\"seq\":{},\"acker\":{},\"apos\":{}}}",
                    label(a.dst_label),
                    a.src_node.0,
                    a.seq,
                    a.acker.0,
                    point(a.acker_pos)
                ),
            );
        }
        Message::DirSyncMsg(s) => {
            w(
                out,
                format_args!(
                    "\"type\":{},\"from\":{},\"reply\":{},\"entries\":[",
                    s.type_id.0,
                    s.from.0,
                    u8::from(s.reply)
                ),
            );
            for (i, (l, p, at)) in s.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                w(
                    out,
                    format_args!("[{},{},{}]", label(*l), point(*p), at.as_micros()),
                );
            }
            out.push_str("]}");
        }
    }
}

fn label(l: ContextLabel) -> String {
    format!("[{},{},{}]", l.type_id.0, l.creator.0, l.seq)
}

fn point(p: Point) -> String {
    format!("[{},{}]", float(p.x), float(p.y))
}

/// Formats a float via `Display` (shortest exact round-trip). Non-finite
/// values print as the bare tokens the parser re-reads.
fn float(v: f64) -> String {
    v.to_string()
}

fn opt_hex(b: &Option<Bytes>) -> String {
    match b {
        Some(data) => format!("\"{}\"", hex(data)),
        None => "null".into(),
    }
}

// ----------------------------------------------------------------- parser

/// A parsed JSON value (plus the non-standard `NaN`/`inf` float tokens).
enum Value {
    Null,
    Int(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

struct Parser<'a> {
    rest: &'a str,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    fn eat(&mut self, c: char) -> Result<(), DecodeError> {
        let mut chars = self.rest.chars();
        if chars.next() == Some(c) {
            self.rest = chars.as_str();
            Ok(())
        } else {
            Err(err("unexpected character"))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if let Some(rest) = self.rest.strip_prefix(lit) {
            self.rest = rest;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        if self.depth >= MAX_DEPTH {
            return Err(err("nesting too deep"));
        }
        self.skip_ws();
        let Some(c) = self.rest.chars().next() else {
            return Err(DecodeError::Truncated);
        };
        match c {
            '{' => self.object(),
            '[' => self.array(),
            '"' => Ok(Value::Str(self.string()?)),
            _ => {
                if self.eat_lit("null") {
                    Ok(Value::Null)
                } else if self.eat_lit("NaN") {
                    Ok(Value::Float(f64::NAN))
                } else if self.eat_lit("inf") {
                    Ok(Value::Float(f64::INFINITY))
                } else if self.eat_lit("-inf") {
                    Ok(Value::Float(f64::NEG_INFINITY))
                } else {
                    self.number()
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, DecodeError> {
        self.eat('{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat_lit("}") {
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat_lit(",") {
                continue;
            }
            self.eat('}')?;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
    }

    fn array(&mut self) -> Result<Value, DecodeError> {
        self.eat('[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat_lit("]") {
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat_lit(",") {
                continue;
            }
            self.eat(']')?;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.eat('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|(_, h)| h.to_digit(16))
                                .ok_or(err("bad unicode escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or(err("bad unicode escape"))?);
                    }
                    _ => return Err(err("bad escape")),
                },
                other => out.push(other),
            }
        }
        Err(DecodeError::Truncated)
    }

    fn number(&mut self) -> Result<Value, DecodeError> {
        let end = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(self.rest.len());
        let (text, rest) = self.rest.split_at(end);
        if text.is_empty() {
            return Err(err("expected a value"));
        }
        self.rest = rest;
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::Int(v));
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err("bad number"))
    }
}

// ------------------------------------------------------------- extraction

fn message_from(value: &Value) -> Result<Message, DecodeError> {
    let Value::Obj(fields) = value else {
        return Err(err("message must be an object"));
    };
    let tag = get_u64(fields, "t")?;
    let message_type = u8::try_from(tag)
        .ok()
        .and_then(MessageType::from_u8)
        .ok_or(DecodeError::UnknownTag { tag })?;
    Ok(match message_type {
        MessageType::Heartbeat => Message::Heartbeat(Heartbeat {
            label: get_label(fields, "label")?,
            leader: NodeId(get_u32(fields, "leader")?),
            leader_pos: get_point_field(fields, "pos")?,
            weight: get_u32(fields, "weight")?,
            hb_seq: get_u32(fields, "hb")?,
            ttl: get_u8(fields, "ttl")?,
            state: get_opt_hex(fields, "state")?,
        }),
        MessageType::Relinquish => Message::Relinquish(Relinquish {
            label: get_label(fields, "label")?,
            from: NodeId(get_u32(fields, "from")?),
            weight: get_u32(fields, "weight")?,
            successor: match get(fields, "succ")? {
                Value::Null => None,
                v => Some(NodeId(as_u32(v)?)),
            },
            state: get_opt_hex(fields, "state")?,
        }),
        MessageType::Report => {
            let Value::Arr(items) = get(fields, "values")? else {
                return Err(err("values must be an array"));
            };
            let mut values = Vec::with_capacity(items.len());
            for item in items {
                values.push(reading_from(item)?);
            }
            Message::Report(Report {
                label: get_label(fields, "label")?,
                member: NodeId(get_u32(fields, "member")?),
                taken_at: Timestamp::from_micros(get_u64(fields, "at")?),
                values,
            })
        }
        MessageType::DirRegister => Message::DirRegister(DirRegister {
            label: get_label(fields, "label")?,
            location: get_point_field(fields, "loc")?,
        }),
        MessageType::DirQuery => Message::DirQuery(DirQuery {
            type_id: ContextTypeId(get_u16(fields, "type")?),
            reply_to: NodeId(get_u32(fields, "reply_to")?),
            reply_pos: get_point_field(fields, "reply_pos")?,
            query_id: get_u32(fields, "qid")?,
        }),
        MessageType::DirResponse => {
            let Value::Arr(items) = get(fields, "entries")? else {
                return Err(err("entries must be an array"));
            };
            let mut entries = Vec::with_capacity(items.len());
            for item in items {
                let Value::Arr(pair) = item else {
                    return Err(err("entry must be [label, point]"));
                };
                let [l, p] = pair.as_slice() else {
                    return Err(err("entry must be [label, point]"));
                };
                entries.push((label_from(l)?, point_from(p)?));
            }
            Message::DirResponse(DirResponse {
                query_id: get_u32(fields, "qid")?,
                entries,
            })
        }
        MessageType::Mtp => Message::Mtp(MtpSegment {
            src_label: get_label(fields, "src")?,
            src_port: Port(get_u16(fields, "sport")?),
            dst_label: get_label(fields, "dst")?,
            dst_port: Port(get_u16(fields, "dport")?),
            src_leader: NodeId(get_u32(fields, "leader")?),
            src_leader_pos: get_point_field(fields, "lpos")?,
            chain_hops: get_u8(fields, "hops")?,
            seq: get_u32(fields, "seq")?,
            payload: get_hex(fields, "payload")?,
        }),
        MessageType::Base => Message::Base(BaseReport {
            label: get_label(fields, "label")?,
            generated_at: Timestamp::from_micros(get_u64(fields, "at")?),
            payload: get_hex(fields, "payload")?,
        }),
        MessageType::Geo => Message::Geo(GeoForward {
            dest: get_point_field(fields, "dest")?,
            deliver_to: match get(fields, "deliver")? {
                Value::Null => None,
                v => Some(NodeId(as_u32(v)?)),
            },
            inner: Box::new(message_from(get(fields, "inner")?)?),
        }),
        MessageType::MtpAckMsg => Message::MtpAckMsg(MtpAck {
            dst_label: get_label(fields, "dst")?,
            src_node: NodeId(get_u32(fields, "src")?),
            seq: get_u32(fields, "seq")?,
            acker: NodeId(get_u32(fields, "acker")?),
            acker_pos: get_point_field(fields, "apos")?,
        }),
        MessageType::DirSyncMsg => {
            let Value::Arr(items) = get(fields, "entries")? else {
                return Err(err("entries must be an array"));
            };
            let mut entries = Vec::with_capacity(items.len());
            for item in items {
                let Value::Arr(triple) = item else {
                    return Err(err("entry must be [label, point, at]"));
                };
                let [l, p, at] = triple.as_slice() else {
                    return Err(err("entry must be [label, point, at]"));
                };
                entries.push((
                    label_from(l)?,
                    point_from(p)?,
                    Timestamp::from_micros(as_u64(at)?),
                ));
            }
            Message::DirSyncMsg(DirSync {
                type_id: ContextTypeId(get_u16(fields, "type")?),
                from: NodeId(get_u32(fields, "from")?),
                reply: match get_u8(fields, "reply")? {
                    0 => false,
                    1 => true,
                    _ => return Err(err("reply flag must be 0 or 1")),
                },
                entries,
            })
        }
    })
}

fn reading_from(item: &Value) -> Result<(u8, ReadingValue), DecodeError> {
    let Value::Arr(parts) = item else {
        return Err(err("reading must be an array"));
    };
    match parts.as_slice() {
        [idx, Value::Int(0), s] => Ok((as_u8(idx)?, ReadingValue::Scalar(as_f64(s)?))),
        [idx, Value::Int(1), x, y] => Ok((
            as_u8(idx)?,
            ReadingValue::Position(Point::new(as_f64(x)?, as_f64(y)?)),
        )),
        _ => Err(err("bad reading shape")),
    }
}

fn get<'v>(fields: &'v [(String, Value)], key: &'static str) -> Result<&'v Value, DecodeError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or(err("missing field"))
}

fn as_u64(v: &Value) -> Result<u64, DecodeError> {
    match v {
        Value::Int(n) => Ok(*n),
        _ => Err(err("expected an integer")),
    }
}

fn as_u32(v: &Value) -> Result<u32, DecodeError> {
    u32::try_from(as_u64(v)?).map_err(|_| err("integer exceeds u32"))
}

fn as_u16(v: &Value) -> Result<u16, DecodeError> {
    u16::try_from(as_u64(v)?).map_err(|_| err("integer exceeds u16"))
}

fn as_u8(v: &Value) -> Result<u8, DecodeError> {
    u8::try_from(as_u64(v)?).map_err(|_| err("integer exceeds u8"))
}

/// Floats: accept both `Float` tokens and integer tokens exactly
/// representable as `f64` (`Display` prints `3.0` as `3`).
fn as_f64(v: &Value) -> Result<f64, DecodeError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(n) => {
            let f = *n as f64;
            if f as u64 == *n && f.fract() == 0.0 {
                Ok(f)
            } else {
                Err(err("integer not exactly a float"))
            }
        }
        _ => Err(err("expected a number")),
    }
}

fn get_u64(fields: &[(String, Value)], key: &'static str) -> Result<u64, DecodeError> {
    as_u64(get(fields, key)?)
}

fn get_u32(fields: &[(String, Value)], key: &'static str) -> Result<u32, DecodeError> {
    as_u32(get(fields, key)?)
}

fn get_u16(fields: &[(String, Value)], key: &'static str) -> Result<u16, DecodeError> {
    as_u16(get(fields, key)?)
}

fn get_u8(fields: &[(String, Value)], key: &'static str) -> Result<u8, DecodeError> {
    as_u8(get(fields, key)?)
}

fn label_from(v: &Value) -> Result<ContextLabel, DecodeError> {
    let Value::Arr(parts) = v else {
        return Err(err("label must be [type, creator, seq]"));
    };
    let [t, c, s] = parts.as_slice() else {
        return Err(err("label must be [type, creator, seq]"));
    };
    Ok(ContextLabel {
        type_id: ContextTypeId(as_u16(t)?),
        creator: NodeId(as_u32(c)?),
        seq: as_u32(s)?,
    })
}

fn get_label(fields: &[(String, Value)], key: &'static str) -> Result<ContextLabel, DecodeError> {
    label_from(get(fields, key)?)
}

fn point_from(v: &Value) -> Result<Point, DecodeError> {
    let Value::Arr(parts) = v else {
        return Err(err("point must be [x, y]"));
    };
    let [x, y] = parts.as_slice() else {
        return Err(err("point must be [x, y]"));
    };
    Ok(Point::new(as_f64(x)?, as_f64(y)?))
}

fn get_point_field(fields: &[(String, Value)], key: &'static str) -> Result<Point, DecodeError> {
    point_from(get(fields, key)?)
}

fn hex_bytes(s: &str) -> Result<Bytes, DecodeError> {
    if !s.len().is_multiple_of(2) {
        return Err(err("odd hex length"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let digits = s.as_bytes();
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or(err("bad hex digit"))?;
        let lo = (pair[1] as char).to_digit(16).ok_or(err("bad hex digit"))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(Bytes::copy_from_slice(&out))
}

fn get_hex(fields: &[(String, Value)], key: &'static str) -> Result<Bytes, DecodeError> {
    match get(fields, key)? {
        Value::Str(s) => hex_bytes(s),
        _ => Err(err("expected a hex string")),
    }
}

fn get_opt_hex(
    fields: &[(String, Value)],
    key: &'static str,
) -> Result<Option<Bytes>, DecodeError> {
    match get(fields, key)? {
        Value::Null => Ok(None),
        Value::Str(s) => Ok(Some(hex_bytes(s)?)),
        _ => Err(err("expected hex or null")),
    }
}
