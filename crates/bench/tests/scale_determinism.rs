//! Airtime pin for the one wire format: a frame's payload is the bytes the
//! radio charges, CRC trailer included. (That the JSON reference decoder
//! reads every message the way the wire codec does is pinned where the
//! codecs are: `core/tests/wire_props.rs` and the `wire_goldens` fixtures.)

use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::wire::{crc, Heartbeat, Message};
use envirotrack_net::packet::Frame;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

/// The CRC trailer rides inside the encoded frame, so it is part of the
/// charged airtime. If frame stamping dropped the 4 trailer bytes, frame
/// timing would shift and every golden would cascade.
#[test]
fn airtime_charges_include_the_crc_trailer() {
    let msg = Message::Heartbeat(Heartbeat {
        label: ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(3),
            seq: 1,
        },
        leader: NodeId(3),
        leader_pos: Point::new(1.0, 2.0),
        weight: 900,
        hb_seq: 5,
        ttl: 1,
        state: None,
    });
    let bytes = msg.encode();
    let (body, trailer) = bytes.split_at(bytes.len() - crc::TRAILER_BYTES);
    assert_eq!(trailer, crc::crc32(body).to_le_bytes());

    let frame = Frame::broadcast(NodeId(3), msg.kind(), bytes.clone());
    assert_eq!(
        usize::from(frame.wire_len),
        bytes.len(),
        "trailer missing from airtime"
    );
    assert_eq!(frame.size_bytes(), Frame::HEADER_BYTES + bytes.len());
}
