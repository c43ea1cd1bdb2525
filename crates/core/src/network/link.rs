//! The link layer: integrity check and decode of arriving frames,
//! acknowledgement / retransmission / dedup of reliable unicast hops, and
//! admission of outgoing frames onto the air (DESIGN.md §17).

use bytes::Bytes;
use envirotrack_net::medium::{Medium, Transmission};
use envirotrack_net::packet::{Frame, LinkDest};
use envirotrack_node::cpu::{costs, MoteCpu};
use envirotrack_node::energy::EnergyMeter;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;

use crate::shard::ShardState;
use crate::wire::kinds::LINK_ACK;
use crate::wire::{crc, Message};

/// Link-layer acknowledgement/retransmit parameters for *unicast* frames
/// (geo-routing hops). Broadcast protocol traffic — heartbeats, member
/// reports — stays unreliable, exactly as on the MICA MAC the paper used;
/// multi-hop unicast needs per-hop retries or a single hidden-terminal
/// collision silently kills an entire route.
#[derive(Debug, Clone)]
pub struct LinkReliability {
    /// Whether unicast frames are acknowledged and retransmitted.
    pub enabled: bool,
}

impl Default for LinkReliability {
    fn default() -> Self {
        LinkReliability { enabled: true }
    }
}

/// How long the sender waits for an acknowledgement.
pub(super) const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(120);
/// Total transmission attempts before giving up.
pub(super) const MAX_ATTEMPTS: u8 = 3;
/// Upper bound on the random extra delay before a retransmission
/// (decorrelates retries from the periodic traffic that collided with the
/// original).
pub(super) const RETRY_JITTER_MAX: SimDuration = SimDuration::from_millis(40);

const DEDUP_WINDOW: usize = 32;

/// An unacknowledged unicast frame awaiting retransmission.
struct PendingAck {
    seq: u32,
    frame: Frame,
    attempts: u8,
}

/// One node's link-layer state.
#[derive(Default)]
pub(super) struct LinkState {
    next_seq: u32,
    pending: Vec<PendingAck>,
    /// Recently seen unicast (src, seq) pairs, oldest first.
    seen: Vec<(NodeId, u32)>,
}

/// The decode of one transmission's payload, shared across its delivery
/// walk: made — and hashed against its shadow, the `bool` being
/// [`Frame::payload_is_pristine`] — at most once for all receivers. `None`
/// until one needs it; `Some(None)` when it failed and all of them drop it.
pub(super) type Decoded = Option<Option<(Message, bool)>>;

/// A frame that passed its integrity check at one receiver.
pub(super) struct Accepted<'a> {
    /// `false` when the CRC let garbled bytes through (~2⁻³² per garbled
    /// frame); counted, so the run fails loudly, not silently mis-tracks.
    pub(super) pristine: bool,
    /// The link ack to transmit back, for a reliable unicast frame.
    pub(super) ack: Option<Frame>,
    /// The message to hand up — `None` for a consumed link ack and for a
    /// retransmission of a frame already handed up.
    pub(super) deliver: Option<&'a Message>,
}

impl LinkState {
    /// The heap bytes of its tables. A frame awaiting its ack shares its
    /// payload with the copy on the air, so the payload is not counted.
    pub(super) fn heap_bytes(&self) -> usize {
        self.pending.capacity() * size_of::<PendingAck>()
            + self.seen.capacity() * size_of::<(NodeId, u32)>()
    }

    pub(super) fn reboot(&mut self) {
        self.pending.clear();
        self.seen.clear();
    }

    /// Runs one arriving frame through verify → decode → link bookkeeping.
    /// `None` means it failed its CRC or a structural check and must be
    /// dropped before *any* bookkeeping: in particular it is never
    /// acknowledged, so the sender keeps retransmitting the pristine copy
    /// — which is how corruption plus link retransmission recovers without
    /// a transport round trip — and a garbled ack cancels no retry.
    #[inline]
    pub(super) fn receive<'a>(
        &mut self,
        cfg: &LinkReliability,
        node: NodeId,
        frame: &Frame,
        decoded: &'a mut Decoded,
    ) -> Option<Accepted<'a>> {
        // Link acks terminate here. They carry no wire `Message` — just a
        // sequence number under its own CRC trailer.
        if frame.kind == LINK_ACK {
            let seq = link_ack_seq(&frame.payload)?;
            self.pending.retain(|p| p.seq != seq);
            return Some(Accepted {
                pristine: frame.payload_is_pristine(),
                ack: None,
                deliver: None,
            });
        }
        let decode = || {
            let msg = Message::decode(&frame.payload).ok()?;
            Some((msg, frame.payload_is_pristine()))
        };
        let (msg, pristine) = decoded.get_or_insert_with(decode).as_ref()?;
        let mut accepted = Accepted {
            pristine: *pristine,
            ack: None,
            deliver: Some(msg),
        };
        // Sequence numbers only ride on reliable unicast frames: those are
        // acknowledged every time (the earlier ack may itself have been
        // lost) and handed up once.
        if cfg.enabled && frame.link_dst == LinkDest::Node(node) && frame.link_seq != 0 {
            accepted.ack = Some(Frame::unicast(
                node,
                frame.src,
                LINK_ACK,
                link_ack_payload(frame.link_seq),
            ));
            let key = (frame.src, frame.link_seq);
            if self.seen.contains(&key) {
                accepted.deliver = None;
            } else {
                if self.seen.len() >= DEDUP_WINDOW {
                    self.seen.remove(0);
                }
                self.seen.push(key);
            }
        }
        Some(accepted)
    }

    /// Prepares an outgoing frame. A reliable one (unicast, not itself an
    /// ack) is stamped with the next sequence number — returned: the retry
    /// timer to arm — and kept for retransmission.
    pub(super) fn admit(&mut self, cfg: &LinkReliability, frame: Frame) -> (Frame, Option<u32>) {
        let reliable =
            cfg.enabled && matches!(frame.link_dst, LinkDest::Node(_)) && frame.kind != LINK_ACK;
        if !reliable {
            return (frame, None);
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let frame = frame.with_link_seq(seq);
        self.pending.push(PendingAck {
            seq,
            frame: frame.clone(),
            attempts: 1,
        });
        (frame, Some(seq))
    }

    /// The retry timer for `seq` fired: the frame to transmit again, unless
    /// it was acknowledged in the meantime or has used up `max_attempts`.
    pub(super) fn retry(&mut self, max_attempts: u8, seq: u32) -> Option<Frame> {
        let idx = self.pending.iter().position(|p| p.seq == seq)?;
        if self.pending[idx].attempts >= max_attempts {
            self.pending.remove(idx);
            return None;
        }
        self.pending[idx].attempts += 1;
        Some(self.pending[idx].frame.clone())
    }
}

/// Puts `frame` on the air from its source node. Preparing a transmission costs
/// CPU, and an overloaded node drops the send. Returns the transmission
/// whose completion the owner must schedule — none on a shard, which never
/// touches the medium mid-epoch: the request goes to its outbox, to be
/// resolved centrally at the next barrier and charged on ingestion.
pub(super) fn transmit(
    cpu: &mut MoteCpu,
    energy: &mut EnergyMeter,
    medium: &mut Medium,
    shard: Option<&mut ShardState>,
    now: Timestamp,
    frame: Frame,
) -> Option<Transmission> {
    if cpu.admit(now, costs::TX_PREPARE).is_err() {
        return None;
    }
    if let Some(shard) = shard {
        debug_assert!(
            shard.owns(frame.src),
            "only owned nodes transmit on a shard ({})",
            frame.src
        );
        shard.push(now, frame.src, frame);
        return None;
    }
    let airtime = medium.config().tx_time(&frame);
    // A saturated channel loses the frame; the medium's stats count it.
    let tx = medium.transmit(now, frame).ok()?;
    energy.charge_tx(airtime);
    Some(tx)
}

/// Builds a link-layer ack payload: the acknowledged sequence number
/// (big-endian) followed by a 4-byte CRC-32 trailer. Acks carry no wire
/// [`Message`], so this is their entire integrity envelope.
fn link_ack_payload(seq: u32) -> Bytes {
    let body = seq.to_be_bytes();
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc::crc32(&body).to_le_bytes());
    Bytes::from(out)
}

/// Parses and verifies a link-layer ack payload; `None` when the frame is
/// the wrong size or fails its CRC — a garbled ack must be ignored, not
/// believed.
fn link_ack_seq(payload: &[u8]) -> Option<u32> {
    let body = crc::split_verified(payload).ok()?;
    Some(u32::from_be_bytes(body.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextLabel, ContextTypeId};
    use crate::wire::BaseReport;

    fn cfg() -> LinkReliability {
        LinkReliability::default()
    }

    fn data_frame(from: u32, to: u32) -> Frame {
        let msg = Message::Base(BaseReport {
            label: ContextLabel {
                type_id: ContextTypeId(0),
                creator: NodeId(from),
                seq: 1,
            },
            generated_at: Timestamp::from_secs(1),
            payload: Bytes::from_static(b"report"),
        });
        Frame::unicast(NodeId(from), NodeId(to), msg.kind(), msg.encode())
    }

    /// `node` receives `frame` with a decode cache of its own.
    fn receive(link: &mut LinkState, node: u32, frame: &Frame) -> Option<(bool, Option<Frame>)> {
        let mut decoded = None;
        link.receive(&cfg(), NodeId(node), frame, &mut decoded)
            .map(|a| (a.deliver.is_some(), a.ack))
    }

    #[test]
    fn an_acked_frame_cancels_its_retry_and_a_garbled_ack_does_not() {
        let (mut sender, mut receiver) = (LinkState::default(), LinkState::default());
        let (sent, seq) = sender.admit(&cfg(), data_frame(1, 2));
        let seq = seq.expect("unicast data is reliable");
        assert_eq!(sent.link_seq, seq);
        let (delivered, ack) = receive(&mut receiver, 2, &sent).expect("intact");
        let ack = ack.expect("reliable unicast is acknowledged");
        assert!(delivered);
        assert_eq!(
            (ack.src, ack.link_dst),
            (NodeId(2), LinkDest::Node(NodeId(1)))
        );
        assert_eq!(
            sender.admit(&cfg(), ack.clone()).1,
            None,
            "acks are not acked"
        );

        // Bad CRC, then wrong length: neither is believed.
        let mut flipped = ack.payload.to_vec();
        flipped[1] ^= 0x40;
        for garbled in [flipped, ack.payload[..7].to_vec()].map(Bytes::from) {
            let bad = Frame::unicast(NodeId(2), NodeId(1), LINK_ACK, garbled);
            assert!(
                receive(&mut sender, 1, &bad).is_none(),
                "counted as corrupt"
            );
        }
        assert!(sender.retry(3, seq).is_some(), "still awaiting its ack");

        assert_eq!(receive(&mut sender, 1, &ack), Some((false, None)));
        assert!(sender.retry(3, seq).is_none(), "acknowledged");
    }

    #[test]
    fn a_retransmission_is_acked_again_but_handed_up_once() {
        let (mut sender, mut receiver) = (LinkState::default(), LinkState::default());
        let (sent, _) = sender.admit(&cfg(), data_frame(1, 2));
        let (first, ack) = receive(&mut receiver, 2, &sent).expect("intact");
        assert!(first && ack.is_some());
        let (again, ack) = receive(&mut receiver, 2, &sent).expect("intact");
        assert!(!again, "a duplicate is not dispatched");
        assert!(ack.is_some(), "but the lost ack is repeated");
        // A corrupted copy is neither acknowledged nor remembered.
        let mut garbled = sent.clone();
        garbled.payload = Bytes::from(sent.payload[..sent.payload.len() - 1].to_vec());
        assert!(receive(&mut receiver, 2, &garbled).is_none());
        // Frames without a sequence number (broadcasts) bypass the window.
        let hello = Frame::broadcast(NodeId(1), sent.kind, sent.payload.clone());
        assert_eq!(receive(&mut receiver, 2, &hello), Some((true, None)));
        assert_eq!(receive(&mut receiver, 2, &hello), Some((true, None)));
    }

    #[test]
    fn the_dedup_window_evicts_oldest_first_at_32() {
        let (mut sender, mut receiver) = (LinkState::default(), LinkState::default());
        let frames: Vec<Frame> = (0..=DEDUP_WINDOW)
            .map(|_| sender.admit(&cfg(), data_frame(1, 2)).0)
            .collect();
        for frame in &frames[..DEDUP_WINDOW] {
            assert!(receive(&mut receiver, 2, frame).expect("intact").0);
        }
        // All 32 are remembered …
        assert!(!receive(&mut receiver, 2, &frames[0]).expect("intact").0);
        // … and the 33rd pushes out the first, and only the first.
        assert!(
            receive(&mut receiver, 2, &frames[DEDUP_WINDOW])
                .expect("intact")
                .0
        );
        assert!(!receive(&mut receiver, 2, &frames[1]).expect("intact").0);
        assert!(receive(&mut receiver, 2, &frames[0]).expect("intact").0);
    }

    #[test]
    fn max_attempts_gives_up_and_forgets_the_frame() {
        let mut link = LinkState::default();
        let (sent, seq) = link.admit(&cfg(), data_frame(1, 2));
        let seq = seq.expect("reliable");
        // Attempt 1 was the send; two retransmissions follow, then nothing.
        assert_eq!(link.retry(3, seq).map(|f| f.link_seq), Some(sent.link_seq));
        assert!(link.retry(3, seq).is_some());
        assert!(link.retry(3, seq).is_none(), "budget spent");
        assert!(link.pending.is_empty());
        // A reboot keeps the counter, so peers' windows never see a reuse.
        link.reboot();
        assert_eq!(link.admit(&cfg(), data_frame(1, 2)).1, Some(seq + 1));
        // With the layer off nothing is stamped or tracked.
        let off = LinkReliability { enabled: false };
        assert_eq!(link.admit(&off, data_frame(1, 2)).1, None);
    }
}
