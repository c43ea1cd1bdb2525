//! The session protocol's client side: [`Conn`], a poll-driven state
//! machine over one framed socket.
//!
//! A `Conn` runs over a blocking socket, where a poll waits up to a read
//! timeout for bytes, or a non-blocking one, where a poll never waits; the
//! caller picks at [`Conn::connect`]. Tests and probes take the first and
//! read linearly; the storm's swarm thread takes the second and polls
//! hundreds in turn. Either way the conn keeps what the protocol says about
//! the session: its phase and why it ended, each subscription's SUBACK,
//! sequence and gaps, and the round trip of the last PING.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use envirotrack_core::wire::session::{Accept, CloseReason, RejectReason, SessionMsg};

use crate::frame::{FrameError, FramedSocket};

/// Where a session stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Connected; no HELLO sent.
    Connected,
    /// HELLO sent; no answer yet.
    HelloSent,
    /// The server accepted the session.
    Open(Accept),
    /// The session is over, for the first reason seen.
    Closed(Closed),
}

/// Why a session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Closed {
    /// The server refused it: at the door, before any HELLO, or in answer
    /// to one.
    Rejected(RejectReason),
    /// The server sent CLOSE.
    ByServer(CloseReason),
    /// The stream ended without a CLOSE.
    Eof,
    /// A frame failed its checks; the stream cannot be resynchronised.
    Corrupt(FrameError),
    /// The socket failed.
    Io(ErrorKind),
    /// We sent CLOSE.
    ByUs,
}

/// What one subscription has received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sub {
    /// The query id it was sent with.
    pub query_id: u32,
    /// `None` until its SUBACK, then whether the server admitted it.
    pub acked: Option<bool>,
    /// The `seq` the next EVENT should carry.
    pub next_seq: u64,
    /// EVENTs received.
    pub events: u64,
    /// EVENTs whose `seq` was not `next_seq`: each is one break in the
    /// stream.
    pub gaps: u64,
}

/// One client session over one TCP connection.
#[derive(Debug)]
pub struct Conn {
    sock: FramedSocket,
    phase: Phase,
    /// Frames sent before ACCEPT, which go out when it arrives: "Client
    /// MUST NOT send other messages before receiving response" (the m2m
    /// session rules).
    held: Vec<u8>,
    subs: Vec<Sub>,
    /// The outstanding PING's nonce and when it went out.
    ping: Option<(u64, Instant)>,
    rtt: Option<Duration>,
}

impl Conn {
    /// Connects to a session server. With `read_wait` the socket blocks
    /// and a [`Conn::poll`] waits up to that long for bytes; with `None` it
    /// is non-blocking and a poll never waits. Nothing is sent: a full
    /// server answers REJECT at the door, before any HELLO.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr, read_wait: Option<Duration>) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        match read_wait {
            Some(wait) => stream.set_read_timeout(Some(wait))?,
            None => stream.set_nonblocking(true)?,
        }
        Ok(Conn {
            sock: FramedSocket::new(stream),
            phase: Phase::Connected,
            held: Vec::new(),
            subs: Vec::new(),
            ping: None,
            rtt: None,
        })
    }

    /// Sends one message and notes what it starts: HELLO moves a new
    /// connection to [`Phase::HelloSent`], SUBSCRIBE adds a [`Sub`], PING
    /// starts a round trip, CLOSE ends the session ([`Closed::ByUs`]).
    /// Until ACCEPT only HELLO and CLOSE go out; anything else is held, sent
    /// when ACCEPT arrives and dropped by a REJECT. A socket failure closes
    /// the conn ([`Closed::Io`]).
    pub fn send(&mut self, msg: &SessionMsg) {
        match msg {
            SessionMsg::Hello(_) if self.phase == Phase::Connected => {
                self.phase = Phase::HelloSent;
            }
            SessionMsg::Subscribe(s) => self.subs.push(Sub {
                query_id: s.query_id,
                acked: None,
                next_seq: 0,
                events: 0,
                gaps: 0,
            }),
            SessionMsg::Ping { nonce } => self.ping = Some((*nonce, Instant::now())),
            _ => {}
        }
        let now = matches!(self.phase, Phase::Open(_))
            || matches!(msg, SessionMsg::Hello(_) | SessionMsg::Close(_));
        if now {
            msg.encode_into(&mut self.sock.pending);
            self.flush();
        } else {
            msg.encode_into(&mut self.held);
        }
        if let SessionMsg::Close(_) = msg {
            self.end(Closed::ByUs);
        }
    }

    /// Sends bytes as they are, past the codec and the handshake rule (for
    /// malformed-input tests).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.sock.pending.extend_from_slice(bytes);
        self.flush();
    }

    /// The next frame from the server, once it has updated this conn's
    /// state; `None` when none has arrived (a non-blocking socket had
    /// nothing, a blocking one waited out its timeout) or the stream ended
    /// — [`Conn::phase`] says which. A call first flushes what is pending,
    /// then makes at most one read. A closed conn still yields what arrives
    /// after its end (the server's answer to our CLOSE), and keeps the
    /// first reason.
    pub fn poll(&mut self) -> Option<SessionMsg> {
        if !matches!(self.phase, Phase::Closed(_)) {
            self.flush();
        }
        let mut read = false;
        loop {
            match self.sock.reader.next_frame() {
                Ok(Some(msg)) => {
                    self.observe(&msg);
                    return Some(msg);
                }
                Ok(None) if !read => {
                    read = true;
                    match self.sock.read_pass(1).1 {
                        Some(ErrorKind::UnexpectedEof) => self.end(Closed::Eof),
                        Some(kind) => self.end(Closed::Io(kind)),
                        None => {}
                    }
                }
                Ok(None) => return None,
                Err(e) => {
                    self.end(Closed::Corrupt(e));
                    return None;
                }
            }
        }
    }

    /// Where the session stands.
    #[must_use]
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// The subscription sent with `query_id` (the first, if several were).
    #[must_use]
    pub fn sub(&self, query_id: u32) -> Option<&Sub> {
        self.subs.iter().find(|s| s.query_id == query_id)
    }

    /// The round trip of the last PING a PONG with its nonce answered.
    #[must_use]
    pub fn rtt(&self) -> Option<Duration> {
        self.rtt
    }

    /// The underlying stream (for a second thread's raw writes, and
    /// shutdown).
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.sock.stream
    }

    /// Applies one received frame to the session's state.
    fn observe(&mut self, msg: &SessionMsg) {
        match msg {
            SessionMsg::Accept(a) if self.phase == Phase::HelloSent => {
                self.phase = Phase::Open(a.clone());
                self.sock.pending.append(&mut self.held);
                // A held PING's round trip starts now.
                if let Some((_, sent)) = &mut self.ping {
                    *sent = Instant::now();
                }
                self.flush();
            }
            SessionMsg::Reject(r) => self.end(Closed::Rejected(r.reason)),
            SessionMsg::Close(c) => self.end(Closed::ByServer(c.reason)),
            SessionMsg::SubAck(a) => {
                if let Some(s) = self.subs.iter_mut().find(|s| s.query_id == a.query_id) {
                    s.acked = Some(a.accepted);
                }
            }
            SessionMsg::Event(e) => {
                if let Some(s) = self.subs.iter_mut().find(|s| s.query_id == e.query_id) {
                    if e.seq != s.next_seq {
                        s.gaps += 1;
                    }
                    s.next_seq = e.seq + 1;
                    s.events += 1;
                }
            }
            SessionMsg::Pong { nonce } => {
                if let Some((_, sent)) = self.ping.filter(|&(n, _)| n == *nonce) {
                    self.rtt = Some(sent.elapsed());
                    self.ping = None;
                }
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        if let (_, _, Some(kind)) = self.sock.flush() {
            self.end(Closed::Io(kind));
        }
    }

    /// Ends the session for `why`, unless it has ended already; what was
    /// held for ACCEPT is dropped.
    fn end(&mut self, why: Closed) {
        if !matches!(self.phase, Phase::Closed(_)) {
            self.phase = Phase::Closed(why);
            self.held.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener};

    use envirotrack_core::context::{ContextLabel, ContextTypeId};
    use envirotrack_core::wire::session::{
        Close, Hello, Reject, SubAck, Subscribe, TrackEvent, CAP_ALL, SESSION_VERSION,
    };
    use envirotrack_core::wire::DecodeError;
    use envirotrack_sim::time::Timestamp;
    use envirotrack_world::field::NodeId;
    use envirotrack_world::geometry::Point;

    use super::*;
    use crate::frame::FrameReader;

    fn hello() -> SessionMsg {
        SessionMsg::Hello(Hello {
            version: SESSION_VERSION,
            caps: CAP_ALL,
            recv_budget: 64,
        })
    }

    fn accept() -> SessionMsg {
        SessionMsg::Accept(Accept {
            session: 1,
            version: SESSION_VERSION,
            caps: CAP_ALL,
            send_budget: 64,
        })
    }

    fn subscribe(query_id: u32) -> SessionMsg {
        SessionMsg::Subscribe(Subscribe {
            query_id,
            scenario: 0,
            seed: 1,
            type_id: ContextTypeId(0),
        })
    }

    fn event(query_id: u32, seq: u64) -> SessionMsg {
        SessionMsg::Event(TrackEvent {
            query_id,
            seq,
            at: Timestamp::from_millis(seq),
            label: ContextLabel {
                type_id: ContextTypeId(0),
                creator: NodeId(3),
                seq: 1,
            },
            pos: Point::new(1.0, 2.0),
        })
    }

    /// A conn over a blocking socket, and the server end of it, driven by
    /// hand.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        let conn = Conn::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        (conn, peer)
    }

    fn write(peer: &mut TcpStream, msgs: &[SessionMsg]) {
        for m in msgs {
            peer.write_all(&m.encode()).expect("peer write");
        }
    }

    /// The frames that reach the peer before 200 ms pass without a byte.
    fn received(peer: &mut TcpStream) -> Vec<SessionMsg> {
        peer.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = peer.read(&mut chunk) {
            reader.extend(&chunk[..n]);
        }
        std::iter::from_fn(|| reader.next_frame().expect("valid frames")).collect()
    }

    /// A conn whose handshake the peer has accepted.
    fn opened() -> (Conn, TcpStream) {
        let (mut c, mut peer) = pair();
        c.send(&hello());
        assert_eq!(received(&mut peer), vec![hello()]);
        write(&mut peer, &[accept()]);
        assert_eq!(c.poll(), Some(accept()));
        (c, peer)
    }

    #[test]
    fn nothing_but_hello_goes_out_before_accept() {
        let (mut c, mut peer) = pair();
        c.send(&hello());
        c.send(&subscribe(1));
        c.send(&SessionMsg::Ping { nonce: 5 });
        assert_eq!(c.phase(), &Phase::HelloSent);
        assert_eq!(received(&mut peer), vec![hello()]);
        write(&mut peer, &[accept()]);
        assert_eq!(c.poll(), Some(accept()));
        assert!(matches!(c.phase(), Phase::Open(_)));
        assert_eq!(
            received(&mut peer),
            vec![subscribe(1), SessionMsg::Ping { nonce: 5 }]
        );
    }

    #[test]
    fn each_end_of_a_session_is_typed() {
        let reject = |reason| SessionMsg::Reject(Reject { reason });

        // REJECT at the door: the server is full and says so before HELLO.
        let (mut c, mut peer) = pair();
        write(&mut peer, &[reject(RejectReason::Overloaded)]);
        drop(peer);
        assert_eq!(c.poll(), Some(reject(RejectReason::Overloaded)));
        assert_eq!(c.poll(), None);
        assert_eq!(
            c.phase(),
            &Phase::Closed(Closed::Rejected(RejectReason::Overloaded)),
            "the first reason stays"
        );

        // REJECT in answer to HELLO drops what was held for ACCEPT.
        let (mut c, mut peer) = pair();
        c.send(&hello());
        c.send(&subscribe(1));
        assert_eq!(received(&mut peer), vec![hello()]);
        write(&mut peer, &[reject(RejectReason::VersionUnsupported)]);
        assert_eq!(c.poll(), Some(reject(RejectReason::VersionUnsupported)));
        peer.shutdown(Shutdown::Write).expect("shutdown");
        assert_eq!(c.poll(), None);
        assert_eq!(
            c.phase(),
            &Phase::Closed(Closed::Rejected(RejectReason::VersionUnsupported))
        );
        assert_eq!(received(&mut peer), vec![]);

        let (mut c, mut peer) = opened();
        let shed = SessionMsg::Close(Close {
            reason: CloseReason::SlowConsumer,
        });
        write(&mut peer, std::slice::from_ref(&shed));
        assert_eq!(c.poll(), Some(shed));
        assert_eq!(
            c.phase(),
            &Phase::Closed(Closed::ByServer(CloseReason::SlowConsumer))
        );

        let (mut c, peer) = opened();
        drop(peer);
        assert_eq!(c.poll(), None);
        assert_eq!(c.phase(), &Phase::Closed(Closed::Eof));

        let (mut c, mut peer) = opened();
        let mut broken = SessionMsg::SubAck(SubAck {
            query_id: 1,
            accepted: true,
        })
        .encode()
        .to_vec();
        *broken.last_mut().expect("a trailer") ^= 0x40;
        peer.write_all(&broken).expect("peer write");
        assert_eq!(c.poll(), None);
        assert!(
            matches!(
                c.phase(),
                Phase::Closed(Closed::Corrupt(FrameError::Codec(
                    DecodeError::CrcMismatch { .. }
                )))
            ),
            "{:?}",
            c.phase()
        );
    }

    #[test]
    fn a_skipped_sequence_number_is_one_gap() {
        let (mut c, mut peer) = opened();
        c.send(&subscribe(1));
        assert_eq!(received(&mut peer), vec![subscribe(1)]);
        let ack = SessionMsg::SubAck(SubAck {
            query_id: 1,
            accepted: true,
        });
        write(&mut peer, &[ack, event(1, 0), event(1, 1), event(1, 3)]);
        for _ in 0..4 {
            assert!(c.poll().is_some());
        }
        assert_eq!(
            c.sub(1),
            Some(&Sub {
                query_id: 1,
                acked: Some(true),
                next_seq: 4,
                events: 3,
                gaps: 1,
            })
        );
    }

    #[test]
    fn only_a_pong_with_the_ping_s_nonce_times_it() {
        let (mut c, mut peer) = opened();
        c.send(&SessionMsg::Ping { nonce: 7 });
        assert_eq!(received(&mut peer), vec![SessionMsg::Ping { nonce: 7 }]);
        write(&mut peer, &[SessionMsg::Pong { nonce: 8 }]);
        assert_eq!(c.poll(), Some(SessionMsg::Pong { nonce: 8 }));
        assert_eq!(c.rtt(), None);
        write(&mut peer, &[SessionMsg::Pong { nonce: 7 }]);
        assert_eq!(c.poll(), Some(SessionMsg::Pong { nonce: 7 }));
        assert!(c.rtt().is_some());
    }
}
