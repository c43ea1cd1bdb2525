//! The per-session [`Outbox`]: the bounded queue between the hub thread
//! and the socket worker that owns the session.
//!
//! The hub is the only producer and never waits: a hand-over that finds
//! the queue at its frame budget drops what does not fit and marks the
//! outbox shed, and the worker then closes the session as a slow consumer.
//! Both sides take the queue's lock once per hand-over — the hub for a
//! whole batch of frames ([`Outbox::push_batch`]), the worker for as many
//! whole frames as its write buffer takes ([`Outbox::drain_into`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

/// What one hand-over put into an outbox.
#[derive(Debug)]
enum Chunk {
    /// One frame, as `push` took it; `pop` hands it back uncopied.
    One(Bytes),
    /// Whole frames back to back, as `push_batch` took them.
    Run(Box<Run>),
}

// A queued single frame costs what it cost before there were runs: the
// run hides behind a pointer in the niche of `Bytes`'s tag.
const _: () = assert!(std::mem::size_of::<Chunk>() == std::mem::size_of::<Bytes>());

#[derive(Debug)]
struct Run {
    bytes: Box<[u8]>,
    /// Where each frame ends in `bytes`.
    ends: Box<[usize]>,
    /// Frames the consumer already took off the front.
    taken: usize,
}

impl Chunk {
    /// Copies the first `frames` of the frames lying back to back in
    /// `bytes`, frame `i` ending at `ends[i]`; `None` for none.
    fn copy(bytes: &[u8], ends: &[usize], frames: usize) -> Option<Chunk> {
        let ends = &ends[..frames];
        let bytes = &bytes[..*ends.last()?];
        Some(match ends {
            [_] => Chunk::One(Bytes::copy_from_slice(bytes)),
            _ => Chunk::Run(Box::new(Run {
                bytes: bytes.into(),
                ends: ends.into(),
                taken: 0,
            })),
        })
    }
}

impl Run {
    /// The offset frame `i` starts at.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |before| self.ends[before])
    }
}

#[derive(Debug, Default)]
struct Queue {
    chunks: VecDeque<Chunk>,
    /// Frames not yet taken, over all chunks: what the budget bounds.
    frames: usize,
}

/// A bounded, shed-on-overflow frame queue from the hub to one session.
///
/// The budget counts frames, however they were handed over: a batch is
/// queued as one chunk but weighs as many frames as it holds.
#[derive(Debug)]
pub struct Outbox {
    queue: Mutex<Queue>,
    /// Maximum queued frames (the session's negotiated send budget).
    budget: usize,
    /// Set when a push overflowed: the session must be shed.
    shed: AtomicBool,
    /// Set by the worker when the session dies: the hub drops the
    /// subscription on its next tick.
    closed: AtomicBool,
    /// Frames dropped on the floor after overflow.
    dropped: AtomicU64,
}

impl Outbox {
    /// A new outbox holding at most `budget` frames.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Outbox {
            queue: Mutex::default(),
            budget: budget.max(1),
            shed: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Queues a frame; on overflow marks the outbox shed and returns
    /// `false`. Never blocks beyond the queue mutex (no waiting on the
    /// consumer).
    #[inline] // a few instructions around the lock, called per frame from other crates
    pub fn push(&self, frame: Bytes) -> bool {
        let mut q = self.queue.lock().expect("outbox lock");
        if q.frames >= self.budget {
            drop(q);
            self.refuse(1);
            return false;
        }
        q.frames += 1;
        q.chunks.push_back(Chunk::One(frame));
        true
    }

    /// Queues the frames lying back to back in `bytes`, frame `i` ending
    /// at `ends[i]`, under one lock, and returns how many fit. The budget
    /// cuts exactly as pushing them one by one would: the first frames
    /// fit, the rest are dropped and mark the outbox shed.
    pub(crate) fn push_batch(&self, bytes: &[u8], ends: &[usize]) -> usize {
        // Copied before the lock is taken, for the usual case that every
        // frame fits; a batch the budget cuts is copied again, shorter.
        let whole = Chunk::copy(bytes, ends, ends.len());
        let mut q = self.queue.lock().expect("outbox lock");
        let fit = ends.len().min(self.budget.saturating_sub(q.frames));
        let chunk = if fit == ends.len() {
            whole
        } else {
            Chunk::copy(bytes, ends, fit)
        };
        q.frames += fit;
        q.chunks.extend(chunk);
        drop(q);
        if fit < ends.len() {
            self.refuse(ends.len() - fit);
        }
        fit
    }

    /// Marks the outbox shed over `frames` that found no room.
    pub(crate) fn refuse(&self, frames: usize) {
        self.shed.store(true, Ordering::Release);
        self.dropped.fetch_add(frames as u64, Ordering::Relaxed);
    }

    /// Dequeues the next frame for the socket.
    #[must_use]
    #[inline]
    pub fn pop(&self) -> Option<Bytes> {
        let mut q = self.queue.lock().expect("outbox lock");
        let frame = match q.chunks.pop_front()? {
            Chunk::One(frame) => frame,
            Chunk::Run(mut run) => {
                let next = run.taken + 1;
                let frame =
                    Bytes::copy_from_slice(&run.bytes[run.start(run.taken)..run.start(next)]);
                if next < run.ends.len() {
                    run.taken = next;
                    q.chunks.push_front(Chunk::Run(run));
                }
                frame
            }
        };
        q.frames -= 1;
        Some(frame)
    }

    /// Moves whole frames onto the end of `dst` while `dst` is shorter
    /// than `limit` — the rule popping them one by one under that test
    /// follows, so the last frame moved may end past `limit` but none
    /// starts at or past it — under one lock. Returns the frames moved.
    pub(crate) fn drain_into(&self, dst: &mut Vec<u8>, limit: usize) -> usize {
        let mut q = self.queue.lock().expect("outbox lock");
        let mut moved = 0;
        while dst.len() < limit {
            match q.chunks.front_mut() {
                None => break,
                Some(Chunk::One(frame)) => {
                    dst.extend_from_slice(frame);
                    moved += 1;
                    q.chunks.pop_front();
                }
                Some(Chunk::Run(run)) => {
                    let from = run.start(run.taken);
                    let room = limit - dst.len();
                    // The next frame starts inside the room; so does every
                    // later one that starts less than `room` past it.
                    let later = &run.ends[run.taken..run.ends.len() - 1];
                    let upto = run.taken + 1 + later.partition_point(|&start| start - from < room);
                    dst.extend_from_slice(&run.bytes[from..run.start(upto)]);
                    moved += upto - run.taken;
                    run.taken = upto;
                    if upto == run.ends.len() {
                        q.chunks.pop_front();
                    }
                }
            }
        }
        q.frames -= moved;
        moved
    }

    /// The most frames the outbox queues.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Whether an overflow marked this session for shedding.
    #[must_use]
    pub(crate) fn is_shed(&self) -> bool {
        self.shed.load(Ordering::Acquire)
    }

    /// Marks the session dead so the hub forgets the subscription.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the worker declared the session dead.
    #[must_use]
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prelude::*;

    #[test]
    fn outbox_sheds_on_overflow_and_never_blocks() {
        let o = Outbox::new(2);
        assert!(o.push(Bytes::from_static(b"a")));
        assert!(o.push(Bytes::from_static(b"b")));
        assert!(!o.is_shed());
        assert!(!o.push(Bytes::from_static(b"c")), "third push overflows");
        assert!(o.is_shed());
        assert_eq!(o.dropped(), 1);
        // Draining does not clear the shed mark: one overflow is terminal.
        assert!(o.pop().is_some());
        assert!(o.is_shed());
    }

    #[test]
    fn a_batch_the_budget_cuts_keeps_its_first_frames() {
        let o = Outbox::new(3);
        assert!(o.push(Bytes::from_static(b"a")));
        // Four frames "bb", "c", "ddd", "e" into room for two.
        assert_eq!(o.push_batch(b"bbcddde", &[2, 3, 6, 7]), 2);
        assert!(o.is_shed());
        assert_eq!(o.dropped(), 2);
        let mut out = Vec::new();
        assert_eq!(o.drain_into(&mut out, usize::MAX), 3);
        assert_eq!(out, b"abbc");
        assert_eq!(o.pop(), None);
    }

    prop_test! {
        /// Random interleavings of `push`, `push_batch`, `pop` and
        /// `drain_into` against a queue of frames: order, the budget in
        /// frames, the terminal shed mark set exactly when a frame found
        /// no room, the dropped count, and `drain_into`'s stopping rule —
        /// whole frames only, none starting at or past the limit.
        #[test]
        fn outbox_matches_a_queue_of_frames(
            budget in 1usize..12,
            ops in prop::collection::vec(
                (0u8..8, prop::collection::vec(0usize..6, 0..7), 0usize..40),
                1..80,
            ),
        ) {
            let outbox = Outbox::new(budget);
            let mut model: VecDeque<Vec<u8>> = VecDeque::new();
            let (mut shed, mut dropped, mut next) = (false, 0u64, 0u8);
            let mut frame = |len: usize| {
                next = next.wrapping_add(1);
                vec![next; len]
            };
            for (op, lens, limit) in ops {
                match op {
                    0 | 1 => {
                        let f = frame(lens.len());
                        let fits = model.len() < budget;
                        prop_assert_eq!(outbox.push(Bytes::from(f.clone())), fits);
                        if fits {
                            model.push_back(f);
                        } else {
                            shed = true;
                            dropped += 1;
                        }
                    }
                    2..=4 => {
                        let frames: Vec<Vec<u8>> = lens.iter().map(|&l| frame(l)).collect();
                        let bytes = frames.concat();
                        let ends: Vec<usize> = frames
                            .iter()
                            .scan(0, |end, f| {
                                *end += f.len();
                                Some(*end)
                            })
                            .collect();
                        let fit = frames.len().min(budget - model.len());
                        prop_assert_eq!(outbox.push_batch(&bytes, &ends), fit);
                        if fit < frames.len() {
                            shed = true;
                            dropped += (frames.len() - fit) as u64;
                        }
                        model.extend(frames.into_iter().take(fit));
                    }
                    5 => {
                        let got = outbox.pop().map(|b| b.to_vec());
                        prop_assert_eq!(got, model.pop_front());
                    }
                    _ => {
                        let mut dst = vec![0xee; limit / 2];
                        let mut expect = dst.clone();
                        let mut frames = 0;
                        while expect.len() < limit {
                            let Some(f) = model.pop_front() else { break };
                            expect.extend_from_slice(&f);
                            frames += 1;
                        }
                        prop_assert_eq!(outbox.drain_into(&mut dst, limit), frames);
                        prop_assert_eq!(dst, expect);
                    }
                }
                prop_assert_eq!(outbox.is_shed(), shed);
                prop_assert_eq!(outbox.dropped(), dropped);
            }
            // What is left comes out whole and in order.
            let mut rest = Vec::new();
            prop_assert_eq!(outbox.drain_into(&mut rest, usize::MAX), model.len());
            prop_assert_eq!(rest, model.into_iter().flatten().collect::<Vec<u8>>());
            prop_assert_eq!(outbox.pop(), None);
        }
    }
}
