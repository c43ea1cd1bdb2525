//! The shared wireless channel.
//!
//! [`Medium`] models the MICA mote radio the paper ran on:
//!
//! * **Unit-disk connectivity** — nodes hear each other within a
//!   configurable communication radius (in grid units).
//! * **50 kb/s serialisation** — a frame occupies the channel for
//!   `on_air_bits / bandwidth` of virtual time.
//! * **CSMA deferral** — a transmitter that senses an in-range transmission
//!   defers until the channel frees (plus a random backoff); frames deferred
//!   beyond a bound are dropped, modelling queue overflow under overload.
//! * **Collisions** — two overlapping transmissions audible at a common
//!   receiver destroy each other there (hidden terminals), and a node
//!   cannot receive while transmitting (half-duplex).
//! * **Fading** — independent per-receiver Bernoulli loss, the residual
//!   unreliability the paper observed even at low utilisation (MICA's MAC
//!   has no reliability layer).
//! * **Burst loss** (optional) — a per-receiver Gilbert–Elliott two-state
//!   chain layered on top of the Bernoulli fading, modelling correlated
//!   deep fades; installed and removed at runtime by the chaos harness.
//! * **Partitions** (optional) — a node-group mask that severs every link
//!   between groups, modelling an RF barrier or a split field; enforced at
//!   carrier sensing, collision resolution and delivery alike.
//! * **Link faults** (optional) — garbling, duplication and bounded
//!   reordering of whole transmissions ([`LinkFaults`]).
//!
//! ## One pipeline
//!
//! Every transmission goes through the same two stages:
//!
//! 1. **Transmit side** — resolves an intent exactly once: CSMA deferral
//!    with a sequential backoff stream, MAC admission, link-fault garbling /
//!    duplication / reorder slip, and the transmit-side statistics. The
//!    result is a [`ResolvedTx`]: the channel window, the bytes as they left
//!    the antenna, and the completion instant.
//! 2. **Receiver side** — [`Medium::ingest_resolved`] records the window,
//!    and at the completion instant [`Medium::deliveries`] walks the
//!    receivers this medium **owns**: partition mask, collisions and
//!    half-duplex against the ingested windows, fade, burst chain.
//!
//! The draw discipline makes the receiver side a pure function of what was
//! ingested: fades are *keyed* draws (a function of `(source, seq,
//! receiver)` alone) and each receiver's Gilbert–Elliott chain is its own
//! stream advanced only at that receiver's arrivals, so skipping a receiver
//! — or never ingesting a transmission nobody owned can hear — consumes no
//! randomness.
//!
//! ## Window lifetime
//!
//! A receiver walk needs the windows that share airtime with the frame
//! being walked, and nothing else. The receiver side therefore keeps a
//! window while it is unresolved (its own walk is still due, however far a
//! reorder slip pushed it) and while something not yet walked can overlap
//! it: an unresolved window that starts before it ends, or a transmission
//! still to come. Intents resolve in time order, so whatever is ingested
//! later starts no earlier than the latest request instant seen
//! ([`ResolvedTx::requested`]). A resolved window that ended by then, and
//! overlaps no unresolved window, is dropped. Keeping a window longer
//! never changes an outcome, because every walk skips a window that does
//! not overlap its frame. Dropping one early does: the later walk reports
//! `Delivered` where its peer already reported `Collided`. On the transmit
//! side only a window still on the air can defer an intent, so a `busy`
//! entry goes as soon as it has ended.
//!
//! ## Two deployments of it
//!
//! * **Inline** ([`Medium::new`]) — the medium holds its own transmit side
//!   and owns every node. An event handler calls [`Medium::transmit`]
//!   (resolve at `now` + ingest, zero added latency), schedules one engine
//!   event at the returned completion instant and calls
//!   [`Medium::deliveries`] from it. Seeing every receiver, the medium
//!   settles `tx_lost` itself.
//! * **Sharded** ([`Medium::enable_shard_exec`]) — the inline transmit side
//!   is dropped and ownership narrowed to one shard's nodes. One
//!   [`ChannelScheduler`] — the same transmit side, owned by the sharded
//!   orchestrator — resolves the merged intents of all shards and routes
//!   each [`ResolvedTx`] to the shards that can hear it; `tx_lost` is
//!   settled centrally from the delivered keys the shards report
//!   ([`ChannelScheduler::finalize_lost`]).
//!
//! An inline medium and a scheduler feeding any ownership partition of
//! executor media produce identical outcomes for the same intent sequence
//! (pinned by `tests/prop.rs`). All randomness comes from streams forked
//! off the generator given at construction, keeping runs reproducible.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use envirotrack_sim::rng::{splitmix64, SimRng};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{CounterHandle, Telemetry};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::grid::Topology;

use crate::packet::{Frame, FrameKind};

/// Channel bandwidth of the MICA radio, in bits per second.
const BANDWIDTH_BPS: u64 = 50_000;
/// Upper bound on the random backoff after a CSMA defer.
pub const BACKOFF_MAX: SimDuration = SimDuration::from_millis(4);
/// Fixed receive-path processing delay added after the last bit.
pub const PROC_DELAY: SimDuration = SimDuration::from_millis(2);

/// Radio and MAC parameters an experiment sets; the hardware's own numbers
/// are the constants above.
#[derive(Debug, Clone)]
pub struct RadioConfig {
    /// Communication radius in grid units.
    pub comm_radius: f64,
    /// Independent per-receiver fade probability.
    pub base_loss: f64,
    /// Whether transmitters carrier-sense and defer (CSMA).
    pub csma: bool,
    /// Longest a frame may wait for the channel before being dropped.
    pub max_defer: SimDuration,
}

impl Default for RadioConfig {
    /// MICA-mote-like defaults: 5 % fade, CSMA with a 250 ms defer cap.
    fn default() -> Self {
        RadioConfig {
            comm_radius: 6.0,
            base_loss: 0.05,
            csma: true,
            max_defer: SimDuration::from_millis(250),
        }
    }
}

impl RadioConfig {
    /// Sets the communication radius; chainable.
    #[must_use]
    pub fn with_comm_radius(mut self, r: f64) -> Self {
        assert!(r > 0.0, "communication radius must be positive");
        self.comm_radius = r;
        self
    }

    /// Sets the fade probability; chainable.
    #[must_use]
    pub fn with_base_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.base_loss = p;
        self
    }

    /// On-air time of `frame` at the radio's 50 kb/s.
    #[must_use]
    pub fn tx_time(&self, frame: &Frame) -> SimDuration {
        let micros = frame.on_air_bits() * 1_000_000 / BANDWIDTH_BPS;
        SimDuration::from_micros(micros.max(1))
    }

    /// On-air time of the smallest possible frame (empty payload): a lower
    /// bound on how long *any* transmission spends on the channel.
    #[must_use]
    pub(crate) fn min_tx_airtime(&self) -> SimDuration {
        let min_bits = ((Frame::PREAMBLE_BYTES + Frame::HEADER_BYTES) * 8) as u64;
        SimDuration::from_micros((min_bits * 1_000_000 / BANDWIDTH_BPS).max(1))
    }

    /// The conservative cross-shard synchronisation window: no frame
    /// requested at time `t` can be processed by a receiver before
    /// `t + epoch_latency()`, because even the smallest frame spends
    /// `min_tx_airtime` on the channel and then [`PROC_DELAY`] in the
    /// receive path. Sharded runs
    /// use this as both the epoch length and the uniform pipeline latency
    /// applied to every transmit request (see `envirotrack-core`'s shard
    /// module).
    #[must_use]
    pub fn epoch_latency(&self) -> SimDuration {
        self.min_tx_airtime() + PROC_DELAY
    }
}

/// A Gilbert–Elliott two-state burst-loss channel model.
///
/// Each receiver carries an independent Good/Bad state advanced once per
/// frame-arrival opportunity; the loss probability depends on the state.
/// With the default parameters the Bad state loses most frames and bursts
/// last a handful of frames, which is what defeats single-shot delivery
/// while bounded retransmission still gets through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving Good → Bad at each arrival opportunity.
    pub p_good_to_bad: f64,
    /// Probability of moving Bad → Good at each arrival opportunity.
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad state.
    pub loss_bad: f64,
}

impl Default for GilbertElliott {
    /// Mild-Good / severe-Bad defaults: ~7-frame mean burst length, 85 %
    /// loss inside a burst, clean channel outside it.
    fn default() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.15,
            loss_good: 0.0,
            loss_bad: 0.85,
        }
    }
}

impl GilbertElliott {
    /// Validates the four probabilities.
    ///
    /// # Panics
    ///
    /// Panics when any probability is outside `[0, 1]`.
    pub(crate) fn validate(&self) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
    }
}

/// Link-level fault injection: what a hostile channel does to frames that
/// the loss models alone cannot express. Installed and removed at runtime
/// by the chaos harness (see `envirotrack-chaos`); every draw comes from a
/// dedicated forked RNG stream, so installing the injector never perturbs
/// the baseline fading/backoff sequences and fixed-seed runs replay
/// byte-identically.
///
/// Corruption garbles the *transmission* — all receivers of one broadcast
/// share the same garbled bytes, which keeps the decode-once broadcast path
/// valid. The frame's [`Frame::shadow`] hash is left untouched, so the
/// receiver stack can audit that no garbled frame is ever accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Per-payload-byte probability of flipping one random bit.
    pub flip_per_byte: f64,
    /// Per-frame probability of truncating the payload at a random point.
    pub truncate: f64,
    /// Per-frame probability the link delivers the frame twice.
    pub duplicate: f64,
    /// Per-frame probability of delaying delivery *processing* by a random
    /// extra amount (bounded below), letting later frames overtake it.
    pub reorder: f64,
    /// Upper bound on the reordering delay.
    pub reorder_max_delay: SimDuration,
}

impl Default for LinkFaults {
    /// The soak profile: 1e-3 per-byte bit flips (a ~20-byte frame is
    /// garbled every ~50 transmissions), occasional truncation, and mild
    /// duplication/reordering.
    fn default() -> Self {
        LinkFaults {
            flip_per_byte: 1e-3,
            truncate: 0.005,
            duplicate: 0.01,
            reorder: 0.02,
            reorder_max_delay: SimDuration::from_millis(30),
        }
    }
}

impl LinkFaults {
    /// Validates the probabilities.
    ///
    /// # Panics
    ///
    /// Panics when any probability is outside `[0, 1]`.
    pub(crate) fn validate(&self) {
        for (name, p) in [
            ("flip_per_byte", self.flip_per_byte),
            ("truncate", self.truncate),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
    }
}

/// Identifies one in-flight transmission on the [`Medium`] that ingested it
/// (the handle [`Medium::ingest_resolved`] returns, wrapped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

/// What happened to one (transmission, receiver) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The frame arrived intact.
    Delivered,
    /// Destroyed by an overlapping transmission audible at the receiver.
    Collided,
    /// The receiver was itself transmitting (half-duplex radio).
    HalfDuplex,
    /// Independent fading loss.
    Faded,
    /// Lost to a Gilbert–Elliott burst (receiver in the Bad state).
    BurstFaded,
    /// The link is severed by an active partition mask.
    PartitionDrop,
}

/// Returned by [`Medium::transmit`]: when to collect the deliveries.
#[derive(Debug, Clone, Copy)]
pub struct Transmission {
    /// Handle to pass to [`Medium::deliveries`].
    pub id: TxId,
    /// Instant at which receivers finish decoding (schedule the delivery
    /// event here).
    pub completes_at: Timestamp,
}

/// Error returned when the MAC layer drops a frame before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSaturatedError {
    /// How long the frame would have had to wait.
    pub needed_defer: SimDuration,
}

impl std::fmt::Display for ChannelSaturatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "channel busy beyond the defer bound (needed {})",
            self.needed_defer
        )
    }
}

impl std::error::Error for ChannelSaturatedError {}

/// The outcome set of one completed transmission.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// The transmitted frame — payload possibly garbled by the link-fault
    /// injector (compare [`Frame::payload_is_pristine`]).
    pub frame: Frame,
    /// Per-receiver outcomes, in ascending node-id order.
    pub outcomes: Vec<(NodeId, DeliveryOutcome)>,
    /// The link duplicated this frame: the receiver stack must process the
    /// outcome set a second time (dedup layers are what's under test).
    pub duplicated: bool,
}

/// Per-frame-kind delivery statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    /// Transmissions attempted (after MAC drops).
    pub tx: u64,
    /// (tx, receiver) pairs delivered intact.
    pub rx: u64,
    /// Transmissions heard intact by *no* receiver — the paper's message
    /// loss metric ("sent but never received on any other mote").
    pub tx_lost: u64,
    /// (tx, receiver) pairs destroyed by collisions.
    pub collided: u64,
    /// (tx, receiver) pairs lost to fading.
    pub faded: u64,
    /// (tx, receiver) pairs missed because the receiver was transmitting.
    pub half_duplex: u64,
    /// Frames dropped by the MAC before transmission (channel saturated).
    pub mac_dropped: u64,
    /// (tx, receiver) pairs lost to Gilbert–Elliott bursts — kept separate
    /// from `faded` so chaos-induced loss is distinguishable from the
    /// baseline Bernoulli fading.
    pub burst_faded: u64,
    /// (tx, receiver) pairs severed by an active partition mask.
    pub partition_dropped: u64,
    /// Bytes this kind actually serialised onto the channel (preamble and
    /// link header included), from [`Frame::wire_len`] — the per-kind
    /// share of `NetStats::total_bits`.
    pub bytes_on_air: u64,
    /// Transmissions garbled by the link-fault injector (bit flips and/or
    /// truncation). Receivers must reject every one of these at the CRC
    /// check — the accepted-corrupt invariant audits exactly that.
    pub corrupted: u64,
    /// Transmissions the injector delivered twice.
    pub duplicated: u64,
    /// Transmissions whose delivery processing the injector delayed past
    /// their natural instant (reordering opportunities).
    pub reordered: u64,
}

impl KindStats {
    /// Fraction of transmissions heard by nobody, in `[0, 1]`.
    /// MAC-dropped frames count as lost transmissions too.
    #[must_use]
    pub fn tx_loss_ratio(&self) -> f64 {
        let attempts = self.tx + self.mac_dropped;
        if attempts == 0 {
            0.0
        } else {
            (self.tx_lost + self.mac_dropped) as f64 / attempts as f64
        }
    }

    /// Fraction of (transmission, in-range receiver) pairs that failed —
    /// the per-receiver channel unreliability (fading + collisions +
    /// half-duplex misses), in `[0, 1]`. This is the loss a protocol
    /// running on one mote experiences, matching Table 1 of the paper.
    #[must_use]
    pub fn pair_loss_ratio(&self) -> f64 {
        let lost =
            self.faded + self.collided + self.half_duplex + self.burst_faded + self.partition_dropped;
        let total = self.rx + lost;
        if total == 0 {
            0.0
        } else {
            lost as f64 / total as f64
        }
    }

    /// Adds another snapshot's counts into this one. Sharded runs use this
    /// to combine the scheduler's transmit-side stats with every shard's
    /// receiver-side stats into one whole-run view.
    pub fn absorb(&mut self, other: &KindStats) {
        self.tx += other.tx;
        self.rx += other.rx;
        self.tx_lost += other.tx_lost;
        self.collided += other.collided;
        self.faded += other.faded;
        self.half_duplex += other.half_duplex;
        self.mac_dropped += other.mac_dropped;
        self.burst_faded += other.burst_faded;
        self.partition_dropped += other.partition_dropped;
        self.bytes_on_air += other.bytes_on_air;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }
}

/// A whole-run snapshot of channel statistics.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Statistics per frame kind.
    pub per_kind: BTreeMap<u8, KindStats>,
    /// Total transmissions across kinds.
    pub total_tx: u64,
    /// Total bits serialised onto the channel (preamble included).
    pub total_bits: u64,
    /// Total channel-busy time summed over transmissions.
    pub busy_time: SimDuration,
}

impl NetStats {
    /// Stats for one kind (zeroed if never seen).
    #[must_use]
    pub fn kind(&self, kind: FrameKind) -> KindStats {
        self.per_kind.get(&kind.0).copied().unwrap_or_default()
    }

    fn kind_mut(&mut self, kind: FrameKind) -> &mut KindStats {
        self.per_kind.entry(kind.0).or_default()
    }

    /// Sum of a per-kind counter over every kind — e.g.
    /// `stats.sum(|k| k.burst_faded)` for the whole-run burst-loss count.
    #[must_use]
    pub fn sum(&self, f: impl Fn(&KindStats) -> u64) -> u64 {
        self.per_kind.values().map(f).sum()
    }

    /// Total bytes serialised on air across every kind (preamble + header
    /// + payload), the Table-1 "bytes actually sent" number.
    #[must_use]
    pub fn bytes_on_air(&self) -> u64 {
        self.sum(|k| k.bytes_on_air)
    }

    /// Worst-case broadcast-channel utilisation over `elapsed`: total bits
    /// sent divided by what the link could carry, as in Table 1 of the
    /// paper (assumes no spatial reuse).
    #[must_use]
    pub fn link_utilization(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_bits as f64 / (secs * BANDWIDTH_BPS as f64)
    }

    /// Adds another snapshot's counts into this one (see
    /// [`KindStats::absorb`]).
    pub fn absorb(&mut self, other: &NetStats) {
        for (kind, ks) in &other.per_kind {
            self.per_kind.entry(*kind).or_default().absorb(ks);
        }
        self.total_tx += other.total_tx;
        self.total_bits += other.total_bits;
        self.busy_time += other.busy_time;
    }
}

/// Pre-resolved telemetry handles for one frame kind, so the hot path
/// increments a shared cell instead of formatting a counter name and
/// walking the registry map per event.
#[derive(Debug, Clone)]
struct KindCounters {
    tx: CounterHandle,
    lost: CounterHandle,
    mac_drop: CounterHandle,
    bytes: CounterHandle,
}

/// Upper bound on pooled outcome buffers; deliveries are collected one at a
/// time in practice, so the pool never grows past a handful of entries.
const OUTCOME_POOL_CAP: usize = 64;

/// Applies link-fault payload corruption to `frame` in the pinned draw
/// order (truncation first, then per-byte bit flips); returns whether
/// anything mutated. The charged [`Frame::wire_len`] and the sender's
/// [`Frame::shadow`] hash stay pristine, so airtime accounting and the
/// accepted-corrupt audit are unaffected.
fn garble_payload(frame: &mut Frame, f: &LinkFaults, rng: &mut SimRng) -> bool {
    let mut mutated = false;
    if f.truncate > 0.0 && !frame.payload.is_empty() && rng.chance(f.truncate) {
        let keep = rng.below(frame.payload.len() as u64) as usize;
        let mut cut = frame.payload.to_vec();
        cut.truncate(keep);
        frame.payload = Bytes::from(cut);
        mutated = true;
    }
    if f.flip_per_byte > 0.0 {
        let mut garbled: Option<Vec<u8>> = None;
        for i in 0..frame.payload.len() {
            if rng.chance(f.flip_per_byte) {
                let bit = rng.below(8) as u8;
                garbled.get_or_insert_with(|| frame.payload.to_vec())[i] ^= 1 << bit;
            }
        }
        if let Some(v) = garbled {
            frame.payload = Bytes::from(v);
            mutated = true;
        }
    }
    mutated
}

/// Deterministic 64-bit key for one `(transmission, receiver)` fade draw:
/// a double-[`splitmix64`] mix of `(source, seq, receiver)`. A pure
/// function of the pair, so every executor derives the same fade stream
/// for the same pair, and skipping a pair consumes nothing.
fn fade_mix(key: TxKey, v: NodeId) -> u64 {
    let mut s = (u64::from(key.0) << 32) ^ u64::from(v.0);
    let a = splitmix64(&mut s);
    let mut s2 = a ^ key.1;
    splitmix64(&mut s2)
}

/// Who can hear whom: the world's unit-disk [`Topology`] plus the optional
/// partition mask. Both halves of the pipeline ask it the same question —
/// the transmit side for carrier sensing, the receiver side for collisions
/// and delivery.
#[derive(Debug)]
struct Links {
    topology: Arc<Topology>,
    /// Partition group per node; links between different groups are severed.
    partition: Option<Vec<u8>>,
}

impl Links {
    fn new(topology: Arc<Topology>) -> Self {
        Links {
            topology,
            partition: None,
        }
    }

    fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        if let Some(g) = &groups {
            let nodes = self.topology.positions().len();
            assert_eq!(g.len(), nodes, "partition mask must cover every node");
        }
        self.partition = groups;
    }

    fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let groups = self.partition.as_ref();
        groups.is_some_and(|g| g[a.index()] != g[b.index()])
    }

    /// In range, by distance rather than a list search, and not partitioned off.
    #[inline]
    fn audible(&self, a: NodeId, b: NodeId) -> bool {
        self.topology.in_range(a, b) && !self.partitioned(a, b)
    }
}

/// Globally unique identity of one transmission:
/// `(source node id, per-source intent sequence)`.
pub type TxKey = (u32, u64);

/// One transmit intent after the transmit side resolved it: the channel
/// window plus every transmit-side random decision, computed exactly once
/// so any set of executors can replay the receiver side identically.
#[derive(Debug, Clone)]
pub struct ResolvedTx {
    /// Per-source intent sequence (second half of `ResolvedTx::key`).
    pub seq: u64,
    /// The frame as it left the transmit side — payload possibly garbled
    /// by the link-fault injector (every executor shares the same garbled
    /// bytes), the charged [`Frame::wire_len`] always pristine.
    pub frame: Frame,
    /// When the intent was requested. Intents resolve in time order, so no
    /// later transmission starts before this.
    pub requested: Timestamp,
    /// When the first bit hits the channel (after CSMA defer + backoff).
    pub start: Timestamp,
    /// When the last bit leaves the channel.
    pub end: Timestamp,
    /// When receivers finish decoding (processing delay plus any reorder
    /// slip); schedule the delivery event here.
    pub completes_at: Timestamp,
    /// The link duplicated this transmission: receivers process the
    /// outcome set twice.
    pub duplicated: bool,
}

impl ResolvedTx {
    /// The transmission's global identity.
    #[must_use]
    pub(crate) fn key(&self) -> TxKey {
        (self.frame.src.0, self.seq)
    }
}

/// The transmit side of the pipeline (see the [module docs](self)): CSMA
/// deferral with the sequential backoff stream, MAC admission, link-fault
/// garbling / duplication / reorder slip, and the transmit-side tally.
/// Intents must arrive in `(time, src, seq)` order, so both sequential
/// streams are a function of the intent sequence alone.
#[derive(Debug)]
struct TxSide {
    /// Channel windows still on the air (or deferred onto it) at the last
    /// intent: `(source, end)`. Nothing else can defer a sender.
    busy: Vec<(NodeId, Timestamp)>,
    backoff_rng: SimRng,
    /// Optional link-level fault injector. It draws from its own forked
    /// stream, so installing it never disturbs the backoff sequence.
    faults: Option<LinkFaults>,
    fault_rng: SimRng,
}

impl TxSide {
    fn new(rng: &SimRng) -> Self {
        TxSide {
            busy: Vec::new(),
            backoff_rng: rng.fork("radio-medium"),
            faults: None,
            fault_rng: rng.fork("link-faults"),
        }
    }

    fn set_faults(&mut self, faults: Option<LinkFaults>) {
        if let Some(f) = &faults {
            f.validate();
        }
        self.faults = faults;
    }

    /// Resolves one intent requested at `now`, tallying into `stats`; a
    /// MAC drop is counted there and returned as the error.
    fn resolve(
        &mut self,
        config: &RadioConfig,
        links: &Links,
        stats: &mut NetStats,
        now: Timestamp,
        seq: u64,
        mut frame: Frame,
    ) -> Result<ResolvedTx, ChannelSaturatedError> {
        self.busy.retain(|&(_, end)| end > now);
        let mut start = now;
        if config.csma {
            // Sense every in-progress or deferred transmission audible at
            // the sender, and start after the latest of them.
            let mut busy_until = now;
            for &(src, end) in &self.busy {
                if end > busy_until && (src == frame.src || links.audible(src, frame.src)) {
                    busy_until = end;
                }
            }
            if busy_until > now {
                let backoff =
                    SimDuration::from_micros(self.backoff_rng.below(BACKOFF_MAX.as_micros()));
                start = busy_until + backoff;
            }
            let defer = start.saturating_since(now);
            if defer > config.max_defer {
                stats.kind_mut(frame.kind).mac_dropped += 1;
                return Err(ChannelSaturatedError {
                    needed_defer: defer,
                });
            }
        }
        let tx_time = config.tx_time(&frame);
        let end = start + tx_time;
        stats.total_tx += 1;
        stats.total_bits += frame.on_air_bits();
        stats.busy_time += tx_time;
        let ks = stats.kind_mut(frame.kind);
        ks.tx += 1;
        ks.bytes_on_air += frame.on_air_bits() / 8;
        // Fault draws in a fixed order (reorder slip, garbling,
        // duplication). Reordering leaves the channel window alone —
        // collisions and CSMA see the truth — and only slips the
        // receiver-side *processing* instant, letting frames sent later
        // complete first. Garbling hits the transmission, not a receiver:
        // everyone shares the garbled copy, `frame.shadow` keeps the
        // sender's pristine hash so acceptance is detectable downstream,
        // and airtime stays charged from the pristine `wire_len`.
        let mut extra = SimDuration::ZERO;
        let mut duplicated = false;
        if let Some(f) = self.faults {
            if f.reorder > 0.0 && self.fault_rng.chance(f.reorder) {
                extra = SimDuration::from_micros(
                    self.fault_rng.below(f.reorder_max_delay.as_micros().max(1)),
                );
                ks.reordered += 1;
            }
            if garble_payload(&mut frame, &f, &mut self.fault_rng) {
                ks.corrupted += 1;
            }
            if f.duplicate > 0.0 && self.fault_rng.chance(f.duplicate) {
                duplicated = true;
                ks.duplicated += 1;
            }
        }
        self.busy.push((frame.src, end));
        Ok(ResolvedTx {
            seq,
            frame,
            requested: now,
            start,
            end,
            completes_at: end + PROC_DELAY + extra,
            duplicated,
        })
    }
}

/// One ingested transmission on the receiver side: the resolved channel
/// window plus the local handle of its completion event.
#[derive(Debug)]
struct RxWindow {
    id: u64,
    key: TxKey,
    start: Timestamp,
    end: Timestamp,
    frame: Frame,
    duplicated: bool,
    /// Set once `deliveries` has walked this transmission; an unresolved
    /// window is never pruned, however late its walk happens.
    resolved: bool,
}

/// An installed Gilbert–Elliott model with its per-receiver chains.
#[derive(Debug)]
struct BurstChains {
    model: GilbertElliott,
    /// Per-receiver state, `true` = Bad.
    bad: Vec<bool>,
    /// Per-receiver streams, rebuilt on every install so a chain is a
    /// function of the install point and that receiver's arrivals only.
    rngs: Vec<SimRng>,
}

impl BurstChains {
    /// Advances `v`'s chain by one arrival opportunity; returns whether an
    /// otherwise `intact` frame is lost to the burst.
    fn loses(&mut self, v: NodeId, intact: bool) -> bool {
        let bad = &mut self.bad[v.index()];
        let chain = &mut self.rngs[v.index()];
        let flip = if *bad {
            self.model.p_bad_to_good
        } else {
            self.model.p_good_to_bad
        };
        if chain.chance(flip) {
            *bad = !*bad;
        }
        let loss = if *bad {
            self.model.loss_bad
        } else {
            self.model.loss_good
        };
        intact && chain.chance(loss)
    }
}

/// The shared broadcast radio channel. See the [module docs](self).
pub struct Medium {
    config: RadioConfig,
    links: Links,
    /// The inline transmit side; `None` once [`Medium::enable_shard_exec`]
    /// hands that job to a central [`ChannelScheduler`].
    tx: Option<TxSide>,
    /// Per-source intent counters for the inline transmit side (the second
    /// half of each [`TxKey`]).
    next_seq: Vec<u64>,
    stats: NetStats,
    /// Which nodes this medium resolves receptions for (all of them until
    /// [`Medium::enable_shard_exec`] narrows it).
    owned: Vec<bool>,
    windows: Vec<RxWindow>,
    next_id: u64,
    /// Request instant of the newest ingested transmission: whatever is
    /// ingested later starts no earlier.
    latest_request: Timestamp,
    /// Scratch for `deliveries`: sources of the foreign windows on the air
    /// together with the frame being walked, in resolve order.
    rivals: Vec<NodeId>,
    /// Scratch for `deliveries`: `(start, end)` of every unresolved window.
    waiting: Vec<(Timestamp, Timestamp)>,
    /// Windows `deliveries` has looked at ([`Medium::window_visits`]).
    window_visits: u64,
    /// Parent of the keyed per-`(transmission, receiver)` fade streams.
    fade_pairs: SimRng,
    /// Parent of the per-receiver burst chains.
    burst_base: SimRng,
    burst: Option<BurstChains>,
    /// Keys of ingested transmissions at least one owned receiver heard
    /// intact, kept only while a central scheduler settles `tx_lost`.
    delivered_keys: Vec<TxKey>,
    /// When enabled, every intact (src, dst) delivery is appended here for
    /// the invariant monitor to audit (e.g. "nothing crosses a partition").
    delivery_log: Option<Vec<(Timestamp, NodeId, NodeId)>>,
    /// Run-wide telemetry; a detached registry until the owning network
    /// attaches the shared one.
    telemetry: Telemetry,
    /// Counter handles per frame kind (indexed by `FrameKind.0`), resolved
    /// lazily against the current telemetry registry.
    kind_counters: Vec<Option<KindCounters>>,
    /// Recycled outcome buffers handed back via [`Medium::recycle`].
    outcome_pool: Vec<Vec<(NodeId, DeliveryOutcome)>>,
    /// Fresh outcome-buffer allocations made by `deliveries`; stays flat in
    /// steady state when callers recycle their reports.
    outcome_allocs: u64,
}

impl Medium {
    /// Builds a medium over `deployment` with the given parameters, deriving
    /// its randomness streams from `rng`. It starts as the whole pipeline
    /// inline: its own transmit side, and every node's reception.
    #[must_use]
    pub fn new(deployment: &Deployment, config: RadioConfig, rng: &SimRng) -> Self {
        let topology = Topology::new(deployment, config.comm_radius);
        Medium::with_topology(Arc::new(topology), config, rng)
    }

    /// [`Medium::new`] over a topology somebody else built — the router of
    /// the same world reads the same one. Panics if it was built under
    /// another radius than `config.comm_radius`.
    #[must_use]
    pub fn with_topology(topology: Arc<Topology>, config: RadioConfig, rng: &SimRng) -> Self {
        assert_eq!(topology.radius(), config.comm_radius, "another radius");
        let n = topology.positions().len();
        let links = Links::new(topology);
        // The receiver-side labels predate the merge of the two channel
        // paths; they are kept so sharded runs replay byte-for-byte.
        let exec = rng.fork("shard-exec");
        Medium {
            config,
            links,
            tx: Some(TxSide::new(rng)),
            next_seq: vec![0; n],
            stats: NetStats::default(),
            owned: vec![true; n],
            windows: Vec::new(),
            next_id: 0,
            latest_request: Timestamp::ZERO,
            rivals: Vec::new(),
            waiting: Vec::new(),
            window_visits: 0,
            fade_pairs: exec.fork("fade").fork("pair"),
            burst_base: exec.fork("burst"),
            burst: None,
            delivered_keys: Vec::new(),
            delivery_log: None,
            telemetry: Telemetry::new(),
            kind_counters: Vec::new(),
            outcome_pool: Vec::new(),
            outcome_allocs: 0,
        }
    }

    /// Replaces the detached default registry with the run-wide one. The
    /// inline medium records per-frame-kind transmission and
    /// whole-broadcast-loss counters (`net.k<kind>.tx`, `net.k<kind>.lost`,
    /// `net.k<kind>.mac_drop`, `net.k<kind>.bytes`); sharded runs derive the
    /// same counters from the combined statistics at merge time.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        // Handles resolved against the old registry are stale; re-resolve
        // lazily against the new one.
        self.kind_counters.clear();
    }

    /// The cached counter handles for `kind`, resolving them on first use.
    fn kind_counters(&mut self, kind: FrameKind) -> &KindCounters {
        let i = kind.0 as usize;
        if self.kind_counters.len() <= i {
            self.kind_counters.resize(i + 1, None);
        }
        if self.kind_counters[i].is_none() {
            let handle = |what: &str| {
                self.telemetry
                    .counter_handle(&format!("net.k{}.{what}", kind.0))
            };
            self.kind_counters[i] = Some(KindCounters {
                tx: handle("tx"),
                lost: handle("lost"),
                mac_drop: handle("mac_drop"),
                bytes: handle("bytes"),
            });
        }
        self.kind_counters[i].as_ref().expect("just filled")
    }

    /// The radio configuration.
    #[must_use]
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Installs (or clears) a partition mask: `groups[i]` is node `i`'s
    /// group, and links between different groups are severed — no carrier
    /// sensing, no collisions, no delivery across the cut.
    ///
    /// # Panics
    ///
    /// Panics when the mask length does not match the deployment size.
    pub fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        self.links.set_partition(groups);
    }

    /// The currently active partition mask, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&[u8]> {
        self.links.partition.as_deref()
    }

    /// Installs (or clears) the Gilbert–Elliott burst-loss model. Receiver
    /// states start Good, and every receiver's chain is a dedicated stream
    /// rebuilt from scratch at each install (a deterministic function of
    /// the install point, identical on every executor) that advances only
    /// when that receiver's owner processes an arrival opportunity — so
    /// the fade and backoff sequences are unaffected either way.
    pub fn set_burst_loss(&mut self, model: Option<GilbertElliott>) {
        let n = self.owned.len();
        self.burst = model.map(|model| {
            model.validate();
            BurstChains {
                model,
                bad: vec![false; n],
                rngs: (0..n)
                    .map(|v| self.burst_base.fork_indexed("rx", v as u64))
                    .collect(),
            }
        });
    }

    /// Installs (or clears) the link-level fault injector on the inline
    /// transmit side. After [`Medium::enable_shard_exec`] there is none:
    /// faults then act where the transmit side lives
    /// ([`ChannelScheduler::set_link_faults`]).
    pub fn set_link_faults(&mut self, faults: Option<LinkFaults>) {
        if let Some(tx) = &mut self.tx {
            tx.set_faults(faults);
        }
    }

    /// Enables or disables the delivery audit log (disabled by default; the
    /// invariant monitor turns it on and drains it every sample tick).
    pub fn set_delivery_log(&mut self, enabled: bool) {
        self.delivery_log = if enabled {
            Some(self.delivery_log.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Drains the delivery audit log: `(tx-end instant, src, dst)` triples
    /// for every intact delivery since the last drain. Empty when the log
    /// is disabled.
    pub fn take_delivery_log(&mut self) -> Vec<(Timestamp, NodeId, NodeId)> {
        match &mut self.delivery_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Starts transmitting `frame` at `now`: resolves it on the inline
    /// transmit side with zero added latency and ingests the result.
    ///
    /// Returns the transmission handle and completion instant; the caller
    /// must schedule an event there and call [`Medium::deliveries`].
    ///
    /// # Errors
    ///
    /// Returns [`ChannelSaturatedError`] when CSMA deferral would exceed the
    /// configured bound; the frame is dropped and counted in the stats.
    ///
    /// # Panics
    ///
    /// Panics after [`Medium::enable_shard_exec`]: intents must then be
    /// resolved by the central [`ChannelScheduler`] and ingested.
    pub fn transmit(
        &mut self,
        now: Timestamp,
        frame: Frame,
    ) -> Result<Transmission, ChannelSaturatedError> {
        let tx = self.tx.as_mut().expect(
            "transmit needs the inline transmit side; after enable_shard_exec \
             intents go through the central ChannelScheduler",
        );
        let kind = frame.kind;
        // Numbered per source exactly as a shard's outbox numbers intents,
        // MAC-dropped ones included.
        let seq = &mut self.next_seq[frame.src.index()];
        let resolved = tx.resolve(&self.config, &self.links, &mut self.stats, now, *seq, frame);
        *seq += 1;
        match resolved {
            Ok(rtx) => {
                let charged = rtx.frame.on_air_bits() / 8;
                let kc = self.kind_counters(kind);
                kc.tx.incr();
                kc.bytes.add(charged);
                let (id, completes_at) = self.ingest_resolved(rtx);
                Ok(Transmission {
                    id: TxId(id),
                    completes_at,
                })
            }
            Err(saturated) => {
                self.kind_counters(kind).mac_drop.incr();
                Err(saturated)
            }
        }
    }

    /// Narrows this medium to the receiver side of a sharded run (see the
    /// [module docs](self)): the inline transmit side is dropped, so
    /// [`Medium::transmit`] is gone, and receptions are resolved for
    /// `owned` nodes only, from the [`ResolvedTx`]es the orchestrator's
    /// [`ChannelScheduler`] routes here.
    ///
    /// # Panics
    ///
    /// Panics when `owned` does not cover every node.
    pub fn enable_shard_exec(&mut self, owned: Vec<bool>) {
        assert_eq!(
            owned.len(),
            self.owned.len(),
            "ownership mask must cover every node"
        );
        self.owned = owned;
        self.tx = None;
        self.next_seq = Vec::new();
    }

    /// Ingests one resolved transmission; returns the local handle to pass
    /// to [`Medium::exec_deliveries`] and the completion instant to
    /// schedule it at.
    pub fn ingest_resolved(&mut self, rtx: ResolvedTx) -> (u64, Timestamp) {
        self.latest_request = self.latest_request.max(rtx.requested);
        let id = self.next_id;
        self.next_id += 1;
        let completes_at = rtx.completes_at;
        self.windows.push(RxWindow {
            id,
            key: rtx.key(),
            start: rtx.start,
            end: rtx.end,
            frame: rtx.frame,
            duplicated: rtx.duplicated,
            resolved: false,
        });
        (id, completes_at)
    }

    /// Resolves the per-receiver outcomes of a completed transmission for
    /// this medium's **owned** receivers.
    ///
    /// Must be called exactly once per ingested transmission, at (or
    /// after) its completion instant. The pinned draw discipline: a
    /// skipped (non-owned) receiver consumes zero randomness — fades are
    /// keyed per-pair draws and burst chains are per-receiver streams — so
    /// the outcome at an owned receiver is identical whatever subset of
    /// the global traffic this medium was routed, as long as every window
    /// audible at that receiver was ingested (the interest-routing
    /// soundness guarantee).
    ///
    /// The inline medium owns every receiver and settles `tx_lost` on the
    /// spot; under a central scheduler the verdict needs every shard, so
    /// the key is queued for [`Medium::drain_delivered_keys`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already resolved.
    pub fn deliveries(&mut self, id: TxId) -> DeliveryReport {
        let Medium {
            config,
            links,
            windows,
            owned,
            latest_request,
            rivals,
            waiting,
            window_visits,
            fade_pairs,
            burst,
            delivery_log,
            ..
        } = self;
        let idx = windows
            .binary_search_by_key(&id.0, |w| w.id)
            .ok()
            .filter(|&i| !windows[i].resolved)
            .expect("unknown or already-resolved transmission id");
        let w = &mut windows[idx];
        w.resolved = true;
        let (key, start, end, frame, duplicated) =
            (w.key, w.start, w.end, w.frame.clone(), w.duplicated);
        let src = frame.src;
        // One pass over the retained windows, in resolve order (routing
        // preserves it), finds the foreign sources on the air together with
        // this frame, which is all a receiver can lose it to, and the
        // windows still awaiting their walk. A resolved window overlapping
        // none of those, nor anything still to come, is dead (module docs).
        rivals.clear();
        waiting.clear();
        for other in windows.iter() {
            if !other.resolved {
                waiting.push((other.start, other.end));
            }
            if other.frame.src != src && other.start < end && start < other.end {
                rivals.push(other.frame.src);
            }
        }
        *window_visits += windows.len() as u64;
        windows.retain(|w| {
            !w.resolved
                || w.end > *latest_request
                || waiting.iter().any(|&(s, e)| w.start < e && s < w.end)
        });
        let receivers = links.topology.neighbors(src);
        let mut outcomes = match self.outcome_pool.pop() {
            Some(buf) => buf,
            None => {
                self.outcome_allocs += 1;
                Vec::new()
            }
        };
        outcomes.reserve(receivers.len());
        // Tally per-kind stats locally and fold them into the BTreeMap once
        // at the end, rather than one map lookup per receiver.
        let mut tally = KindStats::default();
        for &v in receivers {
            if !owned[v.index()] {
                // Someone else's share of the receiver walk; skipping it
                // draws nothing (the discipline everything rests on).
                continue;
            }
            let mut outcome = DeliveryOutcome::Delivered;
            if links.partitioned(src, v) {
                outcome = DeliveryOutcome::PartitionDrop;
            } else {
                for &osrc in rivals.iter() {
                    *window_visits += 1;
                    if osrc == v {
                        outcome = DeliveryOutcome::HalfDuplex;
                        break;
                    }
                    if links.audible(osrc, v) {
                        outcome = DeliveryOutcome::Collided;
                        break;
                    }
                }
            }
            if outcome == DeliveryOutcome::Delivered
                && config.base_loss > 0.0
                && fade_pairs
                    .indexed(fade_mix(key, v))
                    .chance(config.base_loss)
            {
                outcome = DeliveryOutcome::Faded;
            }
            // The Gilbert–Elliott chain (when installed) advances once per
            // arrival opportunity and can turn a surviving delivery into a
            // burst loss.
            if let Some(chains) = burst {
                if outcome != DeliveryOutcome::PartitionDrop
                    && chains.loses(v, outcome == DeliveryOutcome::Delivered)
                {
                    outcome = DeliveryOutcome::BurstFaded;
                }
            }
            match outcome {
                DeliveryOutcome::Delivered => {
                    tally.rx += 1;
                    if let Some(log) = delivery_log {
                        log.push((end, src, v));
                    }
                }
                DeliveryOutcome::Collided => tally.collided += 1,
                DeliveryOutcome::HalfDuplex => tally.half_duplex += 1,
                DeliveryOutcome::Faded => tally.faded += 1,
                DeliveryOutcome::BurstFaded => tally.burst_faded += 1,
                DeliveryOutcome::PartitionDrop => tally.partition_dropped += 1,
            }
            outcomes.push((v, outcome));
        }
        if tally.rx > 0 {
            if self.tx.is_none() {
                self.delivered_keys.push(key);
            }
        } else if self.tx.is_some() {
            tally.tx_lost = 1;
            self.kind_counters(frame.kind).lost.incr();
        }
        self.stats.kind_mut(frame.kind).absorb(&tally);
        DeliveryReport {
            frame,
            outcomes,
            duplicated,
        }
    }

    /// [`Medium::deliveries`] by the raw handle [`Medium::ingest_resolved`]
    /// returned.
    pub fn exec_deliveries(&mut self, local: u64) -> DeliveryReport {
        self.deliveries(TxId(local))
    }

    /// Hands a delivery report's outcome buffer back for reuse, so the next
    /// [`Medium::deliveries`] call pops it instead of allocating. Optional —
    /// skipping it only costs one allocation per broadcast.
    pub fn recycle(&mut self, report: DeliveryReport) {
        let mut buf = report.outcomes;
        if self.outcome_pool.len() < OUTCOME_POOL_CAP {
            buf.clear();
            self.outcome_pool.push(buf);
        }
    }

    /// Fresh outcome-buffer allocations `deliveries` has made so far. With
    /// recycling in steady state this stays pinned at the number of reports
    /// simultaneously in flight (one, for the event-driven network stack).
    #[must_use]
    pub fn outcome_buffer_allocs(&self) -> u64 {
        self.outcome_allocs
    }

    /// Windows [`Medium::deliveries`] has looked at so far: the retained
    /// ones once per call, plus each receiver's tests against the frames on
    /// the air with its own. Not a telemetry counter, because it depends on
    /// which windows this medium was routed.
    #[must_use]
    pub fn window_visits(&self) -> u64 {
        self.window_visits
    }

    /// Drains the keys of ingested transmissions at least one owned
    /// receiver heard intact since the last drain, for the central
    /// scheduler's `tx_lost` settlement. Always empty on an inline medium,
    /// which settles its own.
    pub fn drain_delivered_keys(&mut self) -> Vec<TxKey> {
        std::mem::take(&mut self.delivered_keys)
    }

    /// A snapshot of the channel statistics so far: both sides of the
    /// pipeline on an inline medium, the receiver side of the owned nodes
    /// after [`Medium::enable_shard_exec`].
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("nodes", &self.owned.len())
            .field("comm_radius", &self.config.comm_radius)
            .field("inline_tx", &self.tx.is_some())
            .field("in_flight", &self.windows.len())
            .field("total_tx", &self.stats.total_tx)
            .finish()
    }
}

/// The transmit side on its own, for sharded runs (see the
/// [module docs](self)): owned by the orchestrator, it resolves every
/// merged intent exactly once and hands back a [`ResolvedTx`] for routing
/// to the interested shards' media.
///
/// `tx_lost` (the paper's "heard by nobody" metric) needs the receiver
/// side, which lives on the shards: the scheduler keeps every resolved
/// transmission pending until [`ChannelScheduler::finalize_lost`] is
/// called with the union of delivered keys the shards reported.
pub struct ChannelScheduler {
    config: RadioConfig,
    links: Links,
    tx: TxSide,
    stats: NetStats,
    /// Resolved transmissions awaiting their loss verdict:
    /// `(completes_at, key, kind)`.
    pending: Vec<(Timestamp, TxKey, FrameKind)>,
}

impl ChannelScheduler {
    /// Builds a scheduler over `deployment`, deriving its randomness from
    /// `rng` under the same labels as a [`Medium`]'s inline transmit side.
    #[must_use]
    pub fn new(deployment: &Deployment, config: RadioConfig, rng: &SimRng) -> Self {
        ChannelScheduler {
            links: Links::new(Arc::new(Topology::new(deployment, config.comm_radius))),
            config,
            tx: TxSide::new(rng),
            stats: NetStats::default(),
            pending: Vec::new(),
        }
    }

    /// Installs (or clears) a partition mask (carrier sensing stops
    /// crossing the cut, matching [`Medium::set_partition`]).
    pub fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        self.links.set_partition(groups);
    }

    /// Installs (or clears) the link-level fault injector.
    pub fn set_link_faults(&mut self, faults: Option<LinkFaults>) {
        self.tx.set_faults(faults);
    }

    /// Resolves one merged intent at its adjusted transmit instant `now`.
    /// Returns `None` on a MAC drop (counted in the stats). Intents must
    /// arrive in merged `(time, src, seq)` order — the orchestrator's
    /// barrier sort guarantees it — so the sequential backoff stream is a
    /// function of the merged batch alone, not of the shard count.
    pub fn resolve(&mut self, now: Timestamp, seq: u64, frame: Frame) -> Option<ResolvedTx> {
        let rtx = self
            .tx
            .resolve(&self.config, &self.links, &mut self.stats, now, seq, frame)
            .ok()?;
        self.pending
            .push((rtx.completes_at, rtx.key(), rtx.frame.kind));
        Some(rtx)
    }

    /// Finalises the "heard by nobody" verdict for every resolved
    /// transmission completing at or before `up_to`: any whose key is
    /// absent from `delivered` (the union the shards reported) counts as
    /// `tx_lost`. Returns the finalised keys so the orchestrator can
    /// shrink its delivered set.
    pub fn finalize_lost(&mut self, up_to: Timestamp, delivered: &HashSet<TxKey>) -> Vec<TxKey> {
        let ChannelScheduler { pending, stats, .. } = self;
        let mut done = Vec::new();
        pending.retain(|&(completes_at, key, kind)| {
            if completes_at > up_to {
                return true;
            }
            if !delivered.contains(&key) {
                stats.kind_mut(kind).tx_lost += 1;
            }
            done.push(key);
            false
        });
        done
    }

    /// The transmit-side statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }
}

impl std::fmt::Debug for ChannelScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelScheduler")
            .field("nodes", &self.links.topology.positions().len())
            .field("in_flight", &self.tx.busy.len())
            .field("pending_lost", &self.pending.len())
            .field("total_tx", &self.stats.total_tx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use envirotrack_world::geometry::Point;
    use testkit::prelude::*;

    fn line_deployment(n: u32, spacing: f64) -> Deployment {
        Deployment::from_positions(
            (0..n)
                .map(|i| Point::new(f64::from(i) * spacing, 0.0))
                .collect(),
        )
    }

    fn lossless(comm_radius: f64) -> RadioConfig {
        RadioConfig::default()
            .with_comm_radius(comm_radius)
            .with_base_loss(0.0)
    }

    fn frame(src: u32) -> Frame {
        Frame::broadcast(NodeId(src), FrameKind(1), Bytes::from_static(&[0u8; 20]))
    }

    /// Receivers that got the frame intact.
    fn intact(report: &DeliveryReport) -> impl Iterator<Item = NodeId> + '_ {
        report
            .outcomes
            .iter()
            .filter(|(_, o)| *o == DeliveryOutcome::Delivered)
            .map(|(n, _)| *n)
    }

    /// `audible(a, b)` for every ordered pair of `field`, `a == b` included,
    /// against membership of `b` in `a`'s brute-force neighbour list (and,
    /// with a mask, equality of their partition groups).
    fn check_audibility(field: &Deployment, radius: f64, mask_seed: Option<u64>) {
        use envirotrack_world::grid::{neighbor_lists_with, NeighborStrategy};
        let reference = neighbor_lists_with(field, radius, NeighborStrategy::BruteForce);
        let mut links = Links::new(Arc::new(Topology::new(field, radius)));
        let groups = mask_seed.map(|seed| {
            let mut s = seed;
            (0..field.len())
                .map(|_| (splitmix64(&mut s) % 3) as u8)
                .collect::<Vec<u8>>()
        });
        links.set_partition(groups.clone());
        for a in field.ids() {
            for b in field.ids() {
                let same_side = groups.as_ref().is_none_or(|g| g[a.index()] == g[b.index()]);
                let expected = reference[a.index()].contains(&b) && same_side;
                prop_assert_eq!(
                    links.audible(a, b),
                    expected,
                    "{} -> {} at {} and {}, radius {}",
                    a,
                    b,
                    field.position(a),
                    field.position(b),
                    radius
                );
            }
        }
    }

    testkit::prop_test! {
        /// Audibility by arithmetic is audibility by list. Grids and
        /// quarter-unit lattices put many pairs at exactly the radius (axis
        /// neighbours, 3-4-5 triangles) and several nodes on one spot;
        /// uniform drops cover the rest. A NaN coordinate cannot be among
        /// them — `Deployment` refuses one — and `world::grid`'s own test
        /// pins that the comparison is false with one on either side.
        #[test]
        fn audible_is_membership_in_the_brute_force_neighbour_list(
            shape in 0u8..3,
            cells in prop::collection::vec((0u8..12, 0u8..12), 1..40),
            quarters in 1u32..13,
            loose_radius in 0.05..4.0f64,
            seed: u64,
            masked: bool,
        ) {
            let on_lattice = f64::from(quarters) * 0.25;
            let (field, radius) = match shape {
                0 => {
                    let (cols, rows) = (u32::from(cells[0].0) + 1, u32::from(cells[0].1) + 1);
                    (Deployment::grid(cols, rows, 0.5), on_lattice)
                }
                1 => {
                    let spots = cells
                        .iter()
                        .map(|&(x, y)| Point::new(f64::from(x) * 0.25, f64::from(y) * 0.25 - 1.0))
                        .collect();
                    (Deployment::from_positions(spots), on_lattice)
                }
                _ => {
                    let area = envirotrack_world::geometry::Aabb::new(
                        Point::new(-3.0, 0.0),
                        Point::new(3.0, 4.0),
                    );
                    let n = cells.len() as u32;
                    let mut rng = SimRng::seed_from(seed);
                    (Deployment::random_uniform(n, area, &mut rng), loose_radius)
                }
            };
            check_audibility(&field, radius, masked.then_some(seed));
        }
    }

    #[test]
    #[should_panic(expected = "another radius")]
    fn a_topology_for_another_radius_is_refused() {
        let topology = Arc::new(Topology::new(&line_deployment(3, 1.0), 1.5));
        let _ = Medium::with_topology(topology, lossless(2.5), &SimRng::seed_from(1));
    }

    #[test]
    fn epoch_latency_lower_bounds_every_frame() {
        let cfg = RadioConfig::default();
        // MICA defaults: a 25-byte minimum frame is 200 bits at 50 kb/s
        // (4 ms), plus the 2 ms receive-processing delay.
        assert_eq!(cfg.min_tx_airtime(), SimDuration::from_millis(4));
        assert_eq!(cfg.epoch_latency(), SimDuration::from_millis(6));
        // Any concrete frame takes at least the minimum airtime, so no
        // delivery can complete within the epoch window of its request.
        let empty = Frame::broadcast(NodeId(0), FrameKind(1), Bytes::new());
        assert_eq!(cfg.tx_time(&empty), cfg.min_tx_airtime());
        assert!(cfg.tx_time(&frame(1)) >= cfg.min_tx_airtime());
    }

    #[test]
    fn neighbor_lists_follow_the_disk() {
        let d = line_deployment(5, 1.0);
        let m = Medium::new(&d, lossless(1.5), &SimRng::seed_from(1));
        assert_eq!(m.links.topology.neighbors(NodeId(0)), [NodeId(1)]);
        assert_eq!(m.links.topology.neighbors(NodeId(2)), [NodeId(1), NodeId(3)]);
        assert!(m.links.audible(NodeId(0), NodeId(1)));
        assert!(!m.links.audible(NodeId(0), NodeId(2)));
    }

    #[test]
    fn clean_broadcast_reaches_all_neighbors() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let tx = m.transmit(Timestamp::ZERO, frame(1)).unwrap();
        assert!(tx.completes_at > Timestamp::ZERO);
        let report = m.deliveries(tx.id);
        let delivered: Vec<NodeId> = intact(&report).collect();
        assert_eq!(delivered, vec![NodeId(0), NodeId(2)]);
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.tx, 1);
        assert_eq!(ks.rx, 2);
        assert_eq!(ks.tx_lost, 0);
    }

    #[test]
    fn link_faults_garble_but_never_resize_the_charge() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(3));
        m.set_link_faults(Some(LinkFaults {
            flip_per_byte: 1.0, // every byte flips one bit: certain corruption
            truncate: 0.0,
            duplicate: 1.0,
            reorder: 0.0,
            reorder_max_delay: SimDuration::ZERO,
        }));
        let sent = frame(1);
        let pristine = sent.payload.to_vec();
        let charged_before = m.stats().kind(FrameKind(1)).bytes_on_air;
        assert_eq!(charged_before, 0);
        let tx = m.transmit(Timestamp::ZERO, sent).unwrap();
        let report = m.deliveries(tx.id);
        assert_ne!(report.frame.payload.to_vec(), pristine);
        assert!(!report.frame.payload_is_pristine());
        assert_eq!(report.frame.payload.len(), pristine.len());
        assert!(report.duplicated);
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.corrupted, 1);
        assert_eq!(ks.duplicated, 1);
        // Airtime was charged at transmit from the pristine wire length.
        assert_eq!(ks.bytes_on_air, (18 + 7 + 20) as u64);
    }

    #[test]
    fn truncation_shortens_the_payload_only() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(5));
        m.set_link_faults(Some(LinkFaults {
            flip_per_byte: 0.0,
            truncate: 1.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_max_delay: SimDuration::ZERO,
        }));
        let tx = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let report = m.deliveries(tx.id);
        assert!(report.frame.payload.len() < 20, "truncation must cut bytes");
        assert_eq!(report.frame.wire_len, 20, "charged length is pristine");
        assert!(!report.frame.payload_is_pristine());
        assert_eq!(m.stats().kind(FrameKind(1)).corrupted, 1);
    }

    #[test]
    fn reordering_delays_processing_but_not_airtime() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(7));
        let base = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let busy = m.stats().busy_time;
        let mut m2 = Medium::new(&d, lossless(5.0), &SimRng::seed_from(7));
        m2.set_link_faults(Some(LinkFaults {
            flip_per_byte: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 1.0,
            reorder_max_delay: SimDuration::from_millis(30),
        }));
        let delayed = m2.transmit(Timestamp::ZERO, frame(0)).unwrap();
        assert!(delayed.completes_at >= base.completes_at);
        assert_eq!(m2.stats().busy_time, busy, "channel occupancy unchanged");
        assert_eq!(m2.stats().kind(FrameKind(1)).reordered, 1);
        // The delayed report still resolves normally.
        let r = m2.deliveries(delayed.id);
        assert!(r.frame.payload_is_pristine());
    }

    #[test]
    fn fault_injection_leaves_other_rng_streams_untouched() {
        // Two media, same seed, one with an (impossible-to-fire) injector
        // installed: the delivery outcomes must be identical because faults
        // draw from their own forked stream.
        let d = line_deployment(8, 1.0);
        let mut cfg = lossless(3.0);
        cfg.base_loss = 0.4;
        let mut a = Medium::new(&d, cfg.clone(), &SimRng::seed_from(11));
        let mut b = Medium::new(&d, cfg, &SimRng::seed_from(11));
        b.set_link_faults(Some(LinkFaults {
            flip_per_byte: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_max_delay: SimDuration::ZERO,
        }));
        for src in 0..4u32 {
            let now = Timestamp::ZERO + SimDuration::from_millis(u64::from(src) * 50);
            let ta = a.transmit(now, frame(src)).unwrap();
            let tb = b.transmit(now, frame(src)).unwrap();
            assert_eq!(a.deliveries(ta.id).outcomes, b.deliveries(tb.id).outcomes);
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let cfg = RadioConfig::default();
        let f = frame(0);
        // (18 preamble + 7 header + 20 payload) * 8 bits / 50_000 bps = 7.2 ms
        assert_eq!(cfg.tx_time(&f), SimDuration::from_micros(7200));
    }

    #[test]
    fn hidden_terminal_collides_at_the_common_receiver() {
        // 0 --- 1 --- 2 with radius 1.5: 0 and 2 cannot hear each other.
        let d = line_deployment(3, 1.0);
        let mut cfg = lossless(1.5);
        cfg.csma = true; // CSMA cannot prevent hidden-terminal collisions
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(1));
        let t0 = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let t2 = m.transmit(Timestamp::ZERO, frame(2)).unwrap();
        let r0 = m.deliveries(t0.id);
        let r2 = m.deliveries(t2.id);
        assert_eq!(r0.outcomes, vec![(NodeId(1), DeliveryOutcome::Collided)]);
        assert_eq!(r2.outcomes, vec![(NodeId(1), DeliveryOutcome::Collided)]);
        assert_eq!(m.stats().kind(FrameKind(1)).tx_lost, 2);
    }

    #[test]
    fn csma_serialises_in_range_transmitters() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let t0 = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        // Node 2 hears node 0, so its send defers past t0's end.
        let t2 = m.transmit(Timestamp::ZERO, frame(2)).unwrap();
        assert!(t2.completes_at > t0.completes_at);
        let r0 = m.deliveries(t0.id);
        assert_eq!(
            intact(&r0).count(),
            2,
            "deferral must avoid the collision"
        );
        let r2 = m.deliveries(t2.id);
        assert_eq!(intact(&r2).count(), 2);
    }

    #[test]
    fn half_duplex_blocks_simultaneous_send_and_receive() {
        // Disable CSMA so both nodes transmit simultaneously.
        let d = line_deployment(2, 1.0);
        let mut cfg = lossless(5.0);
        cfg.csma = false;
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(1));
        let t0 = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let t1 = m.transmit(Timestamp::ZERO, frame(1)).unwrap();
        let r0 = m.deliveries(t0.id);
        let r1 = m.deliveries(t1.id);
        assert_eq!(r0.outcomes, vec![(NodeId(1), DeliveryOutcome::HalfDuplex)]);
        assert_eq!(r1.outcomes, vec![(NodeId(0), DeliveryOutcome::HalfDuplex)]);
    }

    #[test]
    fn saturation_drops_frames_past_the_defer_bound() {
        let d = line_deployment(2, 1.0);
        let mut cfg = lossless(5.0);
        cfg.max_defer = SimDuration::from_micros(10);
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(1));
        let _t0 = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let err = m.transmit(Timestamp::ZERO, frame(1)).unwrap_err();
        assert!(err.needed_defer > SimDuration::from_micros(10));
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.mac_dropped, 1);
        assert!(ks.tx_loss_ratio() > 0.0);
    }

    #[test]
    fn fading_loses_roughly_the_configured_fraction() {
        let d = line_deployment(2, 1.0);
        let cfg = RadioConfig::default()
            .with_comm_radius(5.0)
            .with_base_loss(0.2);
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(7));
        let mut now = Timestamp::ZERO;
        let mut delivered = 0u32;
        let trials = 2000;
        for _ in 0..trials {
            let tx = m.transmit(now, frame(0)).unwrap();
            now = tx.completes_at + SimDuration::from_millis(1);
            let r = m.deliveries(tx.id);
            delivered += intact(&r).count() as u32;
        }
        let rate = 1.0 - f64::from(delivered) / f64::from(trials);
        assert!((rate - 0.2).abs() < 0.04, "fade rate {rate}");
    }

    #[test]
    fn isolated_transmitter_counts_as_lost() {
        let d = line_deployment(2, 10.0); // out of range of each other
        let mut m = Medium::new(&d, lossless(1.0), &SimRng::seed_from(1));
        let tx = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let r = m.deliveries(tx.id);
        assert!(r.outcomes.is_empty());
        assert_eq!(m.stats().kind(FrameKind(1)).tx_lost, 1);
    }

    #[test]
    fn utilization_accumulates_bits() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let tx = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let _ = m.deliveries(tx.id);
        let bits = frame(0).on_air_bits();
        assert_eq!(m.stats().total_bits, bits);
        let util = m.stats().link_utilization(SimDuration::from_secs(1));
        assert!((util - bits as f64 / 50_000.0).abs() < 1e-12);
    }

    #[test]
    fn partition_severs_cross_group_links_and_counts_drops() {
        let d = line_deployment(4, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        // Nodes {0,1} vs {2,3}.
        m.set_partition(Some(vec![0, 0, 1, 1]));
        assert!(m.links.partitioned(NodeId(1), NodeId(2)));
        assert!(!m.links.partitioned(NodeId(0), NodeId(1)));
        let tx = m.transmit(Timestamp::ZERO, frame(1)).unwrap();
        let r = m.deliveries(tx.id);
        let delivered: Vec<NodeId> = intact(&r).collect();
        assert_eq!(delivered, vec![NodeId(0)]);
        assert!(r
            .outcomes
            .iter()
            .any(|(n, o)| *n == NodeId(2) && *o == DeliveryOutcome::PartitionDrop));
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.partition_dropped, 2);
        assert!(ks.pair_loss_ratio() > 0.0);

        // Healing restores the full broadcast.
        m.set_partition(None);
        let tx = m
            .transmit(Timestamp::from_secs(1), frame(1))
            .unwrap();
        assert_eq!(intact(&m.deliveries(tx.id)).count(), 3);
    }

    #[test]
    fn partition_blocks_carrier_sensing_across_the_cut() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        m.set_partition(Some(vec![0, 1]));
        let t0 = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        // Node 1 cannot hear node 0 across the cut, so it does not defer.
        let t1 = m.transmit(Timestamp::ZERO, frame(1)).unwrap();
        assert_eq!(t0.completes_at, t1.completes_at);
    }

    #[test]
    fn burst_loss_is_bursty_and_counted_separately() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(11));
        m.set_burst_loss(Some(GilbertElliott::default()));
        let mut now = Timestamp::ZERO;
        let mut lost_runs = Vec::new();
        let mut run = 0u32;
        let trials = 2000;
        for _ in 0..trials {
            let tx = m.transmit(now, frame(0)).unwrap();
            now = tx.completes_at + SimDuration::from_millis(1);
            let delivered = intact(&m.deliveries(tx.id)).count() == 1;
            if delivered {
                if run > 0 {
                    lost_runs.push(run);
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.faded, 0, "base loss is zero; only bursts may lose");
        assert!(ks.burst_faded > 100, "bursts must actually lose frames");
        // Burst losses cluster: mean lost-run length well above 1.
        let mean =
            f64::from(lost_runs.iter().sum::<u32>()) / lost_runs.len().max(1) as f64;
        assert!(mean > 1.5, "losses should be correlated, mean run {mean}");
        // Removing the model restores a clean channel.
        m.set_burst_loss(None);
        let before = m.stats().kind(FrameKind(1)).rx;
        for _ in 0..50 {
            let tx = m.transmit(now, frame(0)).unwrap();
            now = tx.completes_at + SimDuration::from_millis(1);
            let _ = m.deliveries(tx.id);
        }
        assert_eq!(m.stats().kind(FrameKind(1)).rx, before + 50);
    }

    #[test]
    fn steady_state_deliveries_allocate_exactly_one_outcome_buffer() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let mut now = Timestamp::ZERO;
        for _ in 0..200 {
            let tx = m.transmit(now, frame(1)).unwrap();
            now = tx.completes_at + SimDuration::from_millis(1);
            let report = m.deliveries(tx.id);
            assert_eq!(report.outcomes.len(), 2);
            m.recycle(report);
        }
        assert_eq!(
            m.outcome_buffer_allocs(),
            1,
            "200 recycled broadcasts must reuse a single buffer"
        );
    }

    #[test]
    fn an_early_walk_leaves_its_window_for_frames_still_to_come() {
        // Hidden terminals, with node 0's outcomes collected straight after
        // the send, as tests and probes do. Node 2 then sends while that
        // frame is still on the air, and must collide with it.
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(1.5), &SimRng::seed_from(1));
        let t0 = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let _ = m.deliveries(t0.id);
        let t2 = m.transmit(Timestamp::from_millis(1), frame(2)).unwrap();
        let r2 = m.deliveries(t2.id);
        assert_eq!(r2.outcomes, vec![(NodeId(1), DeliveryOutcome::Collided)]);
        // Once requests have moved past both frames, neither is kept.
        let t1 = m.transmit(Timestamp::from_secs(1), frame(1)).unwrap();
        let _ = m.deliveries(t1.id);
        assert_eq!(m.windows.len(), 1);
    }

    #[test]
    fn steady_traffic_keeps_window_work_flat() {
        // 500 tx/s: every 2 ms one of four mutually inaudible senders
        // (radius 1.5, five apart) starts a 7.2 ms frame, so four frames
        // share the air at any instant, nobody defers, and each walk falls
        // due 9.2 ms after its request.
        let d = line_deployment(20, 1.0);
        let mut m = Medium::new(&d, lossless(1.5), &SimRng::seed_from(1));
        let step = SimDuration::from_millis(2);
        let mut pending = std::collections::VecDeque::new();
        let mut calls = 0u64;
        // (retained windows, busy entries, visits, walks) after 1 s, 2 s,
        // 19 s and 20 s.
        let mut marks = Vec::new();
        for i in 0..10_000u64 {
            let now = Timestamp::ZERO + step * i;
            while pending
                .front()
                .is_some_and(|tx: &Transmission| tx.completes_at <= now)
            {
                let report = m.deliveries(pending.pop_front().unwrap().id);
                assert_eq!(intact(&report).count(), 2);
                m.recycle(report);
                calls += 1;
            }
            pending.push_back(m.transmit(now, frame((i % 4) as u32 * 5 + 2)).unwrap());
            if [499, 999, 9_499, 9_999].contains(&i) {
                let busy = m.tx.as_ref().unwrap().busy.len();
                marks.push((m.windows.len(), busy, m.window_visits(), calls));
            }
        }
        let (retained, busy, ..) = marks[1];
        // Four on the air, at most five awaiting their walk; the 250 ms
        // defer span would be another 125.
        assert!(retained <= 4 + 5, "retained {retained} windows");
        assert!(busy <= 4, "{busy} busy entries");
        assert_eq!((marks[3].0, marks[3].1), (retained, busy));
        // The second second and the twentieth cost the same: what one walk
        // costs does not depend on how much was sent before it. It scans the
        // retained windows once and tests its two receivers against the six
        // frames that overlapped it at some point.
        let (visits, walks) = (marks[1].2 - marks[0].2, marks[1].3 - marks[0].3);
        assert_eq!(walks, 500);
        assert_eq!(
            (marks[3].2 - marks[2].2, marks[3].3 - marks[2].3),
            (visits, walks)
        );
        assert!(
            visits <= walks * ((4 + 5) + 2 * 6),
            "{visits} visits in {walks} walks"
        );
    }

    #[test]
    fn zero_receiver_deliveries_never_build_a_receiver_list() {
        // Two nodes far out of range: every broadcast lands on nobody.
        let d = line_deployment(2, 10.0);
        let mut m = Medium::new(&d, lossless(1.0), &SimRng::seed_from(1));
        let mut now = Timestamp::ZERO;
        for _ in 0..50 {
            let tx = m.transmit(now, frame(0)).unwrap();
            now = tx.completes_at + SimDuration::from_millis(1);
            let report = m.deliveries(tx.id);
            assert!(report.outcomes.is_empty());
            assert_eq!(
                report.outcomes.capacity(),
                0,
                "the zero-receiver path must not reserve heap space"
            );
            m.recycle(report);
        }
        assert_eq!(m.outcome_buffer_allocs(), 1);
    }

    #[test]
    fn delivery_log_records_intact_pairs_only() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        m.set_delivery_log(true);
        m.set_partition(Some(vec![0, 0, 1]));
        let tx = m.transmit(Timestamp::ZERO, frame(1)).unwrap();
        let _ = m.deliveries(tx.id);
        let log = m.take_delivery_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].1, log[0].2), (NodeId(1), NodeId(0)));
        assert!(m.take_delivery_log().is_empty(), "drain empties the log");
    }

    #[test]
    fn finalize_lost_needs_a_shard_delivery_to_clear() {
        let d = line_deployment(2, 1.0);
        let mut sched = ChannelScheduler::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let _a = sched.resolve(Timestamp::ZERO, 0, frame(0)).unwrap();
        let b = sched.resolve(Timestamp::from_secs(1), 1, frame(1)).unwrap();
        assert_eq!(sched.pending.len(), 2);
        let mut delivered = HashSet::new();
        delivered.insert(b.key());
        let done = sched.finalize_lost(Timestamp::from_secs(2), &delivered);
        assert_eq!(done.len(), 2);
        assert_eq!(sched.pending.len(), 0);
        let ks = sched.stats().kind(FrameKind(1));
        assert_eq!(ks.tx_lost, 1, "only the undelivered transmission is lost");
    }

    #[test]
    fn executor_outcomes_ignore_unrouted_traffic_and_ownership() {
        // A full replica and a subset executor (owning only nodes 0..=2,
        // routed only node 1's traffic) must agree byte-for-byte on every
        // owned outcome — the invariant partitioned routing rests on —
        // with fading and burst chains both active.
        let d = line_deployment(6, 1.0);
        let mut cfg = lossless(1.5);
        cfg.base_loss = 0.4;
        let rng = SimRng::seed_from(11);
        let mut sched = ChannelScheduler::new(&d, cfg.clone(), &rng);
        let mut full = Medium::new(&d, cfg.clone(), &rng);
        full.enable_shard_exec(vec![true; 6]);
        let mut sub = Medium::new(&d, cfg, &rng);
        sub.enable_shard_exec(vec![true, true, true, false, false, false]);
        full.set_burst_loss(Some(GilbertElliott::default()));
        sub.set_burst_loss(Some(GilbertElliott::default()));
        let mut now = Timestamp::ZERO;
        let mut seq = 0u64;
        for _ in 0..50 {
            let a = sched.resolve(now, seq, frame(1)).unwrap();
            seq += 1;
            let b = sched
                .resolve(now + SimDuration::from_millis(10), seq, frame(4))
                .unwrap();
            seq += 1;
            let (fa, _) = full.ingest_resolved(a.clone());
            let (fb, _) = full.ingest_resolved(b);
            let (sa, _) = sub.ingest_resolved(a);
            let rf = full.exec_deliveries(fa);
            let _ = full.exec_deliveries(fb);
            let rs = sub.exec_deliveries(sa);
            let full_owned: Vec<_> = rf
                .outcomes
                .iter()
                .filter(|(n, _)| n.0 <= 2)
                .copied()
                .collect();
            assert_eq!(full_owned, rs.outcomes);
            now += SimDuration::from_millis(20);
        }
        // Both loss models actually fired, so the pin is not vacuous.
        let ks = full.stats().kind(FrameKind(1));
        assert!(ks.faded > 0, "fades must bite");
        assert!(ks.burst_faded > 0, "burst chains must bite");
    }

    #[test]
    #[should_panic(expected = "transmit needs the inline transmit side")]
    fn enable_shard_exec_drops_the_inline_transmit_side() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        m.enable_shard_exec(vec![true, true]);
        let _ = m.transmit(Timestamp::ZERO, frame(0));
    }

    #[test]
    #[should_panic(expected = "unknown or already-resolved")]
    fn double_delivery_is_a_bug() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let tx = m.transmit(Timestamp::ZERO, frame(0)).unwrap();
        let _ = m.deliveries(tx.id);
        // Push time far enough that pruning discards the record.
        let _ = m.transmit(Timestamp::from_secs(100), frame(0)).unwrap();
        let _ = m.deliveries(tx.id);
    }
}
