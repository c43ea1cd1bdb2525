//! The trace sites: every kind of record the middleware appends to the
//! telemetry trace, with the template its arguments fill (DESIGN.md §9).
//!
//! A `{}` hole is a number and a `{s}` hole an interned string (a label's
//! display form, an aggregate variable's name); a node is written `n{}`.
//! A record carries numbers and ids only, so its text is made when the
//! trace is read, never when it is written.

use envirotrack_telemetry::TraceSite;

/// A label was minted.
pub(crate) static GROUP_FORM: TraceSite = TraceSite::new("group.form", "");
/// A leader announced its label: the announcement's sequence and weight.
pub(crate) static GROUP_HB: TraceSite = TraceSite::new("group.hb", "seq={} weight={}");
/// A node joined a group, under the leader and weight it heard.
pub(crate) static GROUP_JOIN: TraceSite = TraceSite::new("group.join", "leader=n{} weight={}");
/// Leadership handed over by a leader that relinquished it.
pub(crate) static GROUP_RELINQUISH: TraceSite =
    TraceSite::new("group.relinquish", "from=n{} to=n{}");
/// Leadership taken over after the receive timer expired.
pub(crate) static GROUP_TAKEOVER: TraceSite = TraceSite::new("group.takeover", "from=n{} to=n{}");
/// Leadership yielded to a duplicate leader of the same label.
pub(crate) static GROUP_YIELD: TraceSite = TraceSite::new("group.yield", "from=n{} to=n{}");
/// A spurious label lost to a heavier one in earshot: the winner.
pub(crate) static GROUP_SUPPRESS: TraceSite = TraceSite::new("group.suppress", "winner={s}");
/// A label ended with its final leader.
pub(crate) static GROUP_DISSOLVE: TraceSite = TraceSite::new("group.dissolve", "");
/// An aggregate read met its critical mass: the variable, the contributors.
pub(crate) static AGG_VALID: TraceSite = TraceSite::new("agg.valid", "var={s} contributors={}");
/// An aggregate read fell short: the variable, what it had and needed.
pub(crate) static AGG_NULL: TraceSite = TraceSite::new("agg.null", "var={s} have={} need={}");
/// An MTP segment was sent: its end-to-end sequence.
pub(crate) static MTP_SEND: TraceSite = TraceSite::new("mtp.send", "seq={}");
/// An MTP segment was sent again: its sequence and attempt.
pub(crate) static MTP_RETX: TraceSite = TraceSite::new("mtp.retx", "seq={} attempt={}");
/// An MTP segment was acknowledged end to end, by the node named.
pub(crate) static MTP_ACK: TraceSite = TraceSite::new("mtp.ack", "seq={} acker=n{}");
/// An MTP segment reached its object after this many forwarding hops.
pub(crate) static MTP_DELIVERED: TraceSite = TraceSite::new("mtp.delivered", "chain_hops={}");
/// An MTP segment died.
pub(crate) static MTP_DROP: TraceSite = TraceSite::new("mtp.drop", "");
/// A directory home stored a label's registration.
pub(crate) static DIR_REGISTER: TraceSite = TraceSite::new("dir.register", "");
/// A directory home answered a query: its id and the entries found.
pub(crate) static DIR_QUERY: TraceSite = TraceSite::new("dir.query", "id={} hits={}");
/// A replica adopted entries from a peer's digest: the peer, the count.
pub(crate) static DIR_GOSSIP_REPAIR: TraceSite =
    TraceSite::new("dir.gossip.repair", "from=n{} repaired={}");

/// Every site, in the order above.
pub static SITES: [&TraceSite; 18] = [
    &GROUP_FORM,
    &GROUP_HB,
    &GROUP_JOIN,
    &GROUP_RELINQUISH,
    &GROUP_TAKEOVER,
    &GROUP_YIELD,
    &GROUP_SUPPRESS,
    &GROUP_DISSOLVE,
    &AGG_VALID,
    &AGG_NULL,
    &MTP_SEND,
    &MTP_RETX,
    &MTP_ACK,
    &MTP_DELIVERED,
    &MTP_DROP,
    &DIR_REGISTER,
    &DIR_QUERY,
    &DIR_GOSSIP_REPAIR,
];

/// A count as a record argument. Counts here are table sizes and group
/// sizes, far below `u32::MAX`; one past it would read as `u32::MAX`.
pub(crate) fn count(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}
