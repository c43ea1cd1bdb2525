//! A group timer as the two words an inline kernel event carries
//! ([`Kernel::schedule_inline_at`](envirotrack_sim::engine::Kernel::schedule_inline_at)).
//!
//! The first word is `node · type id · timer code` — 32, 16 and 16 bits,
//! which is all of a [`NodeId`], all of a [`ContextTypeId`] and a code that
//! numbers the five fixed timers 0 – 4 and `Method(i)` as `5 + i`. The second
//! is the [`TimerToken`]. Every field is converted with a checked
//! conversion: the only value that does not fit is a method index past
//! [`MAX_TIMER_METHODS`], and [`ProgramBuilder::build`](crate::api::ProgramBuilder::build)
//! rejects a program that declares one, so it never reaches a network.

use envirotrack_node::timer::TimerToken;
use envirotrack_world::field::NodeId;

use crate::context::ContextTypeId;
use crate::group::GroupTimer;

/// Code of `Method(0)`; the fixed timers take the codes below it.
const FIRST_METHOD: u16 = 5;

/// How many time-triggered methods one context type may declare: as many as
/// there are 16-bit timer codes left for them.
pub(crate) const MAX_TIMER_METHODS: usize = (u16::MAX - FIRST_METHOD) as usize + 1;

/// The words for `node`'s timer `key` of type `tid`, armed under `token`.
///
/// # Panics
///
/// Panics on a method index past [`MAX_TIMER_METHODS`], which no built
/// [`Program`](crate::api::Program) has.
pub(super) fn pack(
    node: NodeId,
    tid: ContextTypeId,
    key: GroupTimer,
    token: TimerToken,
) -> [u64; 2] {
    let code = match key {
        GroupTimer::Heartbeat => 0,
        GroupTimer::Receive => 1,
        GroupTimer::Report => 2,
        GroupTimer::Formation => 3,
        GroupTimer::Directory => 4,
        GroupTimer::Method(i) => u16::try_from(i)
            .ok()
            .and_then(|i| i.checked_add(FIRST_METHOD))
            .expect("a built program keeps each type within MAX_TIMER_METHODS"),
    };
    let head = u64::from(node.0) << 32 | u64::from(tid.0) << 16 | u64::from(code);
    [head, token.raw()]
}

/// What [`pack`] was given.
pub(super) fn unpack([head, token]: [u64; 2]) -> (NodeId, ContextTypeId, GroupTimer, TimerToken) {
    // Truncating casts, each to the width its field was shifted in at.
    let (node, tid, code) = ((head >> 32) as u32, (head >> 16) as u16, head as u16);
    let key = match code {
        0 => GroupTimer::Heartbeat,
        1 => GroupTimer::Receive,
        2 => GroupTimer::Report,
        3 => GroupTimer::Formation,
        4 => GroupTimer::Directory,
        method => GroupTimer::Method(usize::from(method - FIRST_METHOD)),
    };
    (
        NodeId(node),
        ContextTypeId(tid),
        key,
        TimerToken::from_raw(token),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Program, ProgramError};
    use envirotrack_sim::time::SimDuration;
    use testkit::prelude::*;

    const LAST_METHOD: usize = MAX_TIMER_METHODS - 1;

    prop_test! {
        /// Every node, type, timer and token comes back out of the words it
        /// went into — the extremes of each field among them, so a field
        /// that spilled into its neighbour's bits would show.
        #[test]
        fn a_group_timer_survives_its_words(
            node in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            tid in prop_oneof![Just(0u16), Just(u16::MAX), any::<u16>()],
            timer in 0usize..8,
            method in prop_oneof![Just(0usize), Just(LAST_METHOD), 0..MAX_TIMER_METHODS],
            token in prop_oneof![Just(1u64), Just(u64::MAX), any::<u64>()],
        ) {
            let key = match timer {
                0 => GroupTimer::Heartbeat,
                1 => GroupTimer::Receive,
                2 => GroupTimer::Report,
                3 => GroupTimer::Formation,
                4 => GroupTimer::Directory,
                _ => GroupTimer::Method(method),
            };
            let went_in = (NodeId(node), ContextTypeId(tid), key, TimerToken::from_raw(token));
            let words = pack(went_in.0, went_in.1, went_in.2, went_in.3);
            prop_assert_eq!(unpack(words), went_in);
            prop_assert_eq!(words[1], token);
        }
    }

    #[test]
    #[should_panic(expected = "within MAX_TIMER_METHODS")]
    fn a_method_past_the_bound_is_refused_not_truncated() {
        let past = GroupTimer::Method(MAX_TIMER_METHODS);
        let _ = pack(NodeId(0), ContextTypeId(0), past, TimerToken::from_raw(1));
    }

    /// A context type with `timers` time-triggered methods, split over two
    /// objects: the bound is on the type's flattened list.
    fn program_with(timers: usize) -> Result<Program, ProgramError> {
        let period = SimDuration::from_secs(1);
        Program::builder()
            .context("busy", |c| {
                c.object("first", |o| o.on_timer("tick", period, |_| {}))
                    .object("rest", |mut o| {
                        for i in 1..timers {
                            o = o.on_timer(format!("t{i}"), period, |_| {});
                        }
                        o
                    })
            })
            .build()
    }

    #[test]
    fn a_program_builds_at_the_method_bound_and_not_one_past_it() {
        assert!(program_with(MAX_TIMER_METHODS).is_ok());
        let refused = program_with(MAX_TIMER_METHODS + 1).unwrap_err();
        let expected = ProgramError::TooManyTimerMethods {
            context: "busy".into(),
            count: MAX_TIMER_METHODS + 1,
            max: MAX_TIMER_METHODS,
        };
        assert_eq!(refused, expected);
        assert!(refused.to_string().contains("65531"), "{refused}");
    }
}
