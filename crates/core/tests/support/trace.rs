//! The reference renderer: the text of a trace record as the middleware
//! made it when a record carried a formatted detail string.
//!
//! Each trace site's `format!` is kept here as its call site wrote it,
//! taking the numbers it was given in the order it named them and its one
//! string (a label's display form, an aggregate variable's name). The JSON
//! line is built field by field with `JsonObject`, and the rendered line is
//! the old `TraceEvent::render`. None of it is library code: the
//! `trace_oracle` suite includes this file as a module and holds the
//! records' export and rendering to it, byte for byte.

use envirotrack_core::report::json::JsonObject;

/// The detail the call site of `kind` formatted from its `numbers` and its
/// string `text`.
///
/// # Panics
///
/// On a kind no call site traces.
pub fn detail(kind: &str, numbers: [u32; 3], text: &str) -> String {
    let [a, b, _] = numbers;
    match kind {
        "group.form" | "group.dissolve" | "mtp.drop" | "dir.register" => String::new(),
        "group.hb" => format!("seq={a} weight={b}"),
        "group.join" => format!("leader=n{a} weight={b}"),
        "group.relinquish" | "group.takeover" | "group.yield" => format!("from=n{a} to=n{b}"),
        "group.suppress" => format!("winner={text}"),
        "agg.valid" => format!("var={text} contributors={a}"),
        "agg.null" => format!("var={text} have={a} need={b}"),
        "mtp.send" => format!("seq={a}"),
        "mtp.retx" => format!("seq={a} attempt={b}"),
        "mtp.ack" => format!("seq={a} acker=n{b}"),
        "mtp.delivered" => format!("chain_hops={a}"),
        "dir.query" => format!("id={a} hits={b}"),
        "dir.gossip.repair" => format!("from=n{a} repaired={b}"),
        other => panic!("no call site traces {other:?}"),
    }
}

/// One trace record's line of `telemetry_to_jsonl`, without its newline.
pub fn json_line(at_us: u64, node: u32, label: &str, kind: &str, detail: &str) -> String {
    JsonObject::new()
        .field_str("t", "trace")
        .field_u64("at_us", at_us)
        .field_u64("node", u64::from(node))
        .field_str("label", label)
        .field_str("kind", kind)
        .field_str("detail", detail)
        .finish()
}

/// One trace record as `last_events` and `events_for_label` render it.
pub fn rendered(at_us: u64, node: u32, label: &str, kind: &str, detail: &str) -> String {
    format!("{at_us}us n{node} [{label}] {kind} {detail}")
}
