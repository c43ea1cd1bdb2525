//! Trace records against the reference renderer (`support/trace.rs`): for
//! every trace site, with labels and variable names that need JSON escapes
//! or look like template holes, and with arguments up to `u32::MAX`, the
//! JSONL export and the rendered lines are byte for byte what the
//! middleware wrote when each record carried its formatted detail.

#[path = "support/trace.rs"]
mod reference;

use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::trace::SITES;
use envirotrack_telemetry::Telemetry;
use testkit::prelude::*;

/// Arguments biased toward the edges: zero, small, and `u32::MAX`.
fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        0u32..1000,
        Just(u32::MAX - 1),
        Just(u32::MAX),
        any::<u32>(),
    ]
}

/// What a JSON string must escape, braces that read like a template's
/// holes, and multi-byte characters.
const PALETTE: [char; 18] = [
    'a', 'Z', '0', '#', '@', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '→', '{',
    '}', 's',
];

fn arb_text() -> impl Strategy<Value = String> {
    let picks = prop::collection::vec(0..PALETTE.len(), 0..12);
    picks.prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// One record as its call site was given it: the site, when and where,
/// the label's display form, the numbers in the order the site names them
/// and its string argument (unused by most sites).
#[derive(Debug, Clone)]
struct Given {
    site: usize,
    at_us: u64,
    node: u32,
    label: String,
    numbers: [u32; 3],
    text: String,
}

fn arb_given() -> impl Strategy<Value = Given> {
    let numbers = (arb_u32(), arb_u32(), arb_u32());
    let drawn = (
        0..SITES.len(),
        any::<u64>(),
        arb_u32(),
        arb_text(),
        numbers,
        arb_text(),
    );
    drawn.prop_map(|(site, at_us, node, label, (a, b, c), text)| Given {
        site,
        at_us,
        node,
        label,
        numbers: [a, b, c],
        text,
    })
}

/// Appends `given` the way every call site does: the site's holes, in
/// order, take the string's interned id (`{s}`) or the next number (`{}`).
fn append(t: &Telemetry, given: &Given) {
    let site = SITES[given.site];
    let mut numbers = given.numbers.into_iter();
    let mut args = [0; 3];
    let holes = site
        .detail()
        .match_indices('{')
        .map(|(at, _)| &site.detail()[at..]);
    for (arg, hole) in args.iter_mut().zip(holes) {
        *arg = if hole.starts_with("{s}") {
            t.intern(&given.text)
        } else {
            numbers.next().expect("at most three numbers")
        };
    }
    t.trace(given.at_us, given.node, t.intern(&given.label), site, args);
}

/// The reference's JSON line and rendered line for `given`.
fn expected(given: &Given) -> (String, String) {
    let kind = SITES[given.site].kind();
    let detail = reference::detail(kind, given.numbers, &given.text);
    let (at, node, label) = (given.at_us, given.node, given.label.as_str());
    (
        reference::json_line(at, node, label, kind, &detail),
        reference::rendered(at, node, label, kind, &detail),
    )
}

/// Appends every record of `given` to a fresh registry and holds its
/// export, its rendered tail and the first label's tail to the reference.
fn check(given: &[Given]) {
    let t = Telemetry::new();
    let (mut jsonl, mut lines) = (String::new(), Vec::new());
    for g in given {
        append(&t, g);
        let (json, line) = expected(g);
        jsonl.push_str(&json);
        jsonl.push('\n');
        lines.push(line);
    }
    assert_eq!(telemetry_to_jsonl(&t), jsonl);
    assert_eq!(t.last_events(given.len()), lines);
    let first = &given[0].label;
    let same_label = given.iter().zip(&lines).filter(|(g, _)| &g.label == first);
    let tail: Vec<String> = same_label.map(|(_, line)| line.clone()).collect();
    assert_eq!(t.events_for_label(first, given.len()), tail);
}

/// Every site, at the edges: all numbers `u32::MAX`, a label and a string
/// that need escaping.
#[test]
fn every_site_renders_as_its_call_site_formatted() {
    let given: Vec<Given> = (0..SITES.len())
        .map(|site| Given {
            site,
            at_us: u64::MAX,
            node: u32::MAX,
            label: "type0@n3#1 \"quoted\"\n".to_owned(),
            numbers: [u32::MAX; 3],
            text: "loc\\ation {s} {}\u{1}".to_owned(),
        })
        .collect();
    check(&given);
}

prop_test! {
    #[test]
    fn records_export_and_render_as_their_call_sites_formatted(
        given in prop::collection::vec(arb_given(), 1..12)
    ) {
        check(&given);
    }
}
