#!/usr/bin/env bash
# Tier-1 verification, run before recording a change in CHANGES.md.
#
# The workspace is hermetic: every dependency lives in crates/, so both
# steps run with --offline and must succeed with networking disabled.
# TESTKIT_CASES / TESTKIT_SEED (see crates/testkit) can be exported first
# to broaden or pin the property suites.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy -q --workspace --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

# File-size gate: `SensorNetwork` is split into one file per layer under
# crates/core/src/network/ and the group machine into one file per role
# under crates/core/src/group/; no file of the crate may grow past 900
# non-test lines.
find crates/core/src -name '*.rs' | xargs scripts/loc.sh | awk '
  NR > 1 && $1 != "total" && $2 > 900 { print "verify: " $1 " has " $2 " code lines (limit 900)"; bad = 1 }
  END { exit bad }' >&2
# The channel's one file holds at what it was when audibility became
# arithmetic (PR 23); what it needs of the topology lives in world::grid.
scripts/loc.sh crates/net/src/medium.rs | awk '
  NR > 1 && $2 > 1416 { print "verify: " $1 " has " $2 " code lines (limit 1416)"; exit 1 }' >&2

# Settable-value gate: every public field of the config structs is set by
# something other than its own `Default`, bar the two deployment settings
# scripts/knobs.sh allow-lists with their reason.
scripts/knobs.sh >&2 \
  || { echo "verify: a config field is written by nothing but its default" >&2; exit 1; }

# Public-surface gate: every `pub` item and re-export of a library is named
# by something outside that library, or is a type a public signature has to
# mention, bar the entries scripts/pubs.sh allow-lists with their reason.
# What it lists becomes `pub(crate)`, and then the clippy pass above says
# whether anything uses it at all.
scripts/pubs.sh >&2 \
  || { echo "verify: a pub item is used by nothing outside its own crate" >&2; exit 1; }

# One-wire-format gate: the names of the removed run-time codec choice
# stay gone. (The JSON reference codec lives in crates/core/tests/support/,
# where the compiler keeps library code from calling it.)
if git grep -n 'WireCodec\|with_wire_len\|encode_with\|decode_with' -- '*.rs' >&2; then
  echo "verify: the run-time codec choice is back" >&2; exit 1
fi

# Chaos smoke: randomized fault plans (crashes, reboots, partitions, burst
# loss, clock skew) must leave every invariant intact. CHAOS_CASES scales
# the sweep; the workspace pass above already ran it at the testkit
# default, so this re-runs wider.
TESTKIT_CASES="${CHAOS_CASES:-128}" \
  cargo test -q --offline -p envirotrack-chaos --test chaos \
  -- random_fault_plans_never_break_invariants

# Queue smoke: the event list against its reference model (a Vec scanned
# for its minimum) under random interleavings of push, in-order and
# out-of-order recurring push, keyed push, cancel, pop, due-pop, peek and
# clear, re-run here by name at 512 cases unless TESTKIT_CASES is exported
# (its lane holds a narrower item than its heap, as the engine's does). So
# does the property behind the inline timer events: every node, type, timer
# and token comes back out of the two words it rides the heap in.
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-sim --test prop \
  -- queue_matches_reference_model
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-core --lib \
  -- a_group_timer_survives_its_words

# Sense smoke: the sensing driver keeps a tick out of a quiescent node's
# group machines when the reading does not activate the type; the property
# that licenses it (such a machine answers nothing and changes nothing,
# over random walks through every role) re-runs here by name at 512 cases
# unless TESTKIT_CASES is exported. So does the property that licenses the
# driver's sample through the coverage: bit for bit and draw for draw what
# the walk over every target returns.
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-core --lib \
  -- quiescent_machine_ignores_a_reading_that_does_not_activate
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-world --test prop \
  -- covered_sample_is_bit_identical_to_the_walk

# Telemetry smoke: the flagship storm must emit the summary table and a
# non-empty trace, byte-identically across two runs of the same seed.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release --offline --example telemetry_summary > "$tmp/a.txt"
cargo run -q --release --offline --example telemetry_summary > "$tmp/b.txt"
diff "$tmp/a.txt" "$tmp/b.txt" \
  || { echo "verify: telemetry output is not seed-stable" >&2; exit 1; }
grep -q "== telemetry summary ==" "$tmp/a.txt" \
  || { echo "verify: telemetry summary table missing" >&2; exit 1; }
grep -q "trace stream: [1-9][0-9]* JSON lines" "$tmp/a.txt" \
  || { echo "verify: telemetry trace is empty" >&2; exit 1; }

# Sweep smoke: the parallel sweep engine must merge byte-identically at
# any worker count — 2 workers over 8 cells against the 1-worker golden.
./target/release/sweep --workers 1 --cells 8 --seed 1 --out "$tmp/sweep1.jsonl"
./target/release/sweep --workers 2 --cells 8 --seed 1 --out "$tmp/sweep2.jsonl"
cmp -s "$tmp/sweep1.jsonl" "$tmp/sweep2.jsonl" \
  || { echo "verify: sweep output depends on worker count" >&2; exit 1; }
[ "$(wc -l < "$tmp/sweep1.jsonl")" -eq 8 ] \
  || { echo "verify: sweep smoke expected 8 merged cells" >&2; exit 1; }

# Scale smoke: a 1k-node field must run bounded (2 s virtual horizon) and
# emit a BENCH_scale.json with every schema section present — both in the
# fresh smoke output and in the checked-in trajectory.
./target/release/scale --smoke --out "$tmp/scale.json"
for f in "$tmp/scale.json" BENCH_scale.json; do
  for key in '"bench":"scale"' '"construction":' '"speedup":' '"results":' \
             '"events_per_sec":' '"sweep":' '"merged_outputs_identical":true' \
             '"bytes_on_air":' '"sense_ticks":' '"sense_ticks_admitted":' \
             '"samples_covered":' '"samples_walked":' '"coverage_rebuilds":' \
             '"lane_pops":' '"heap_pops":' '"inline_events":' '"boxed_events":' \
             '"shards":' '"speedup_vs_first":' '"byte_identical":true' \
             '"medium":' '"replayed_intents":' '"full_replay_intents":' \
             '"medium":"partitioned"' '"medium":"replicated"'; do
    grep -q "$key" "$f" \
      || { echo "verify: $f is missing $key" >&2; exit 1; }
  done
done

# Soak smoke: a short layered-fault run (corruption + burst loss +
# partition/heal + crash/reboot) must pass every acceptance claim — zero
# invariant violations, zero corrupt frames accepted, replicas agreed —
# with the schema keys present, and a second invocation at the same seed
# must reproduce the JSON byte-for-byte. The checked-in flagship
# BENCH_soak.json must carry the same green claims.
./target/release/soak --smoke --seed 1 --out "$tmp/soak.json" \
  || { echo "verify: soak smoke failed" >&2; exit 1; }
./target/release/soak --smoke --seed 1 --out "$tmp/soak_replay.json" \
  || { echo "verify: soak smoke replay failed" >&2; exit 1; }
cmp -s "$tmp/soak.json" "$tmp/soak_replay.json" \
  || { echo "verify: soak output is not seed-stable" >&2; exit 1; }
for f in "$tmp/soak.json" BENCH_soak.json; do
  for key in '"bench":"soak"' '"passed":true' '"violations":0' \
             '"corrupt_accepted":0' '"replicas_agree":true' '"gossip_tx":' \
             '"gossip_repairs":' '"corrupt_dropped":' '"record":'; do
    grep -q "$key" "$f" \
      || { echo "verify: $f is missing $key" >&2; exit 1; }
  done
done

# Shard smoke: the same 1k-node field advanced by the lock-step sharded
# kernel (core::shard) at 1 and 4 shards must produce a byte-identical
# merged run record + telemetry stream — the shard count is an execution
# knob, never a behavior knob.
./target/release/scale --smoke --shards 1 --crosscheck "$tmp/shard1.jsonl"
./target/release/scale --smoke --shards 4 --crosscheck "$tmp/shard4.jsonl"
cmp -s "$tmp/shard1.jsonl" "$tmp/shard4.jsonl" \
  || { echo "verify: simulation output depends on the shard count" >&2; exit 1; }
grep -q "net.k1.tx" "$tmp/shard1.jsonl" \
  || { echo "verify: shard cross-check saw no protocol traffic" >&2; exit 1; }
grep -q "shard.intents.tail_dropped" "$tmp/shard1.jsonl" \
  || { echo "verify: shard cross-check is missing the tail-intent accounting" >&2; exit 1; }

# Medium smoke: the channel is one pipeline. An inline medium and a
# stand-alone scheduler feeding executor media that split the nodes 1/2/4
# ways must agree on every outcome of a random schedule, and all of them
# with the brute-force oracle that keeps every window, over schedules long
# enough to prune (both re-run here by name at 512 cases unless
# TESTKIT_CASES is exported, with the long-slip regression). Who hears whom
# is a distance comparison, and must be membership in the brute-force
# neighbour list for every ordered pair, masked or not (same 512). And
# interest-routed (partitioned) delivery at 2 shards must be byte-identical
# to the full-replay (replicated) medium on the same field — routing
# decides who ingests a transmission, never what anyone observes.
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-net --test prop \
  -- inline_medium_equals_scheduler_plus_executors \
     bounded_windows_equal_the_full_backlog_oracle \
     slipped_transmission_still_sees_its_collision
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-net --lib \
  -- audible_is_membership_in_the_brute_force_neighbour_list
./target/release/scale --smoke --shards 2 --medium replicated --crosscheck "$tmp/med_rep.jsonl"
./target/release/scale --smoke --shards 2 --medium partitioned --crosscheck "$tmp/med_part.jsonl"
cmp -s "$tmp/med_rep.jsonl" "$tmp/med_part.jsonl" \
  || { echo "verify: simulation output depends on the medium routing mode" >&2; exit 1; }
grep -q "net.k1.tx" "$tmp/med_part.jsonl" \
  || { echo "verify: medium cross-check saw no protocol traffic" >&2; exit 1; }

# Serve smoke: a ~5 s happy-path mini-storm against the session server —
# 560 concurrent sessions ramped, held streaming, and closed cleanly over
# real TCP loopback. The smoke profile runs no hostile clients, so every
# protocol-error counter must be zero; the checked-in flagship
# BENCH_serve.json (which does storm the server) must carry the same
# corrupt-accepted/panic/passed claims plus its storm-phase evidence.
./target/release/serve_storm --smoke --out "$tmp/serve.json" \
  || { echo "verify: serve smoke failed" >&2; exit 1; }
# The hub → socket stage counters, in both files; their wall-clock values
# are advisory, but every event sent went out in exactly one hand-off.
serve_stage_keys=('"host_cpus":' '"events_sent":' '"hub_ticks":' '"hub_ticks_late":' \
                  '"hub_tick_work_p50_us":' '"hub_tick_work_p95_us":' \
                  '"outbox_handoffs":' '"batch_frames_total":' '"batch_frames_max":' \
                  '"worker_writes":' '"worker_write_bytes":')
for key in '"bench":"serve"' '"passed":true' '"corrupt_accepted":0' \
           '"protocol_errors":0' '"client_errors":0' '"panics":0' \
           '"connects_per_s":' '"query_ack_p50_us":' '"query_ack_p95_us":' \
           '"query_ack_p99_us":' '"fairness_jain":' "${serve_stage_keys[@]}"; do
  grep -q "$key" "$tmp/serve.json" \
    || { echo "verify: $tmp/serve.json is missing $key" >&2; exit 1; }
done
for key in '"bench":"serve"' '"mode":"flagship"' '"passed":true' \
           '"corrupt_accepted":0' '"client_errors":0' '"panics":0' \
           '"connects_per_s":' '"query_ack_p50_us":' '"query_ack_p95_us":' \
           '"query_ack_p99_us":' '"fairness_jain":' "${serve_stage_keys[@]}"; do
  grep -q "$key" BENCH_serve.json \
    || { echo "verify: BENCH_serve.json is missing $key" >&2; exit 1; }
done
for f in "$tmp/serve.json" BENCH_serve.json; do
  sent="$(sed -n 's/.*"events_sent":\([0-9]*\).*/\1/p' "$f")"
  batched="$(sed -n 's/.*"batch_frames_total":\([0-9]*\).*/\1/p' "$f")"
  [ -n "$sent" ] && [ "$sent" = "$batched" ] \
    || { echo "verify: $f: events_sent ($sent) != frames over all hand-offs ($batched)" >&2; exit 1; }
done

echo "verify: OK"
