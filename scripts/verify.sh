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
cargo clippy -q --workspace --all-targets --offline -- -D warnings
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

# One-client gate: the session protocol's client side is serve::client::Conn,
# and the non-blocking socket pump is serve::frame::FramedSocket. A frame
# reader or a non-blocking socket anywhere else is a second client. The
# benchmark's serve_fanout load generator keeps its own copy until a
# change to the benchmark moves it onto Conn.
if git grep -n 'FrameReader::new(\|\.set_nonblocking(' -- '*.rs' \
     ':!crates/serve/src/' ':!crates/benchmark/' >&2; then
  echo "verify: a session client outside serve::client::Conn" >&2; exit 1
fi

# One-idle-path gate: a serve worker with nothing to do waits on readiness
# in server.rs's one `wait`, woken by its sockets and its waker. A timed
# sleep anywhere else in that file (bar the `wait`'s non-Linux arm and the
# unit tests) is a second idle path that wakes on a timer.
awk '
  /^#\[cfg\(test\)\]/ { tests = 1 }
  /^fn wait\(/ { in_wait = 1 }
  in_wait && /cfg\(not\(target_os = "linux"\)\)/ { other_arm = 1 }
  /thread::sleep/ && !tests && !other_arm { print "verify: " FILENAME ":" FNR ": " $0; bad = 1 }
  in_wait && /^}/ { in_wait = 0; other_arm = 0 }
  END { exit bad }' crates/serve/src/server.rs >&2 \
  || { echo "verify: a serve worker sleeps on a timer outside the one wait" >&2; exit 1; }

# One-exporter gate: telemetry leaves a run as JSON lines through
# core::report::telemetry_to_jsonl alone — a sharded run's merged registry
# included. A counter, gauge or histogram line written anywhere else is a
# second exporter.
if git grep -n '"t", "counter"\|"t", "hist"\|"t", "gauge"' -- '*.rs' \
     ':!crates/core/src/report.rs' >&2; then
  echo "verify: a telemetry exporter outside core::report" >&2; exit 1
fi

# One-executor gate: the harness runs work in parallel through
# bench::sweep::parallel_map alone (scoped threads on an atomic cursor,
# outputs in input order); the sweep engine and the figure experiments
# both call it. A second `thread::scope` under crates/bench/src is a
# second executor.
scopes="$(grep -rn 'thread::scope' crates/bench/src || true)"
[ "$(grep -c . <<< "$scopes")" -eq 1 ] \
  || { echo "verify: crates/bench/src must hold exactly one thread::scope:" >&2
       echo "$scopes" >&2; exit 1; }

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
# (its lane holds a narrower item than its heap, as the engine's does), and
# again past the spill, where every case makes the far tier and refills
# near from it (≈ 10 s in debug). So does the property behind the inline
# timer events: every node, type, timer and token comes back out of the
# two words it rides the heap in.
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-sim --test prop \
  -- queue_matches_reference_model queue_past_the_spill_matches_reference_model
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-core --lib \
  -- a_group_timer_survives_its_words

# Sense smoke: the sensing driver keeps a tick out of a quiescent node's
# group machines when the reading does not activate the type; the property
# that licenses it (such a machine answers nothing and changes nothing,
# over random walks through every role) re-runs here by name at 512 cases
# unless TESTKIT_CASES is exported. So does the property that licenses the
# driver's sample through the reach: bit for bit and draw for draw what
# the walk over every target returns, and, where the ambient verdict
# settles a tick instead, the ambient levels with nothing drawn. And so
# does the one that says the predicate the driver evaluates means what the
# declaration it was compiled from says.
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-core --lib \
  -- quiescent_machine_ignores_a_reading_that_does_not_activate
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-world --test prop \
  -- covered_sample_is_bit_identical_to_the_walk
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-lang --test prop \
  -- compiled_predicate_means_what_its_source_says

# Random-world cut: every execution mode against its reference on worlds
# drawn by crates/world/tests/support/random_world.rs (targets that enter,
# leave and appear mid-run, noise on and off, crashes, reboots and clock
# skew, faults tied with ticks): each cfg(test) hook of a world — parking's
# every-tick loop among them — against none, compared on kernel.events,
# the event log, the telemetry JSONL, a probe that reads one node's energy
# on its tick instants, and the counters at every pause; and 2, 4 and 8
# shards against one. The workspace pass ran them at their own seed; this
# runs them at three more (≈ 20 s on the 2-vCPU host, debug build warm).
for seed in 1 2 3; do
  TESTKIT_SEED=$seed cargo test -q --offline -p envirotrack-core --lib -- random_worlds
  TESTKIT_SEED=$seed cargo test -q --offline -p envirotrack-bench --test shard_random_worlds
done

# Locality cut: a world just under the size floor parking starts at, and
# its twin with an inert block of nodes added out of everyone's reach,
# which crosses the floor and parks. The event log, the run record, every
# original node's energy must agree, and the twin's extra events and CPU
# work must be exactly its block's own sensing ticks. An integration test,
# so the library's `cfg(test)` hooks are off and the floor is live (≈ 1 s).
cargo test -q --offline -p envirotrack-core --test locality

# Mutants: every patch in mutants/ still applies to this tree, the four
# kernel mutants fail the kernel's skipped-tick property, the four
# parking-proof and lazy-record mutants and the two that park without a
# reason (a wake that proves nothing, a touch that parks a busy CPU again)
# fail the random-world tests at seed 1, and the two sensing-verdict
# mutants (a verdict read from the window before, a swept box half as wide)
# fail the world's sampling property at seed 1, and the three event-list
# mutants (a push one µs past the edge taken into near, ties broken by
# slot, a far base left past the edge by a refill of cancelled entries)
# fail the queue's reference-model properties at seed 1 (≈ 30 s warm
# on the 2-vCPU host). `scripts/mutants.sh --all` runs every one.
for patch in mutants/*.patch; do
  git apply --check "$patch" \
    || { echo "verify: $patch no longer applies" >&2; exit 1; }
done
scripts/mutants.sh period-push-by-delay boundary-seq-before-rank class-one-reads-no-tick \
  one-shot-before-its-tick park-lookup-neighbour-cell window-grid-off-by-one-period \
  lazy-record-misses-tick-at-now lists-kept-across-windows \
  wake-keeps-parked-unproven rx-repark-before-drain \
  reach-verdict-window-before reach-box-half-shrunk \
  queue-edge-inclusive queue-ties-by-slot queue-refill-keeps-base >&2

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

# Scale smoke: 1k- and 2k-node fields must run bounded (2 s virtual
# horizon) and emit a BENCH_scale.json with every schema section present —
# both in the fresh smoke output and in the checked-in trajectory.
./target/release/scale --smoke --out "$tmp/scale.json"
for f in "$tmp/scale.json" BENCH_scale.json; do
  for key in '"bench":"scale"' '"results":' \
             '"events_per_sec":' '"sweep":' '"merged_outputs_identical":true' \
             '"bytes_on_air":' '"sense_ticks":' '"sense_ticks_admitted":' '"sense_strides":' \
             '"samples_covered":' '"samples_walked":' '"sense_verdicts":' \
             '"reach_windows":' '"reach_sweeps":' '"reach_listed":' \
             '"sense_parked":' '"sense_settled":' '"park_proofs":' \
             '"hot_made":' '"park_kept":' '"park_woken":' \
             '"park_received":' '"park_stayed":' \
             '"popped_events":' '"bootstrap_wall_s":' \
             '"lane_pops":' '"heap_pops":' '"inline_events":' '"boxed_events":' \
             '"build_allocs":' '"build_heap_bytes":' \
             '"scenario_allocs":' '"scenario_heap_bytes":' \
             '"timer_live":' '"timer_stale":' '"timer_retries":' '"cold_engaged":' \
             '"neighbor_lists":' \
             '"trace_records":' '"trace_dropped":' '"trace_ring_bytes":' \
             '"heap_live":' '"heap_kernel":' '"heap_medium":' '"heap_deployment":' \
             '"heap_hot":' '"heap_nodes":' '"heap_engaged":' '"heap_mtp":' \
             '"heap_endpoints":' '"heap_directory":' '"heap_leaders":' \
             '"heap_telemetry":' '"heap_events":' '"heap_base_log":' \
             '"shards":' '"speedup_vs_first":' '"byte_identical":true' \
             '"merged_intents":' '"routed_intents":'; do
    grep -q "$key" "$f" \
      || { echo "verify: $f is missing $key" >&2; exit 1; }
  done
done
# A world is built from a fixed number of allocations: the smoke's two
# field sizes must report the same `build_allocs`.
allocs="$(grep -o '"build_allocs":[0-9]*' "$tmp/scale.json" | sort -u)"
[ "$(grep -c . <<< "$allocs")" -eq 1 ] \
  || { echo "verify: build allocations grow with the node count:" $allocs >&2; exit 1; }
# A node holds only its dense state until it uses a protocol layer or
# transmits: a built world keeps at most 200 heap bytes a node (about 840
# when every node held its layers and machines from the start, 269 when
# every node's neighbour list was built with the world).
grep -o '"nodes":[0-9]*,"build_wall_s":[^,]*,"build_allocs":[0-9]*,"build_heap_bytes":[0-9]*' \
  "$tmp/scale.json" | tr ',:' '  ' | awk '
  { n = $2; b = $8; if (b > 200 * n) { print "verify: " n " nodes built " b " heap bytes (limit 200 a node)"; bad = 1 } }
  END { exit bad || NR == 0 }' >&2 \
  || { echo "verify: the smoke rows build more than 200 heap bytes a node" >&2; exit 1; }
# A node's neighbours are listed the first time it transmits or routes a
# message on: on the smoke fields, where a few targets cross thousands of
# idle nodes, fewer than one node in twenty has a list.
paste -d ' ' \
  <(grep -o '"nodes":[0-9]*,"build_wall_s"' "$tmp/scale.json" | tr -dc '0-9\n') \
  <(grep -o '"neighbor_lists":[0-9]*' "$tmp/scale.json" | tr -dc '0-9\n') | awk '
  NF != 2 || $2 * 20 >= $1 { print "verify: " $2 " neighbour lists on " $1 " nodes (limit under one in 20)"; bad = 1 }
  END { exit bad || NR == 0 }' >&2 \
  || { echo "verify: a smoke row lists the neighbours of nodes that never transmitted or routed" >&2; exit 1; }
# A sensing loop that only charges its node's CPU parks on a field of at
# least 4 096 nodes, and its ticks are settled in closed form: on the 5k,
# 10k and 100k rows of BENCH_scale.json, where a few targets cross an idle
# field, at most a third of the sensing ticks come off the recurring lane
# (3 832 of 250 000, 4 167 of 500 000, 3 968 of 5 000 001; every one did
# before loops parked).
paste -d ' ' \
  <(grep -o '"nodes":[0-9]*,"build_wall_s"' BENCH_scale.json | tr -dc '0-9\n') \
  <(grep -o '"sense_ticks":[0-9]*' BENCH_scale.json | tr -dc '0-9\n') \
  <(grep -o '"lane_pops":[0-9]*' BENCH_scale.json | tr -dc '0-9\n') | awk '
  NF != 3 { bad = 1 } $1 >= 4096 { big++; if ($3 * 3 > $2) { print "verify: " $3 " lane pops for " $2 " sensing ticks on " $1 " nodes (limit a third)"; bad = 1 } }
  END { exit bad || big == 0 }' >&2 \
  || { echo "verify: a BENCH_scale.json row pops the ticks of loops that could park" >&2; exit 1; }
# A node gets a hot record when something reaches it, and a wake or a touch
# that would only park it again leaves it parked without one: on the 5k, 10k
# and 100k rows of BENCH_scale.json at most twice as many nodes have a
# record as hold protocol state (288 / 268, 270 / 270 and 270 / 260; 923,
# 1 300 and 1 534 records when every wake unparked its cells' nodes).
paste -d ' ' \
  <(grep -o '"nodes":[0-9]*,"build_wall_s"' BENCH_scale.json | tr -dc '0-9\n') \
  <(grep -o '"hot_made":[0-9]*' BENCH_scale.json | tr -dc '0-9\n') \
  <(grep -o '"cold_engaged":[0-9]*' BENCH_scale.json | tr -dc '0-9\n') | awk '
  NF != 3 { bad = 1 } $1 >= 4096 { big++; if ($2 > 2 * $3) { print "verify: " $2 " hot records for " $3 " engaged nodes on " $1 " nodes (limit twice)"; bad = 1 } }
  END { exit bad || big == 0 }' >&2 \
  || { echo "verify: a parked BENCH_scale.json row makes records for nodes that only park again" >&2; exit 1; }
# A trace record is plain data (40 bytes, its text made only at export) in
# a ring that grows by an eighth: each smoke row's ring keeps at most 48
# heap bytes per record it retains.
grep -o '"trace_records":[0-9]*,"trace_dropped":[0-9]*,"trace_ring_bytes":[0-9]*' \
  "$tmp/scale.json" | tr ',:' '  ' | awk '
  { kept = $2 - $4; b = $6; if (kept <= 0 || b > 48 * kept) { print "verify: a trace ring of " b " bytes keeps " kept " records (limit 48 a record)"; bad = 1 } }
  END { exit bad || NR == 0 }' >&2 \
  || { echo "verify: the smoke rows keep more than 48 trace-ring bytes a record" >&2; exit 1; }
# Memory is priced by layer: each layer of the engine and its world works
# its heap bytes out from its own state, and on each smoke row their sum is
# within 5 % of the live bytes the counting allocator saw at the horizon.
grep -o '"heap_live":[0-9]*\(,"heap_[a-z_]*":[0-9]*\)*' "$tmp/scale.json" | tr ',:' '  ' | awk '
  { live = $2; sum = 0; for (i = 4; i <= NF; i += 2) sum += $i
    if (NF < 28 || live <= 0 || (sum - live) * 20 > live || (live - sum) * 20 > live) {
      print "verify: the layers count " sum " heap bytes of " live " live"; bad = 1 } }
  END { exit bad || NR == 0 }' >&2 \
  || { echo "verify: a smoke row's heap census is more than 5 % off the live bytes" >&2; exit 1; }

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
# kernel (core::shard) at 1, 2 and 4 shards must produce a byte-identical
# merged run record + telemetry stream — the shard count is an execution
# knob, never a behavior knob. (This field's traffic stays inside one
# stripe, so the smoke pins determinism, not routing; routing is pinned
# by the brute-force interest-range property and the stripe-crossing
# battery of bench/tests/shard_determinism.rs.)
./target/release/scale --smoke --shards 1 --crosscheck "$tmp/shard1.jsonl"
for n in 2 4; do
  ./target/release/scale --smoke --shards "$n" --crosscheck "$tmp/shard$n.jsonl"
  cmp -s "$tmp/shard1.jsonl" "$tmp/shard$n.jsonl" \
    || { echo "verify: simulation output differs between 1 and $n shards" >&2; exit 1; }
done
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
# neighbour list for every ordered pair, masked or not (same 512).
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-net --test prop \
  -- inline_medium_equals_scheduler_plus_executors \
     bounded_windows_equal_the_full_backlog_oracle \
     slipped_transmission_still_sees_its_collision
TESTKIT_CASES="${TESTKIT_CASES:-512}" \
  cargo test -q --offline -p envirotrack-net --lib \
  -- audible_is_membership_in_the_brute_force_neighbour_list

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
                  '"worker_writes":' '"worker_write_bytes":' \
                  '"worker_waits":' '"worker_wakes":')
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
