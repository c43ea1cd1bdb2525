#!/usr/bin/env bash
# A sampling profile of one benchmark workload, with nothing installed.
#
#   scripts/sigprof.sh <workload> [seed=1]
#   SECONDS_RUN=5 HZ=1000 TOP=60 scripts/sigprof.sh traffic_dense 7
#
# Builds the BENCHMARK.json binary with frame pointers and line tables into
# its own target directory (target/sigprof, so neither the release build nor
# a measurement in progress is disturbed), runs the unmodified benchmark
# command line under a small LD_PRELOAD sampler, and prints two tables: where
# the program counter was (self) and which functions were on the stack
# (inclusive), inlined frames told apart by `addr2line -i`.
#
# The sampler arms setitimer(ITIMER_PROF) at $HZ (500) and, on each SIGPROF,
# walks the frame-pointer chain of the thread the signal landed on, never
# reading outside that thread's stack; raw PCs are kept in memory and dumped
# when the process exits. CPU time only: a thread that waits is not sampled,
# and the kernel delivers ITIMER_PROF on its own tick, so a CONFIG_HZ=250
# host yields 250 samples per CPU-second whatever $HZ asks for.
# Frames of code built without frame pointers (parts of libc) are skipped
# over or cut short, and addresses outside the binary show as `[elsewhere]`.
#
# Not part of scripts/verify.sh. Exits 0 with a message when gcc or
# addr2line is missing. Linux x86-64 with glibc only.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
workload="$1"
seed="${2:-1}"
hz="${HZ:-500}"
top="${TOP:-40}"
seconds="${SECONDS_RUN:-$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"

for tool in gcc addr2line; do
  command -v "$tool" > /dev/null \
    || { echo "sigprof: $tool not found; nothing profiled"; exit 0; }
done
[ "$(uname -sm)" = "Linux x86_64" ] \
  || { echo "sigprof: the sampler reads x86-64 Linux signal frames; nothing profiled"; exit 0; }

dir=target/sigprof
mkdir -p "$dir"
cat > "$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

enum { DEPTH = 96, WORDS = 1 << 23 };   /* 64 MiB of address space, touched as used */
static uintptr_t *buf, base, main_hi;
static size_t len;
static pthread_t main_thread;

/* One sample: the depth, then the PCs from the leaf outwards. */
static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
  uintptr_t pcs[DEPTH], fp = m->gregs[REG_RBP], lo = m->gregs[REG_RSP];
  /* glibc puts a created thread's descriptor at the top of its stack, so
     the stack ends below pthread_self(); the main thread's end was read at
     start-up. Both are async-signal-safe to ask for here. */
  pthread_t self = pthread_self();
  uintptr_t hi = pthread_equal(self, main_thread) ? main_hi : (uintptr_t)self;
  size_t n = 0;
  pcs[n++] = m->gregs[REG_RIP];
  /* A frame is [saved rbp, return address]; the chain only ever climbs. */
  while (n < DEPTH && fp >= lo && fp + 16 <= hi && fp % 8 == 0) {
    uintptr_t *frame = (uintptr_t *)fp;
    if (frame[1] < 4096) break;
    pcs[n++] = frame[1] - 1;            /* inside the call, not after it */
    if (frame[0] <= fp) break;
    lo = fp + 16; fp = frame[0];
  }
  size_t at = __atomic_fetch_add(&len, n + 1, __ATOMIC_RELAXED);
  if (at + n + 1 > WORDS) return;
  buf[at] = n;
  for (size_t i = 0; i < n; i++) buf[at + 1 + i] = pcs[i];
}

static int first_object(struct dl_phdr_info *info, size_t size, void *out) {
  (void)size; *(uintptr_t *)out = info->dlpi_addr; return 1;   /* the executable */
}

__attribute__((constructor)) static void start(void) {
  const char *hz = getenv("SIGPROF_HZ");
  long rate = hz ? atol(hz) : 500;
  buf = calloc(WORDS, sizeof *buf);
  if (!buf || rate <= 0 || !getenv("SIGPROF_OUT")) return;
  dl_iterate_phdr(first_object, &base);
  pthread_attr_t attr; void *stack; size_t size;
  main_thread = pthread_self();
  pthread_getattr_np(main_thread, &attr);
  pthread_attr_getstack(&attr, &stack, &size);
  main_hi = (uintptr_t)stack + size;
  struct sigaction sa = { .sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART };
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = { { 0, 1000000 / rate }, { 0, 1000000 / rate } };
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
  struct itimerval off = { { 0, 0 }, { 0, 0 } };
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("SIGPROF_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) return;
  size_t end = len < WORDS ? len : WORDS;
  for (size_t at = 0; at < end && at + 1 + buf[at] <= end; at += 1 + buf[at]) {
    for (size_t i = 1; i <= buf[at]; i++) fprintf(f, "%lx ", (unsigned long)(buf[at + i] - base));
    fputc('\n', f);
  }
  fclose(f);
}
EOF
gcc -O2 -fPIC -shared -o "$dir/sampler.so" "$dir/sampler.c" -ldl -lpthread

echo "# sigprof: building the benchmark with frame pointers into $dir" >&2
CARGO_TARGET_DIR="$dir" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  RUSTFLAGS="-C force-frame-pointers=yes" \
  cargo build --release --offline --quiet -p envirotrack-benchmark
bin="$dir/release/benchmark"

samples="$dir/$workload.s$seed.pcs"
echo "# sigprof: $workload, seed $seed, $seconds s, $hz Hz" >&2
SIGPROF_OUT="$samples" SIGPROF_HZ="$hz" LD_PRELOAD="$PWD/$dir/sampler.so" \
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
  | grep '^metric' >&2
[ -s "$samples" ] || { echo "sigprof: the run left no samples in $samples" >&2; exit 1; }

# Every distinct address once through addr2line: `-a` heads each answer with
# the address, `-i` follows it with one (function, file:line) pair per
# inlined level, innermost first.
tr ' ' '\n' < "$samples" | grep . | sort -u > "$dir/addrs"
addr2line -a -f -C -i -e "$bin" < "$dir/addrs" > "$dir/symbols"

awk -v top="$top" '
  FNR == NR {                                   # symbols
    if ($0 ~ /^0x[0-9a-f]+$/) { addr = substr($0, 3); sub(/^0+/, "", addr); levels[addr] = 0; want = 1; next }
    if (want) {                                 # a function line; the file:line line follows
      name = ($0 == "??") ? "[elsewhere]" : $0
      fn[addr, ++levels[addr]] = name
    }
    want = !want
    next
  }
  {                                             # one sample per line, leaf first
    total++
    split("", seen)
    for (i = 1; i <= NF; i++) {
      a = $i; sub(/^0+/, "", a)
      if (i == 1) self[(levels[a] ? fn[a, 1] : "[elsewhere]")]++
      for (l = 1; l <= levels[a]; l++) if (!seen[fn[a, l]]++) incl[fn[a, l]]++
    }
  }
  function table(title, count,    name, cmd) {
    printf "\n%s (%d samples)\n", title, total
    cmd = "sort -k1,1nr -k2 | head -n " top
    for (name in count) printf "%d %s\n", count[name], name | cmd
    close(cmd)
  }
  END {
    table("self", self)
    table("inclusive", incl)
  }
' "$dir/symbols" "$samples" | awk -v n="$(wc -l < "$samples")" '
  /^[0-9]+ / { c = $1; $1 = ""; printf "%6.2f %%  %7d %s\n", c * 100 / n, c, $0; next } { print }'
