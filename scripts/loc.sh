#!/usr/bin/env bash
# Rust line counts, split into code and test lines.
#
#   scripts/loc.sh                                # one row per crate + total
#   scripts/loc.sh crates/net/src/medium.rs ...   # one row per named file
#
# Lines are raw `wc -l` lines (blank lines and comments included). A line
# is a *test* line when its file sits under a `tests/` directory, or when
# it comes at or after the file's first top-level `#[cfg(test)]` — every
# unit-test module in this workspace is a trailing `mod tests` — and a
# *code* line otherwise. target/ and .bench_build/ are skipped. The `pub`
# column counts the code lines that declare a public item (`pub fn`,
# `pub struct`, ... — not `pub(crate)`, not fields, not re-exports).
# Simplicity PRs quote the `code` and `pub` columns before and after.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
  files=("$@")
  by=file
else
  mapfile -t files < <(git ls-files -co --exclude-standard -- '*.rs' | sort)
  by=crate
fi

awk -v by="$by" '
  FNR == 1 {
    in_test = (FILENAME ~ /(^|\/)tests\//)
    key = FILENAME
    if (by == "crate") {
      key = "(root package)"
      if (match(FILENAME, /^crates\/[^\/]+/)) key = substr(FILENAME, RSTART, RLENGTH)
    }
    if (!(key in seen)) { seen[key] = 1; order[++n] = key }
  }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  { if (in_test) test[key]++; else code[key]++ }
  !in_test && /^[ \t]*pub (const )?(fn|struct|enum|trait|const|type|mod|static) / { pubs[key]++ }
  END {
    printf "%-34s %8s %8s %8s %8s\n", by, "code", "test", "total", "pub"
    for (i = 1; i <= n; i++) {
      k = order[i]
      printf "%-34s %8d %8d %8d %8d\n", k, code[k], test[k], code[k] + test[k], pubs[k]
      tc += code[k]; tt += test[k]; tp += pubs[k]
    }
    if (n > 1) printf "%-34s %8d %8d %8d %8d\n", "total", tc, tt, tc + tt, tp
  }
' "${files[@]}"
