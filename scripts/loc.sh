#!/usr/bin/env bash
# Rust line counts, split into code and test lines.
#
#   scripts/loc.sh                                # one row per crate + total
#   scripts/loc.sh crates/net/src/medium.rs ...   # one row per named file
#
# Lines are raw `wc -l` lines (blank lines and comments included). A line
# is a *test* line when its file sits under a `tests/` directory, when its
# file is a module reached only through a test-only declaration (a
# `mod name;` right under `#[cfg(test)]`, or anywhere in a test file or
# after a top-level `#[cfg(test)]`; `#[path]` followed), or when it comes
# at or after the file's first top-level `#[cfg(test)]` — every unit-test
# module in this workspace is a trailing `mod tests` — and a *code* line
# otherwise. target/ and .bench_build/ are skipped. The `pub`
# column counts the code lines that declare a public item (`pub fn`,
# `pub struct`, ... — not `pub(crate)`, not fields, not re-exports).
# Simplicity PRs quote the `code` and `pub` columns before and after.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t all < <(git ls-files -co --exclude-standard -- '*.rs' | sort)
[ ${#all[@]} -gt 0 ] || { echo "loc.sh: no .rs files (not a git checkout?)" >&2; exit 1; }
if [ $# -gt 0 ]; then
  files=("$@")
  by=file
else
  files=("${all[@]}")
  by=crate
fi

# The files reached through test-only `mod name;` declarations, to a fixed
# point: a module such a file declares is test-only too.
test_mods="$(mktemp)"
trap 'rm -f "$test_mods"' EXIT
for _ in 1 2 3 4 5; do
  before="$(wc -l < "$test_mods")"
  awk -v known_file="$test_mods" '
    function norm(path,   n, i, k, part, out) {
      n = split(path, part, "/"); k = 0
      for (i = 1; i <= n; i++) {
        if (part[i] == "..") k--
        else if (part[i] != ".") out[++k] = part[i]
      }
      path = out[1]
      for (i = 2; i <= k; i++) path = path "/" out[i]
      return path
    }
    BEGIN { while ((getline line < known_file) > 0) known[line] = 1 }
    FNR == 1 {
      test_ctx = (FILENAME ~ /(^|\/)tests\//) || (FILENAME in known)
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
      # Child modules live beside a mod.rs, lib.rs or main.rs, and under a
      # directory named for any other file.
      home = dir
      if (FILENAME !~ /\/(mod|lib|main)\.rs$/) { home = FILENAME; sub(/\.rs$/, "", home) }
      cfg = 0; path = ""
    }
    /^#\[cfg\(test\)\]/ { test_ctx = 1 }
    /^[ \t]*#\[cfg\(test\)\]/ { cfg = 1; next }
    /^[ \t]*#\[path *= *"/ { path = $0; sub(/^[^"]*"/, "", path); sub(/".*/, "", path); next }
    /^[ \t]*#\[/ { next }
    /^[ \t]*(pub(\([a-z ]*\))? )?mod [A-Za-z0-9_]+;/ {
      if (test_ctx || cfg) {
        name = $0; sub(/^.*mod /, "", name); sub(/;.*/, "", name)
        if (path != "") print norm(dir "/" path)
        else { print norm(home "/" name ".rs"); print norm(home "/" name "/mod.rs") }
      }
    }
    { cfg = 0; path = "" }
  ' "${all[@]}" | sort -u -o "$test_mods" - "$test_mods"
  [ "$(wc -l < "$test_mods")" -eq "$before" ] && break
done

awk -v by="$by" -v test_mods="$test_mods" '
  BEGIN { while ((getline line < test_mods) > 0) test_mod[line] = 1 }
  FNR == 1 {
    in_test = (FILENAME ~ /(^|\/)tests\//) || (FILENAME in test_mod)
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
