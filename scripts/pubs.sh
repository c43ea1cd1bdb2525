#!/usr/bin/env bash
# Public-surface census: the `pub` items of each crate's library that
# nothing outside that library refers to.
#
#   scripts/pubs.sh         # one row per crate + the offenders as
#                           # `crate::path::item  file:line`; exits 1 when
#                           # one of them is not allow-listed
#
# An *item* is a `pub` fn, struct, enum, trait, const, type or static
# declared in the non-test part of `crates/<c>/src/` (not `src/bin/`), or a
# name a `pub use` there re-exports. Its *users* are every other `.rs` line
# of the workspace: other crates (`crates/benchmark` included), the root
# `src/`, every `tests/`, `benches/`, `src/bin/` and `examples/` — the
# crate's own too, they are separate compilation targets — the code fences
# of the library's own doc comments (doc-tests link from outside) and
# `$crate::` paths in its exported macros (they expand in the caller). The
# library's unit tests are not users. The match is by name, no build:
#
#   fn       `name(`, `name::<`, or `::name` as the last segment of a path
#            — call syntax, not the bare word, so a field or a local of the
#            same name does not count; a method of the same name on another
#            type does
#   others   the bare word
#   pub use  the name, in a file that spells the re-exporting module's path
#            before it (`envirotrack_core::prelude::{.., Name}`, or
#            `…::prelude::*` and the word anywhere in that file)
#
# so the census can miss an unused item; it never lists a used one. A type
# nothing outside names still has to be `pub` when a surviving `pub`
# signature, `pub` field, enum variant, trait item, alias or associated
# type mentions it (rustc's `private_interfaces` / `private_bounds` lints
# are the oracle): those are recognised from the declarations, to a fixed
# point, and counted in the `leaked` column, not listed. So is the re-export
# of such a type out of a private module (`pub use self::link::…`), its only
# public path.
#
# A listed item becomes `pub(crate)` or private, and then `clippy -D
# warnings` says whether anything at all uses it. Comment lines are skipped.
# `crates/benchmark` is a user but is not censused (the benchmark driver
# owns it). Simplicity PRs quote the totals before and after.
#
# Allowed to stay `pub` with no user, each with its reason:
#   envirotrack::node        the façade names every product crate; the mote
#                            runtime is reached through `core` in every
#                            test and example today
#   sim::engine::Kernel::rng `Engine::new(world, seed)` is called by
#                            crates/benchmark and cannot lose its seed; the
#                            generator it seeds is reached only here, so
#                            deleting the accessor would leave a parameter
#                            that does nothing
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=" envirotrack::node sim::engine::Kernel::rng "

mapfile -t files < <(git ls-files -co --exclude-standard -- '*.rs' | sort)

# dir=ident for each crate: the name `use` paths spell.
idents="envirotrack=envirotrack"
for toml in crates/*/Cargo.toml; do
  dir="$(basename "$(dirname "$toml")")"
  ident="$(awk '
    /^\[/ { sect = $0 }
    sect == "[package]" && /^name *=/ { gsub(/[" ]/, ""); sub(/^name=/, ""); pkg = $0 }
    sect == "[lib]" && /^name *=/ { gsub(/[" ]/, ""); sub(/^name=/, ""); lib = $0 }
    END { if (lib == "") lib = pkg; gsub(/-/, "_", lib); print lib }' "$toml")"
  idents+=" $dir=$ident"
done

awk -v idents="$idents" -v allowed="$allowed" '
function trim(s) { sub(/^[ \t]+/, "", s); sub(/[ \t]+$/, "", s); return s }
function indent(s) { match(s, /^[ \t]*/); return RLENGTH }
function words(s) { gsub(/[^A-Za-z0-9_]+/, " ", s); return " " s " " }

# Which library a file is part of ("" = a user of every crate), and the
# module path its items live at.
function lib_of(path,    p) {
  if (path ~ /^crates\/[^\/]+\/src\// && path !~ /^crates\/[^\/]+\/src\/bin\//) {
    split(path, p, "/"); return p[2]
  }
  return path ~ /^src\// ? "envirotrack" : ""
}
function mod_of(path) {
  sub(/^(crates\/[^\/]+\/)?src\//, "", path); sub(/\.rs$/, "", path)
  sub(/(^|\/)(lib|mod)$/, "", path); gsub(/\//, "::", path)
  return path
}
function join_path(a, b) { return a == "" ? b : (b == "" ? a : a "::" b) }

# a::{b, c::{d, e as f}}  ->  leaf(a::b) leaf(a::c::d) leaf(a::c::e as f)
function flatten(prefix, tree,    i, c, depth, start, open, head, inner) {
  tree = trim(tree)
  open = index(tree, "{")
  if (open == 0) { if (tree != "") leaf(prefix tree); return }
  head = substr(tree, 1, open - 1)
  inner = substr(tree, open + 1); sub(/\}[^}]*$/, "", inner)
  depth = 0; start = 1
  for (i = 1; i <= length(inner); i++) {
    c = substr(inner, i, 1)
    if (c == "{") depth++
    else if (c == "}") depth--
    else if (c == "," && depth == 0) { flatten(prefix head, substr(inner, start, i - start)); start = i + 1 }
  }
  flatten(prefix head, substr(inner, start))
}
function leaf(p) { if (pass == 1) declare_reexport(p); else use_path(p) }

# ---- pass 1: declarations, re-exports and public surfaces of a library ----

function declare(kind, name,    key, path) {
  key = lib SUBSEP name
  if (kind == "fn") isfn[key] = 1; else isty[key] = 1
  if (kind ~ /^(struct|enum|trait|type)$/) { leakable[key] = 1; decl_mod[key] = modp }
  if (!((lib, name) in crates_seen)) { crates_seen[lib, name] = 1; crates_of[name] = crates_of[name] " " lib }
  path = join_path(modp, (kind == "fn" && impl_name != "" ? impl_name "::" : "") name)
  sites[key] = sites[key] lib "::" path "  " FILENAME ":" FNR "\n"
  npub[lib]++
}
function declare_reexport(p,    name, n, s) {
  if (lib == "envirotrack" && p ~ /^[a-z_]+ as [a-z_]+$/) { split(p, s, " as "); alias[s[2]] = s[1] }
  name = p; sub(/^.* as /, "", name); sub(/^.*::/, "", name)
  if (name == "*" || name == "self") return
  rx[lib, use_mod, name] = lib "::" join_path(use_mod, name) "  " FILENAME ":" use_line
  rx_list[lib, use_mod] = rx_list[lib, use_mod] " " name
  rx_name[name] = 1
  nrx[lib]++
}
# A line of a surviving item that the compiler reads types from.
function surface(owner, text) {
  if (!((lib, owner) in surf)) owners[lib] = owners[lib] " " owner
  surf[lib, owner] = surf[lib, owner] words(text)
}

function pass1(line,    rest, p, n, i, kind, name, h, at) {
  if (line ~ /^[ \t]*\/\//) return
  sub(/[ \t]\/\/ .*$/, "", line)

  if (line ~ /^(pub\([a-z]+\) )?mod [a-z_]+;/) { h = line; sub(/^.*mod /, "", h); sub(/;.*$/, "", h); private_mod[lib, join_path(modp, h)] = 1 }

  # one level of inline module (`pub mod prelude {`)
  if (line ~ /^pub mod [a-z_]+ \{$/) { split(line, p, " "); inline_mod = p[3]; return }
  if (line == "}" && inline_mod != "") { inline_mod = ""; return }

  if (use_buf != "" || line ~ /^[ \t]*pub use /) {
    if (use_buf == "") { use_line = FNR; use_mod = join_path(modp, inline_mod) }
    use_buf = use_buf line
    if (index(line, ";")) {
      sub(/^[ \t]*pub use /, "", use_buf); sub(/;.*$/, "", use_buf)
      flatten("", use_buf); use_buf = ""
    }
    return
  }

  # the impl block a method sits in
  if (line ~ /^[ \t]*(unsafe )?impl[ <]/) {
    h = line; sub(/^[ \t]*(unsafe )?impl/, "", h)
    if (h ~ /^</) { n = 0; for (i = 1; i <= length(h); i++) { at = substr(h, i, 1); if (at == "<") n++; if (at == ">" && --n == 0) break }; h = substr(h, i + 1) }
    if ((i = index(h, " for "))) h = substr(h, i + 5)
    if (match(h, /[A-Z][A-Za-z0-9_]*/) || match(h, /[a-z_][A-Za-z0-9_]*/)) { impl_name = substr(h, RSTART, RLENGTH); impl_ind = indent(line) }
  } else if (impl_name != "" && indent(line) == impl_ind && substr(line, impl_ind + 1, 1) == "}") {
    impl_name = ""
  } else if (impl_name != "" && line ~ /^[ \t]*type [A-Za-z_]+ = /) {
    surface("t:" impl_name, line)
  }

  # the rest of an item whose first line was seen earlier
  if (mode == "sig") {                       # fn signature, up to its `{` or `;`
    if ((i = index(line, "{"))) { surface(own, substr(line, 1, i - 1)); mode = "" }
    else { surface(own, line); if (line ~ /;[ \t]*$/) mode = "" }
    return
  }
  if (mode == "head") {                      # struct/enum/trait header, up to `{` or `;`
    surface(own, line)
    if (line ~ /\{[ \t]*$/) mode = "body"; else if (line ~ /;[ \t]*$/) mode = ""
    return
  }
  if (mode == "body") {                      # fields, variants, trait items
    if (indent(line) == own_ind && substr(line, own_ind + 1, 1) == "}") { mode = ""; return }
    if (own_kind != "struct" || line ~ /^[ \t]*pub /) surface(own, line)
    return
  }
  if (mode == "alias") { surface(own, line); if (index(line, ";")) mode = ""; return }

  if (line !~ /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|union|const|type|static) /) return
  rest = line; sub(/^[ \t]*pub /, "", rest)
  n = split(rest, p, /[^A-Za-z0-9_]+/)
  i = 1
  if (p[1] == "const" && p[2] ~ /^(fn|unsafe|async)$/) i = 2
  while (p[i] == "unsafe" || p[i] == "async") i++
  kind = p[i]; name = p[i + 1]; if (name == "mut") name = p[i + 2]
  if (kind == "union") kind = "struct"
  declare(kind, name)

  if (kind == "fn") {
    own = "f:" name
    if ((i = index(line, "{"))) surface(own, substr(line, 1, i - 1))
    else { surface(own, line); if (line !~ /;[ \t]*$/) mode = "sig" }
  } else if (kind == "const" || kind == "static") {
    h = line; sub(/=.*$/, "", h); surface("t:" name, h)
  } else if (kind == "type") {
    own = "t:" name; surface(own, line); if (!index(line, ";")) mode = "alias"
  } else {
    own = "t:" name; own_kind = kind; own_ind = indent(line)
    surface(own, line)
    if (line ~ /\{[ \t]*$/) mode = "body"
    else if (line !~ /[;}][ \t]*$/) mode = "head"
  }
}

# ---- pass 2: who names what ----

function use_path(p,    n, s, i, k, c, cont) {
  sub(/ as .*$/, "", p)
  n = split(p, s, "::")
  if (s[1] == "envirotrack") {
    used_rx["envirotrack", "", s[2]] = 1
    if (!(s[2] in alias)) return
    c = dir_of[alias[s[2]]]; k = 3
  } else if (s[1] == "$crate") { c = lib; k = 2 }
  else if (s[1] in dir_of) { c = dir_of[s[1]]; k = 2; if (c == user) return }
  else return
  cont = ""
  for (i = k; i <= n; i++) {
    if (s[i] == "*") globs[c SUBSEP cont] = 1; else used_rx[c, cont, s[i]] = 1
    cont = join_path(cont, s[i])
  }
}
function scan(line,    w, pre, post, n, c, i, key) {
  while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
    w = substr(line, RSTART, RLENGTH)
    pre = RSTART > 2 ? substr(line, RSTART - 2, 2) : substr(line, 1, RSTART - 1)
    post = substr(line, RSTART + RLENGTH, 4)
    line = substr(line, RSTART + RLENGTH)
    if (w in rx_name) file_words[w] = 1
    if (!(w in crates_of)) continue
    n = split(crates_of[w], c, " ")
    for (i = 1; i <= n; i++) {
      if (c[i] == user) continue
      key = c[i] SUBSEP w
      if (key in isty) used[key] = 1
      if ((key in isfn) && (post ~ /^ *\(/ || post ~ /^::</ || (pre == "::" && post !~ /^::/))) usedfn[key] = 1
    }
  }
}
function end_of_file(    g, p, n, names, i) {
  for (g in globs) {
    split(g, p, SUBSEP)
    n = split(rx_list[p[1], p[2]], names, " ")
    for (i = 1; i <= n; i++) if (names[i] in file_words) used_rx[p[1], p[2], names[i]] = 1
  }
  split("", globs); split("", file_words)
}
function pass2(line,    s) {
  sub(/[ \t]\/\/ .*$/, "", line)
  if (use2 != "" || line ~ /^[ \t]*(pub(\([a-z]+\))? )?use /) {
    use2 = use2 line
    if (index(line, ";")) { s = use2; use2 = ""; sub(/^[ \t]*(pub(\([a-z]+\))? )?use /, "", s); sub(/;.*$/, "", s); flatten("", s) }
  } else {
    s = line
    while (match(s, /\$?[a-z_]+(::[A-Za-z_][A-Za-z0-9_]*)+/)) {
      use_path(substr(s, RSTART, RLENGTH)); s = substr(s, RSTART + RLENGTH)
    }
  }
  # `$crate::a::Name` in an exported macro is written in the library and
  # compiled in the caller.
  if (index(line, "$crate::")) { s = user; user = ""; scan(line); user = s } else scan(line)
}

BEGIN {
  n = split(idents, kv, " ")
  for (i = 1; i <= n; i++) { split(kv[i], p, "="); dir_of[p[2]] = p[1] }
}
FNR == 1 {
  if (pass == 2 && NR > 1) end_of_file()
  lib = lib_of(FILENAME); modp = mod_of(FILENAME)
  in_test = 0; fence = 0; inline_mod = ""; impl_name = ""; mode = ""; use_buf = ""; use2 = ""
}
/^#\[cfg\(test\)\]/ { in_test = 1 }
pass == 1 { if (lib != "" && lib != "benchmark" && !in_test) pass1($0); next }
{
  line = $0; user = lib
  if (line ~ /^[ \t]*\/\//) {
    # code fences in the doc comments of a library are doc-tests, compiled
    # outside it; every other comment line is skipped
    if (lib == "" || line !~ /^[ \t]*\/\/[\/!]/) next
    sub(/^[ \t]*\/\/[\/!] ?/, "", line)
    if (line ~ /^```/) { fence = fence ? 0 : (line ~ /^```(rust|no_run|should_panic)?[ \t]*$/ ? 1 : -1); next }
    if (fence != 1) next
    user = ""
  } else fence = 0
  pass2(line)
}
# Whether a declaration that survives mentions type `name` of crate `c`.
function kept_by_surface(c, name,    n, o, i, okey) {
  n = split(owners[c], o, " ")
  for (i = 1; i <= n; i++) {
    if (o[i] == "t:" name || !index(surf[c, o[i]], " " name " ")) continue
    okey = c SUBSEP substr(o[i], 3)
    if (substr(o[i], 1, 1) == "f" ? (okey in usedfn) : ((okey in used) || (okey in leaked))) return 1
  }
  return 0
}
# Whether type `name` of crate `c` is declared under a private module, so
# that a re-export is its only public path.
function hidden(c, name,    n, s, i, m) {
  n = split(decl_mod[c, name], s, "::"); m = ""
  for (i = 1; i <= n; i++) { m = join_path(m, s[i]); if ((c, m) in private_mod) return 1 }
  return 0
}
END {
  end_of_file()
  # Types a surviving public declaration mentions stay public: fixed point.
  do {
    grew = 0
    for (key in leakable) {
      if ((key in used) || (key in leaked)) continue
      split(key, p, SUBSEP)
      if (kept_by_surface(p[1], p[2])) { leaked[key] = 1; nleak[p[1]]++; grew = 1 }
    }
  } while (grew)

  for (key in sites) {
    if (((key in isfn) && (key in usedfn)) || ((key in isty) && ((key in used) || (key in leaked)))) continue
    split(key, p, SUBSEP)
    out = out sites[key]; noff[p[1]] += gsub(/\n/, "\n", sites[key])
  }
  for (key in rx) {
    if (key in used_rx) continue
    split(key, p, SUBSEP)
    if (((p[1], p[3]) in leakable) && hidden(p[1], p[3]) && kept_by_surface(p[1], p[3])) { nleak[p[1]]++; continue }
    out = out rx[key] " (re-export)\n"; noff[p[1]]++
  }

  printf "%-14s %6s %8s %6s %12s\n", "crate", "pub", "pub use", "leaked", "unreferenced"
  n = split(idents, kv, " ")
  for (i = 1; i <= n; i++) {
    split(kv[i], p, "="); c = p[1]
    if (c == "benchmark") continue
    printf "%-14s %6d %8d %6d %12d\n", c, npub[c], nrx[c], nleak[c], noff[c]
    tp += npub[c]; tr += nrx[c]; tl += nleak[c]
  }
  n = split(out, lines, "\n"); bad = 0; listed = ""
  for (i = 2; i < n; i++) {            # insertion sort; the list is short
    s = lines[i]
    for (j = i - 1; j >= 1 && lines[j] > s; j--) lines[j + 1] = lines[j]
    lines[j + 1] = s
  }
  for (i = 1; i < n; i++) {
    split(lines[i], p, " ")
    if (index(allowed, " " p[1] " ")) listed = listed lines[i] " (allowed)\n"
    else { listed = listed lines[i] "\n"; bad++ }
  }
  printf "%-14s %6d %8d %6d %12d not allowed\n", "total", tp, tr, tl, bad
  printf "%s", listed
  exit bad > 0
}
' pass=1 "${files[@]}" pass=2 "${files[@]}"
