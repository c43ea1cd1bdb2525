#!/usr/bin/env bash
# Settable-value census: the public fields of each config struct, and the
# ones nothing in the workspace ever sets.
#
#   scripts/knobs.sh        # one row per struct + total; exits 1 on a
#                           # never-written field that is not allow-listed
#
# A field is *written* when some `.rs` line outside the struct's own
# definition and its `impl Default` assigns it: `field: value` in a struct
# literal or `path.field = value` (a `with_*` setter in the defining file
# counts). The match is by field name, not by type — a name two structs
# share is written for both once either is, and a function parameter of
# that name counts too — so the census can miss a never-written field; it
# never reports a written one. Comment lines and field declarations are
# skipped. A field nobody writes is a constant with extra steps: move it
# beside its reader. Simplicity PRs quote the totals before and after.
#
# Allowed to stay settable while every caller takes the default, because
# they are deployment settings, not tuning:
#   ServerConfig::bind           the address a server listens on
#   NetworkConfig::base_station  which mote the pursuer is wired to
set -euo pipefail
cd "$(dirname "$0")/.."

structs=(MiddlewareConfig RadioConfig LinkReliability NetworkConfig ServerConfig HubConfig TrackingRun)
allowed=" ServerConfig::bind NetworkConfig::base_station "

mapfile -t files < <(git ls-files -co --exclude-standard -- '*.rs' | sort)

printf '%-18s %6s  %s\n' struct fields never-written
total=0
bad=0
for s in "${structs[@]}"; do
  def="$(grep -lE "^pub struct $s \{" "${files[@]}")"
  fields="$(awk -v s="$s" '
    $0 ~ "^pub struct " s " \\{" { on = 1; next }
    on && /^}/ { exit }
    on && /^    pub [a-z_0-9]+:/ { sub(/:.*/, "", $2); print $2 }' "$def")"
  unset_fields=""
  for f in $fields; do
    writes="$(awk -v s="$s" -v f="$f" -v def="$def" '
      FNR == 1 { skip = 0 }
      FILENAME == def && ($0 ~ "^pub struct " s " \\{" || $0 ~ "^impl Default for " s " ") { skip = 1 }
      skip { if (/^}/) skip = 0; next }
      /^[ \t]*\/\// { next }
      $0 ~ "^[ \t]*pub(\\([a-z]+\\))? " f ":" { next }
      $0 ~ "(^|[^A-Za-z0-9_])" f "[ \t]*(:|=)[^=:]" { n++ }
      END { print n + 0 }' "${files[@]}")"
    if [ "$writes" -eq 0 ]; then
      case "$allowed" in
        *" $s::$f "*) unset_fields+=" $f(allowed)" ;;
        *) unset_fields+=" $f"; bad=$((bad + 1)) ;;
      esac
    fi
  done
  n="$(wc -w <<< "$fields")"
  total=$((total + n))
  printf '%-18s %6d %s\n' "$s" "$n" "${unset_fields:- -}"
done
printf '%-18s %6d  %d never written and not allowed\n' total "$total" "$bad"
[ "$bad" -eq 0 ]
