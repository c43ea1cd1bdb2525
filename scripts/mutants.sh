#!/usr/bin/env bash
# Mutation check: every patch under mutants/ must make its named test fail.
#
#   scripts/mutants.sh --all           # every mutants/*.patch
#   scripts/mutants.sh NAME...         # mutants/NAME.patch only
#
# Copies the working tree (tracked files and untracked ones git does not
# ignore) once into target/mutants/tree, then for each patch applies it
# there with `git apply`, runs the command on the patch's `Must fail:` line
# and reverts the patch. All mutants share one build directory,
# target/mutants/target, so each rebuilds only what its patch touches.
# Prints one line per mutant: `killed` with the seconds it took, or why
# not. Exits 1 when a mutant survives, does not build, or a patch no
# longer applies; the command's output is kept in target/mutants/NAME.log.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "") sed -n '2,5p' "$0" >&2; exit 2 ;;
  --all) patches=(mutants/*.patch) ;;
  *) patches=(); for name in "$@"; do patches+=("mutants/${name%.patch}.patch"); done ;;
esac

root="$PWD"
out="$root/target/mutants"
tree="$out/tree"
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -co --exclude-standard -z | tar --null -T - -cf - | tar -xf - -C "$tree"
# Its own repository, so that `git apply` patches it and not this one.
git -C "$tree" init -q
export CARGO_TARGET_DIR="$out/target"

failed=0
for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  cmd="$(sed -n 's/^Must fail: //p' "$patch")"
  if [ -z "$cmd" ]; then
    echo "$name: no 'Must fail:' line"; failed=1; continue
  fi
  if ! git -C "$tree" apply "$root/$patch"; then
    echo "$name: does not apply"; failed=1; continue
  fi
  start=$SECONDS
  if (cd "$tree" && bash -c "$cmd") > "$out/$name.log" 2>&1; then
    echo "$name: SURVIVED ($cmd)"; failed=1
  elif grep -q '^error: could not compile' "$out/$name.log"; then
    echo "$name: does not build"; failed=1
  else
    echo "$name: killed ($((SECONDS - start)) s)"
  fi
  git -C "$tree" apply -R "$root/$patch"
done
exit "$failed"
