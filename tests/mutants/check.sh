#!/usr/bin/env bash
# Mutation suite: each tests/mutants/*.patch breaks one mechanism on
# purpose, and its `must-fail:` line names the test command that has to
# catch it. This script copies the working tree (tracked and untracked
# files, not ignored ones, nor tracked files deleted but not staged) to a
# throwaway directory, checks that each command passes there unpatched,
# then applies each patch with `git apply` and requires the command to
# fail (a patched tree that does not compile is an error, not a catch).
# The checkout itself is never modified.
#
# Usage: bash tests/mutants/check.sh [PATCH...]    (default: every patch)
# Exit status: 0 when every mutant is caught, 1 when one survives or a
# command fails on the unpatched tree, 2 when a patch is malformed, no
# longer applies or does not compile. CARGO_TARGET_DIR is honoured; by
# default the build goes to the throwaway directory and is deleted with
# it.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/seer-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

copy="$work/tree"
mkdir "$copy"
# A tracked file deleted from the working tree but not staged is still
# listed by --cached; leave it out, as the working tree does. The copy
# gets fresh mtimes (-m), so a CARGO_TARGET_DIR shared with an earlier
# run, whose last build may be of a patched file, cannot look up to date.
declare -A deleted=()
while IFS= read -r -d '' f; do
  deleted[$f]=1
done < <(git -C "$root" ls-files -z --deleted)
git -C "$root" ls-files -z --cached --others --exclude-standard \
  | while IFS= read -r -d '' f; do
      [ -n "${deleted[$f]:-}" ] || printf '%s\0' "$f"
    done \
  | (cd "$root" && tar --null -T - -cf -) | tar -xmf - -C "$copy"
# Its own repository, so `git apply` resolves paths against the copy.
git -C "$copy" init -q

if [ $# -eq 0 ]; then
  set -- "$root"/tests/mutants/*.patch
fi

run() { (cd "$copy" && bash -c "$1") >"$2" 2>&1; }

declare -A clean_ok=()
survived=0
for patch in "$@"; do
  patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
  name=$(basename "$patch" .patch)
  cmd=$(sed -n 's/^must-fail: //p' "$patch")
  if [ -z "$cmd" ]; then
    echo "$name: no \`must-fail:\` line" >&2
    exit 2
  fi
  if [ -z "${clean_ok[$cmd]:-}" ]; then
    if ! run "$cmd" "$work/clean.log"; then
      echo "$name: \`$cmd\` fails without the mutation:" >&2
      tail -n 30 "$work/clean.log" >&2
      exit 1
    fi
    clean_ok[$cmd]=1
  fi
  if ! git -C "$copy" apply "$patch"; then
    echo "$name: the patch no longer applies" >&2
    exit 2
  fi
  if run "$cmd" "$work/$name.log"; then
    echo "SURVIVED $name: \`$cmd\` passes with the mutation"
    survived=1
  elif grep -q "could not compile" "$work/$name.log"; then
    # A mutant that does not build proves nothing about the test.
    echo "$name: the patched tree does not compile:" >&2
    tail -n 30 "$work/$name.log" >&2
    exit 2
  else
    echo "caught   $name: \`$cmd\` fails"
  fi
  git -C "$copy" apply -R "$patch"
done
exit "$survived"
