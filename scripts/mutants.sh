#!/usr/bin/env bash
# Committed mutants: checks that the differential suites still catch the
# faults they were written against.
#
# Each tests/mutants/<name>.patch breaks the program in one place. Its
# header, the lines above the diff, says what the fault is and names the
# one test that must catch it, as the cargo arguments that build the
# test's target followed by the test's full name:
#
#   Test: -p dataflow --lib splice::tests::a_name_read_only_through_degraded_text_runs_the_pass
#
# The tracked files, with their uncommitted changes, are exported with
# `git archive` into `${TMPDIR:-/tmp}/mutants` (no worktree), and built
# there in debug with their own target directory. Each named test runs
# once on the unchanged export, where it must pass. Then each patch is
# applied, its test runs, and the patch is taken out again. A mutant is
# caught when its test fails. Exits non-zero when a named test fails on
# the unchanged export, a patch no longer applies, a mutated export does
# not build, or a mutant survives. Logs are kept beside the export.
#
# Usage, from anywhere in the repository:
#   scripts/mutants.sh [name...]     (default: every patch)
#   e.g. scripts/mutants.sh edit-line-delta-off-by-one
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
scratch=${TMPDIR:-/tmp}/mutants
tree="$scratch/tree"
rm -rf "$tree"
mkdir -p "$tree"
# `git stash create` records the tracked files' changes as a commit
# without touching the working tree or the stash; on a clean tree it
# prints nothing.
rev=$(git stash create)
git archive "${rev:-HEAD}" | tar -x -C "$tree"
export CARGO_TARGET_DIR="$scratch/target"

patches=()
if [ "$#" -gt 0 ]; then
    for name in "$@"; do
        patches+=("tests/mutants/$name.patch")
    done
else
    patches=(tests/mutants/*.patch)
fi

# test_of <patch>: the words of its `Test:` line.
test_of() {
    sed -n 's/^Test: //p' "$1" | head -n 1
}

# run <log> <cargo args...> <test name>: runs the one test in the export
# and prints how the harness reported it, `ok` or `FAILED`; nothing when
# it did not build or did not run.
run() {
    local log=$1 name=${!#}
    shift
    (cd "$tree" && cargo test --offline "${@:1:$#-1}" -- --exact "$name") >"$log" 2>&1 || true
    sed -n "s/^test $name \.\.\. \(ok\|FAILED\)$/\1/p" "$log" | head -n 1
}

status=0
declare -A passes
for patch in "${patches[@]}"; do
    read -r -a test <<<"$(test_of "$patch")"
    if [ "${#test[@]}" -lt 2 ]; then
        echo "$patch: no 'Test:' line names a test" >&2
        exit 2
    fi
    key="${test[*]}"
    [ -n "${passes[$key]:-}" ] && continue
    name=$(basename "$patch" .patch)
    passes[$key]=$(run "$scratch/$name.unchanged.log" "${test[@]}")
    if [ "${passes[$key]}" != ok ]; then
        echo "$name: ${test[-1]} does not pass on the unchanged tree ($scratch/$name.unchanged.log)"
        status=1
    fi
done

for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    read -r -a test <<<"$(test_of "$patch")"
    [ "${passes[${test[*]}]}" = ok ] || continue
    if ! patch -p1 -d "$tree" --forward --fuzz=0 --dry-run --silent <"$patch" >/dev/null; then
        echo "$name: the patch no longer applies"
        status=1
        continue
    fi
    patch -p1 -d "$tree" --forward --fuzz=0 --silent <"$patch"
    result=$(run "$scratch/$name.log" "${test[@]}")
    patch -p1 -d "$tree" --reverse --fuzz=0 --silent <"$patch"
    case $result in
        FAILED) echo "caught    $name, by ${test[-1]}" ;;
        ok)
            echo "SURVIVED  $name: ${test[-1]} passes with the patch applied"
            status=1
            ;;
        *)
            echo "$name: the mutated tree did not build, or the test did not run ($scratch/$name.log)"
            status=1
            ;;
    esac
done
exit "$status"
