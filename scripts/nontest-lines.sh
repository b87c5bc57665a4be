#!/usr/bin/env bash
# Non-test line counts of the Rust sources under the given directories.
#
# A file's non-test lines are the lines before its first line that starts
# with `#[cfg(test)]` (all of them when it has none). Modules that exist
# only under test are skipped whole; they are listed in EXCLUDED below.
# Prints one `<count> <file>` line per file, sorted, its path relative to
# the repository root (the parent of this script's directory), then the
# total. The counts do not depend on the directory it is run from.
#
# Usage: scripts/nontest-lines.sh <dir>...
#   e.g. scripts/nontest-lines.sh crates/scanhub/src
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# Paths relative to the repository root.
EXCLUDED=(
    crates/scanhub/src/explore.rs
)

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <dir>..." >&2
    exit 2
fi

total=0
while IFS= read -r file; do
    rel=$(realpath --relative-to="$root" "$file")
    skip=0
    for excluded in "${EXCLUDED[@]}"; do
        [ "$rel" = "$excluded" ] && skip=1
    done
    [ "$skip" -eq 1 ] && continue
    count=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%6d %s\n' "$count" "$rel"
    total=$((total + count))
done < <(find "$@" -name '*.rs' -type f | sort)
printf '%6d total\n' "$total"
