#!/bin/sh
# Non-test lines of Rust source: every `.rs` file under each directory,
# counted up to its first `#[cfg(test)]` line (the whole file when it has
# none).
#
# Usage: scripts/nontest-lines.sh <dir>...
# Prints "<lines> <file>" per file, "<lines> <dir> total" per directory
# and, given several directories, "<lines> total" over all of them.
set -eu
if [ $# -eq 0 ]; then
    echo "usage: $0 <dir>..." >&2
    exit 2
fi
all=0
for dir in "$@"; do
    sum=0
    for f in $(find "$dir" -name '*.rs' | sort); do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        printf '%7d %s\n' "$n" "$f"
        sum=$((sum + n))
    done
    printf '%7d %s total\n' "$sum" "$dir"
    all=$((all + sum))
done
if [ $# -gt 1 ]; then
    printf '%7d total\n' "$all"
fi
