#!/bin/sh
# Prints the non-test lines of each crate under crates/ and their total:
# every src/*.rs file counted up to its first module-level `#[cfg(test)]`
# (one in column 0, which opens the test module; an indented one marks a
# single test-only item and does not end the count), the whole file when
# it has none. Test files under tests/ are not counted.
#
# Usage: analysis/nontest_lines.sh [repo root, default: the current directory]
set -eu
root=${1:-.}
total=0
for crate in "$root"/crates/*/; do
    [ -d "$crate/src" ] || continue
    n=0
    for f in $(find "$crate/src" -name '*.rs' | sort); do
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done
    printf '%-14s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
