#!/bin/sh
# The one line count ROADMAP.md and CHANGES.md cite: every line of every
# .rs file under crates/, tests/ and examples/, crates/vendor excluded
# (icbench/ is its own package and is not counted).
#
#   scripts/loc.sh           print the total
#   scripts/loc.sh --files   per-file counts, largest last, then the total
#   scripts/loc.sh --check   also fail when the total exceeds LOC_CEILING
set -eu
cd "$(dirname "$0")/.."

files() {
    find crates tests examples -name '*.rs' -not -path 'crates/vendor/*' | sort
}

total=$(files | xargs cat | wc -l | tr -d ' ')
case "${1:-}" in
    --files) files | xargs wc -l | sort -n ;;
    --check)
        ceiling=$(tr -d ' \n' < LOC_CEILING)
        echo "$total non-vendor Rust lines (ceiling $ceiling)"
        if [ "$total" -gt "$ceiling" ]; then
            echo "over the ceiling: delete something, or raise LOC_CEILING in the PR that says why" >&2
            exit 1
        fi
        ;;
    *) echo "$total" ;;
esac
