#!/bin/sh
# Shows that the gates can go red: applies each mutation listed in
# scripts/sabotages.tsv, one at a time, to a scratch copy of the tree
# (tracked and untracked-unignored files, under target/sabotage/) and
# expects the named test to FAIL there. A row fails the run when its sed
# expression changes nothing, when the mutated tree no longer compiles,
# when the test still passes, or when the file is not restored after it.
#
#   scripts/sabotage.sh [table.tsv]
#
# Columns, tab-separated: file, sed expression, `cargo test` arguments
# (package selection and name filter). `#` starts a comment line.
set -eu
cd "$(dirname "$0")/.."
table=${1:-scripts/sabotages.tsv}
root=$PWD/target/sabotage
tree=$root/tree
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -co --exclude-standard | while read -r f; do [ -e "$f" ] && echo "$f"; done \
    | tar -cf - -T - | tar -xf - -C "$tree"
export CARGO_TARGET_DIR=$root/target

rows=0
tab=$(printf '\t')
while IFS=$tab read -r file expr args; do
    case $file in '' | '#'*) continue ;; esac
    rows=$((rows + 1))
    echo "sabotage $rows: $file  $expr  =>  cargo test $args"
    sed -e "$expr" "$file" > "$tree/$file"
    if cmp -s "$file" "$tree/$file"; then
        echo "row $rows is neutered: the expression changes nothing in $file" >&2
        exit 1
    fi
    # shellcheck disable=SC2086 # the arguments column is a word list
    if ! (cd "$tree" && cargo test -q --offline $args --no-run) > "$root/log" 2>&1; then
        cat "$root/log"
        echo "row $rows: the mutated tree does not compile" >&2
        exit 1
    fi
    # shellcheck disable=SC2086
    if (cd "$tree" && cargo test -q --offline $args) > "$root/log" 2>&1; then
        echo "row $rows: the test passed under the mutation — it cannot go red" >&2
        exit 1
    fi
    if ! grep -q "test result: FAILED" "$root/log"; then
        cat "$root/log"
        echo "row $rows: cargo failed without a failing test" >&2
        exit 1
    fi
    cp "$file" "$tree/$file" # a fresh mtime: the next row rebuilds this crate
    cmp -s "$file" "$tree/$file" || { echo "row $rows: $file was not restored" >&2; exit 1; }
done < "$table"
[ "$rows" -gt 0 ] || { echo "no rows in $table" >&2; exit 1; }
echo "$rows sabotages, each shown red by its test"
