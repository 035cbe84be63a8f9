#!/bin/sh
# Public-API census: a `pub fn` that nothing outside its own file names is
# either dead or private in all but name.
#
#   tools/pub_census.sh
#
# Run from the repository root. Prints every `pub fn` under crates/*/src
# and src/ (the vendored proptest/criterion shims excluded) whose name
# appears, as a word, in no other .rs file of the repository (mccsbench/,
# tests, examples and benches count as callers; build output does not),
# then fails if any of those names is missing from
# tools/pub_census_allow.txt. The same run fails on a bare
# `#[allow(dead_code)]` under crates/*/src.
set -eu

allow=tools/pub_census_allow.txt
status=0

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

find . \( -name target -o -name .git -o -name .bench_build \) -prune -o \
    -name '*.rs' -print | sed 's|^\./||' | sort >"$out/files"

# One "word file" line per distinct word of every file, then how many
# files each word occurs in.
while read -r f; do
    grep -ohE '[A-Za-z_][A-Za-z0-9_]*' "$f" | sort -u | sed "s|\$| $f|"
done <"$out/files" >"$out/words"
cut -d' ' -f1 "$out/words" | sort | uniq -c | awk '{ print $2, $1 }' | sort >"$out/counts"

# "name file" for every pub fn of the census scope.
grep '^crates/[^/]*/src/\|^src/' "$out/files" |
    grep -v '^crates/proptest/\|^crates/criterion/' |
    while read -r f; do
        sed -nE 's/^[[:space:]]*pub (const )?fn ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' "$f" |
            sort -u | sed "s|\$| $f|"
    done | sort >"$out/pub"

# A name counted in one file only is named nowhere but where it is defined.
join "$out/pub" "$out/counts" | awk '$3 == 1 { print $2 ": " $1 }' | sort >"$out/own_file"
echo "pub fns named only in their own file: $(wc -l <"$out/own_file")"
cat "$out/own_file"

cut -d' ' -f2 "$out/own_file" | sort -u >"$out/names"
grep -v '^#' "$allow" | sed '/^$/d' | sort -u >"$out/allowed"
new=$(comm -23 "$out/names" "$out/allowed")
if [ -n "$new" ]; then
    echo "not in $allow (make private, delete, or give a caller):"
    echo "$new"
    status=1
fi

bare=$(grep -rn '^[[:space:]]*#\[allow(dead_code)\]' crates/*/src || true)
if [ -n "$bare" ]; then
    echo "bare #[allow(dead_code)] under crates/*/src:"
    echo "$bare"
    status=1
fi

exit $status
