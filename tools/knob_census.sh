#!/bin/sh
# Knob census: a setting that nothing sets is a constant in disguise.
#
#   tools/knob_census.sh
#
# Run from the repository root. For every `pub` field of the settings
# structs listed below, looks for a .rs file other than the one defining
# the struct that assigns it: `.field = ...` (setting a nested
# `.field.inner` counts), or `field: ...` (or the `field,` shorthand) in
# a file that also writes a `Struct {` literal.
# Build output is not searched; tests, examples, bins and mccsbench/
# count. Prints each field with the number of files that set it and
# fails if a field set nowhere else is missing from
# tools/knob_census_allow.txt, whose lines read `Struct.field: reason`.
set -eu

allow=tools/knob_census_allow.txt
status=0

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Every .rs file of the repository, build output excluded.
rs() {
    grep -rlE --include='*.rs' --exclude-dir=target --exclude-dir=.git "$1" . |
        sed 's|^\./||' | sort -u
}

grep -v '^#' "$allow" | sed -n 's/^\([A-Za-z_][A-Za-z0-9_]*\.[a-z_][a-z0-9_]*\):[[:space:]]*[^[:space:]].*/\1/p' |
    sort -u >"$out/allowed"

# struct  file defining it
while read -r struct def; do
    fields=$(awk -v s="$struct" '
        $0 ~ "^pub struct " s " \\{" { inb = 1; next }
        inb && /^}/ { inb = 0 }
        inb && match($0, /^    pub [a-z_][a-z0-9_]*:/) { print substr($0, 9, RLENGTH - 9) }' "$def")
    if [ -z "$fields" ]; then
        echo "$def: no \`pub struct $struct\` with pub fields"
        status=1
        continue
    fi
    rs "(^|[^A-Za-z0-9_])$struct[[:space:]]*\{" >"$out/literals"
    for f in $fields; do
        {
            rs "\.$f(\.[a-z_][a-z0-9_]*)*[[:space:]]*=([^=>]|\$)"
            rs "^[[:space:]]*$f[[:space:]]*(:[^:]|,|\$)" | comm -12 - "$out/literals"
        } | sort -u | grep -vxF "$def" >"$out/setters" || true
        n=$(wc -l <"$out/setters")
        echo "$struct.$f: set in $n file(s)"
        if [ "$n" -eq 0 ] && ! grep -qxF "$struct.$f" "$out/allowed"; then
            echo "  set nowhere but its definition and not in $allow:" \
                "make it a constant where it is read, or give it a setter"
            status=1
        fi
    done
done <<'LIST'
ClusterConfig crates/core/src/cluster.rs
ServiceConfig crates/core/src/config.rs
DegradationPolicy crates/core/src/config.rs
IpcConfig crates/ipc/src/config.rs
LibraryConfig crates/core/src/library.rs
LIST

exit $status
