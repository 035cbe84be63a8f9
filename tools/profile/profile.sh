#!/bin/sh
# Sample where one mccsbench workload spends its CPU time, down to the
# function, inlined ones included.
#
#   tools/profile/profile.sh <workload> [mccsbench args...]
#
# Run from the repository root. Builds mccsbench with frame pointers and
# line tables into its own target directory (PROFILE_TARGET, default
# target/profile; the normal build is left alone), preloads sampler.c and
# runs the workload once with the given extra arguments (default: seed
# 11, the run length BENCHMARK.json fixes, untraced). The raw samples go
# to $PROFILE_TARGET/<workload>.prof, mccsbench's stderr to
# $PROFILE_TARGET/<workload>.log and the report to stdout; re-run
# report.py on the .prof with FOCUS=<function> to see what one function
# calls. Needs gcc, python3 and binutils only.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <workload> [mccsbench args...]" >&2
    exit 2
fi
workload=$1
shift
here=$(dirname "$0")
target=${PROFILE_TARGET:-target/profile}
mkdir -p "$target"
target=$(cd "$target" && pwd)

gcc -O2 -shared -fPIC -o "$target/sampler.so" "$here/sampler.c"
# Debug info through the profile setting, not RUSTFLAGS: a release
# profile without it strips whatever RUSTFLAGS asked for. "limited" is
# line tables plus the full paths of inlined functions.
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=limited \
    CARGO_TARGET_DIR="$target" \
    cargo build --release --quiet --offline --manifest-path mccsbench/Cargo.toml

prof="$target/$workload.prof"
[ $# -gt 0 ] || set -- --seed 11 --trace 0
PROFILE_OUT=$prof LD_PRELOAD=$target/sampler.so \
    "$target/release/mccsbench" --workload "$workload" "$@" >/dev/null 2>"$target/$workload.log" ||
    { tail -n 20 "$target/$workload.log" >&2; exit 1; }
tail -n 1 "$target/$workload.log" >&2
python3 "$here/report.py" "$prof"
