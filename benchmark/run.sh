#!/usr/bin/env bash
# One command for the repo's benchmark: builds the stand-alone package in
# this directory, then hands every argument to it.
#
#   benchmark/run.sh [--seed S] [--seconds N]        every workload, untraced
#       and traced; prints every metric, writes benchmark/out/results-seed<S>.json
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of stdout is the result object (BENCHMARK.json)
#   benchmark/run.sh --smoke                         short trials, checks only
#   benchmark/run.sh compare A.json B.json           per workload x metric verdicts
#
# Build output goes to $CARGO_TARGET_DIR when the caller sets it, else to
# benchmark/target (ignored by git).  Nothing outside the checkout is
# written; no network is needed (all dependencies are path dependencies).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build messages go to stderr so stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
case "${1:-}" in
    compare|manifest) exec "$target/release/varan-benchmark" "$@" ;;
    *) exec "$target/release/varan-benchmark" --out-dir "$here/out" "$@" ;;
esac
