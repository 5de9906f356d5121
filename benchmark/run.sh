#!/usr/bin/env bash
# The repo benchmark: build release, run, check correctness, print metrics.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is one JSON object
#   benchmark/run.sh [--seed N] [--rounds R] [--out DIR] [--quick]
#                    [--only W] [--check-repeat]
#       every workload, every metric as `workload metric value unit`,
#       results.json and trace-<workload>.json in DIR (default benchmark/out)
#
# Run it from the root of the repo (or of a checkout of it). Everything but
# the program's own output goes to stderr.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
root="$here/.."

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "[benchmark] $root is not the repo: no Cargo.toml / crates beside benchmark/" >&2
    exit 2
fi

# A standalone workspace silently ignores the root manifest's profiles, and
# the sim crate loses ~30% without its single codegen unit: fail on drift.
release_profile() {
    awk '/^\[/ { keep = ($0 ~ /^\[profile\.release/) } keep && NF && $0 !~ /^#/' "$1"
}
if ! diff <(release_profile "$root/Cargo.toml") <(release_profile "$here/Cargo.toml") >&2; then
    echo "[benchmark] benchmark/Cargo.toml [profile.release*] drifted from the root manifest" >&2
    exit 2
fi

# The driver sets CARGO_TARGET_DIR (relative to the checkout root, where it
# runs us); on its own the build stays inside benchmark/.
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/flextoe-benchmark" --out "$here/out" "$@"
