#!/usr/bin/env bash
# Reruns the fast deterministic experiment binaries and fails if what one
# prints differs from its committed file under results/.
#
#   scripts/check_results.sh
#
# Each binary runs with its EXPERIMENTS.md arguments; together they take
# about a second in release. table4, ablation_bitpos, ablation_multifault
# and figure4 take from seconds to minutes each and are checked by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p aabft-bench
status=0
check() {
    local name=$1
    shift
    if cargo run --release -q -p aabft-bench --bin "$name" -- "$@" \
        | diff -u "results/$name.txt" -; then
        echo "results/$name.txt: unchanged"
    else
        echo "results/$name.txt differs from what $name prints" >&2
        status=1
    fi
}

check table1
check table2 --sizes 128,256,512,1024 --samples 1024
check table3 --sizes 128,256,512,1024 --samples 1024
check ablation_p --n 256
check ablation_omega --n 256
check ablation_fma
check ablation_bs
check ablation_tiling
exit $status
