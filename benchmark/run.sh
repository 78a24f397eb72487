#!/usr/bin/env bash
# The benchmark's one command. With no arguments: every workload in its own
# process, end to end and then traced, every answer checked, every metric
# printed by name. With arguments: passed through (see benchmark/README.md),
# which is how BENCHMARK.json's `command` runs one workload.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ "$#" -eq 0 ]; then
    set -- all --seed 1
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
