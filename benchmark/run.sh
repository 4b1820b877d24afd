#!/usr/bin/env bash
# Builds the benchmark (release, offline; the first call compiles) and
# runs it. One workload per call, one process, one thread:
#
#   benchmark/run.sh --workload open_1m [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Works from any directory; see benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
