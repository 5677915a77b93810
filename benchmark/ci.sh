#!/usr/bin/env bash
# Smoke step for CI: unit tests of the benchmark's own machinery, then
# every workload at 1/10 length (under 15 s of measuring) with all
# answer checks on. Run from the repository root. Not wired into the
# workflow file by this PR.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
