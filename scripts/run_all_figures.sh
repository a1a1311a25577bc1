#!/usr/bin/env bash
# Regenerate every paper figure plus the supplementary experiments.
# Output lands on stdout; EXPERIMENTS.md records the reference results.
set -euo pipefail
cd "$(dirname "$0")/.."
bins=(
  fig01_client_scalability
  fig02_path_traversal_motivation
  fig07_single_app
  fig08_multi_app
  fig09_path_traversal
  fig10_overhead
  fig11_scalability
  fig12_madbench
  ablations
  bulk_insertion
  latency
  commit_batch
  read_path
  wal_commit
  qsim_scale
  scenario
)
for b in "${bins[@]}"; do
  echo "=== $b ==="
  cargo run --release -q -p pacon-bench --bin "$b"
  echo
done
