#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless at least one
# test ran and passed: a name filter that matches nothing reports
# "0 passed" and would otherwise let the step pass.
set -euo pipefail
log=$(mktemp)
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' "$log"; then
  echo "::error::cargo test $* ran no test"
  exit 1
fi
