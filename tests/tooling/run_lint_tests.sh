#!/usr/bin/env bash
# Fixture suite for scripts/lint_invariants.sh (registered with CTest as
# tooling_lint_fixtures; run from the repo root).
#
# Every fixture under tests/tooling/fixtures/bad/ declares the rule it
# must trip in a `// lint-fixture-expect: <rule>` header line; the lint
# must fail on the file, report EXACTLY the expected rule set, and name
# the offending file. Every fixture under fixtures/good/ must pass —
# including the suppression-comment path. The fixture tree mirrors src/
# so the lint's path classification is exercised as-is.
set -euo pipefail

lint=scripts/lint_invariants.sh
fixtures=tests/tooling/fixtures
fail=0
# `grep -q` reads here-strings, never pipes: under pipefail a grep that
# exits at its first match can SIGPIPE the writer and fail the check.

if [ ! -x "$lint" ]; then
  echo "run_lint_tests: $lint not found/executable (run from repo root)" >&2
  exit 2
fi

while IFS= read -r fixture; do
  expected=$(grep -oE '^// lint-fixture-expect: [a-z-]+' "$fixture" \
    | sed 's|^// lint-fixture-expect: ||' | sort -u || true)
  if [ -z "$expected" ]; then
    echo "FAIL $fixture: bad fixture lacks a lint-fixture-expect header" >&2
    fail=1
    continue
  fi
  if output=$("$lint" "$fixture" 2>&1); then
    echo "FAIL $fixture: lint passed but should have tripped: $expected" >&2
    fail=1
    continue
  fi
  got=$(printf '%s\n' "$output" | grep -oE '\[[a-z-]+\]' \
    | tr -d '[]' | sort -u)
  if [ "$got" != "$expected" ]; then
    echo "FAIL $fixture: expected rules '$expected', lint reported '$got'" >&2
    printf '%s\n' "$output" >&2
    fail=1
    continue
  fi
  if ! grep -q "$fixture" <<<"$output"; then
    echo "FAIL $fixture: finding does not name the offending file" >&2
    printf '%s\n' "$output" >&2
    fail=1
    continue
  fi
  echo "ok   $fixture ($expected)"
done < <(find "$fixtures/bad" -name '*.cpp' | sort)

while IFS= read -r fixture; do
  if ! output=$("$lint" "$fixture" 2>&1); then
    echo "FAIL $fixture: lint flagged an allowed pattern:" >&2
    printf '%s\n' "$output" >&2
    fail=1
    continue
  fi
  echo "ok   $fixture (clean)"
done < <(find "$fixtures/good" -name '*.cpp' | sort)

# The two trees together must cover every rule the lint implements, so a
# new rule cannot land without a fixture proving it fires.
rules=$(grep -oE '^  scan [a-z-]+' "$lint" | awk '{print $2}' | sort -u \
  || true)
covered=$(grep -rhoE '^// lint-fixture-expect: [a-z-]+' "$fixtures/bad" \
  | sed 's|^// lint-fixture-expect: ||' | sort -u || true)
for rule in $rules; do
  if ! grep -qx "$rule" <<<"$covered"; then
    echo "FAIL: lint rule '$rule' has no bad fixture covering it" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "run_lint_tests: OK"
fi
exit "$fail"
