#!/usr/bin/env bash
# sweep_cli surface checks (registered with CTest as tooling_cli_usage;
# run from the repo root with the built binary as $1).
#
# Covers the parts gtest binaries cannot: the usage synopsis and
# --version must advertise every subcommand including `search`, unknown
# search flags must fail with the SEARCH-specific usage (exit 2), and a
# sweep file carrying a [search] section must be bounced from the plain
# run/serve paths toward `sweep_cli search` (exit 1), by name. A
# malformed number, a missing value or an extra operand must fail with
# exit 2 on every path, never coerce or guess.
set -euo pipefail

cli=${1:?usage: run_cli_usage_tests.sh <path-to-sweep_cli>}
search_ini=examples/sweeps/search_campaign.ini
paper_ini=examples/sweeps/paper_campaign.ini
fail=0

# expect <name> <want_status> <needle> -- <argv...>: run the CLI, check
# exit status and that combined output mentions the needle. The needle
# check reads a here-string: piped into `grep -q` under pipefail, the
# writer can die of SIGPIPE once grep exits at its first match.
expect() {
  local name=$1 want=$2 needle=$3 status=0 output
  shift 3
  [ "$1" = "--" ] && shift
  output=$("$cli" "$@" 2>&1) || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "FAIL $name: exit $status, wanted $want" >&2
    printf '%s\n' "$output" >&2
    fail=1
    return 0
  fi
  if ! grep -qF -- "$needle" <<<"$output"; then
    echo "FAIL $name: output does not mention '$needle'" >&2
    printf '%s\n' "$output" >&2
    fail=1
    return 0
  fi
  echo "ok   $name"
}

if [ ! -f "$search_ini" ]; then
  echo "run_cli_usage_tests: $search_ini not found (run from repo root)" >&2
  exit 2
fi

# The top-level synopsis and version banner list the search subcommand.
expect usage-lists-search        2 " search " --
expect usage-lists-slo-flag      2 "--slo" --
expect version-lists-search      0 "search step format" -- --version
expect version-lists-journal     0 "journal format" -- --version

# Unknown/invalid search flags print the SEARCH usage, not the global one.
expect search-unknown-flag       2 "unknown search option '--bogus'" \
  -- search --bogus "$search_ini"
expect search-unknown-flag-usage 2 "sweep_cli search [--threads N]" \
  -- search --bogus "$search_ini"
expect search-bad-budget         2 "--budget needs a positive integer" \
  -- search --budget nope "$search_ini"
expect search-bad-slo            2 "--slo" \
  -- search --slo "p99_ms==250" "$search_ini"
expect search-missing-file       2 "usage:" -- search

# A [search] sweep must not silently run as a plain campaign or serve as
# a plain coordinator — both redirect to the search subcommand by name.
expect plain-run-bounces-search  1 "run it with 'sweep_cli search" \
  -- "$search_ini"
expect serve-bounces-search      1 "the search IS the coordinator" \
  -- serve --listen 7999 "$search_ini"

# Unknown top-level flags/subcommands still land on the global usage.
expect global-unknown-flag       2 "usage:" -- --frobnicate

# The plain run parses --threads as strictly as work and search do.
expect run-bad-threads           2 "--threads needs a non-negative integer" \
  -- --threads nope "$paper_ini"

# Every mode takes only its operands, and a value flag that ends the line
# is missing its value, not unknown.
expect run-extra-operand         2 "unexpected argument" \
  -- --list "$paper_ini" examples/sweeps/resumable_campaign.ini
expect serve-missing-value       2 "--listen needs a value" \
  -- serve "$paper_ini" --listen

# A ladder rung the input key's range rejects fails validation by key
# name (exit 1) before any probe runs; bucket_depth = 0.5 once reached an
# ADAPTBF_CHECK in the rule daemon.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cat >"$scratch/depth.ini" <<'INI'
[sweep]
policies = adaptive
scenario = token_allocation
duration_s = 1

[search]
input = bucket_depth
ladder = 0.5, 2, 4
slo = p99_ms<=500
INI
expect search-rung-out-of-range  1 "bucket_depth = '0.5'" \
  -- search --output "$scratch/depth.jsonl" "$scratch/depth.ini"

# A worker expands the same probe grid, so it checks the input key the
# same way before it connects.
sed 's/^input = .*/input = bucket_dept/' "$scratch/depth.ini" \
  >"$scratch/typo.ini"
expect work-unknown-input        1 "unknown scenario key 'bucket_dept'" \
  -- work --connect 127.0.0.1:9 "$scratch/typo.ini"

# stats prints one format: --json and --prom together are a usage error.
expect stats-json-and-prom       2 "--json and --prom are mutually exclusive" \
  -- stats 127.0.0.1:7001 --json --prom

if [ "$fail" -eq 0 ]; then
  echo "run_cli_usage_tests: OK"
fi
exit "$fail"
