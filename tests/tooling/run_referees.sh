#!/usr/bin/env bash
# Determinism referees over the real sweep_cli binary (registered with
# CTest as tooling_referees; the built binary is $1, the cwd is free).
#
# The campaign engine promises byte-identical artifacts for any thread
# count, with or without a journal, across a crash and resume, a shard
# split, a TCP fleet and a closed-loop search. The gtest suites prove it
# in-process; these five referees prove it with real processes, real
# sockets and real SIGKILLs:
#
#   1. determinism   --threads 1 vs 8, in memory and journaled
#   2. crash-resume  a mid-line truncation and a mid-campaign SIGKILL
#   3. sharded       3 shard processes + merge, then a wounded shard
#   4. dispatch      serve + 2 workers (one SIGKILLed) + stats totals
#   5. search        in-process, over 2 workers (one SIGKILLed), resumed
#
# Everything runs in a private temp dir. Coordinators listen on port 0
# and workers read the port back from the banner, so parallel runs never
# collide. Kills wait for progress, not time, and every wait is bounded.
set -euo pipefail

cli=$(realpath "${1:?usage: run_referees.sh <path-to-sweep_cli>}")
sweeps=$(realpath "$(dirname "$0")/../../examples/sweeps")
paper=$sweeps/paper_campaign.ini
resumable=$sweeps/resumable_campaign.ini
search=$sweeps/search_campaign.ini
limit=300  # Seconds any one sweep_cli process may run.

scratch=$(mktemp -d)
trap 'jobs -p | xargs -r kill 2>/dev/null; rm -rf "$scratch"' EXIT
cd "$scratch"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# run <args...>: sweep_cli under the per-process time limit.
run() { timeout -s KILL "$limit" "$cli" "$@"; }

# tick <deadline> <pid> <what>: one step of a bounded wait on process
# pid; fail once the deadline passes or the process exits first.
tick() {
  kill -0 "$2" 2>/dev/null || fail "$3: process exited first"
  [ "$SECONDS" -lt "$1" ] || fail "$3: timed out"
  sleep 0.05
}

rows_at_least() { [ -f "$2" ] && [ "$(wc -l <"$2")" -ge "$1" ]; }
banner_port() {
  sed -n 's/.* on port \([0-9][0-9]*\);.*/\1/p' "$1" 2>/dev/null
}
has_banner() { [ -n "$(banner_port "$1")" ]; }

# kill_after_first_trial <pid> <log>: SIGKILL a worker once it reports a
# finished trial (it then holds a lease). A worker that exits first lost
# the race for leases; there is nothing left to kill.
kill_after_first_trial() {
  local deadline=$((SECONDS + 120))
  until grep -q 'trial ' "$2" 2>/dev/null; do
    kill -0 "$1" 2>/dev/null || return 0
    [ "$SECONDS" -lt "$deadline" ] || fail "$2: no finished trial"
    sleep 0.05
  done
  kill -9 "$1" 2>/dev/null || true
}

echo "== 1. determinism: threads and journal"
run --threads 1 --csv t1.csv --json t1.json "$paper"
run --threads 8 --csv t8.csv --json t8.json "$paper"
cmp t1.csv t8.csv
cmp t1.json t8.json
run --threads 1 --output s1.jsonl --csv s1.csv --json s1.json "$paper"
run --threads 8 --output s8.jsonl --csv s8.csv --json s8.json "$paper"
cmp s1.csv s8.csv
cmp s1.json s8.json
cmp t1.csv s1.csv
cmp t1.json s1.json

echo "== 2. crash-resume: truncation and SIGKILL"
size=$(stat -c%s s8.jsonl)
head -c $((size * 2 / 3 + 7)) s8.jsonl >crash.jsonl
run --threads 8 --output crash.jsonl --resume --csv r.csv --json r.json \
  "$paper"
cmp t1.csv r.csv
cmp t1.json r.json
"$cli" --threads 1 --output kill.jsonl "$paper" 2>kill.log &
pid=$!
deadline=$((SECONDS + 120))
until rows_at_least 2 kill.jsonl; do
  tick "$deadline" "$pid" "first journaled row"
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
rows=$(($(wc -l <kill.jsonl) - 1))
echo "SIGKILL left $rows of 24 rows journaled"
[ "$rows" -lt 24 ] || fail "the SIGKILL landed after the campaign finished"
run --threads 8 --output kill.jsonl --resume --csv k.csv --json k.json \
  "$paper"
cmp t1.csv k.csv
cmp t1.json k.json

echo "== 3. sharded: 3 processes, merge, wounded shard"
run --threads 4 "$resumable"
pids=()
for i in 0 1 2; do
  run --threads 2 --shard-index "$i" --shard-count 3 --output sharded.jsonl \
    "$resumable" &
  pids+=("$!")
done
for pid in "${pids[@]}"; do wait "$pid"; done
run merge --output merged.jsonl --csv merged.csv --json merged.json \
  "$resumable" sharded.jsonl.shard-*-of-3
cmp resumable_campaign.csv merged.csv
cmp resumable_campaign.json merged.json
size=$(stat -c%s sharded.jsonl.shard-1-of-3)
truncate -s $((size * 2 / 3 + 5)) sharded.jsonl.shard-1-of-3
if run merge --output bad.jsonl "$resumable" sharded.jsonl.shard-*-of-3 \
  2>bad_merge.log; then
  fail "merge accepted an incomplete shard"
fi
run --threads 2 --shard-index 1 --shard-count 3 --output sharded.jsonl \
  --resume "$resumable"
run merge --output merged2.jsonl --csv merged2.csv --json merged2.json \
  "$resumable" sharded.jsonl.shard-*-of-3
cmp resumable_campaign.csv merged2.csv
cmp resumable_campaign.json merged2.json

echo "== 4. dispatch: serve, 2 workers (one SIGKILLed), stats"
# The coordinator lingers after completion so the final stats poll reads
# the finished fleet totals, which must equal the journal's row count.
run serve --listen 0 --lease 4 --lease-timeout 5 --linger 10 \
  --output dispatch.jsonl --csv dispatch.csv --json dispatch.json \
  "$resumable" >serve.log 2>&1 &
server=$!
deadline=$((SECONDS + 60))
until has_banner serve.log; do tick "$deadline" "$server" "serve banner"; done
endpoint=127.0.0.1:$(banner_port serve.log)
"$cli" work --connect "$endpoint" --threads 2 "$resumable" >w1.log 2>&1 &
w1=$!
run work --connect "$endpoint" --threads 2 "$resumable" >w2.log 2>&1 &
w2=$!
# Live mid-campaign poll: progress values race, so only the document
# shape is asserted.
deadline=$((SECONDS + 60))
until run stats "$endpoint" --json >stats_mid.json; do
  tick "$deadline" "$server" "mid-campaign stats"
done
grep -q '"adaptbf_stats":1' stats_mid.json
kill_after_first_trial "$w1" w1.log
wait "$w2"
wait "$w1" 2>/dev/null || true
run stats "$endpoint" --json >stats_final.json
cat stats_final.json
run stats "$endpoint" --prom >stats_final.prom
grep '^adaptbf_dispatch_rows_journaled_total ' stats_final.prom
grep -q '"complete":true' stats_final.json
reported=$(grep -o '"rows_done":[0-9]*' stats_final.json | grep -o '[0-9]*$')
journal=$(($(wc -l <dispatch.jsonl) - 1))
echo "stats rows_done: $reported, journal rows: $journal"
[ "$reported" -eq "$journal" ] || fail "stats totals differ from the journal"
wait "$server"
cmp resumable_campaign.csv dispatch.csv
cmp resumable_campaign.json dispatch.json

echo "== 5. search: in-process, fleet, resumed"
run search --threads 2 --output search_local.jsonl "$search" \
  >search_local.log 2>&1
grep -q 'search done: best token_rate' search_local.log
run search --listen 0 --lease 1 --lease-timeout 5 --output search_fleet.jsonl \
  "$search" >search_fleet.log 2>&1 &
coord=$!
deadline=$((SECONDS + 60))
until has_banner search_fleet.log; do
  tick "$deadline" "$coord" "search banner"
done
endpoint=127.0.0.1:$(banner_port search_fleet.log)
"$cli" work --connect "$endpoint" --threads 2 "$search" >sw1.log 2>&1 &
sw1=$!
run work --connect "$endpoint" --threads 2 "$search" >sw2.log 2>&1 &
sw2=$!
kill_after_first_trial "$sw1" sw1.log
wait "$coord"
wait "$sw2"
wait "$sw1" 2>/dev/null || true
cmp search_local.jsonl search_fleet.jsonl
grep -q 'search done: best token_rate' search_fleet.log
size=$(stat -c%s search_local.jsonl)
head -c $((size * 2 / 3 + 3)) search_local.jsonl >search_cut.jsonl
run search --threads 2 --output search_cut.jsonl --resume "$search" \
  >search_resume.log 2>&1
cmp search_local.jsonl search_cut.jsonl
best_clean=$(grep -o 'best token_rate = [0-9.]*' search_local.log)
best_resume=$(grep -o 'best token_rate = [0-9.]*' search_resume.log)
echo "clean: $best_clean / resumed: $best_resume"
if [ -z "$best_clean" ] || [ "$best_clean" != "$best_resume" ]; then
  fail "the resumed search found a different best rate"
fi

# The killed processes and the refused merge have their exit status
# ignored, so a sanitizer build's report could only show in their logs.
if grep -l -e 'runtime error:' -e 'Sanitizer' ./*.log; then
  fail "a sanitizer reported in the logs above"
fi
echo "run_referees: OK"
