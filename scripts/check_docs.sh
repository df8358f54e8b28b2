#!/usr/bin/env bash
# Docs completeness check (run from the repo root; CI runs it on every
# push). Fails when the docs/ tree has drifted behind the code:
#
#   1. every public header in src/sweep/, src/net/, src/obs/, and
#      src/search/ must be mentioned somewhere under docs/
#   2. every --flag sweep_cli parses must appear in docs/sweep_cli.md
#   3. every sweep_cli subcommand must have a section in docs/sweep_cli.md
#   4. the README must link every docs page
#   5. docs/development.md must cover the correctness-tooling surface
#      (sanitizer flavors, -Werror switch, lint scripts, test labels)
#   6. every *.md file a file under src/, bench/ or tests/ names must
#      exist, relative to the repo root or to the naming file
#   7. every key in scenario_io.cpp's key table must have a row in the
#      scenario key list of docs/formats.md
#
# Mentioning a header is a low bar on purpose: the check catches "we
# added a subsystem and never documented it", not prose quality.
set -euo pipefail
fail=0

for header in src/sweep/*.h src/net/*.h src/obs/*.h src/search/*.h; do
  name=$(basename "$header")
  if ! grep -rq "$name" docs/; then
    echo "docs check: public header $name is not mentioned under docs/" >&2
    fail=1
  fi
done

flags=$(grep -o '"--[a-z-]*"' examples/sweep_cli.cpp | tr -d '"' | sort -u \
  || true)
while IFS= read -r flag; do
  [ -n "$flag" ] || continue
  if ! grep -q -- "$flag" docs/sweep_cli.md; then
    echo "docs check: sweep_cli flag $flag is missing from docs/sweep_cli.md" >&2
    fail=1
  fi
done <<<"$flags"

for sub in merge serve work stats search; do
  if ! grep -q "^## .*\`$sub\`" docs/sweep_cli.md; then
    echo "docs check: sweep_cli subcommand '$sub' has no section in docs/sweep_cli.md" >&2
    fail=1
  fi
done

for page in docs/architecture.md docs/formats.md docs/sweep_cli.md \
            docs/search.md docs/observability.md docs/development.md \
            docs/paper_deviations.md; do
  if ! grep -q "$page" README.md; then
    echo "docs check: README.md does not link $page" >&2
    fail=1
  fi
done

# The development guide must track the tooling knobs by name, so renaming
# a CMake option or lint script without updating the guide fails CI.
for term in ADAPTBF_SANITIZE ADAPTBF_WERROR lint_invariants.sh .clang-tidy \
            'ctest -L' 'adaptbf-lint: allow'; do
  if ! grep -qF -- "$term" docs/development.md; then
    echo "docs check: docs/development.md does not mention '$term'" >&2
    fail=1
  fi
done

refs=$(grep -roE '[A-Za-z0-9_./-]+\.md\b' src bench tests || true)
while IFS=: read -r file ref; do
  [ -n "$ref" ] || continue
  if [ ! -f "$ref" ] && [ ! -f "$(dirname "$file")/$ref" ]; then
    echo "docs check: $file names $ref, which does not exist" >&2
    fail=1
  fi
done <<<"$refs"

# Table rows open with {"<section>", "<key>", — one per key. Only rows of
# the "## Scenario keys" section count: `osts` is a journal field too.
keys=$(sed -nE 's/^ *\{"(scenario|server|client)", "([a-z_]+)",.*/\2/p' \
  src/workload/scenario_io.cpp)
if [ -z "$keys" ]; then
  echo "docs check: found no key table in src/workload/scenario_io.cpp" >&2
  fail=1
fi
key_list=$(awk '/^## /{keep = ($0 == "## Scenario keys")} keep' \
  docs/formats.md)
while IFS= read -r key; do
  [ -n "$key" ] || continue
  if ! grep -qF -- "| \`$key\` |" <<<"$key_list"; then
    echo "docs check: scenario key '$key' has no row in docs/formats.md" >&2
    fail=1
  fi
done <<<"$keys"

if [ "$fail" -eq 0 ]; then
  echo "docs check: OK"
fi
exit "$fail"
