#!/usr/bin/env bash
# Asserts EXPERIMENTS.md covers the measurable surface (the E-doc
# analogue of checkobsdocs.sh):
#   - every experiment id the lbbench registry can render (`lbbench
#     -list`) has its own `##`/`###` heading;
#   - every checked-in BENCH_*.json record is mentioned by filename, so
#     a new machine-readable record cannot land without prose saying
#     what it measures and how to regenerate it;
#   - every scenario in the registry (internal/mobility/scenarios.go)
#     is described in the §E-comp section. The frontier's scenario rows
#     are computed from the same registry, and TestExperimentTablesMatchDoc
#     (internal/sim) holds them to the section's table.
# CI runs it in the docs job.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=EXPERIMENTS.md
[ -f "$doc" ] || { echo "$doc missing" >&2; exit 1; }
fail=0

for id in $(go run ./cmd/lbbench -list | awk '{print $1}'); do
    if ! grep -Eq "^##+ ${id}([^a-zA-Z0-9-]|$)" "$doc"; then
        echo "experiment $id has no section heading in $doc" >&2
        fail=1
    fi
done

for rec in BENCH_*.json; do
    [ -e "$rec" ] || continue
    if ! grep -q "$rec" "$doc"; then
        echo "bench record $rec not mentioned in $doc" >&2
        fail=1
    fi
done

scenarios=$(sed -n '/^func Scenarios/,/^}/p' internal/mobility/scenarios.go |
            grep -o 'Name:[[:space:]]*"[a-z-]*"' | sed 's/.*"\(.*\)"/\1/' | sort -u)
if [ -z "$scenarios" ]; then
    echo "no scenario names found in internal/mobility/scenarios.go" >&2
    fail=1
fi

# The §E-comp section: from its heading to the next top-level section.
ecomp=$(awk '/^## E-comp/{on=1} on && /^## [^E]/{on=0} on' "$doc")
if [ -z "$ecomp" ]; then
    echo "$doc has no §E-comp section" >&2
    fail=1
fi

for name in $scenarios; do
    if ! printf '%s\n' "$ecomp" | grep -q "$name"; then
        echo "scenario $name (registry) not described in $doc §E-comp" >&2
        fail=1
    fi
done

if [ "$fail" = 0 ]; then
    echo "checkexpdocs: $doc covers all experiment ids, bench records and scenario names"
fi
exit "$fail"
