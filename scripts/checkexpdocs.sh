#!/usr/bin/env bash
# Asserts EXPERIMENTS.md covers the measurable surface (the E-doc
# analogue of checkobsdocs.sh):
#   - every experiment id the lbbench registry can render (`lbbench
#     -list`) has its own `##`/`###` heading;
#   - every benchmark that EXPERIMENTS.md or DESIGN.md cites exists: a
#     full name (`BenchmarkE9_MatcherOffer`) must be declared by a
#     `func Benchmark…` in some _test.go file, and a prefix
#     (`BenchmarkE2_*`) must start at least one declared name, so a
#     table cannot outlive the benchmark that re-measures it;
#   - every scenario in the registry (internal/mobility/scenarios.go)
#     is described in the §E-comp section, which ends at the next `## `
#     heading. The frontier's scenario rows are computed from the same
#     registry, and TestExperimentTablesMatchDoc (internal/sim) holds
#     them to the section's table.
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

declared=$({ grep -rho --include='*_test.go' '^func Benchmark[A-Za-z0-9_]*' . || true; } |
           sed 's/^func //' | sort -u)
if [ -z "$declared" ]; then
    echo "no func Benchmark… declared in any _test.go file" >&2
    fail=1
fi
while read -r cited; do
    case "$cited" in
    *\*) grep -q "^${cited%\*}" <<<"$declared" ;;
    *) grep -qx "$cited" <<<"$declared" ;;
    esac || {
        echo "benchmark $cited (cited in $doc or DESIGN.md) is declared in no _test.go file" >&2
        fail=1
    }
done < <(grep -ho 'Benchmark[A-Z][A-Za-z0-9_]*\**' "$doc" DESIGN.md | sort -u)

scenarios=$(sed -n '/^func Scenarios/,/^}/p' internal/mobility/scenarios.go |
            grep -o 'Name:[[:space:]]*"[a-z-]*"' | sed 's/.*"\(.*\)"/\1/' | sort -u)
if [ -z "$scenarios" ]; then
    echo "no scenario names found in internal/mobility/scenarios.go" >&2
    fail=1
fi

# The §E-comp section: from its heading to the next `## ` heading.
ecomp=$(awk '/^## E-comp/{on=1; print; next} on && /^## /{on=0} on' "$doc")
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
    echo "checkexpdocs: $doc covers all experiment ids and scenario names, and every cited benchmark exists"
fi
exit "$fail"
