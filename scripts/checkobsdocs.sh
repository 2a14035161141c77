#!/usr/bin/env bash
# Asserts OBSERVABILITY.md documents the full observability surface:
# every histanon_* metric family declared in internal/obs/obs.go
# (including the histanon_slo_* SLO families), every audit Event wire
# field declared in internal/obs/audit.go (including the kind="slo"
# fields), every span stage name, every span JSON field, and every
# tail-sampling keep reason declared in internal/obs/trace.go — plus
# the privacy-SLO surface: every /v1/slo and /healthz-SLO JSON field
# declared in internal/httpapi/slo.go and every canary probe field
# declared in internal/slo/canary.go — and holds the
# histanon_ts_events_total event table equal to the event list in
# internal/ts/events.go, in both directions. CI runs it in the docs job,
# so adding a metric, field or event without documenting it (or
# documenting an event the server does not count) fails the build.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=OBSERVABILITY.md
[ -f "$doc" ] || { echo "$doc missing" >&2; exit 1; }
fail=0

for name in $(grep -o '"histanon_[a-z0-9_]*"' internal/obs/obs.go | tr -d '"' | sort -u); do
    if ! grep -q "$name" "$doc"; then
        echo "metric family $name undocumented in $doc" >&2
        fail=1
    fi
done

for field in $(grep -o 'json:"[a-z0-9_]*' internal/obs/audit.go | sed 's/json:"//' | sort -u); do
    if ! grep -q "\`$field\`" "$doc"; then
        echo "audit field $field undocumented in $doc" >&2
        fail=1
    fi
done

for stage in $(sed -n '/^func (s Stage) String/,/^}/p' internal/obs/trace.go |
               grep -o 'return "[a-z_]*"' | sed 's/return "//;s/"//' | sort -u); do
    [ "$stage" = unknown ] && continue
    if ! grep -q "\`$stage\`" "$doc"; then
        echo "span stage $stage undocumented in $doc" >&2
        fail=1
    fi
done

for field in $(grep -o 'json:"[a-zA-Z0-9_]*' internal/obs/trace.go | sed 's/json:"//' | sort -u); do
    if ! grep -q "\`$field\`" "$doc"; then
        echo "span field $field undocumented in $doc" >&2
        fail=1
    fi
done

for reason in $(sed -n '/Tail-sampling keep reasons/,/^)/p' internal/obs/trace.go |
                grep -o '= "[a-z_]*"' | sed 's/= "//;s/"//' | sort -u); do
    if ! grep -q "\`$reason\`" "$doc"; then
        echo "keep reason $reason undocumented in $doc" >&2
        fail=1
    fi
done

# The SLO endpoint surface: /v1/slo response fields and the /healthz
# SLO section (internal/httpapi/slo.go), and the canary probe result
# fields (internal/slo/canary.go). "-" tags (excluded from the wire)
# are skipped.
for field in $(grep -o 'json:"[a-zA-Z0-9_]*' internal/httpapi/slo.go internal/slo/canary.go |
               sed 's/.*json:"//' | sort -u); do
    if ! grep -q "\`$field\`" "$doc"; then
        echo "SLO field $field undocumented in $doc" >&2
        fail=1
    fi
done

# The trusted-server events: every name in internal/ts's eventNames has
# a row in the histanon_ts_events_total event table, and every row names
# one of them.
events=$(sed -n '/^var eventNames/,/^}/p' internal/ts/events.go | grep -o '"[a-z_]*"' | tr -d '"' | sort)
rows=$(awk '/^### `histanon_ts_events_total` event values/{on=1; next} on && /^#/{exit}
             on && /^\|-/{body=1; next} body && /^\|/' "$doc" |
       grep -o '^| `[a-z_]*` |' | sed 's/^| `//;s/` |$//' | sort)
if [ -z "$events" ] || [ -z "$rows" ]; then
    echo "no trusted-server events found in internal/ts/events.go or $doc" >&2
    fail=1
fi
for ev in $events; do
    if ! printf '%s\n' "$rows" | grep -qx "$ev"; then
        echo "event $ev has no row in $doc's histanon_ts_events_total table" >&2
        fail=1
    fi
done
for row in $rows; do
    if ! printf '%s\n' "$events" | grep -qx "$row"; then
        echo "$doc's histanon_ts_events_total table documents $row, which internal/ts does not count" >&2
        fail=1
    fi
done

# The burn-rate state machine's degraded reasons and audit kind must
# keep their documented names.
for token in 'slo_warning:' 'slo_page:' 'canary_stale' 'kind="slo"'; do
    if ! grep -qF "$token" "$doc"; then
        echo "SLO token $token undocumented in $doc" >&2
        fail=1
    fi
done

if [ "$fail" = 0 ]; then
    echo "checkobsdocs: $doc covers all metrics, audit fields, stages, span fields, keep reasons, TS events and the SLO surface"
fi
exit "$fail"
