#!/usr/bin/env bash
# Asserts OBSERVABILITY.md documents the full observability surface:
# every histanon_* metric family declared in internal/obs/obs.go
# (including the histanon_slo_* SLO families), every audit Event wire
# field declared in internal/obs/audit.go (including the kind="slo"
# fields), every span stage name, every span JSON field, and every
# tail-sampling keep reason declared in internal/obs/trace.go — plus
# the privacy-SLO surface: every /v1/slo and /healthz-SLO JSON field
# declared in internal/httpapi/slo.go and every canary probe field
# declared in internal/slo/canary.go. Every Metric* constant declared
# in internal/obs/obs.go must also be listed by MetricNames(), which the
# server's exposition tests hold to /metrics, so no declared family goes
# unregistered. Three surfaces are held equal in both directions, so
# documentation of something the code no longer has fails too: the
# metric family names (every full histanon_* name the doc mentions is
# declared in internal/obs/obs.go), the
# histanon_ts_events_total event table (against the event list in
# internal/ts/events.go), and the Health endpoint table (its first
# column against the JSON fields of HealthResponse, OutboxHealth and
# StorageHealth in internal/httpapi/httpapi.go and SLOHealth in
# internal/httpapi/slo.go). CI runs it in the docs job, so adding a
# metric, field or event without documenting it, or documenting one the
# server does not have, fails the build.
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

# A declared family must be registered: every Metric* constant in
# obs.go's const block is listed by MetricNames(), whose every family
# the server's exposition tests require on /metrics. A family no
# process registers fails here instead of lingering in the docs.
consts=$(sed -n '/^const (/,/^)/p' internal/obs/obs.go |
         grep -o '^[[:space:]]*Metric[A-Za-z0-9]*[[:space:]]*=' | tr -d ' \t=' | sort -u)
listed=$(sed -n '/^func MetricNames/,/^}/p' internal/obs/obs.go |
         grep -o 'Metric[A-Za-z0-9]*' | grep -vx MetricNames | sort -u)
if [ -z "$consts" ] || [ -z "$listed" ]; then
    echo "no Metric* constants or MetricNames() list found in internal/obs/obs.go" >&2
    fail=1
fi
for c in $consts; do
    if ! grep -qx "$c" <<<"$listed"; then
        echo "metric family $c is declared in internal/obs/obs.go but missing from MetricNames()" >&2
        fail=1
    fi
done

# The reverse: a full name the doc mentions must be a declared family.
# Names ending in "_" are prefixes (histanon_storage_*); the
# _bucket/_sum/_count series names resolve to their histogram family.
declared=$(grep -o '"histanon_[a-z0-9_]*"' internal/obs/obs.go | tr -d '"' | sort -u)
for name in $(grep -o 'histanon_[a-z0-9_]*' "$doc" | sort -u); do
    case "$name" in *_) continue ;; esac
    family=$(printf '%s\n' "$name" | sed -E 's/_(bucket|sum|count)$//')
    if ! grep -qx -e "$name" -e "$family" <<<"$declared"; then
        echo "$doc documents metric family $name, which internal/obs/obs.go does not declare" >&2
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
    if ! grep -qx "$ev" <<<"$rows"; then
        echo "event $ev has no row in $doc's histanon_ts_events_total table" >&2
        fail=1
    fi
done
for row in $rows; do
    if ! grep -qx "$row" <<<"$events"; then
        echo "$doc's histanon_ts_events_total table documents $row, which internal/ts does not count" >&2
        fail=1
    fi
done

# /healthz: every field in the first column of the Health endpoint
# table is a JSON field of the health response or one of its sections,
# and every such field has a first-column entry.
health=$(for ty in HealthResponse OutboxHealth StorageHealth SLOHealth; do
             sed -n "/^type $ty struct/,/^}/p" internal/httpapi/httpapi.go internal/httpapi/slo.go
         done | grep -o 'json:"[a-zA-Z0-9_]*' | sed 's/json:"//' | sort -u)
cols=$(awk '/^## Health endpoint/{on=1; next} on && /^## /{exit}
            on && /^\|/{split($0, c, "|"); print c[2]}' "$doc" |
       grep -o '`[a-zA-Z0-9_]*`' | tr -d '`' | sort -u)
if [ -z "$health" ] || [ -z "$cols" ]; then
    echo "no /healthz fields found in internal/httpapi or $doc's Health endpoint table" >&2
    fail=1
fi
for field in $health; do
    if ! grep -qx "$field" <<<"$cols"; then
        echo "/healthz field $field has no row in $doc's Health endpoint table" >&2
        fail=1
    fi
done
for col in $cols; do
    if ! grep -qx "$col" <<<"$health"; then
        echo "$doc's Health endpoint table documents $col, which /healthz does not serve" >&2
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
    echo "checkobsdocs: $doc covers all metrics, audit fields, stages, span fields, keep reasons, TS events, /healthz fields and the SLO surface"
fi
exit "$fail"
