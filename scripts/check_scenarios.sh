#!/bin/sh
# Byte-level determinism gate for the scenario registry: run every
# registered scenario through `skipctl run --scenario NAME` at --jobs 1
# and --jobs 8 and diff the report JSON — and the lifecycle span trace
# (--span-out) — byte for byte. A (scenario, params) pair must fully
# determine both regardless of worker count — this is the contract
# that makes parallel sweeps (and span-based attribution) trustworthy.
#
# Usage: check_scenarios.sh [path/to/skipctl] [workdir]
#
# Defaults assume the standard build tree (build/examples/skipctl).
# Also smoke-checks `skipctl scenarios` (the listing must include every
# name we are about to run) and the typo suggestion on unknown names.
set -e

cd "$(dirname "$0")/.."
SKIPCTL="${1:-build/examples/skipctl}"
WORKDIR="${2:-build/scenario_diff}"

if [ ! -x "$SKIPCTL" ]; then
    echo "check_scenarios.sh: skipctl not found at $SKIPCTL" >&2
    exit 1
fi
mkdir -p "$WORKDIR"

# The listing is the source of truth for what to run: first column of
# every non-empty line.
"$SKIPCTL" scenarios > "$WORKDIR/listing.txt"
NAMES=$(awk 'NF > 0 { print $1 }' "$WORKDIR/listing.txt")
if [ -z "$NAMES" ]; then
    echo "check_scenarios.sh: 'skipctl scenarios' listed nothing" >&2
    exit 1
fi

# Unknown names must fail with the nearest-match suggestion.
if "$SKIPCTL" run --scenario mmpp-diurnel --quick \
        > "$WORKDIR/typo.txt" 2>&1; then
    echo "check_scenarios.sh: typo'd scenario unexpectedly ran" >&2
    exit 1
fi
grep -q "did you mean" "$WORKDIR/typo.txt" || {
    echo "check_scenarios.sh: unknown-scenario error lacks suggestion" >&2
    cat "$WORKDIR/typo.txt" >&2
    exit 1
}

STATUS=0
for NAME in $NAMES; do
    # The raw "cluster" scenario needs a spec file; reuse the smoke spec
    # the ctest suite already drives through `skipctl cluster`.
    SPEC_ARGS=""
    if [ "$NAME" = "cluster" ]; then
        SPEC_ARGS="--spec tests/data/cluster_smoke.json"
    fi
    for JOBS in 1 8; do
        # The table echoes the --out/--span-out paths, which
        # necessarily differ between the two runs; drop those lines
        # before comparing.
        "$SKIPCTL" run --scenario "$NAME" $SPEC_ARGS --quick \
            --jobs "$JOBS" --out "$WORKDIR/$NAME.jobs$JOBS.json" \
            --span-out "$WORKDIR/$NAME.spans$JOBS.json" |
            grep -v -e "scenario(s) ->" -e "span trace" \
            > "$WORKDIR/$NAME.jobs$JOBS.txt"
    done
    if cmp -s "$WORKDIR/$NAME.jobs1.json" "$WORKDIR/$NAME.jobs8.json" &&
       cmp -s "$WORKDIR/$NAME.spans1.json" "$WORKDIR/$NAME.spans8.json" &&
       cmp -s "$WORKDIR/$NAME.jobs1.txt" "$WORKDIR/$NAME.jobs8.txt"; then
        echo "scenario $NAME: --jobs 1 == --jobs 8 (report + spans + table)"
    else
        echo "scenario $NAME: --jobs 1 and --jobs 8 outputs DIFFER" >&2
        STATUS=1
    fi
done

exit $STATUS
