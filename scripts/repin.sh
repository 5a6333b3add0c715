#!/usr/bin/env bash
# Re-pin the golden constants of tests/support/mod.rs after a change that
# moves behaviour on purpose (an RNG stream, an event order).
#
# The bands are the arbiter: the shape checks, the sharded and prototype
# conformance bands and the cross-harness invariants run first, and
# nothing is printed unless they hold on the new behaviour. Then the four
# suites that own a pin run under HAWK_PRINT_DIGESTS=1 and every constant
# comes out in paste-ready form, unchanged ones included.
#
#   scripts/repin.sh        bands, then the constants on stdout
set -euo pipefail
cd "$(dirname "$0")/.."

# Every test that compares against a constant has `pinned` in its name.
cargo test --release -q --test shape_checks --test invariants_prop >&2
cargo test --release -q --test sharded_golden --test backend_conformance \
    -- --skip pinned >&2

# Stale pins fail their assertion after printing; that is the point. The
# harness writes its own progress on the same line, hence the `sub`.
HAWK_PRINT_DIGESTS=1 cargo test --release -q --no-fail-fast \
    --test golden_determinism --test scenario_golden --test sharded_golden \
    --test backend_conformance -- pinned --nocapture --test-threads 1 2>/dev/null |
    awk '/pub const/ { sub(/^.*pub const/, "pub const"); on = 1 }
         on { print } /;$/ { on = 0 }' || true
