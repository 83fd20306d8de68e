#!/usr/bin/env bash
# Build the benchmark and the verifyio CLI from this checkout, then run
# the benchmark with the given arguments (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/verifyio_cli.exe 1>&2
# Write the build out now, so that no run's fsyncs wait for it.
sync
exec ./_build/default/perfbench/main.exe "$@"
