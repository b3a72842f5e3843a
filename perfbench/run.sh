#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload train-densenet-bnff --seed 1 --seconds 26 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) and the
# traced runs' Chrome traces stay under .bench_build/, so the benchmark writes
# nowhere outside the checkout.
set -euo pipefail

root=$(pwd)
target="${CARGO_TARGET_DIR:-.bench_build}"
case "${target}" in
/*) ;;
*) target="${root}/${target}" ;;
esac
out="${target}/perfbench"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOMODCACHE="${out}/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

# The go command keeps its settings and telemetry under the user's config
# directory; point that into the build directory too.
(cd "${root}/perfbench" && XDG_CONFIG_HOME="${out}/config" go build -o "${out}/perfbench" .)
exec "${out}/perfbench" --trace-dir "${out}/traces" "$@"
