#!/usr/bin/env bash
# Byte-identity digests of every bench's stdout, for proving that a change
# leaves the benches' output untouched (run it on two build trees and diff
# the output).
#
# Runs every bench under <build-dir>/bench except bench_micro (its output
# is wall-clock timings) at its defaults, once with --threads 1 and once
# with --threads 4, and prints one `<bench>/t<threads> <sha256>` line per
# run. bench_service's stdout is cut at its `timing (wall-clock` header:
# everything after it is machine-dependent latency, everything before it
# is deterministic. The benches run in a scratch directory, so nothing
# lands in the caller's working tree.
#
# Usage: scripts/bench_identity.sh <build-dir> > digests.txt
#        diff parent-digests.txt digests.txt
#
# Exits 1 if any bench exits non-zero (its line then reads FAILED).

set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
bench_dir="$(cd "$1" && pwd)/bench"
if [ ! -d "$bench_dir" ]; then
  echo "$0: no bench directory under $1" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
for bin in "$bench_dir"/bench_*; do
  name="$(basename "$bin")"
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  [ "$name" = bench_micro ] && continue
  for threads in 1 4; do
    out="$work/$name.t$threads"
    if ! (cd "$work" && "$bin" --threads "$threads" > "$out" 2> /dev/null); then
      echo "$name/t$threads FAILED"
      status=1
      continue
    fi
    if [ "$name" = bench_service ]; then
      sed -i '/^timing (wall-clock/,$d' "$out"
    fi
    echo "$name/t$threads $(sha256sum < "$out" | cut -d' ' -f1)"
  done
done
exit $status
