#!/usr/bin/env bash
# Fails unless every named test exists in the given packages.
#
#   bash .github/require-tests.sh PACKAGE... -- TEST...
#
# A `go test -run` pattern naming a test that no longer exists passes
# silently, so a CI step that selects tests by name calls this first.
set -euo pipefail

pkgs=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  pkgs+=("$1")
  shift
done
# $# counts the "--" and the tests after it.
if [ ${#pkgs[@]} -eq 0 ] || [ $# -lt 2 ]; then
  echo "usage: $0 PACKAGE... -- TEST..." >&2
  exit 2
fi
shift

listed=$(go test -list '.*' "${pkgs[@]}")
missing=0
for t in "$@"; do
  if ! grep -qx "$t" <<<"$listed"; then
    echo "test $t does not exist in ${pkgs[*]}" >&2
    missing=1
  fi
done
exit $missing
