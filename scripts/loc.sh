#!/usr/bin/env bash
# Line counts of the module's Go files (tracked, or new and not ignored),
# as quoted in ROADMAP.md and CHANGES.md: non-test Go outside the nested
# bench/ module, then test Go outside it. Prints "non-test N" and "test N".
set -euo pipefail
cd "$(dirname "$0")/.."

# count GREP_ARGS... sums the lines of the Go files whose paths grep selects.
count() {
  git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:bench/**' |
    grep -z "$@" | xargs -0 -r cat | wc -l
}
echo "non-test $(count -v '_test\.go$')"
echo "test $(count '_test\.go$')"
