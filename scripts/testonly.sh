#!/usr/bin/env bash
# Exported functions and methods that only tests call: those declared in
# non-test Go outside the nested bench/ module (tracked, or new and not
# ignored) whose name appears on no other non-test line there. Comment
# lines do not count. It is a grep over identifiers, so a name another
# declaration shares, or any other use of the word, hides a candidate.
# Prints "path:line name" per candidate, then exits 1 if a candidate is
# missing from scripts/testonly.keep, the exports kept on purpose, or an
# entry there is no longer a candidate.
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:bench/**' ':!:*_test.go' |
	xargs -0 awk '
		/^[[:space:]]*\/\// { next }
		/^func / {
			s = $0
			sub(/^func /, "", s)
			sub(/^\([^)]*\) /, "", s)
			if (s ~ /^[A-Z][A-Za-z0-9_]*[[(]/) {
				sub(/[[(].*$/, "", s)
				decls[s]++
				where[s] = where[s] FILENAME ":" FNR " "
			}
		}
		{
			n = split($0, toks, /[^A-Za-z0-9_]+/)
			split("", seen)
			for (i = 1; i <= n; i++) {
				if (toks[i] ~ /^[A-Z]/ && !(toks[i] in seen)) {
					seen[toks[i]] = 1
					lines[toks[i]]++
				}
			}
		}
		END {
			for (name in decls) {
				if (lines[name] > decls[name]) {
					continue
				}
				k = split(where[name], locs, " ")
				for (i = 1; i <= k; i++) {
					print locs[i], name
				}
			}
		}
	' | sort)
echo "$found"

keep=$(sed 's/#.*//; /^[[:space:]]*$/d' scripts/testonly.keep | sort)
names=$(echo "$found" | sed 's/:[0-9]* / /' | sort)
status=0
while read -r entry; do
	[ -n "$entry" ] || continue
	echo "test-only export not in scripts/testonly.keep: $entry" >&2
	status=1
done < <(comm -23 <(echo "$names") <(echo "$keep"))
while read -r entry; do
	[ -n "$entry" ] || continue
	echo "scripts/testonly.keep lists what is no longer test-only: $entry" >&2
	status=1
done < <(comm -13 <(echo "$names") <(echo "$keep"))
exit $status
