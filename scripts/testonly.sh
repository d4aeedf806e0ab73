#!/usr/bin/env bash
# Exported functions and methods that only tests call: those declared in
# non-test Go outside the nested bench/ module (tracked, or new and not
# ignored) whose name appears on no other non-test line there. Comment
# lines do not count. It is a grep over identifiers, so a name another
# declaration shares, or any other use of the word, hides a candidate;
# interface methods and the public API of the root package are expected
# in the list. Prints "path:line name" per candidate and gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:bench/**' ':!:*_test.go' |
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
	' | sort
