#!/usr/bin/env bash
# Exported functions and methods that only tests call, declared in
# non-test Go outside the nested bench/ module (tracked, or new and not
# ignored). A method is a candidate when its name appears on no other
# non-test line there; a package-level function when no other non-test
# line names it as pkg.Name outside its package or unqualified inside it
# (pkg is the name its package clause declares). Comment lines do not
# count. It is a grep over identifiers, so a method name another
# declaration shares, or any other use of the word, hides a candidate.
# Prints "path:line name" per candidate, then exits 1 if a candidate is
# missing from scripts/testonly.keep, the exports kept on purpose, or an
# entry there is no longer a candidate.
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:bench/**' ':!:*_test.go' |
	xargs -0 awk '
		FNR == 1 {
			dir = FILENAME
			sub(/\/?[^\/]*$/, "", dir)
		}
		/^package / { pkg[dir] = $2 }
		/^[[:space:]]*\/\// { next }
		/^func / {
			s = $0
			sub(/^func /, "", s)
			method = s ~ /^\(/
			sub(/^\([^)]*\) /, "", s)
			if (s ~ /^[A-Z][A-Za-z0-9_]*[[(]/) {
				sub(/[[(].*$/, "", s)
				key = method ? s : dir SUBSEP s
				decls[key]++
				where[key] = where[key] FILENAME ":" FNR " "
			}
		}
		{
			# A token is a dotted chain of identifiers: each capitalised
			# word counts as a name, as pkg.Name after a word, and as an
			# unqualified use in this directory when it starts the chain.
			n = split($0, toks, /[^A-Za-z0-9_.]+/)
			split("", seen)
			for (i = 1; i <= n; i++) {
				m = split(toks[i], w, ".")
				for (j = 1; j <= m; j++) {
					if (w[j] !~ /^[A-Z]/) {
						continue
					}
					use[1] = w[j]
					use[2] = j > 1 ? "." w[j-1] "." w[j] : dir SUBSEP w[j]
					for (u = 1; u <= 2; u++) {
						if (!(use[u] in seen)) {
							seen[use[u]] = 1
							lines[use[u]]++
						}
					}
				}
			}
		}
		END {
			for (key in decls) {
				if (split(key, part, SUBSEP) == 2) {
					used = lines[key] + lines["." pkg[part[1]] "." part[2]]
					name = part[2]
				} else {
					used = lines[key]
					name = key
				}
				if (used > decls[key]) {
					continue
				}
				k = split(where[key], locs, " ")
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
