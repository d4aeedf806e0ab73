#!/usr/bin/env bash
# Integration smoke for the check service: build the real binaries, start
# dicheckd on a random port, and drive a scripted session through the HTTP
# API — upload the generated CMOS chip (clean), apply an accidental-
# transistor edit (violation appears), revert it (clean again), then a
# sub-minimum-width wire (the WIDTH.CM region kernel fires and the
# per-class summary counts it) — asserting fingerprint parity with
# offline runs replaying the same edit script at every step, plus the
# report-delta path (?since= answers only added/removed, fingerprint-
# asserted against the offline replay), and the debounce bound (an edit
# burst costs at most 2 rechecks).
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
bin="$work/bin"
cleanup() {
  [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# jq-free JSON field extraction (top-level scalar fields of pretty-printed
# output). Usage: field FILE NAME
field() { sed -n "s/^  \"$2\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$1" | head -1; }

echo "== build"
mkdir -p "$bin"
go build -o "$bin/" ./cmd/dicheckd ./cmd/dicheck ./cmd/cifgen

echo "== generate workload"
"$bin/cifgen" -tech cmos -rows 4 -cols 4 -o "$work/chip.cif"

cat > "$work/break.json" <<'EOF'
[{"op":"add_wire","symbol":"chip","layer":"poly","width":200,"path":[3200,-400,3200,400]}]
EOF
cat > "$work/revert.json" <<'EOF'
[{"op":"delete_element","symbol":"chip","index":-1}]
EOF
cat > "$work/narrow.json" <<'EOF'
[{"op":"add_wire","symbol":"chip","layer":"metal","width":200,"path":[0,-5000,1000,-5000]}]
EOF

echo "== start daemon"
"$bin/dicheckd" -addr 127.0.0.1:0 -addr-file "$work/addr" -debounce 200ms &
daemon_pid=$!
for _ in $(seq 100); do [ -s "$work/addr" ] && break; sleep 0.1; done
[ -s "$work/addr" ] || fail "daemon never wrote its address"
base="http://$(cat "$work/addr")"
echo "   daemon at $base"
curl -sf "$base/v1/healthz" > /dev/null || fail "healthz"

# Step 1: offline baseline — clean chip, exit 0, fingerprint A.
echo "== offline baseline"
"$bin/dicheck" -tech cmos -json "$work/chip.cif" > "$work/offline-clean.json" \
  || fail "offline check of the clean chip exited $?"
fp_offline_clean=$(field "$work/offline-clean.json" fingerprint)
[ -n "$fp_offline_clean" ] || fail "no offline fingerprint"

# Step 2: served one-shot — same design, same fingerprint, exit 0.
echo "== served one-shot (clean)"
"$bin/dicheck" -tech cmos -serve "$base" -json "$work/chip.cif" > "$work/served-clean.json" \
  || fail "served check of the clean chip exited $?"
[ "$(field "$work/served-clean.json" clean)" = "true" ] || fail "served report not clean"
fp_served_clean=$(field "$work/served-clean.json" fingerprint)
[ "$fp_served_clean" = "$fp_offline_clean" ] \
  || fail "clean fingerprint mismatch: served $fp_served_clean offline $fp_offline_clean"

# Step 3: persistent session, then the violating edit. The served report
# must flag the accidental transistor and match the offline replay of the
# same edit script, and dicheck must exit 1 on it.
echo "== persistent session + violating edit"
"$bin/dicheck" -tech cmos -serve "$base" -session smoke -json "$work/chip.cif" > /dev/null \
  || fail "session create exited $?"
set +e
"$bin/dicheck" -serve "$base" -session smoke -edits "$work/break.json" -json > "$work/served-broken.json"
rc=$?
set -e
[ "$rc" = 1 ] || fail "served broken check exited $rc, want 1"
grep -q '"rule": "DEV.ACCIDENTAL"' "$work/served-broken.json" \
  || fail "DEV.ACCIDENTAL not reported by the service"
set +e
"$bin/dicheck" -tech cmos -edits "$work/break.json" -json "$work/chip.cif" > "$work/offline-broken.json"
rc=$?
set -e
[ "$rc" = 1 ] || fail "offline broken check exited $rc, want 1"
fp_served_broken=$(field "$work/served-broken.json" fingerprint)
fp_offline_broken=$(field "$work/offline-broken.json" fingerprint)
[ -n "$fp_served_broken" ] && [ "$fp_served_broken" = "$fp_offline_broken" ] \
  || fail "broken fingerprint mismatch: served $fp_served_broken offline $fp_offline_broken"

# Step 4: revert — clean again, byte-identical to the initial state.
echo "== revert"
"$bin/dicheck" -serve "$base" -session smoke -edits "$work/revert.json" -json > "$work/served-reverted.json" \
  || fail "served reverted check exited $?"
fp_reverted=$(field "$work/served-reverted.json" fingerprint)
[ "$fp_reverted" = "$fp_offline_clean" ] \
  || fail "revert fingerprint mismatch: $fp_reverted vs $fp_offline_clean"

# Step 5: width rule round-trip — a 200-wide metal wire (rule: 3λ = 300)
# must trip both the per-element W.CM check and the merged-region WIDTH.CM
# kernel through the daemon, with the per-class summary counting them
# under "width" and the fingerprint matching the offline replay.
echo "== width violation round-trip"
set +e
"$bin/dicheck" -serve "$base" -session smoke -edits "$work/narrow.json" -json > "$work/served-narrow.json"
rc=$?
set -e
[ "$rc" = 1 ] || fail "served narrow-wire check exited $rc, want 1"
grep -q '"rule": "WIDTH.CM"' "$work/served-narrow.json" \
  || fail "WIDTH.CM not reported by the service"
grep -q '"width": 2' "$work/served-narrow.json" \
  || fail "per-class summary does not count the two width findings"
set +e
"$bin/dicheck" -tech cmos -edits "$work/narrow.json" -json "$work/chip.cif" > "$work/offline-narrow.json"
rc=$?
set -e
[ "$rc" = 1 ] || fail "offline narrow-wire check exited $rc, want 1"
fp_served_narrow=$(field "$work/served-narrow.json" fingerprint)
fp_offline_narrow=$(field "$work/offline-narrow.json" fingerprint)
[ -n "$fp_served_narrow" ] && [ "$fp_served_narrow" = "$fp_offline_narrow" ] \
  || fail "narrow fingerprint mismatch: served $fp_served_narrow offline $fp_offline_narrow"
"$bin/dicheck" -serve "$base" -session smoke -edits "$work/revert.json" -json > /dev/null \
  || fail "narrow revert exited $?"

# Step 6: report deltas — break the session again and fetch the change
# as a delta against the clean fingerprint. The delta must carry only
# the new finding (added, nothing removed), name its base, and its
# envelope fingerprint must match the offline replay of the same edit —
# the contract that base + delta reconstructs the full report. Then
# revert and diff the other way (removed, nothing added), and finally
# probe the reset fallback with a fingerprint the daemon never served.
echo "== report deltas"
sid=$(curl -sf "$base/v1/sessions" | sed -n 's/^    "id": "\(s[0-9]*\)",$/\1/p' | head -1)
[ -n "$sid" ] || fail "no session id in listing"
curl -sf "$base/v1/sessions/$sid/report" > "$work/delta-base.json"
fp_base=$(field "$work/delta-base.json" fingerprint)
[ "$fp_base" = "$fp_offline_clean" ] || fail "delta base fingerprint $fp_base is not the clean state"
curl -sf -X POST "$base/v1/sessions/$sid/edits" \
  -d '{"edits":[{"op":"add_wire","symbol":"chip","layer":"poly","width":200,"path":[3200,-400,3200,400]}]}' \
  > /dev/null || fail "delta break edit"
curl -sf "$base/v1/sessions/$sid/report?since=$fp_base" > "$work/delta-fwd.json" || fail "delta fetch"
grep -q '"schema": "report-delta/v1"' "$work/delta-fwd.json" || fail "delta lacks its schema tag"
[ "$(field "$work/delta-fwd.json" base)" = "$fp_base" ] || fail "delta does not name its base"
grep -q '"reset": true' "$work/delta-fwd.json" && fail "known base answered a reset delta"
grep -q '"rule": "DEV.ACCIDENTAL"' "$work/delta-fwd.json" || fail "delta does not add DEV.ACCIDENTAL"
grep -q '"removed": \[\]' "$work/delta-fwd.json" || fail "forward delta removed something from a clean base"
fp_delta=$(field "$work/delta-fwd.json" fingerprint)
[ "$fp_delta" = "$fp_offline_broken" ] \
  || fail "delta fingerprint $fp_delta != offline broken replay $fp_offline_broken"
curl -sf -X POST "$base/v1/sessions/$sid/edits" \
  -d '{"edits":[{"op":"delete_element","symbol":"chip","index":-1}]}' > /dev/null || fail "delta revert edit"
curl -sf "$base/v1/sessions/$sid/report?since=$fp_delta" > "$work/delta-rev.json" || fail "reverse delta fetch"
grep -q '"added": \[\]' "$work/delta-rev.json" || fail "reverse delta added something"
grep -q '"rule": "DEV.ACCIDENTAL"' "$work/delta-rev.json" || fail "reverse delta does not remove DEV.ACCIDENTAL"
[ "$(field "$work/delta-rev.json" fingerprint)" = "$fp_offline_clean" ] \
  || fail "reverse delta fingerprint is not the clean state"
# The run behind that delta re-derived the root; the stats name why.
curl -sf "$base/v1/sessions/$sid/stats" | grep -q '"full_path": "structural-edit"' \
  || fail "stats do not name why the delete_element run took the full path"
curl -sf "$base/v1/sessions/$sid/report?since=no-such-fingerprint" > "$work/delta-reset.json" \
  || fail "reset delta fetch"
grep -q '"reset": true' "$work/delta-reset.json" || fail "unknown base did not answer a reset delta"
[ "$(field "$work/delta-reset.json" fingerprint)" = "$fp_offline_clean" ] \
  || fail "reset delta fingerprint is not the full current state"

# Step 7: debounce — a 10-edit no-net-motion burst straight at the API
# must cost at most 2 rechecks (observable via /stats).
echo "== debounce burst"
before=$(curl -sf "$base/v1/sessions/$sid/stats" | sed -n 's/^    "rechecks": \([0-9]*\),\{0,1\}$/\1/p')
for i in $(seq 5); do
  curl -sf -X POST "$base/v1/sessions/$sid/edits" -d '{"edits":[{"op":"move_element","symbol":"chip","index":-1,"dy":100}]}' > /dev/null
  curl -sf -X POST "$base/v1/sessions/$sid/edits" -d '{"edits":[{"op":"move_element","symbol":"chip","index":-1,"dy":-100}]}' > /dev/null
done
curl -sf "$base/v1/sessions/$sid/report" > "$work/burst-report.json"
curl -sf "$base/v1/sessions/$sid/stats" > "$work/burst-stats.json"
after=$(sed -n 's/^    "rechecks": \([0-9]*\),\{0,1\}$/\1/p' "$work/burst-stats.json")
burst=$((after - before))
[ "$burst" -le 2 ] || fail "10-edit burst cost $burst rechecks (want <= 2)"
grep -q '"clean": true' "$work/burst-report.json" || fail "burst end state not clean"

# The stats payload must expose the recheck timings, the size of the burst
# the last flush absorbed, and the engine's context-cache counters.
last_ns=$(sed -n 's/^    "last_recheck_ns": \([0-9]*\),\{0,1\}$/\1/p' "$work/burst-stats.json")
[ -n "$last_ns" ] && [ "$last_ns" -gt 0 ] || fail "stats lack a positive last_recheck_ns"
total_ns=$(sed -n 's/^    "total_recheck_ns": \([0-9]*\),\{0,1\}$/\1/p' "$work/burst-stats.json")
[ -n "$total_ns" ] && [ "$total_ns" -ge "$last_ns" ] || fail "stats lack a sane total_recheck_ns"
flush_batches=$(sed -n 's/^    "last_flush_batches": \([0-9]*\),\{0,1\}$/\1/p' "$work/burst-stats.json")
[ -n "$flush_batches" ] && [ "$flush_batches" -ge 1 ] && [ "$flush_batches" -le 10 ] \
  || fail "last_flush_batches '$flush_batches' does not reflect the burst"
grep -q '"ctx_hits":' "$work/burst-stats.json" || fail "stats lack ctx_hits"
grep -q '"ctx_misses":' "$work/burst-stats.json" || fail "stats lack ctx_misses"
grep -q '"rehashed":' "$work/burst-stats.json" || fail "stats lack rehashed"
grep -q '"full_path":' "$work/burst-stats.json" && fail "a replayed run reports a full-path reason"

# Step 8: lifecycle cleanup through the API.
echo "== delete session"
curl -sf -X DELETE "$base/v1/sessions/$sid" > /dev/null || fail "delete"
curl -s "$base/v1/sessions/$sid/report" | grep -q '"error"' || fail "deleted session still serves reports"

echo "PASS: integration smoke (clean -> violating -> clean, fingerprint parity, deltas, burst cost $burst rechecks)"
