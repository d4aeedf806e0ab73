#!/usr/bin/env bash
# Integration smoke for the check service: build the real binaries, start
# dicheckd on a random port, and drive a scripted session through the HTTP
# API — upload the generated CMOS chip (clean), apply an accidental-
# transistor edit (violation appears), revert it (clean again), then a
# sub-minimum-width wire (the WIDTH.CM region kernel fires and the
# per-class summary counts it) — asserting fingerprint parity with
# offline runs replaying the same edit script at every step, plus the
# report-delta path (?since= answers only added/removed, fingerprint-
# asserted against the offline replay), the debounce bound (an edit
# burst costs at most 2 rechecks), the served window path (a floating
# box's move is window-patched), a bounded goroutine count after the
# session, and a clean SIGTERM shutdown (exit 0).
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

# flat, field and has read JSON fields whatever the whitespace.
. scripts/json.sh

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
has "$work/served-broken.json" 'violations[].rule=DEV.ACCIDENTAL' \
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
has "$work/served-narrow.json" 'violations[].rule=WIDTH.CM' \
  || fail "WIDTH.CM not reported by the service"
has "$work/served-narrow.json" 'classes.width=2' \
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
curl -sf "$base/v1/sessions" > "$work/sessions.json" || fail "session listing"
sid=$(field "$work/sessions.json" '[].id')
[ -n "$sid" ] || fail "no session id in listing"
curl -sf "$base/v1/sessions/$sid/report" > "$work/delta-base.json"
fp_base=$(field "$work/delta-base.json" fingerprint)
[ "$fp_base" = "$fp_offline_clean" ] || fail "delta base fingerprint $fp_base is not the clean state"
curl -sf -X POST "$base/v1/sessions/$sid/edits" \
  -d '{"edits":[{"op":"add_wire","symbol":"chip","layer":"poly","width":200,"path":[3200,-400,3200,400]}]}' \
  > /dev/null || fail "delta break edit"
curl -sf "$base/v1/sessions/$sid/report?since=$fp_base" > "$work/delta-fwd.json" || fail "delta fetch"
has "$work/delta-fwd.json" 'schema=report-delta/v1' || fail "delta lacks its schema tag"
[ "$(field "$work/delta-fwd.json" base)" = "$fp_base" ] || fail "delta does not name its base"
has "$work/delta-fwd.json" 'reset=true' && fail "known base answered a reset delta"
has "$work/delta-fwd.json" 'added[].rule=DEV.ACCIDENTAL' || fail "delta does not add DEV.ACCIDENTAL"
has "$work/delta-fwd.json" 'removed=[]' || fail "forward delta removed something from a clean base"
fp_delta=$(field "$work/delta-fwd.json" fingerprint)
[ "$fp_delta" = "$fp_offline_broken" ] \
  || fail "delta fingerprint $fp_delta != offline broken replay $fp_offline_broken"
curl -sf -X POST "$base/v1/sessions/$sid/edits" \
  -d '{"edits":[{"op":"delete_element","symbol":"chip","index":-1}]}' > /dev/null || fail "delta revert edit"
curl -sf "$base/v1/sessions/$sid/report?since=$fp_delta" > "$work/delta-rev.json" || fail "reverse delta fetch"
has "$work/delta-rev.json" 'added=[]' || fail "reverse delta added something"
has "$work/delta-rev.json" 'removed[].rule=DEV.ACCIDENTAL' || fail "reverse delta does not remove DEV.ACCIDENTAL"
[ "$(field "$work/delta-rev.json" fingerprint)" = "$fp_offline_clean" ] \
  || fail "reverse delta fingerprint is not the clean state"
# The run behind that delta re-derived the root; the stats name why.
curl -sf "$base/v1/sessions/$sid/stats" > "$work/delta-stats.json" || fail "stats after the delta"
has "$work/delta-stats.json" 'engine.full_path=structural-edit' \
  || fail "stats do not name why the delete_element run took the full path"
curl -sf "$base/v1/sessions/$sid/report?since=no-such-fingerprint" > "$work/delta-reset.json" \
  || fail "reset delta fetch"
has "$work/delta-reset.json" 'reset=true' || fail "unknown base did not answer a reset delta"
[ "$(field "$work/delta-reset.json" fingerprint)" = "$fp_offline_clean" ] \
  || fail "reset delta fingerprint is not the full current state"

# Step 7: debounce — a 10-edit no-net-motion burst straight at the API
# must cost at most 2 rechecks (observable via /stats).
echo "== debounce burst"
curl -sf "$base/v1/sessions/$sid/stats" > "$work/pre-burst-stats.json" || fail "stats before the burst"
before=$(field "$work/pre-burst-stats.json" session.rechecks)
for i in $(seq 5); do
  curl -sf -X POST "$base/v1/sessions/$sid/edits" -d '{"edits":[{"op":"move_element","symbol":"chip","index":-1,"dy":100}]}' > /dev/null
  curl -sf -X POST "$base/v1/sessions/$sid/edits" -d '{"edits":[{"op":"move_element","symbol":"chip","index":-1,"dy":-100}]}' > /dev/null
done
curl -sf "$base/v1/sessions/$sid/report" > "$work/burst-report.json"
curl -sf "$base/v1/sessions/$sid/stats" > "$work/burst-stats.json"
after=$(field "$work/burst-stats.json" session.rechecks)
burst=$((after - before))
[ "$burst" -le 2 ] || fail "10-edit burst cost $burst rechecks (want <= 2)"
has "$work/burst-report.json" 'clean=true' || fail "burst end state not clean"

# The stats payload must expose the recheck timings, the size of the burst
# the last flush absorbed, and the engine's context-cache counters.
last_ns=$(field "$work/burst-stats.json" session.last_recheck_ns)
[ -n "$last_ns" ] && [ "$last_ns" -gt 0 ] || fail "stats lack a positive last_recheck_ns"
total_ns=$(field "$work/burst-stats.json" session.total_recheck_ns)
[ -n "$total_ns" ] && [ "$total_ns" -ge "$last_ns" ] || fail "stats lack a sane total_recheck_ns"
flush_batches=$(field "$work/burst-stats.json" session.last_flush_batches)
[ -n "$flush_batches" ] && [ "$flush_batches" -ge 1 ] && [ "$flush_batches" -le 10 ] \
  || fail "last_flush_batches '$flush_batches' does not reflect the burst"
[ -n "$(field "$work/burst-stats.json" engine.ctx_hits)" ] || fail "stats lack ctx_hits"
[ -n "$(field "$work/burst-stats.json" engine.ctx_misses)" ] || fail "stats lack ctx_misses"
[ -n "$(field "$work/burst-stats.json" engine.rehashed)" ] || fail "stats lack rehashed"
[ -n "$(field "$work/burst-stats.json" engine.full_path)" ] && fail "a replayed run reports a full-path reason"

# Step 8: the served window path. A floating metal box added to chip and
# then moved: the move's run must patch the root in place, not re-derive
# it, and its report must match the offline replay of the same state (the
# edits before left the design as generated).
echo "== served window patch"
probe_add='{"op":"add_box","symbol":"chip","layer":"metal","box":[-50000,0,-49000,1000]}'
probe_move='{"op":"move_element","symbol":"chip","index":-1,"dy":250}'
echo "[$probe_add,$probe_move]" > "$work/probe.json"
curl -sf -X POST "$base/v1/sessions/$sid/edits" -d "{\"edits\":[$probe_add]}" > /dev/null || fail "probe add edit"
curl -sf "$base/v1/sessions/$sid/report" > /dev/null || fail "report after the probe add"
curl -sf -X POST "$base/v1/sessions/$sid/edits" -d "{\"edits\":[$probe_move]}" > /dev/null || fail "probe move edit"
curl -sf "$base/v1/sessions/$sid/report" > "$work/window-report.json" || fail "report after the probe move"
curl -sf "$base/v1/sessions/$sid/stats" > "$work/window-stats.json" || fail "stats after the probe move"
has "$work/window-stats.json" 'engine.window_patched=true' \
  || fail "the probe move's run was not window-patched (full path: $(field "$work/window-stats.json" engine.full_path))"
[ -n "$(field "$work/window-stats.json" engine.full_path)" ] && fail "a window-patched run reports a full-path reason"
set +e
"$bin/dicheck" -tech cmos -edits "$work/probe.json" -json "$work/chip.cif" > "$work/offline-probe.json"
set -e
fp_probe=$(field "$work/offline-probe.json" fingerprint)
[ -n "$fp_probe" ] && [ "$(field "$work/window-report.json" fingerprint)" = "$fp_probe" ] \
  || fail "window-patched fingerprint does not match the offline replay $fp_probe"

# Step 9: lifecycle cleanup through the API.
echo "== delete session"
curl -sf -X DELETE "$base/v1/sessions/$sid" > /dev/null || fail "delete"
curl -s "$base/v1/sessions/$sid/report" > "$work/deleted-report.json" || true
[ -n "$(field "$work/deleted-report.json" error)" ] || fail "deleted session still serves reports"

# Step 10: bounded resources and a clean shutdown. No debounce timer,
# request or session may leave a goroutine behind, and SIGTERM must
# drain the daemon and exit 0.
echo "== goroutines and SIGTERM"
curl -sf "$base/v1/stats" > "$work/stats.json" || fail "GET /v1/stats"
goroutines=$(field "$work/stats.json" goroutines)
[ -n "$goroutines" ] && [ "$goroutines" -le 300 ] || fail "daemon holds $goroutines goroutines (want <= 300)"
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" = 0 ] || fail "daemon exited $rc on SIGTERM"

echo "PASS: integration smoke (clean -> violating -> clean, fingerprint parity, deltas, burst cost $burst rechecks, $goroutines goroutines, clean SIGTERM)"
