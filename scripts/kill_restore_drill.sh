#!/usr/bin/env bash
# Kill-and-restore drill for crash-safe sessions: start dicheckd with a
# state directory, drive a session into a known violating state, force a
# snapshot, keep editing (a burst the snapshot does NOT cover), then
# kill -9 the daemon mid-burst. A fresh daemon on the same state
# directory must restore the session and serve a report whose fingerprint
# is identical to an offline engine replaying the snapshotted edit script
# — acknowledged-and-snapshotted state survives SIGKILL bit-for-bit;
# post-snapshot edits are the documented loss window.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
bin="$work/bin"
cleanup() {
  [ -n "${daemon_pid:-}" ] && kill -9 "$daemon_pid" 2>/dev/null || true
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

start_daemon() {
  "$bin/dicheckd" -addr 127.0.0.1:0 -addr-file "$work/addr" \
    -debounce 25ms -state-dir "$work/state" > "$work/daemon.log" &
  daemon_pid=$!
  for _ in $(seq 100); do [ -s "$work/addr" ] && break; sleep 0.1; done
  [ -s "$work/addr" ] || fail "daemon never wrote its address"
  base="http://$(cat "$work/addr")"
  curl -sf "$base/v1/healthz" > /dev/null || fail "healthz"
}

echo "== start daemon (first life)"
start_daemon
echo "   daemon at $base"

echo "== session + violating edit + snapshot"
"$bin/dicheck" -tech cmos -serve "$base" -session drill -json "$work/chip.cif" > /dev/null \
  || fail "session create exited $?"
set +e
"$bin/dicheck" -serve "$base" -session drill -edits "$work/break.json" -json > "$work/pre-kill.json"
rc=$?
set -e
[ "$rc" = 1 ] || fail "broken check exited $rc, want 1"
fp_prekill=$(field "$work/pre-kill.json" fingerprint)
[ -n "$fp_prekill" ] || fail "no pre-kill fingerprint"
curl -sf -X POST "$base/v1/snapshot" > "$work/snap.json" || fail "POST /snapshot"
has "$work/snap.json" 'saved=1' || fail "snapshot sweep saved nothing: $(cat "$work/snap.json")"

echo "== post-snapshot burst, then kill -9 mid-burst"
for i in 1 2 3; do
  curl -s -X POST "$base/v1/sessions/s1/edits" -d \
    '{"edits":[{"op":"add_box","symbol":"chip","layer":"metal","box":[-50000,0,-49000,1000]}]}' \
    > /dev/null &
done
kill -9 "$daemon_pid"
wait 2>/dev/null || true
daemon_pid=""

echo "== restart on the same state directory"
rm -f "$work/addr"
start_daemon
echo "   daemon at $base"
grep -q "restored 1 session" "$work/daemon.log" || fail "daemon did not report restoring the session"

echo "== restored report vs offline replay"
curl -sf "$base/v1/sessions/s1/report" > "$work/post-restore.json" || fail "restored report"
fp_restored=$(field "$work/post-restore.json" fingerprint)
[ "$fp_restored" = "$fp_prekill" ] \
  || fail "restored fingerprint $fp_restored != pre-kill $fp_prekill"
set +e
"$bin/dicheck" -tech cmos -edits "$work/break.json" -json "$work/chip.cif" > "$work/offline.json"
rc=$?
set -e
[ "$rc" = 1 ] || fail "offline replay exited $rc, want 1"
fp_offline=$(field "$work/offline.json" fingerprint)
[ "$fp_restored" = "$fp_offline" ] \
  || fail "restored fingerprint $fp_restored != offline replay $fp_offline"

# The delta index survives the crash too: a client that last saw the
# pre-kill fingerprint gets an empty non-reset delta from the restored
# daemon, not a full-report reset.
echo "== delta continuity across the crash"
curl -sf "$base/v1/sessions/s1/report?since=$fp_prekill" > "$work/post-restore-delta.json" \
  || fail "post-restore delta fetch"
has "$work/post-restore-delta.json" 'reset=true' \
  && fail "restored daemon forgot the pre-kill fingerprint (reset delta)"
has "$work/post-restore-delta.json" 'added=[]' || fail "post-restore delta added something"
has "$work/post-restore-delta.json" 'removed=[]' || fail "post-restore delta removed something"
[ "$(field "$work/post-restore-delta.json" fingerprint)" = "$fp_prekill" ] \
  || fail "post-restore delta fingerprint drifted"

echo "== restored session keeps working"
curl -sf "$base/v1/sessions/s1/stats" > "$work/stats.json" || fail "restored stats"
has "$work/stats.json" 'restored=true' || fail "session not flagged restored"
set +e
"$bin/dicheck" -serve "$base" -session drill -edits "$work/break.json" -json > /dev/null
rc=$?
set -e
[ "$rc" = 1 ] || fail "post-restore edit exited $rc, want 1"

echo "PASS: SIGKILL mid-burst, restored fingerprint identical to offline replay"
