// Package server is the concurrent DRC check service: a long-running
// HTTP/JSON daemon (cmd/dicheckd) that manages named check sessions, each
// owning one incremental core.Engine and one design, plus the client
// library the shipped tools and the integration tests drive it with.
//
// The wire report below is the same machine-readable projection of
// core.Report that `dicheck -json` prints, extended with the fingerprint
// digest: field names are part of the output contract; extend, don't
// rename. Every report-shaped payload — full report, report delta,
// on-disk snapshot — declares its schema explicitly (report/v1,
// report-delta/v1, snapshot/v1) and shares one Envelope, so there is
// exactly one place the common header fields are defined.
package server

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Wire schema tags. Every versioned payload carries its tag in the
// envelope's "schema" field; a breaking field change bumps the suffix.
const (
	SchemaReport      = "report/v1"
	SchemaReportDelta = "report-delta/v1"
	SchemaSnapshot    = "snapshot/v1"
)

// Envelope is the shared wire header: the schema tag, the fingerprint of
// the design state the payload describes (core.FingerprintDigest — equal
// digests mean the duration-free report content is byte-identical, the
// parity contract between a served session and an offline replay), the
// per-class violation tally, and the duration of the engine run that
// produced that state. Full reports, report deltas, and session
// snapshots all embed it.
type Envelope struct {
	Schema      string         `json:"schema"`
	Fingerprint string         `json:"fingerprint"`
	Classes     map[string]int `json:"classes,omitempty"`
	CheckNS     int64          `json:"check_ns,omitempty"`
}

// ReportBody is the non-violation remainder of a report: small,
// fixed-size summary data that ships with both full reports and deltas —
// a delta plus its base reconstructs a full report byte-identically
// because everything outside the violation list rides along.
type ReportBody struct {
	Design   string       `json:"design"`
	Clean    bool         `json:"clean"`
	Errors   int          `json:"errors"`
	Warnings int          `json:"warnings"`
	Stages   []Stage      `json:"stages"`
	Stats    Stats        `json:"stats"`
	Netlist  *Netlist     `json:"netlist,omitempty"`
	Engine   *EngineStats `json:"engine,omitempty"`
}

// Report is the wire form of a full check report (schema report/v1).
type Report struct {
	Envelope
	ReportBody
	Violations []Violation `json:"violations"`

	// WireBytes is the encoded payload size the client observed (not a
	// wire field — the daemon never sends it).
	WireBytes int64 `json:"-"`
}

// ReportDelta is the incremental wire form (schema report-delta/v1),
// answered on GET /v1/sessions/{id}/report?since=<fingerprint>: the
// envelope and body describe the current state, Added/Removed are the
// violations that appeared/disappeared since the Base fingerprint.
// Applying the delta to the base report (ApplyDelta) reproduces the full
// current report byte-identically.
//
// When the base fingerprint is unknown or evicted from the session's
// bounded history, the daemon falls back to Reset=true with Base empty
// and Added carrying the complete violation list — a reset delta IS a
// full report in delta clothing, so clients always converge.
type ReportDelta struct {
	Envelope
	Base    string      `json:"base,omitempty"`
	Reset   bool        `json:"reset,omitempty"`
	Added   []Violation `json:"added"`
	Removed []Violation `json:"removed"`
	ReportBody

	// WireBytes is the encoded payload size the client observed (not a
	// wire field).
	WireBytes int64 `json:"-"`
}

func (r *Report) setWireBytes(n int64)      { r.WireBytes = n }
func (d *ReportDelta) setWireBytes(n int64) { d.WireBytes = n }

// Violation is the wire form of one finding.
type Violation struct {
	Rule     string   `json:"rule"`
	Severity string   `json:"severity"`
	Detail   string   `json:"detail"`
	Where    Rect     `json:"where"`
	Symbol   string   `json:"symbol,omitempty"`
	Path     string   `json:"path,omitempty"`
	Layer    int      `json:"layer"`
	Nets     []string `json:"nets,omitempty"`
}

// Rect is the wire form of a geom.Rect.
type Rect struct {
	X1 int64 `json:"x1"`
	Y1 int64 `json:"y1"`
	X2 int64 `json:"x2"`
	Y2 int64 `json:"y2"`
}

// Stage is one pipeline stage's timing and counters.
type Stage struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	Checks     int    `json:"checks"`
	Violations int    `json:"violations"`
}

// Stats is the wire form of core.Stats.
type Stats struct {
	ElementsChecked        int `json:"elements_checked"`
	SymbolDefsChecked      int `json:"symbol_defs_checked"`
	DeviceInstances        int `json:"device_instances"`
	InteractionCandidates  int `json:"interaction_candidates"`
	InteractionChecked     int `json:"interaction_checked"`
	SkippedNoRule          int `json:"skipped_no_rule"`
	SkippedSameNetExempt   int `json:"skipped_same_net_exempt"`
	SkippedRelated         int `json:"skipped_related"`
	SkippedConnectionPairs int `json:"skipped_connection_pairs"`
	ProcessDowngrades      int `json:"process_downgrades"`
}

// Netlist summarizes the extracted netlist.
type Netlist struct {
	Nets    int `json:"nets"`
	Devices int `json:"devices"`
}

// EngineStats is the wire form of core.EngineStats. Rehashed counts the
// symbols the last run had to re-hash (the edited ones and their callers:
// the bookkeeping around a run scales with it, not with the design);
// CtxHits/CtxMisses are the netlist cache's span-context counters
// (derived-by-translation vs built-from-scratch); WindowPatched reports
// whether the last run took the windowed root-patch fast path, and
// FullPath, when it did not, the first reason why (core.FullPath* or
// netlist.Refuse*).
type EngineStats struct {
	Runs          int    `json:"runs"`
	Symbols       int    `json:"symbols"`
	DirtySymbols  int    `json:"dirty_symbols"`
	Rehashed      int    `json:"rehashed"`
	ArtifactDefs  int    `json:"artifact_defs"`
	InterBuilt    int    `json:"inter_built"`
	InterReused   int    `json:"inter_reused"`
	SigMisses     int    `json:"sig_misses"`
	SigHits       int    `json:"sig_hits"`
	CtxHits       int    `json:"ctx_hits"`
	CtxMisses     int    `json:"ctx_misses"`
	WindowPatched bool   `json:"window_patched"`
	FullPath      string `json:"full_path,omitempty"`
}

func rectWire(r geom.Rect) Rect { return Rect{r.X1, r.Y1, r.X2, r.Y2} }

func engineWire(es core.EngineStats) *EngineStats {
	return &EngineStats{
		Runs: es.Runs, Symbols: es.Symbols, DirtySymbols: es.DirtySymbols,
		Rehashed: es.Rehashed, ArtifactDefs: es.ArtifactDefs, InterBuilt: es.InterBuilt,
		InterReused: es.InterReused, SigMisses: es.SigMisses, SigHits: es.SigHits,
		CtxHits: es.CtxHits, CtxMisses: es.CtxMisses, WindowPatched: es.WindowPatched,
		FullPath: es.FullPath,
	}
}

// violationWire projects one core violation into wire form.
func violationWire(v *core.Violation) Violation {
	return Violation{
		Rule:     v.Rule,
		Severity: v.Severity.String(),
		Detail:   v.Detail,
		Where:    rectWire(v.Where),
		Symbol:   v.Symbol,
		Path:     v.Path,
		Layer:    int(v.Layer),
		Nets:     v.Nets,
	}
}

// violationsWire projects a core violation sequence; the result is never
// nil so empty lists marshal as [] rather than null.
func violationsWire(vs []core.Violation) []Violation {
	out := make([]Violation, 0, len(vs))
	for i := range vs {
		out = append(out, violationWire(&vs[i]))
	}
	return out
}

// violationCore inverts violationWire — the conversion is lossless, which
// is what lets snapshots persist the delta history in wire form and
// restore it into the engine-domain ring.
func violationCore(v *Violation) core.Violation {
	sev := core.Error
	if v.Severity == core.Warning.String() {
		sev = core.Warning
	}
	return core.Violation{
		Rule:     v.Rule,
		Severity: sev,
		Detail:   v.Detail,
		Where:    geom.Rect{X1: v.Where.X1, Y1: v.Where.Y1, X2: v.Where.X2, Y2: v.Where.Y2},
		Symbol:   v.Symbol,
		Path:     v.Path,
		Layer:    tech.LayerID(v.Layer),
		Nets:     v.Nets,
	}
}

// violationsCore inverts violationsWire.
func violationsCore(vs []Violation) []core.Violation {
	out := make([]core.Violation, 0, len(vs))
	for i := range vs {
		out = append(out, violationCore(&vs[i]))
	}
	return out
}

// digestCount counts digest calls. Nothing in production reads it: it is
// how the tests pin "one digest per completed engine run".
var digestCount atomic.Int64

// digest is the package's only call of core.FingerprintDigest — a whole
// pass over the report's violations and netlist. A session pays it once
// per completed engine run and carries the result beside the report; the
// exported builders, which are handed a bare report, pay it once per call.
func digest(rep *core.Report) string {
	digestCount.Add(1)
	return core.FingerprintDigest(rep)
}

// buildEnvelope assembles the shared header for a schema over one core
// report and its digest. CheckNS is the summed stage durations — the
// engine-run cost of producing this state.
func buildEnvelope(schema, fp string, rep *core.Report) Envelope {
	env := Envelope{
		Schema:      schema,
		Fingerprint: fp,
	}
	if len(rep.Violations) > 0 {
		env.Classes = core.CountByClass(rep.Violations)
	}
	for _, s := range rep.Stats.Stages {
		env.CheckNS += s.Duration.Nanoseconds()
	}
	return env
}

// countErrors counts the error-severity violations without materializing
// them the way Report.Errors does.
func countErrors(vs []core.Violation) int {
	n := 0
	for i := range vs {
		if vs[i].Severity == core.Error {
			n++
		}
	}
	return n
}

// buildBody assembles the non-violation remainder shared by full reports
// and deltas.
func buildBody(rep *core.Report, eng *core.Engine) ReportBody {
	errs := countErrors(rep.Violations)
	body := ReportBody{
		Design:   rep.Design.Name,
		Clean:    errs == 0,
		Errors:   errs,
		Warnings: len(rep.Violations) - errs,
	}
	for _, s := range rep.Stats.Stages {
		body.Stages = append(body.Stages, Stage{
			Name:       s.Name,
			DurationNS: s.Duration.Nanoseconds(),
			Checks:     s.Checks,
			Violations: s.Violations,
		})
	}
	st := rep.Stats
	body.Stats = Stats{
		ElementsChecked:        st.ElementsChecked,
		SymbolDefsChecked:      st.SymbolDefsChecked,
		DeviceInstances:        st.DeviceInstances,
		InteractionCandidates:  st.InteractionCandidates,
		InteractionChecked:     st.InteractionChecked,
		SkippedNoRule:          st.SkippedNoRule,
		SkippedSameNetExempt:   st.SkippedSameNetExempt,
		SkippedRelated:         st.SkippedRelated,
		SkippedConnectionPairs: st.SkippedConnectionPairs,
		ProcessDowngrades:      st.ProcessDowngrades,
	}
	if rep.Netlist != nil {
		body.Netlist = &Netlist{Nets: rep.Netlist.NumNets(), Devices: len(rep.Netlist.Devices)}
	}
	if eng != nil {
		body.Engine = engineWire(eng.Stats())
	}
	return body
}

// BuildReport projects a core.Report (and, when non-nil, the engine that
// produced it) into the wire form.
func BuildReport(rep *core.Report, eng *core.Engine) *Report {
	return buildReport(digest(rep), rep, eng)
}

// buildReport is BuildReport for a caller that already holds rep's digest.
func buildReport(fp string, rep *core.Report, eng *core.Engine) *Report {
	return &Report{
		Envelope:   buildEnvelope(SchemaReport, fp, rep),
		ReportBody: buildBody(rep, eng),
		Violations: violationsWire(rep.Violations),
	}
}

// BuildDelta projects the current report as a delta against a known base
// state: base is the client's fingerprint, prev the violation sequence
// that state had. Added/Removed come from one sorted merge walk
// (core.DiffViolations) — the total order over violations makes the diff
// deterministic and O(prev+current).
func BuildDelta(base string, prev []core.Violation, rep *core.Report, eng *core.Engine) *ReportDelta {
	return buildDelta(digest(rep), base, prev, rep, eng)
}

// buildDelta is BuildDelta for a caller that already holds rep's digest.
func buildDelta(fp, base string, prev []core.Violation, rep *core.Report, eng *core.Engine) *ReportDelta {
	added, removed := core.DiffViolations(prev, rep.Violations)
	return &ReportDelta{
		Envelope:   buildEnvelope(SchemaReportDelta, fp, rep),
		Base:       base,
		Added:      violationsWire(added),
		Removed:    violationsWire(removed),
		ReportBody: buildBody(rep, eng),
	}
}

// BuildResetDelta projects the current report as a reset delta — the
// fallback when the requested base fingerprint is unknown or already
// evicted from the bounded history: no base, Added carries everything.
func BuildResetDelta(rep *core.Report, eng *core.Engine) *ReportDelta {
	return buildResetDelta(digest(rep), rep, eng)
}

// buildResetDelta is BuildResetDelta for a caller that already holds
// rep's digest.
func buildResetDelta(fp string, rep *core.Report, eng *core.Engine) *ReportDelta {
	return &ReportDelta{
		Envelope:   buildEnvelope(SchemaReportDelta, fp, rep),
		Reset:      true,
		Added:      violationsWire(rep.Violations),
		Removed:    []Violation{},
		ReportBody: buildBody(rep, eng),
	}
}

// compareWireViolations orders wire violations by core.CompareViolations
// over their lossless core projections, so a wire-side merge agrees
// byte-for-byte with the engine-side diff that produced the delta.
func compareWireViolations(a, b *Violation) int {
	ca, cb := violationCore(a), violationCore(b)
	return core.CompareViolations(&ca, &cb)
}

// ApplyDelta reconstructs the full report a delta describes. For a reset
// delta the base is ignored (Added is the complete list); otherwise base
// must be the report whose fingerprint the delta was computed against.
// The result is byte-identical to what GET .../report would have
// returned for the same state — fingerprint included — which the
// property tests assert by marshaling both.
func ApplyDelta(base *Report, d *ReportDelta) (*Report, error) {
	out := &Report{
		Envelope:   d.Envelope,
		ReportBody: d.ReportBody,
	}
	out.Schema = SchemaReport
	if d.Reset {
		out.Violations = append([]Violation{}, d.Added...)
		return out, nil
	}
	if base == nil {
		return nil, errors.New("apply delta: no base report for a non-reset delta")
	}
	if base.Fingerprint != d.Base {
		return nil, fmt.Errorf("apply delta: base fingerprint %s does not match delta base %s",
			base.Fingerprint, d.Base)
	}
	vs, err := patchViolations(base.Violations, d.Added, d.Removed)
	if err != nil {
		return nil, err
	}
	out.Violations = vs
	return out, nil
}

// patchViolations merges a sorted base sequence with a sorted diff:
// every removed entry must match one base entry (multiset semantics),
// added entries interleave by the wire total order.
func patchViolations(base, added, removed []Violation) ([]Violation, error) {
	kept := make([]Violation, 0, len(base))
	ri := 0
	for i := range base {
		if ri < len(removed) && compareWireViolations(&base[i], &removed[ri]) == 0 {
			ri++
			continue
		}
		kept = append(kept, base[i])
	}
	if ri != len(removed) {
		return nil, fmt.Errorf("apply delta: %d removed violations not present in base", len(removed)-ri)
	}
	out := make([]Violation, 0, len(kept)+len(added))
	i, j := 0, 0
	for i < len(kept) && j < len(added) {
		if compareWireViolations(&kept[i], &added[j]) <= 0 {
			out = append(out, kept[i])
			i++
		} else {
			out = append(out, added[j])
			j++
		}
	}
	out = append(out, kept[i:]...)
	out = append(out, added[j:]...)
	return out, nil
}

// CountRules tallies wire violations by rule name (the summary the CLI
// prints when not verbose).
func CountRules(vs []Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Rule]++
	}
	return out
}
