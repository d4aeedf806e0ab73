package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Engine is the check pipeline: six stages over content-addressed caches
// at the symbol-definition level. Check is one cold run of a fresh Engine;
// a long-lived Engine turns the iterate-edit-recheck loop into paying only
// for what changed:
//
//	eng := core.NewEngine(tc, opts)
//	rep, err := eng.Check(design)      // cold: populates the caches
//	...edit some symbols...
//	rep, err = eng.Recheck(design)     // warm: re-derives only dirty subtrees
//
// Every result the engine memoizes lives in the netlist.Tier it is built
// over, on the entry of the content it describes, keyed by the symbols'
// content hashes (layout.Symbol.Hashes): stage-1 element and stage-3
// layer-rule results on a symbol's own entry (netlist.OwnEntry) beside its
// stage-2 device analysis, and interaction adjudications on the
// subtree-hashed extraction artifact — all of it shared with every other
// engine over the tier, published once and never changed after — and the
// record of the last run's interaction and construction stages on the
// extraction it was computed from, which is the engine's own. The engine
// reaches the tier through its own view (netlist.Cache), whose references
// keep what it reached alive. The entries need no invalidation of their own — an
// edited definition hashes to a new key, and every ancestor's subtree hash
// changes with it (the dirty-propagation walk up the call graph), so stale
// entries are never reachable — and they age out on the view's one
// horizon. The hashes ignore symbol names, so every symbol that draws the
// same thing shares each entry; a result gets a name (Violation.Symbol)
// only as it is added to a report. The engine itself holds no cached
// result. The hashes are cached
// on the symbols behind Symbol.Touch (layout.ApplyEdit touches on every
// op): a run re-hashes the touched symbols and their callers, not the
// design. Whether a run may patch the previous root instead of re-deriving
// it is extraction's decision (netlist.ExtractIncremental), made against
// its cache's own last extraction, so other consumers of the design
// between two runs cost the engine nothing.
//
// A warm Recheck returns a Report byte-identical to what a cold Check of
// the same design state returns, except for wall-clock stage Durations;
// Fingerprint captures exactly the duration-free content that is
// guaranteed identical.
//
// The interaction stage replays one adjudicated tally per (definition,
// net-environment signature): per-pair geometry is measured once per
// definition — spacing distances are invariant under the Manhattan
// instance transforms — and the Figure 12 subcase logic is re-run only
// when an instance's surrounding connectivity actually differs (see
// signature below). Options are fixed at engine construction. A run
// splits its chip-sized work across runtime.GOMAXPROCS(0) goroutines: the
// builds of missing per-definition interaction caches (candidate sweeps
// and keepout probes, independent across definitions), and on a full
// re-derive of the root, extraction's per-call, per-footprint and
// per-device passes and the signatures, each with its tally, found or
// adjudicated there under its definition's lock. The calling goroutine
// is one of the workers, work below a fixed size never leaves it (a
// window-patched recheck spawns nothing), every split writes disjoint
// output, and only absorption and report assembly stay serial. A tally
// is a function of its definition and signature, adjudicated once
// whoever reaches it first, so neither the report nor the signature and
// interaction-cache counts depend on the pool's size.
//
// An Engine is not safe for concurrent use; engines over one tier run
// concurrently. Reports share structure with the tier's values; treat them
// as immutable.
type Engine struct {
	tc   *tech.Technology
	opts Options

	cache *netlist.Cache

	// mark is the design's hashing mark as of the last completed run: the
	// next run counts the symbols re-hashed after it.
	mark layout.HashMark
	runs int
	last EngineStats

	// poisoned, once set, refuses every further run: a panic that escaped
	// mid-run may have left the caches half-written, and a half-written
	// cache can silently corrupt reports. The owner (e.g. a dicheckd
	// session recovering a handler panic) quarantines the engine with
	// Poison instead of guessing which entries survived.
	poisoned error
}

// replayRecord is one completed run's interaction and construction stages,
// replayable when extraction patches the root instead of rebuilding it.
// Everything instance-structural (net facts, child tallies, counters) is
// unchanged by such a patch; only the root definition's own pairs can
// differ, and those are patched through patchRootInter, and the patched
// nets' bounds, rewritten by netlist.PatchConstruction. The record hangs
// on the extraction it was computed from (IncExtraction.Replay), and only
// once its run completed: a patch hands it over with the root's
// interaction cache (RootPatch), so what the engine finds there always
// describes the extraction as it was before the patch.
type replayRecord struct {
	facts *netFacts // the per-run net facts the signatures read

	rootTally *interactionTally // instance 0's live tally (nil: no pairs)
	childViol []Violation       // instances 1.. violations, fully resolved
	childSigs int               // instances 1.. whose definition has pairs: one signature each

	child       InteractionStats // instances 1.. counter deltas
	childChecks int              // instances 1.. stage checks

	cons []netlist.Issue // the construction stage's findings
}

// netFacts answers the two questions a net-environment signature asks of
// the chip-global netlist: does a net carry a device terminal, and do two
// nets share a device. Both are read off the netlist as extracted — the
// second from the nets' terminal lists, so a run builds no chip-wide pair
// table to ask it.
type netFacts struct {
	nl     *netlist.Netlist
	hasDev []bool // per net: carries a device terminal (a dense column of len(Terminals) > 0)
}

func newNetFacts(nl *netlist.Netlist) *netFacts {
	f := &netFacts{nl: nl, hasDev: make([]bool, len(nl.Nets))}
	for i := range nl.Nets {
		f.hasDev[i] = len(nl.Nets[i].Terminals) > 0
	}
	return f
}

// shares reports whether some device has terminals on both of two nets (of
// one net twice: whether the net carries a device terminal): it walks the
// shorter terminal list looking for a device that is also on the other net.
func (f *netFacts) shares(a, b netlist.NetID) bool {
	terms, other := f.nl.Nets[a].Terminals, b
	if tb := f.nl.Nets[b].Terminals; len(tb) < len(terms) {
		terms, other = tb, a
	}
	for i := range terms {
		tns := f.nl.Devices[terms[i].Device].TerminalNets
		for ti := range tns {
			if tns[ti].Net == other {
				return true
			}
		}
	}
	return false
}

// ownResults are one definition's stage-1 and layer-rule results, kept on
// the tier's entry for its own content hash (netlist.OwnEntry.Checks), so
// they age with its device analysis. Either is nil until its stage first
// reaches the definition, and is published once: engines over one tier
// that compute it at once keep the first result.
type ownResults struct {
	elems atomic.Pointer[elemEntry]
	rules atomic.Pointer[ruleEntry]
}

// own returns the results of one definition's own content, marking its
// entry reached in this run.
func (e *Engine) own(h layout.Hash) *ownResults {
	ent := e.cache.Own(h)
	if r, _ := ent.Checks.Load().(*ownResults); r != nil {
		return r
	}
	return ent.Checks.Publish(&ownResults{}).(*ownResults)
}

// publish stores v in p unless p holds a value, and returns p's value.
func publish[T any](p *atomic.Pointer[T], v *T) *T {
	if p.CompareAndSwap(nil, v) {
		return v
	}
	return p.Load()
}

// elemEntry caches one definition's stage-1 result.
type elemEntry struct {
	vs       []Violation
	checks   int
	elements int
}

// ruleEntry caches one definition's layer-rule stage result. Keyed by the
// definition's own content hash: layer rules read only the definition's
// own merged geometry, never its children.
type ruleEntry struct {
	vs     []Violation
	checks int
}

// EngineStats reports cache effectiveness for the most recent run.
type EngineStats struct {
	Runs         int
	Symbols      int // symbols reachable from Top in the last run
	DirtySymbols int // symbols whose subtree hash changed since the prior run
	Rehashed     int // symbols whose own or subtree hash was recomputed since the prior run
	ArtifactDefs int // definition artifacts the engine's view of its tier references
	InterBuilt   int // interaction definition caches built this run
	InterReused  int // interaction definition caches replayed this run
	SigMisses    int // instance signatures that had to adjudicate
	SigHits      int // instance signatures replayed from a cached tally
	Signatures   int // net-environment signatures computed this run

	// Taken counts the values this run took from the engine's tier that
	// its view did not hold (another engine's, or ones it had dropped), and
	// Built the values it built and published; interaction caches are
	// InterBuilt.
	Taken, Built netlist.TierCounts

	// Array-regularity context cache (extraction span derivation):
	// cumulative over the engine's lifetime, not per run.
	CtxHits   int // span contexts derived by translating a same-class representative
	CtxMisses int // span contexts built from scratch (one per distinct class)

	// WindowPatched reports that the last run took the windowed-recheck
	// fast path: extraction patched the previous root in place and the
	// interaction stage replayed its recorded result.
	WindowPatched bool

	// FullPath names why the run re-derived the root instead: extraction's
	// refusal of the root patch (netlist.Refuse*). Empty on a window-patched
	// run.
	FullPath string
}

// NewEngine creates an incremental check session for one technology and
// option set, over a tier of its own. Options are captured by value;
// construct a new engine to check under different options.
func NewEngine(tc *tech.Technology, opts Options) *Engine {
	return NewEngineOn(netlist.NewTier(), tc, opts)
}

// NewEngineOn creates a check session over a tier that other engines may
// share: every engine over one tier must check under the same technology
// and the same options of those the tier's values depend on — Metric,
// NoExemptions, ProcessSpacing and ProcessMargin, which adjudication
// reads. SkipConstruction and Reference may differ: the construction
// issues ride on the engine's own replay record, and the reference is
// compared afresh each run. Each engine should be closed when done
// (Close), so the tier keeps only what live engines reach.
func NewEngineOn(t *netlist.Tier, tc *tech.Technology, opts Options) *Engine {
	return &Engine{tc: tc, opts: opts, cache: t.NewCache()}
}

// errClosed poisons a closed engine.
var errClosed = errors.New("engine closed")

// Close releases the engine's references to its tier's values and refuses
// every further run. Reports already returned stay valid.
func (e *Engine) Close() {
	e.Poison(errClosed)
	e.cache.Close()
}

// Stats returns cache-effectiveness counters for the most recent run.
func (e *Engine) Stats() EngineStats { return e.last }

// Poison marks the engine permanently unusable; every subsequent run
// fails with the reason. Call it after recovering a panic that unwound
// through a run — the caches may be half-written, and refusing is the
// only answer that preserves the fingerprint-parity contract.
func (e *Engine) Poison(reason error) {
	if e.poisoned == nil {
		e.poisoned = reason
	}
}

// Poisoned returns the poison reason, nil while the engine is healthy.
func (e *Engine) Poisoned() error { return e.poisoned }

// Check runs the full pipeline, reusing every cache entry whose content
// hash still matches. On a fresh engine this is the cold run that
// populates the caches.
func (e *Engine) Check(d *layout.Design) (*Report, error) {
	return e.run(context.Background(), d)
}

// CheckContext is Check under a context: the engine observes ctx at
// every pipeline-stage boundary and aborts with ctx.Err(). Cancellation
// is cooperative at stage granularity — a stage in flight runs to
// completion so the content-addressed caches are never torn; everything
// those completed stages cached stays valid for the next run.
func (e *Engine) CheckContext(ctx context.Context, d *layout.Design) (*Report, error) {
	return e.run(ctx, d)
}

// Recheck is Check for the edit loop: identical semantics, provided so
// call sites read as intent. The returned report is byte-identical
// (modulo stage durations) to what a cold Check of the same design state
// would return.
func (e *Engine) Recheck(d *layout.Design) (*Report, error) {
	return e.run(context.Background(), d)
}

func (e *Engine) run(ctx context.Context, d *layout.Design) (*Report, error) {
	if e.poisoned != nil {
		return nil, fmt.Errorf("core: engine poisoned: %w", e.poisoned)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	e.runs++
	stats := EngineStats{Runs: e.runs}
	taken0, built0 := e.cache.Use()

	// The hashing pass counts what moved since the last completed run; the
	// stages then read each symbol's hashes off the symbol.
	rehashed, dirty, mark := d.HashesSince(e.mark)
	stats.Symbols = len(d.SortedSymbols())
	stats.Rehashed, stats.DirtySymbols = rehashed, dirty

	rep := &Report{Design: d, Tech: e.tc}
	c := &checker{design: d, tech: e.tc, rep: rep}

	// stage runs one pipeline stage unless the context has expired; the
	// first expiry observed suppresses every following stage so the run
	// aborts at the next boundary.
	var ctxErr error
	stage := func(name string, fn func()) {
		if ctxErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			ctxErr = err
			return
		}
		c.stage(name, fn)
	}

	stage("check elements", func() { e.checkElements(c, d) })
	stage("check primitive symbols", func() { e.checkPrimitiveSymbols(c, d) })
	stage("check layer rules", func() { e.checkLayerRules(c, d) })

	var inc *netlist.IncExtraction
	var rec *replayRecord
	stage("generate hierarchical net list", func() {
		var issues []netlist.Issue
		var err error
		inc, issues, err = netlist.ExtractIncremental(d, e.tc, e.cache, runtime.GOMAXPROCS(0))
		if err != nil {
			c.add(Violation{Rule: "STRUCT.EXTRACT", Severity: Error, Detail: err.Error()})
			return
		}
		rep.Netlist = inc.Netlist
		for _, is := range issues {
			c.add(Violation{Rule: is.Rule, Severity: Warning, Detail: is.Detail, Where: is.Where})
		}
	})
	if inc != nil {
		stage("check legal connections", func() { e.checkConnections(c, inc) })
		stage("check interactions", func() { rec = e.checkInteractions(c, inc, &stats) })
		if !e.opts.SkipConstruction {
			stage("check construction rules", func() { rec.cons = e.checkConstruction(c, inc) })
		}
		if e.opts.Reference != nil {
			stage("check netlist reference", func() {
				for _, is := range netlist.Compare(inc.Netlist, e.opts.Reference) {
					c.add(Violation{Rule: is.Rule, Severity: Error, Detail: is.Detail, Where: is.Where})
				}
			})
		}
	}
	if ctxErr != nil {
		// Aborted between stages: e.mark stays as the last completed run
		// left it, so the next run accounts for every edit since then, not
		// since this abort. The run's record is hung on its
		// extraction only below, so a root patch never hands over the record
		// of a run that did not finish.
		return nil, ctxErr
	}
	sortViolations(rep.Violations)
	if inc != nil {
		inc.Replay = rec
	}

	e.mark = mark

	stats.ArtifactDefs = e.cache.Len()
	stats.CtxHits, stats.CtxMisses = e.cache.ContextStats()
	taken, built := e.cache.Use()
	stats.Taken, stats.Built = taken.Sub(taken0), built.Sub(built0)
	if inc != nil {
		stats.WindowPatched, stats.FullPath = inc.Patch != nil, inc.Refused
	}
	e.last = stats
	return rep, nil
}

// checkElements is stage 1 with per-definition caching by own hash: every
// symbol that draws the same elements shares one entry, and each reports
// its violations under its own name.
func (e *Engine) checkElements(c *checker, d *layout.Design) {
	for _, s := range d.SortedSymbols() {
		if s.IsPrimitive() {
			continue
		}
		r := e.own(s.Hashes().Own)
		ent := r.elems.Load()
		if ent == nil {
			vs, checks, elements := elementChecks(s, e.tc)
			ent = publish(&r.elems, &elemEntry{vs: vs, checks: checks, elements: elements})
		}
		c.rep.Stats.ElementsChecked += ent.elements
		c.countChecks(ent.checks)
		c.addNamed(ent.vs, s.Name)
	}
}

// checkPrimitiveSymbols is stage 2 with device analyses memoized by own
// hash (shared with extraction's device recognition).
func (e *Engine) checkPrimitiveSymbols(c *checker, d *layout.Design) {
	for _, s := range d.SortedSymbols() {
		if !s.IsPrimitive() {
			continue
		}
		c.rep.Stats.SymbolDefsChecked++
		c.countChecks(1)
		_, probs := e.cache.Analyze(s, s.Hashes().Own, e.tc)
		for _, v := range deviceProblemViolations(s, probs) {
			c.add(v)
		}
	}
}

// checkLayerRules is the layer-rule stage with per-definition caching by
// own hash: the rule kernels see only a definition's own merged geometry,
// so an entry stays valid however the subtree beneath changes, and serves
// every symbol that draws the same geometry, under each one's name.
func (e *Engine) checkLayerRules(c *checker, d *layout.Design) {
	for _, s := range d.SortedSymbols() {
		if s.IsPrimitive() {
			continue
		}
		r := e.own(s.Hashes().Own)
		ent := r.rules.Load()
		if ent == nil {
			vs, checks := layerRuleChecks(s, e.tc)
			ent = publish(&r.rules, &ruleEntry{vs: vs, checks: checks})
		}
		c.countChecks(ent.checks)
		c.addNamed(ent.vs, s.Name)
	}
}

// checkConnections is stage 4: the illegal pairs were gathered from
// per-definition candidates; the items resolve through the root artifact.
func (e *Engine) checkConnections(c *checker, inc *netlist.IncExtraction) {
	c.rep.Stats.DeviceInstances = len(inc.Netlist.Devices)
	for _, pair := range inc.IllegalPairs {
		a, _ := inc.Root.ResolveItem(pair[0])
		b, _ := inc.Root.ResolveItem(pair[1])
		c.countChecks(1)
		layer := c.tech.Layer(a.Layer)
		c.add(Violation{
			Rule:     "CONN.ILLEGAL",
			Severity: Error,
			Detail: fmt.Sprintf("%s elements touch without skeletal connection (butting or shallow overlap; overlap by at least the minimum width instead)",
				layer.Name),
			Where: a.Bounds.Intersect(b.Bounds),
			Path:  a.Path,
			Layer: a.Layer,
			Nets:  c.netNames(inc.Netlist, a.Net, b.Net),
		})
	}
}

// ---- Incremental interaction stage ------------------------------------

// defPair is one candidate pair at a definition's level, with lazily
// memoized geometry. All geometric measurements are invariant under the
// Manhattan transforms instances are placed with, so they are computed at
// most once per definition, not once per instance or per run.
type defPair struct {
	a, b int // positions in defInter.items; a is the lower definition item index

	flags     uint8
	accBounds geom.Rect
	accOK     bool
	overlaps  bool
	distVal   float64
	procVal   bool
}

const (
	gAcc uint8 = 1 << iota
	gOverlap
	gDist
	gProc
)

// defInter is the per-definition interaction cache: the candidate pairs
// whose LCA is this definition, the local net classes their adjudication
// can depend on, and one adjudicated tally per observed net-environment
// signature. It hangs on its artifact's slot, shared by every engine over
// the tier: everything but the tallies and the pair geometry memos is
// fixed when it is published, and those two are written under mu only
// (see adjudicate). Only the root patch changes the rest, on a root no
// other engine can reach (netlist's withdraw).
type defInter struct {
	art *netlist.SymbolArtifacts

	pairs []defPair

	// candClasses is the signature domain: every local class appearing in
	// a pair, plus the terminal classes of every device appearing in a
	// pair (the related-through-device subcase reads those). classPos
	// holds each local class's position in it plus one (0: absent).
	candClasses []int
	classPos    []int32

	// classPairAt lists the distinct unordered class pairs for which the
	// shares-a-device relation is part of the signature, each as the two
	// classes' positions in candClasses; classPairPos finds a pair's entry.
	classPairAt  [][2]int32
	classPairPos map[[2]int]int

	// items holds frame-resolved copies of the pair-endpoint items (the
	// embedded ones live in child frames); pair indices refer to it. An
	// embedded item under upright embeddings keeps the region of the
	// definition that owns it: itemOff moves it into this frame
	// (netlist.ResolveItem), and the pair measurements apply it
	// (defPairGeom).
	items   []netlist.ConnItem
	itemOff []geom.Point

	// itemIdx maps definition item index -> position in items (-1: not yet
	// a pair endpoint). Retained so a root patch can resolve the moved
	// items' new pairs without a rebuild.
	itemIdx []int32

	// sigs holds one adjudicated tally per observed signature. A definition
	// whose every pair is internal to one device (every primitive) has an
	// empty signature domain, so its one tally sits under the empty key.
	// Readers load the map without a lock; adjudicate swaps in a copy with
	// the new tally, under mu, which also guards the pairs' geometry memos.
	mu   sync.Mutex
	sigs atomic.Pointer[sigTallies]

	// Keepout checks (contact-over-gate, isolation-vs-base) have no net
	// dependence at all, so one tally per definition replays for every
	// instance and every signature.
	gateT, baseT keepTally
}

// sigTallies maps a signature to its adjudicated tally.
type sigTallies = map[string]*interactionTally

// tally returns the cached tally of a signature, nil when there is none.
func (di *defInter) tally(sig []byte) *interactionTally { return (*di.sigs.Load())[string(sig)] }

// adjudicate returns the tally of a signature, adjudicating it under the
// definition's lock when no engine has yet, and reports whether it did.
func (e *Engine) adjudicate(di *defInter, labels []int, sig []byte) (*interactionTally, bool) {
	di.mu.Lock()
	defer di.mu.Unlock()
	m := *di.sigs.Load()
	if t := m[string(sig)]; t != nil {
		return t, false
	}
	t := e.adjudicateDef(di, labels, sig)
	next := make(sigTallies, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[string(sig)] = t
	di.sigs.Store(&next)
	return t, true
}

// keepTally is the replayable result of a definition's keepout checks.
type keepTally struct {
	checks int
	vs     []violationDraft // Nets unused (drafts carry NoNet)
}

// cachedInter returns the live interaction cache of one definition, nil
// when there is none. The entry hangs on the artifact it was built from
// (SymbolArtifacts.Inter), so it is valid for that exact artifact value by
// construction — the extraction cache may rebuild a content hash it has
// seen before into a new artifact, whose item indices a stale entry must
// not be replayed against — and reaching it costs the per-instance loop no
// lookup. An artifact patched in place loses its entry to the RootPatch
// until the replay puts it back patched too. The entry lives and dies with
// its artifact: the extraction cache's eviction is its only horizon.
func (e *Engine) cachedInter(art *netlist.SymbolArtifacts) *defInter {
	di, _ := art.Inter.Load().(*defInter)
	return di
}

// buildDefInter computes a definition's interaction cache without touching
// the engine's cache maps or stats. It reads only immutable artifact and
// technology state, so distinct definitions may build concurrently.
func (e *Engine) buildDefInter(art *netlist.SymbolArtifacts, maxGap int64) *defInter {
	di := &defInter{
		art:          art,
		classPos:     make([]int32, art.NumClasses),
		classPairPos: make(map[[2]int]int),
	}
	di.sigs.Store(&sigTallies{})
	// A flat per-item table replaces per-candidate map lookups: the
	// callback below runs once per sweep candidate, the hottest loop of a
	// definition (re)build. It records the pairs by definition item index
	// and marks their endpoints (itemIdx 0); the endpoints then resolve
	// once each into an exactly sized table. Layers that can never
	// interact (no spacing cell, no device rule) are dropped by the sweep:
	// such a pair can produce no check and no violation, and is no
	// candidate.
	di.itemIdx = make([]int32, art.NumItems())
	for i := range di.itemIdx {
		di.itemIdx[i] = -1
	}
	endpoints := 0
	mark := func(i int) {
		if di.itemIdx[i] < 0 {
			di.itemIdx[i] = 0
			endpoints++
		}
	}
	art.CrossItemPairs(maxGap, e.tc.Interacts, func(i, j int) {
		if i > j {
			i, j = j, i
		}
		mark(i)
		mark(j)
		di.pairs = append(di.pairs, defPair{a: i, b: j})
	})
	di.items = make([]netlist.ConnItem, endpoints)
	di.itemOff = make([]geom.Point, endpoints)
	k := int32(0)
	for i, v := range di.itemIdx {
		if v == 0 {
			di.itemIdx[i] = k
			di.items[k], di.itemOff[k] = art.ResolveItem(i)
			k++
		}
	}
	for i := range di.pairs {
		p := &di.pairs[i]
		p.a, p.b = int(di.itemIdx[p.a]), int(di.itemIdx[p.b])
		di.registerPairMeta(p.a, p.b)
	}
	return di
}

// addClass records one local net class in the signature domain.
func (di *defInter) addClass(cl int) {
	if cl >= 0 && di.classPos[cl] == 0 {
		di.candClasses = append(di.candClasses, cl)
		di.classPos[cl] = int32(len(di.candClasses))
	}
}

// pos returns a recorded class's position in candClasses.
func (di *defInter) pos(cl int) int { return int(di.classPos[cl]) - 1 }

// addDev records one local device's terminal classes.
func (di *defInter) addDev(dev int) {
	if dev < 0 {
		return
	}
	for _, tn := range di.art.Devices[dev].TerminalNets {
		di.addClass(int(tn.Net))
	}
}

// registerPairMeta folds one pair's endpoints into the signature-domain
// bookkeeping (classes, devices, class pairs). Shared between the initial
// build and root-patch pair additions. A pair inside one device registers
// nothing: adjudicatePair decides it before asking any net question.
func (di *defInter) registerPairMeta(pa, pb int) {
	a, b := di.itemAt(pa), di.itemAt(pb)
	if a.Dev >= 0 && a.Dev == b.Dev {
		return
	}
	di.addClass(int(a.Net))
	di.addClass(int(b.Net))
	di.addDev(a.Dev)
	di.addDev(b.Dev)
	if a.Net != netlist.NoNet && b.Net != netlist.NoNet {
		cp := [2]int{int(a.Net), int(b.Net)}
		if cp[0] > cp[1] {
			cp[0], cp[1] = cp[1], cp[0]
		}
		if _, ok := di.classPairPos[cp]; !ok {
			di.classPairPos[cp] = len(di.classPairAt)
			di.classPairAt = append(di.classPairAt, [2]int32{int32(di.pos(cp[0])), int32(di.pos(cp[1]))})
		}
	}
}

// resolveLocal resolves a definition item index into the pair-endpoint
// item table, appending on first use.
func (di *defInter) resolveLocal(gi int) int {
	if k := di.itemIdx[gi]; k >= 0 {
		return int(k)
	}
	k := len(di.items)
	it, off := di.art.ResolveItem(gi)
	di.items, di.itemOff = append(di.items, it), append(di.itemOff, off)
	di.itemIdx[gi] = int32(k)
	return k
}

// itemAt resolves a pair-endpoint index to its frame-correct item.
func (di *defInter) itemAt(k int) *netlist.ConnItem { return &di.items[k] }

// netEnvSignature captures everything one instance's global net
// environment can contribute to pair adjudication at this definition:
//
//   - which candidate classes are merged with which (by external wiring),
//     as canonical partition labels;
//   - whether each candidate class's global net carries any device; and
//   - for each class pair under candidate pairs, whether the two global
//     nets share a device.
//
// Two instances with equal signatures adjudicate every pair identically —
// same branches, same counters, same violations (up to the instance
// transform and path) — so one cached tally serves them all.
func (e *Engine) netEnvSignature(di *defInter, inc *netlist.IncExtraction, ii int,
	facts *netFacts, scratch *sigScratch) []byte {

	hasDev := facts.hasDev
	scratch.global = scratch.global[:0]
	scratch.labels = scratch.labels[:0]
	scratch.sig = scratch.sig[:0]
	scratch.epoch++
	next := 0
	for _, cl := range di.candClasses {
		g := inc.GlobalNet(ii, cl)
		scratch.global = append(scratch.global, g)
		var lbl int
		if scratch.labelSeen[g] == scratch.epoch {
			lbl = scratch.labelOf[g]
		} else {
			lbl = next
			next++
			scratch.labelSeen[g] = scratch.epoch
			scratch.labelOf[g] = lbl
		}
		scratch.labels = append(scratch.labels, lbl)
		// Labels are bounded by the definition's candidate class count;
		// four bytes keeps the encoding collision-free at any size a
		// design could reach in memory.
		scratch.sig = append(scratch.sig, byte(lbl), byte(lbl>>8), byte(lbl>>16), byte(lbl>>24))
		if hasDev[g] {
			scratch.sig = append(scratch.sig, 1)
		} else {
			scratch.sig = append(scratch.sig, 0)
		}
	}
	for _, at := range di.classPairAt {
		ga, gb := scratch.global[at[0]], scratch.global[at[1]]
		bit := byte(0)
		if ga == gb {
			if hasDev[ga] {
				bit = 1
			}
		} else if facts.shares(ga, gb) {
			bit = 1
		}
		scratch.sig = append(scratch.sig, bit)
	}
	return scratch.sig
}

// sigScratch holds signature-evaluation buffers reused across instances,
// one per shard of the signature phase. Per-net label state is
// epoch-stamped (indexed by global net id) so resetting between instances
// is one counter increment, not a map clear.
type sigScratch struct {
	global    []netlist.NetID
	labels    []int
	sig       []byte
	labelOf   []int
	labelSeen []uint32
	epoch     uint32
}

// newSigScratch makes a shard's scratch for a run over a netlist of n nets.
func newSigScratch(n int) *sigScratch {
	return &sigScratch{labelOf: make([]int, n), labelSeen: make([]uint32, n)}
}

// defPairGeom supplies the geometric measurements of pair adjudication,
// memoized in the definition pair: they are invariant under the Manhattan
// instance transforms. The endpoints' regions are stored moved by off
// (defInter.itemOff), so the integer kernels measure b's against a's
// shifted by the difference, and only the process model, which works in
// absolute coordinates, translates.
type defPairGeom struct {
	p    *defPair
	opts *Options
	off  []geom.Point
}

// accOverlapBounds returns the bounding box of the region overlap (the
// accidental-transistor check), and whether it is non-empty.
func (g *defPairGeom) accOverlapBounds(a, b *netlist.ConnItem) (geom.Rect, bool) {
	if g.p.flags&gAcc == 0 {
		da := g.off[g.p.a]
		r, ok := geom.IntersectBoundsShifted(a.Reg, b.Reg, g.off[g.p.b].Sub(da))
		if ok {
			r = r.Translate(da)
		}
		g.p.accBounds, g.p.accOK = r, ok
		g.p.flags |= gAcc
	}
	return g.p.accBounds, g.p.accOK
}

// regOverlaps reports whether the regions overlap (same-layer pairs).
func (g *defPairGeom) regOverlaps(a, b *netlist.ConnItem) bool {
	if g.p.flags&gOverlap == 0 {
		g.p.overlaps = geom.OverlapsShifted(a.Reg, b.Reg, g.off[g.p.b].Sub(g.off[g.p.a]))
		g.p.flags |= gOverlap
	}
	return g.p.overlaps
}

// dist returns the spacing under the configured metric.
func (g *defPairGeom) dist(a, b *netlist.ConnItem) float64 {
	if g.p.flags&gDist == 0 {
		d := g.off[g.p.b].Sub(g.off[g.p.a])
		if g.opts.Metric == Orthogonal {
			g.p.distVal = float64(geom.RegionOrthoDistShifted(a.Reg, b.Reg, d))
		} else {
			g.p.distVal = geom.RegionDistShifted(a.Reg, b.Reg, d)
		}
		g.p.flags |= gDist
	}
	return g.p.distVal
}

// processOK asks the Eq. 1 process model whether the printed images keep
// the margin under worst-case misalignment mis.
func (g *defPairGeom) processOK(a, b *netlist.ConnItem, mis, margin float64) bool {
	if g.p.flags&gProc == 0 {
		ra, rb := a.Reg, b.Reg
		if da := g.off[g.p.a]; da != (geom.Point{}) {
			ra = ra.Translate(da)
		}
		if db := g.off[g.p.b]; db != (geom.Point{}) {
			rb = rb.Translate(db)
		}
		g.p.procVal = g.opts.ProcessSpacing.SpacingOK(ra, rb, mis, margin)
		g.p.flags |= gProc
	}
	return g.p.procVal
}

// buildKeepouts fills a definition's keepout tallies: every cross-owner
// (cut item, MOS gate) and (isolation item, base keepout) candidate whose
// LCA is this definition, adjudicated in local coordinates. A chip-wide
// sweep would enumerate exactly these pairs summed over instances (a pair
// of distinct devices separates into different owners at its LCA), so
// replaying the tallies reproduces its check counts and violations without
// any per-run chip-wide sweep.
func (e *Engine) buildKeepouts(di *defInter, lay keepLayers) {
	art := di.art
	if art.Primitive() {
		// A primitive definition holds a single device; its own cuts vs
		// its own gate are the same device, which the keepout rules skip.
		return
	}
	// A composite has no devices of its own: a keepout's probe looks at
	// the definition's own items and at the spans other than the one that
	// embeds its device (SymbolArtifacts.Near), and gets an item's layer
	// and bounds, resolving the item only when they pass.
	if lay.hasCut {
		for gi := range art.Gates {
			g := &art.Gates[gi]
			art.Near(g.Bounds, g.Dev, func(i int, l tech.LayerID, _ geom.Rect) {
				if l != lay.cutID {
					return
				}
				di.gateT.checks++
				it, off := art.ResolveItem(i)
				if ovb, ok := geom.IntersectBoundsShifted(g.Reg, it.Reg, off); ok {
					di.gateT.vs = append(di.gateT.vs, violationDraft{
						v: Violation{
							Rule:     "DEV.GATE.CONTACT",
							Severity: Error,
							Detail:   "contact cut over the active gate of a transistor (Figure 7)",
							Where:    ovb,
							Path:     it.Path,
						},
						aNet: netlist.NoNet, bNet: netlist.NoNet,
					})
				}
			})
		}
	}

	if lay.hasIso {
		for ki := range art.BaseKeepouts {
			ko := &art.BaseKeepouts[ki]
			search := ko.Bounds.Expand(ko.Clearance)
			art.Near(search, ko.Dev, func(i int, l tech.LayerID, b geom.Rect) {
				if l != lay.isoID {
					return
				}
				di.baseT.checks++
				it, off := art.ResolveItem(i)
				d := geom.RegionDistShifted(ko.Reg, it.Reg, off)
				if d < float64(ko.Clearance) || (ko.Clearance == 0 && geom.OverlapsShifted(ko.Reg, it.Reg, off)) {
					di.baseT.vs = append(di.baseT.vs, violationDraft{
						v: Violation{
							Rule:     "DEV.NPN.ISO",
							Severity: Error,
							Detail:   "isolation touches or approaches a transistor base (Figure 6a)",
							Where:    b.Intersect(search),
							Path:     art.Devices[ko.Dev].Path,
						},
						aNet: netlist.NoNet, bNet: netlist.NoNet,
					})
				}
			})
		}
	}
}

// keepLayers carries the keepout probe layers.
type keepLayers struct {
	cutID, isoID   tech.LayerID
	hasCut, hasIso bool
}

// absorbKeepouts replays a definition's keepout tallies for one instance.
func (e *Engine) absorbKeepouts(c *checker, inc *netlist.IncExtraction, ii int, di *defInter) {
	for _, t := range []*keepTally{&di.gateT, &di.baseT} {
		if t.checks == 0 {
			continue
		}
		c.countChecks(t.checks)
		inst := &inc.Instances[ii]
		for _, d := range t.vs {
			v := d.v
			v.Where = inst.T.ApplyRect(v.Where)
			v.Path = pathJoin(inc.InstPath(ii), v.Path)
			c.rep.Violations = append(c.rep.Violations, v)
		}
	}
}

// checkInteractions is the incremental stage 5: every instance replays the
// tally of its definition for its net-environment signature, and the
// definition's keepout tallies, into the report. It returns the run's
// replay record. Two phases run on the pool: the builds of the definition
// caches the instances lack, and the signatures. A signature shard finds
// each of its instances' tallies, adjudicating under the definition's
// lock the signatures nobody has yet (adjudicate), so every new
// (definition, signature) is adjudicated once, whatever the pool's size.
// Only absorption, in instance order, is serial.
func (e *Engine) checkInteractions(c *checker, inc *netlist.IncExtraction, stats *EngineStats) *replayRecord {
	if inc.Patch != nil {
		if r := e.tryReplayInteractions(c, inc, stats); r != nil {
			return r
		}
	}
	maxGap := e.tc.MaxSpacing()

	facts := newNetFacts(inc.Netlist)

	var keep keepLayers
	keep.cutID, keep.hasCut = e.tc.Cut()
	keep.isoID, keep.hasIso = e.tc.Isolation()
	// With no gates or base keepouts anywhere on the chip no definition
	// can hold a keepout pair (a tally only ever counts real pairs).
	keep.hasCut = keep.hasCut && len(inc.Gates) > 0
	keep.hasIso = keep.hasIso && len(inc.BaseKeepouts) > 0

	// Build every definition cache the instances lack, on the pool: the
	// per-definition candidate sweeps (CrossItemPairs plus the keepout
	// probes) are the stage's dominant cost on a cold or heavily edited
	// run, and they are independent across definitions — they read only
	// immutable artifacts and the technology. A warm run lacks
	// only the re-derived definitions'. Every instance counts one build,
	// the first to reach its definition, or one reuse.
	workers := runtime.GOMAXPROCS(0)
	var order []*netlist.SymbolArtifacts
	var seen map[*netlist.SymbolArtifacts]bool
	for ii := range inc.Instances {
		art := inc.Instances[ii].Art
		if e.cachedInter(art) != nil || seen[art] {
			continue
		}
		if seen == nil {
			seen = make(map[*netlist.SymbolArtifacts]bool)
		}
		seen[art] = true
		order = append(order, art)
	}
	dis := make([]*defInter, len(order))
	geom.RunShards(len(order), workers, func(k int) {
		dis[k] = e.buildDefInter(order[k], maxGap)
		e.buildKeepouts(dis[k], keep)
	})
	for k, art := range order {
		dis[k] = art.Inter.Publish(dis[k]).(*defInter)
	}
	stats.InterBuilt += len(order)
	stats.InterReused += len(inc.Instances) - len(order)

	// Signatures are the stage's per-instance cost, and each reads only the
	// netlist and the instance's definition cache: every shard walks its
	// own range of instances with its own scratch, and notes per instance
	// its tally (nil: no pairs) and whether it built it.
	tallies := make([]*interactionTally, len(inc.Instances))
	built := make([]bool, len(inc.Instances))
	m := min(geom.Shards(len(inc.Instances), workers), workers)
	if m > 1 {
		fanned.Add(1)
	}
	geom.RunShards(m, workers, func(k int) {
		sc := newSigScratch(len(inc.Netlist.Nets))
		lo, hi := geom.ShardRange(k, m, len(inc.Instances))
		for ii := lo; ii < hi; ii++ {
			di := e.cachedInter(inc.Instances[ii].Art)
			if len(di.pairs) == 0 {
				continue
			}
			sig := e.netEnvSignature(di, inc, ii, facts, sc)
			if tallies[ii] = di.tally(sig); tallies[ii] == nil {
				tallies[ii], built[ii] = e.adjudicate(di, sc.labels, sig)
			}
		}
	})

	var rootTally *interactionTally
	childSigs := 0
	processInstance := func(ii int) {
		e.absorbKeepouts(c, inc, ii, e.cachedInter(inc.Instances[ii].Art))
		tally := tallies[ii]
		if tally == nil {
			return
		}
		stats.Signatures++
		if built[ii] {
			stats.SigMisses++
		} else {
			stats.SigHits++
		}
		if ii == 0 {
			rootTally = tally
		} else {
			childSigs++
		}
		e.absorbInstance(c, inc, ii, tally)
	}
	processInstance(0)
	violMark := len(c.rep.Violations)
	mark, checksMark := c.rep.Stats.InteractionStats, c.stageChecks()
	for ii := 1; ii < len(inc.Instances); ii++ {
		processInstance(ii)
	}

	// Record the stage for the windowed-recheck replay: the root
	// instance's tally stays live (patchRootInter edits it in place), the
	// child instances' results are frozen as resolved violations plus
	// counter deltas. Violations are copied — sortViolations reorders the
	// report's backing array after every run.
	child := c.rep.Stats.InteractionStats
	child.sub(&mark)
	return &replayRecord{
		facts:       facts,
		rootTally:   rootTally,
		childViol:   append([]Violation(nil), c.rep.Violations[violMark:]...),
		childSigs:   childSigs,
		child:       child,
		childChecks: c.stageChecks() - checksMark,
	}
}

// fanned counts the phases that split across more than one worker. Only
// tests read it: a differential that means to compare pooled against
// serial runs asserts that the pool was used.
var fanned atomic.Int64

// tryReplayInteractions reproduces the previous run's interaction stage
// when extraction patched the root in place: the child instances replay
// from the record the patch handed over, and the root definition's pair
// set is patched for the moved items (old pairs' contributions subtracted,
// new pairs adjudicated directly against the global net facts). It puts
// the root's patched interaction cache back and returns the record, nil
// when the patch came without one or the pairs would not patch; the caller
// then runs the full stage, which rebuilds the root's entry and records
// anew. It counts what a full run over the same state would: every
// instance's cache reused, and one signature hit per instance whose
// definition has pairs.
func (e *Engine) tryReplayInteractions(c *checker, inc *netlist.IncExtraction, stats *EngineStats) *replayRecord {
	p := inc.Patch
	r, _ := p.Replay.(*replayRecord)
	di, _ := p.Inter.(*defInter)
	if r == nil || di == nil || len(p.Items) > 0 && !e.patchRootInter(r, di, inc, p.Items) {
		return nil
	}
	di = inc.Root.Inter.Publish(di).(*defInter)
	// The patch's copy; the next patch starts from it. (It shares every
	// terminal list with its predecessor, so the facts carry over.)
	r.facts.nl = inc.Netlist
	stats.InterReused += len(inc.Instances)
	stats.SigHits += r.childSigs
	if len(di.pairs) > 0 {
		stats.SigHits++
	}

	e.absorbKeepouts(c, inc, 0, di)
	if r.rootTally != nil {
		e.absorbInstance(c, inc, 0, r.rootTally)
	}
	c.rep.Stats.add(&r.child)
	c.countChecks(r.childChecks)
	c.rep.Violations = append(c.rep.Violations, r.childViol...)
	return r
}

// patchRootInter rewrites the root definition's interaction cache for a
// set of moved own items: pairs with a moved endpoint are removed (their
// contributions subtracted from the live root tally), the items' geometry
// is refreshed, and the moved items' new candidate pairs are enumerated
// and adjudicated into the tally. The per-signature tally cache is
// cleared — pair membership changed, so any cached adjudication is stale.
// On false the entry may be half-patched.
func (e *Engine) patchRootInter(r *replayRecord, di *defInter, inc *netlist.IncExtraction, moved []int) bool {
	art := inc.Root
	// Keepout tallies (contact-over-gate, isolation-vs-base) depend on
	// cut/isolation geometry; a moved item on those layers would
	// invalidate them. The netlist patch only moves foot-backed
	// interconnect, so in practice this never trips.
	if cutID, ok := e.tc.Cut(); ok {
		for _, gi := range moved {
			if art.ItemLayer(gi) == cutID {
				return false
			}
		}
	}
	if isoID, ok := e.tc.Isolation(); ok {
		for _, gi := range moved {
			if art.ItemLayer(gi) == isoID {
				return false
			}
		}
	}
	maxGap := e.tc.MaxSpacing()
	env := &pairEnv{di: di, facts: r.facts}

	movedL := make(map[int]bool, len(moved)) // local item-table indices
	movedG := make(map[int]bool, len(moved)) // global item indices
	for _, gi := range moved {
		movedG[gi] = true
		if k := di.itemIdx[gi]; k >= 0 {
			movedL[int(k)] = true
		}
	}

	t := r.rootTally
	// Subtract the removed pairs' contributions while di.items still
	// holds the old geometry (the memoized pair geometry plus the live
	// net environment reproduce the original adjudication exactly), then
	// compact them out.
	var oldT interactionTally
	n := 0
	for i := range di.pairs {
		// By pointer: a copy whose address the geometry memo takes would be
		// one heap object per pair of the root, moved or not.
		pr := &di.pairs[i]
		if movedL[pr.a] || movedL[pr.b] {
			g := defPairGeom{p: pr, opts: &e.opts, off: di.itemOff}
			adjudicatePair(e.tc, e.opts, di.itemAt(pr.a), di.itemAt(pr.b), env, &g, &oldT)
			continue
		}
		di.pairs[n] = *pr
		n++
	}
	di.pairs = di.pairs[:n]
	if t == nil {
		if oldT.InteractionCandidates > 0 {
			return false
		}
	} else if !t.subtract(&oldT) {
		return false
	}

	// Refresh the moved items' geometry, then adjudicate their new pairs
	// straight into the live tally.
	for _, gi := range moved {
		if k := di.itemIdx[gi]; k >= 0 {
			di.items[k], di.itemOff[k] = art.ResolveItem(gi)
		}
	}
	for _, gi := range moved {
		la := art.ItemLayer(gi)
		probe := art.ItemBounds(gi).Expand(maxGap)
		art.Near(probe, -1, func(gj int, lj tech.LayerID, _ geom.Rect) {
			// Moved-moved pairs are emitted once, by the lower index.
			if gj == gi || (movedG[gj] && gj < gi) || !e.tc.Interacts(la, lj) {
				return
			}
			i, j := gi, gj
			if i > j {
				i, j = j, i
			}
			pa, pb := di.resolveLocal(i), di.resolveLocal(j)
			di.registerPairMeta(pa, pb)
			if t == nil {
				t = &interactionTally{}
				r.rootTally = t
			}
			pr := defPair{a: pa, b: pb}
			g := defPairGeom{p: &pr, opts: &e.opts, off: di.itemOff}
			adjudicatePair(e.tc, e.opts, di.itemAt(pa), di.itemAt(pb), env, &g, t)
			di.pairs = append(di.pairs, pr)
		})
	}
	// Pair membership changed: every cached per-signature adjudication of
	// this definition is stale.
	di.sigs.Store(&sigTallies{})
	return true
}

// subtract removes another tally's contributions: counters subtract
// directly; each violation draft must find (and remove) one equal draft.
// Returns false when a draft has no match — the caller must then fall
// back to a full recompute.
func (t *interactionTally) subtract(o *interactionTally) bool {
	for _, d := range o.violations {
		found := -1
		for i := range t.violations {
			if draftEq(&t.violations[i], &d) {
				found = i
				break
			}
		}
		if found < 0 {
			return false
		}
		t.violations = append(t.violations[:found], t.violations[found+1:]...)
	}
	t.checks -= o.checks
	t.sub(&o.InteractionStats)
	return true
}

// draftEq compares drafts field by field (Violation holds a Nets slice,
// which drafts never populate, so the comparison is over everything set).
func draftEq(a, b *violationDraft) bool {
	return a.aNet == b.aNet && a.bNet == b.bNet &&
		a.v.Rule == b.v.Rule && a.v.Severity == b.v.Severity &&
		a.v.Detail == b.v.Detail && a.v.Where == b.v.Where &&
		a.v.Symbol == b.v.Symbol && a.v.Path == b.v.Path && a.v.Layer == b.v.Layer
}

// checkConstruction is stage 6 with the same patched-root replay: the
// rule set reads only nets and devices, and a root patch changes nothing
// but the patched nets' bounds, so the issues of the record the patch
// handed over are rewritten in place instead of recomputed. It returns
// the findings, for the run's record.
func (e *Engine) checkConstruction(c *checker, inc *netlist.IncExtraction) []netlist.Issue {
	var issues []netlist.Issue
	patched := false
	if p := inc.Patch; p != nil {
		if r, _ := p.Replay.(*replayRecord); r != nil && netlist.PatchConstruction(inc, r.cons) {
			issues, patched = r.cons, true
		}
	}
	if !patched {
		issues = netlist.ConstructionRules(inc.Netlist, c.design.Top.Name, e.tc)
	}
	for _, is := range issues {
		c.add(Violation{Rule: is.Rule, Severity: Error, Detail: is.Detail, Where: is.Where})
	}
	return issues
}

// adjudicateDef runs the shared subcase logic over every candidate pair of
// one definition under one net-environment signature, producing the
// replayable tally.
func (e *Engine) adjudicateDef(di *defInter, labels []int, sig []byte) *interactionTally {
	// The share bits follow five bytes per class (a 4-byte label and a
	// has-device bit).
	env := pairEnv{di: di, labels: labels, share: sig[5*len(di.candClasses):]}

	t := &interactionTally{}
	g := defPairGeom{opts: &e.opts, off: di.itemOff}
	for i := range di.pairs {
		p := &di.pairs[i]
		g.p = p
		adjudicatePair(e.tc, e.opts, di.itemAt(p.a), di.itemAt(p.b), &env, &g, t)
	}
	return t
}

// absorbInstance folds one instance's tally into the report: counters add
// up directly; violations are carried from definition space into chip
// space (transform the location, prefix the instance path, resolve the
// local net classes against the global netlist).
func (e *Engine) absorbInstance(c *checker, inc *netlist.IncExtraction, ii int, t *interactionTally) {
	c.rep.Stats.add(&t.InteractionStats)
	c.countChecks(t.checks)
	if len(t.violations) == 0 {
		return
	}
	inst := &inc.Instances[ii]
	path := inc.InstPath(ii)
	for _, d := range t.violations {
		v := d.v
		v.Where = inst.T.ApplyRect(v.Where)
		v.Path = pathJoin(path, v.Path)
		ga, gb := netlist.NoNet, netlist.NoNet
		if d.aNet != netlist.NoNet {
			ga = inc.GlobalNet(ii, int(d.aNet))
		}
		if d.bNet != netlist.NoNet {
			gb = inc.GlobalNet(ii, int(d.bNet))
		}
		v.Nets = c.netNames(inc.Netlist, ga, gb)
		c.rep.Violations = append(c.rep.Violations, v)
	}
}

func pathJoin(prefix, rel string) string {
	switch {
	case prefix == "":
		return rel
	case rel == "":
		return prefix
	default:
		return prefix + "." + rel
	}
}

// String renders cache stats compactly for -repeat style loops.
func (s EngineStats) String() string {
	out := fmt.Sprintf("run %d: %d/%d symbols dirty, %d rehashed, %d artifact defs, interactions %d built/%d reused, signatures %d miss/%d hit/%d computed, contexts %d derived/%d built, tier %d taken/%d built",
		s.Runs, s.DirtySymbols, s.Symbols, s.Rehashed, s.ArtifactDefs, s.InterBuilt, s.InterReused, s.SigMisses, s.SigHits, s.Signatures, s.CtxHits, s.CtxMisses, s.Taken.Total(), s.Built.Total())
	if s.WindowPatched {
		out += ", window-patched"
	}
	if s.FullPath != "" {
		out += ", full path: " + s.FullPath
	}
	return out
}
