package core

import (
	"context"
	"fmt"
	"sort"
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
// Cache keying follows layout.ContentHashes: stage-1 element results by a
// symbol's own content hash, stage-2 device analyses likewise, extraction
// artifacts and interaction adjudications by the subtree hash. The engine's
// caches need no invalidation of their own — an edited definition hashes
// to a new key, and every ancestor's subtree hash changes with it (the
// dirty-propagation walk up the call graph), so stale entries are never
// reachable and age out. The hashes themselves are cached on the design
// behind Symbol.Touch (layout.ApplyEdit touches on every op): a run
// re-hashes the touched symbols and their callers, not the design.
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
// signature below). Options are fixed at engine construction; Workers
// sizes the pool that builds missing per-definition interaction caches
// (see checkInteractions) and nothing else.
//
// An Engine is not safe for concurrent use. Reports share structure with
// the engine's caches; treat them as immutable.
type Engine struct {
	tc   *tech.Technology
	ct   *tech.Compiled
	opts Options

	cache *netlist.Cache
	elems map[layout.Hash]*elemEntry
	rules map[layout.Hash]*ruleEntry

	elemGen map[layout.Hash]int
	ruleGen map[layout.Hash]int

	// prev and mark are the last completed run's content hashes and the
	// design's hashing mark as of then: the next run compares against prev
	// only the symbols re-hashed after mark.
	prev map[*layout.Symbol]layout.SymbolHashes
	mark layout.HashMark
	runs int
	last EngineStats

	// seenTop/seenSeq name the top symbol and its edit sequence number as
	// of this engine's last completed run: the top's edit record may stand
	// in for re-deriving the root only when it reaches back at least that
	// far (see run).
	seenTop *layout.Symbol
	seenSeq uint64

	// replay holds everything needed to reproduce the interaction stage
	// of the previous run when extraction reports a root patch (see
	// tryReplayInteractions): the per-run net facts, the root instance's
	// live tally, and the aggregated child-instance results.
	replay replayState

	// Construction-stage cache for the same patched-root replay: the
	// issues of the previous run stay valid except for the patched nets'
	// bounds, which are rewritten in place.
	consNL     *netlist.Netlist
	consIssues []netlist.Issue
	consValid  bool

	// poisoned, once set, refuses every further run: a panic that escaped
	// mid-run may have left the caches half-written, and a half-written
	// cache can silently corrupt reports. The owner (e.g. a dicheckd
	// session recovering a handler panic) quarantines the engine with
	// Poison instead of guessing which entries survived.
	poisoned error
}

// replayState is the recorded interaction stage of the previous run,
// replayable when extraction patched the root instead of rebuilding it.
// Everything instance-structural (net facts, child tallies, counters) is
// unchanged by such a patch; only the root definition's own pairs can
// differ, and those are patched through patchRootInter.
type replayState struct {
	valid bool
	nl    *netlist.Netlist         // pointer identity of the extraction replayed
	root  *netlist.SymbolArtifacts // pointer identity of the root artifact
	inst  int                      // instance count (defensive)

	facts *netFacts // the per-run net facts the signatures read

	rootTally *interactionTally // instance 0's live tally (nil: no pairs)
	childViol []Violation       // instances 1.. violations, fully resolved
	child     interCounters     // instances 1.. counter deltas
}

// netFacts answers the two questions a net-environment signature asks of
// the chip-global netlist: does a net carry a device terminal, and do two
// nets share a device. Both are read off the netlist as extracted — the
// second from the nets' terminal lists, so a run builds no chip-wide pair
// table to ask it.
type netFacts struct {
	nl     *netlist.Netlist
	hasDev []bool // per net: carries a device terminal (a dense column of len(Terminals) > 0)

	// long memoises shares for the pairs whose shorter terminal list is
	// longer than longScan (two rails, two buses): there are few such
	// pairs and many instances may ask about each.
	long map[uint64]bool
}

// longScan is the terminal-list length past which shares memoises.
const longScan = 16

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
	if len(terms) <= longScan {
		return f.scan(terms, other)
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(lo)<<32 | uint64(uint32(hi))
	ans, ok := f.long[key]
	if !ok {
		if f.long == nil {
			f.long = make(map[uint64]bool)
		}
		ans = f.scan(terms, other)
		f.long[key] = ans
	}
	return ans
}

func (f *netFacts) scan(terms []netlist.TermRef, other netlist.NetID) bool {
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

// interCounters is the interaction stage's additive counter set.
type interCounters struct {
	candidates, checked            int
	noRule, sameNet, related, conn int
	downgrades, checks             int
}

func captureCounters(c *checker) interCounters {
	st := &c.rep.Stats
	ic := interCounters{
		candidates: st.InteractionCandidates,
		checked:    st.InteractionChecked,
		noRule:     st.SkippedNoRule,
		sameNet:    st.SkippedSameNetExempt,
		related:    st.SkippedRelated,
		conn:       st.SkippedConnectionPairs,
		downgrades: st.ProcessDowngrades,
	}
	if c.curStage != nil {
		ic.checks = c.curStage.Checks
	}
	return ic
}

func (a interCounters) sub(b interCounters) interCounters {
	return interCounters{
		candidates: a.candidates - b.candidates,
		checked:    a.checked - b.checked,
		noRule:     a.noRule - b.noRule,
		sameNet:    a.sameNet - b.sameNet,
		related:    a.related - b.related,
		conn:       a.conn - b.conn,
		downgrades: a.downgrades - b.downgrades,
		checks:     a.checks - b.checks,
	}
}

func (a interCounters) addTo(c *checker) {
	st := &c.rep.Stats
	st.InteractionCandidates += a.candidates
	st.InteractionChecked += a.checked
	st.SkippedNoRule += a.noRule
	st.SkippedSameNetExempt += a.sameNet
	st.SkippedRelated += a.related
	st.SkippedConnectionPairs += a.conn
	st.ProcessDowngrades += a.downgrades
	if c.curStage != nil {
		c.curStage.Checks += a.checks
	}
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
	ArtifactDefs int // definition artifacts live in the extraction cache
	InterBuilt   int // interaction definition caches built this run
	InterReused  int // interaction definition caches replayed this run
	SigMisses    int // instance signatures that had to adjudicate
	SigHits      int // instance signatures replayed from a cached tally

	// Array-regularity context cache (extraction span derivation):
	// cumulative over the engine's lifetime, not per run.
	CtxHits   int // span contexts derived by translating a same-class representative
	CtxMisses int // span contexts built from scratch (one per distinct class)

	// WindowPatched reports that the last run took the windowed-recheck
	// fast path: extraction patched the previous root in place and the
	// interaction stage replayed its recorded result.
	WindowPatched bool

	// FullPath names the first reason the run re-derived the root instead:
	// one of the FullPath* values when the engine itself offered extraction
	// no edit window, else extraction's own refusal (netlist.Refuse*).
	// Empty on a window-patched run.
	FullPath string
}

// Why a run offered extraction no edit window (EngineStats.FullPath).
const (
	FullPathCold           = "cold"            // the engine's first completed run
	FullPathNewTop         = "new-top"         // the design's top symbol is not the one last checked
	FullPathChildChanged   = "child-changed"   // a called definition changed, not only the top
	FullPathStaleRecord    = "stale-record"    // the top's edit record was reset since this engine's last run
	FullPathStructuralEdit = "structural-edit" // the top changed by more than in-place element moves
)

// NewEngine creates an incremental check session for one technology and
// option set. Options are captured by value; construct a new engine to
// check under different options.
func NewEngine(tc *tech.Technology, opts Options) *Engine {
	return &Engine{
		tc:      tc,
		ct:      tc.Compile(),
		opts:    opts,
		cache:   netlist.NewCache(),
		elems:   make(map[layout.Hash]*elemEntry),
		rules:   make(map[layout.Hash]*ruleEntry),
		elemGen: make(map[layout.Hash]int),
		ruleGen: make(map[layout.Hash]int),
	}
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

// RecheckContext is Recheck under a context; see CheckContext for the
// cancellation contract.
func (e *Engine) RecheckContext(ctx context.Context, d *layout.Design) (*Report, error) {
	return e.run(ctx, d)
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

	// Only a re-hashed symbol can differ from the previous run's hashes (or
	// be new to them), so the dirty set costs what the edit touched.
	hashes, rehashed, mark := d.HashesSince(e.mark)
	var dirty []*layout.Symbol
	for _, s := range rehashed {
		if p, ok := e.prev[s]; !ok || p.Subtree != hashes[s].Subtree {
			dirty = append(dirty, s)
		}
	}
	stats.Symbols = len(hashes)
	stats.DirtySymbols = len(dirty)
	stats.Rehashed = len(rehashed)

	// When the only dirty symbol is the top and its edits were all
	// window-scoped in-place moves, hand the window to extraction, which may
	// patch the previous root instead of re-deriving it (the windowed
	// recheck). The record is shared by every consumer of the design and
	// reset by whichever run completes, so it is trusted only when it reaches
	// back to this engine's own last completed run: a record another run
	// reset in between has lost edits this engine never saw.
	var win *netlist.EditWindow
	switch info := d.Top.Dirty(); {
	case len(dirty) == 0: // nothing to re-derive: extraction replays
	case e.seenTop == nil:
		stats.FullPath = FullPathCold
	case d.Top != e.seenTop:
		stats.FullPath = FullPathNewTop
	case len(dirty) != 1 || dirty[0] != d.Top:
		stats.FullPath = FullPathChildChanged
	case info.Since > e.seenSeq:
		stats.FullPath = FullPathStaleRecord
	case info.Full || len(info.Elems) == 0:
		stats.FullPath = FullPathStructuralEdit
	default:
		win = &netlist.EditWindow{Elems: info.Elems, Window: info.Window}
	}

	rep := &Report{Design: d, Tech: e.tc}
	c := &checker{design: d, tech: e.tc, ct: e.ct, opts: e.opts, rep: rep}

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

	stage("check elements", func() { e.checkElements(c, d, hashes) })
	stage("check primitive symbols", func() { e.checkPrimitiveSymbols(c, d, hashes) })
	stage("check layer rules", func() { e.checkLayerRules(c, d, hashes) })

	var inc *netlist.IncExtraction
	stage("generate hierarchical net list", func() {
		var issues []netlist.Issue
		var err error
		inc, issues, err = netlist.ExtractIncremental(d, e.tc, e.cache, hashes, win)
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
		stage("check interactions", func() { e.checkInteractions(c, inc, &stats) })
		if !e.opts.SkipConstruction {
			stage("check construction rules", func() { e.checkConstruction(c, inc) })
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
		// Aborted between stages. The content-addressed caches filled by
		// the completed stages stay valid (stale keys are simply never
		// reachable), but the run-scoped replay records — the interaction
		// replay and the construction issue cache — may describe a run
		// that never finished; drop them so the next run rebuilds from
		// the durable caches instead of replaying a phantom. For the same
		// reason e.prev, e.mark, the edit records and seenSeq stay as the last
		// completed run left them: the next run must account for every edit
		// since then, not since this abort. The extraction cache's patch
		// base did advance if stage 4 ran, which is why tryPatchRoot checks
		// the children that base embeds instead of taking the window's word.
		e.replay = replayState{}
		e.consValid = false
		return nil, ctxErr
	}
	sortViolations(rep.Violations)

	// A symbol with an edit record was touched, so it is among the re-hashed.
	e.prev, e.mark = hashes, mark
	for _, s := range rehashed {
		s.ResetDirty()
	}
	e.seenTop, e.seenSeq = d.Top, d.Top.Dirty().Seq

	stats.ArtifactDefs = e.cache.Len()
	stats.CtxHits, stats.CtxMisses = e.cache.ContextStats()
	stats.WindowPatched = inc != nil && inc.Patch != nil
	switch {
	case stats.WindowPatched:
		stats.FullPath = ""
	case stats.FullPath == "" && inc != nil:
		stats.FullPath = inc.Refused // the engine had no objection: extraction's word
	}
	e.evict()
	e.last = stats
	return rep, nil
}

// checkElements is stage 1 with per-definition caching by own hash.
func (e *Engine) checkElements(c *checker, d *layout.Design, hashes map[*layout.Symbol]layout.SymbolHashes) {
	for _, s := range d.SortedSymbols() {
		if s.IsPrimitive() {
			continue
		}
		key := hashes[s].Own
		ent, ok := e.elems[key]
		if !ok {
			vs, checks, elements := elementChecks(s, e.tc)
			ent = &elemEntry{vs: vs, checks: checks, elements: elements}
			e.elems[key] = ent
		}
		e.elemGen[key] = e.runs
		c.rep.Stats.ElementsChecked += ent.elements
		if c.curStage != nil {
			c.curStage.Checks += ent.checks
		}
		c.rep.Violations = append(c.rep.Violations, ent.vs...)
	}
}

// checkPrimitiveSymbols is stage 2 with device analyses memoized by own
// hash (shared with extraction's device recognition).
func (e *Engine) checkPrimitiveSymbols(c *checker, d *layout.Design, hashes map[*layout.Symbol]layout.SymbolHashes) {
	for _, s := range d.SortedSymbols() {
		if !s.IsPrimitive() {
			continue
		}
		c.rep.Stats.SymbolDefsChecked++
		c.countCheck()
		_, probs := e.cache.Analyze(s, hashes[s].Own, e.tc)
		for _, v := range deviceProblemViolations(s, probs) {
			c.add(v)
		}
	}
}

// checkLayerRules is the layer-rule stage with per-definition caching by
// own hash: the rule kernels see only a definition's own merged geometry,
// so an entry stays valid however the subtree beneath changes.
func (e *Engine) checkLayerRules(c *checker, d *layout.Design, hashes map[*layout.Symbol]layout.SymbolHashes) {
	for _, s := range d.SortedSymbols() {
		if s.IsPrimitive() {
			continue
		}
		key := hashes[s].Own
		ent, ok := e.rules[key]
		if !ok {
			vs, checks := layerRuleChecks(s, e.tc, e.ct)
			ent = &ruleEntry{vs: vs, checks: checks}
			e.rules[key] = ent
		}
		e.ruleGen[key] = e.runs
		if c.curStage != nil {
			c.curStage.Checks += ent.checks
		}
		c.rep.Violations = append(c.rep.Violations, ent.vs...)
	}
}

// checkConnections is stage 4: the illegal pairs were gathered from
// per-definition candidates; the items resolve through the root artifact.
func (e *Engine) checkConnections(c *checker, inc *netlist.IncExtraction) {
	c.rep.Stats.DeviceInstances = len(inc.Netlist.Devices)
	for _, pair := range inc.IllegalPairs {
		a := inc.Root.ResolveItem(pair[0])
		b := inc.Root.ResolveItem(pair[1])
		c.countCheck()
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

// keepRuns is how many runs a per-definition cache entry survives unused.
const keepRuns = 8

// evict ages out cache entries unused for several runs, bounding memory
// for long-lived sessions that churn through design states. (Interaction
// caches hang on their artifacts and go with them; see cachedInter.)
func (e *Engine) evict() {
	for h, g := range e.elemGen {
		if e.runs-g >= keepRuns {
			delete(e.elemGen, h)
			delete(e.elems, h)
		}
	}
	for h, g := range e.ruleGen {
		if e.runs-g >= keepRuns {
			delete(e.ruleGen, h)
			delete(e.rules, h)
		}
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
// signature.
type defInter struct {
	art *netlist.SymbolArtifacts

	// hash is the artifact content this entry describes. An artifact keeps
	// its identity and changes its hash when extraction patches it in
	// place; the entry follows only when the interaction replay patched it
	// too (tryReplayInteractions), and is otherwise stale.
	hash layout.Hash

	pairs []defPair

	// candClasses is the signature domain: every local class appearing in
	// a pair, plus the terminal classes of every device appearing in a
	// pair (the related-through-device subcase reads those).
	candClasses []int
	classPos    map[int]int

	// classPairAt lists the distinct unordered class pairs for which the
	// shares-a-device relation is part of the signature, each as the two
	// classes' positions in candClasses; classPairPos finds a pair's entry.
	classPairAt  [][2]int32
	classPairPos map[[2]int]int

	termClasses map[int][]int // local device -> sorted distinct terminal classes

	// items holds frame-resolved copies of the pair-endpoint items (the
	// embedded ones live in child frames); pair indices refer to it.
	items []netlist.ConnItem

	// itemIdx maps definition item index -> position in items (-1: not yet
	// a pair endpoint). Retained so a root patch can resolve the moved
	// items' new pairs without a rebuild.
	itemIdx []int32

	// netFree marks definitions whose every candidate pair is internal to
	// one device: adjudication never consults the net environment (the
	// same-device subcase decides first), so one tally replays for every
	// instance without computing a signature. True for all primitive
	// definitions — the common case by instance count.
	netFree   bool
	freeTally *interactionTally

	// fresh marks an entry produced by the parallel prebuild phase that no
	// instance has consumed yet (the first consumer reports the build in
	// the run stats, keeping them identical to a one-worker run's).
	fresh bool

	sigs map[string]*interactionTally

	// Keepout checks (contact-over-gate, isolation-vs-base) have no net
	// dependence at all, so one tally per definition replays for every
	// instance and every signature.
	keepBuilt    bool
	gateT, baseT keepTally
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
// lookup. What remains to check is that the artifact was not patched in
// place since (hash); a stale entry is simply rebuilt over. The entry lives
// and dies with its artifact: the extraction cache's eviction is its only
// horizon.
func (e *Engine) cachedInter(art *netlist.SymbolArtifacts) *defInter {
	return e.interAt(art, art.Hash)
}

// interAt is cachedInter against a stated content hash: the replay of a
// patched run asks for the root's entry as of before the patch.
func (e *Engine) interAt(art *netlist.SymbolArtifacts, h layout.Hash) *defInter {
	di, _ := art.Inter.(*defInter)
	if di == nil || di.hash != h {
		return nil
	}
	return di
}

// defInterFor fetches (or builds) the interaction cache of one definition,
// counting the reuse or build.
func (e *Engine) defInterFor(art *netlist.SymbolArtifacts, maxGap int64, stats *EngineStats) *defInter {
	di := e.cachedInter(art)
	switch {
	case di == nil:
		di = e.buildDefInter(art, maxGap)
		art.Inter = di
		stats.InterBuilt++
	case di.fresh:
		// Prebuilt in this run's parallel phase: the first instance to
		// reach it reports the build, exactly as a one-worker run would.
		di.fresh = false
		stats.InterBuilt++
	default:
		stats.InterReused++
	}
	return di
}

// buildDefInter computes a definition's interaction cache without touching
// the engine's cache maps or stats. It reads only immutable artifact and
// technology state, so distinct definitions may build concurrently.
func (e *Engine) buildDefInter(art *netlist.SymbolArtifacts, maxGap int64) *defInter {
	di := &defInter{
		art:          art,
		hash:         art.Hash,
		classPos:     make(map[int]int),
		classPairPos: make(map[[2]int]int),
		termClasses:  make(map[int][]int),
		sigs:         make(map[string]*interactionTally),
	}
	di.netFree = true
	// Flat per-item tables replace per-candidate map lookups and span
	// binary searches: the callback below runs once per sweep candidate,
	// the hottest loop of a definition (re)build. It records the pairs by
	// definition item index and marks their endpoints (itemIdx 0); the
	// endpoints then resolve once each into an exactly sized table.
	n := art.NumItems()
	di.itemIdx = make([]int32, n)
	for i := range di.itemIdx {
		di.itemIdx[i] = -1
	}
	layers := make([]tech.LayerID, n)
	for i := range art.Items {
		layers[i] = art.Items[i].Layer
	}
	for si := range art.Children {
		sp := &art.Children[si]
		copy(layers[sp.ItemStart:], sp.SpanItemLayers())
	}
	endpoints := 0
	mark := func(i int) {
		if di.itemIdx[i] < 0 {
			di.itemIdx[i] = 0
			endpoints++
		}
	}
	art.CrossItemPairs(maxGap, func(i, j int) {
		if i > j {
			i, j = j, i
		}
		// Layers that can never interact (no spacing cell, no device rule)
		// are dropped before the pair is recorded: such a pair can produce
		// no check and no violation, and is no candidate.
		if !e.ct.Interacts(layers[i], layers[j]) {
			return
		}
		mark(i)
		mark(j)
		di.pairs = append(di.pairs, defPair{a: i, b: j})
	})
	di.items = make([]netlist.ConnItem, 0, endpoints)
	for i, k := range di.itemIdx {
		if k == 0 {
			di.itemIdx[i] = int32(len(di.items))
			di.items = append(di.items, art.ResolveItem(i))
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
	if cl < 0 {
		return
	}
	if _, ok := di.classPos[cl]; !ok {
		di.classPos[cl] = len(di.candClasses)
		di.candClasses = append(di.candClasses, cl)
	}
}

// addDev records one local device's terminal classes.
func (di *defInter) addDev(dev int) {
	if dev < 0 {
		return
	}
	if _, ok := di.termClasses[dev]; ok {
		return
	}
	tns := di.art.Devices[dev].TerminalNets
	tcs := make([]int, 0, len(tns))
	for ti := range tns {
		cl := int(tns[ti].Net)
		dup := false
		for _, have := range tcs {
			if have == cl {
				dup = true
				break
			}
		}
		if !dup {
			tcs = append(tcs, cl)
		}
	}
	// Deterministic order for signature-independent iteration.
	for i := 1; i < len(tcs); i++ {
		for j := i; j > 0 && tcs[j-1] > tcs[j]; j-- {
			tcs[j-1], tcs[j] = tcs[j], tcs[j-1]
		}
	}
	di.termClasses[dev] = tcs
	for _, cl := range tcs {
		di.addClass(cl)
	}
}

// registerPairMeta folds one pair's endpoints into the signature-domain
// bookkeeping (classes, devices, class pairs, the netFree flag). Shared
// between the initial build and root-patch pair additions.
func (di *defInter) registerPairMeta(pa, pb int) {
	a, b := di.itemAt(pa), di.itemAt(pb)
	if a.Dev < 0 || a.Dev != b.Dev {
		di.netFree = false
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
			di.classPairAt = append(di.classPairAt, [2]int32{int32(di.classPos[cp[0]]), int32(di.classPos[cp[1]])})
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
	di.items = append(di.items, di.art.ResolveItem(gi))
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

// sigScratch holds signature-evaluation buffers reused across instances.
// Per-net label state is epoch-stamped (indexed by global net id) so
// resetting between instances is one counter increment, not a map clear.
type sigScratch struct {
	global    []netlist.NetID
	labels    []int
	sig       []byte
	labelOf   []int
	labelSeen []uint32
	epoch     uint32
}

// defPairGeom supplies the geometric measurements of pair adjudication,
// memoized in the definition pair: they are invariant under the Manhattan
// instance transforms.
type defPairGeom struct {
	p    *defPair
	opts *Options
}

// accOverlapBounds returns the bounding box of the region overlap (the
// accidental-transistor check), and whether it is non-empty.
func (g *defPairGeom) accOverlapBounds(a, b *netlist.ConnItem) (geom.Rect, bool) {
	if g.p.flags&gAcc == 0 {
		g.p.accBounds, g.p.accOK = geom.IntersectBounds(a.Reg, b.Reg)
		g.p.flags |= gAcc
	}
	return g.p.accBounds, g.p.accOK
}

// regOverlaps reports whether the regions overlap (same-layer pairs).
func (g *defPairGeom) regOverlaps(a, b *netlist.ConnItem) bool {
	if g.p.flags&gOverlap == 0 {
		g.p.overlaps = a.Reg.Overlaps(b.Reg)
		g.p.flags |= gOverlap
	}
	return g.p.overlaps
}

// dist returns the spacing under the configured metric.
func (g *defPairGeom) dist(a, b *netlist.ConnItem) float64 {
	if g.p.flags&gDist == 0 {
		if g.opts.Metric == Orthogonal {
			g.p.distVal = float64(geom.RegionOrthoDist(a.Reg, b.Reg))
		} else {
			d, _, _ := geom.RegionDist(a.Reg, b.Reg)
			g.p.distVal = d
		}
		g.p.flags |= gDist
	}
	return g.p.distVal
}

// processOK asks the Eq. 1 process model whether the printed images keep
// the margin under worst-case misalignment mis.
func (g *defPairGeom) processOK(a, b *netlist.ConnItem, mis, margin float64) bool {
	if g.p.flags&gProc == 0 {
		g.p.procVal = g.opts.ProcessSpacing.SpacingOK(a.Reg, b.Reg, mis, margin)
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
	di.keepBuilt = true
	art := di.art
	if len(art.Children) == 0 {
		// A primitive definition holds a single device; its own cuts vs
		// its own gate are the same device, which the keepout rules skip.
		return
	}
	// Devices are embedded span by span, so a device's owner is found by
	// search. (A composite has no devices of its own.)
	spanOfDev := func(dev int) int {
		si := sort.Search(len(art.Children), func(k int) bool { return art.Children[k].DevEnd > dev })
		if si < len(art.Children) && dev >= art.Children[si].DevStart {
			return si
		}
		return -1
	}
	// The probe-layer items: the definition's own by a scan of its own
	// items, each span's straight from the lists cached with its embedding
	// (nothing here walks the items of a span).
	var ownCuts, ownIsos []int
	for i := range art.Items {
		if lay.hasCut && art.Items[i].Layer == lay.cutID {
			ownCuts = append(ownCuts, i)
		}
		if lay.hasIso && art.Items[i].Layer == lay.isoID {
			ownIsos = append(ownIsos, i)
		}
	}
	// Span adjacency under the widest probe (conservative: refined by the
	// exact per-pair predicates below). Gates deep inside one child can
	// never meet another child's cuts unless the children's bounds come
	// within the probe gap of each other.
	var maxClear int64
	for ki := range art.BaseKeepouts {
		if cl := art.BaseKeepouts[ki].Clearance; cl > maxClear {
			maxClear = cl
		}
	}
	adj := make([][]int, len(art.Children))
	for si := range art.Children {
		for sj := range art.Children {
			if si != sj && art.Children[si].Bounds.Expand(maxClear).Touches(art.Children[sj].Bounds) {
				adj[si] = append(adj[si], sj)
			}
		}
	}
	// probeAll runs one keepout's probe over the own items of the layer and
	// over those of the owner's neighbour spans that the search rect meets:
	// item bounds lie inside their span's, so a span the rect misses holds
	// nothing the probe's own bounds test would let through.
	probeAll := func(dev int, search geom.Rect, own []int, layer tech.LayerID, probe func(it *netlist.ConnItem, gi int)) {
		for _, i := range own {
			probe(&art.Items[i], i)
		}
		owner := spanOfDev(dev)
		if owner < 0 {
			return
		}
		for _, sj := range adj[owner] {
			sp := &art.Children[sj]
			if !sp.Bounds.Touches(search) {
				continue
			}
			items := sp.SpanItems()
			for _, k := range sp.ItemsOnLayer(layer) {
				probe(&items[k], sp.ItemStart+int(k))
			}
		}
	}

	if lay.hasCut {
		for gi := range art.Gates {
			g := &art.Gates[gi]
			probeAll(g.Dev, g.Bounds, ownCuts, lay.cutID, func(it *netlist.ConnItem, i int) {
				if !it.Bounds.Touches(g.Bounds) {
					return
				}
				di.gateT.checks++
				if ovb, ok := geom.IntersectBounds(it.Reg, g.Reg); ok {
					di.gateT.vs = append(di.gateT.vs, violationDraft{
						v: Violation{
							Rule:     "DEV.GATE.CONTACT",
							Severity: Error,
							Detail:   "contact cut over the active gate of a transistor (Figure 7)",
							Where:    ovb,
							Path:     art.ResolveItem(i).Path,
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
			probeAll(ko.Dev, search, ownIsos, lay.isoID, func(it *netlist.ConnItem, _ int) {
				if !it.Bounds.Touches(search) {
					return
				}
				di.baseT.checks++
				d, _, _ := geom.RegionDist(it.Reg, ko.Reg)
				if d < float64(ko.Clearance) || (ko.Clearance == 0 && it.Reg.Overlaps(ko.Reg)) {
					di.baseT.vs = append(di.baseT.vs, violationDraft{
						v: Violation{
							Rule:     "DEV.NPN.ISO",
							Severity: Error,
							Detail:   "isolation touches or approaches a transistor base (Figure 6a)",
							Where:    it.Bounds.Intersect(search),
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
		if c.curStage != nil {
			c.curStage.Checks += t.checks
		}
		inst := &inc.Instances[ii]
		for _, d := range t.vs {
			v := d.v
			v.Where = inst.T.ApplyRect(v.Where)
			v.Path = pathJoin(inc.InstPath(ii), v.Path)
			c.rep.Violations = append(c.rep.Violations, v)
		}
	}
}

// checkInteractions is the incremental stage 5: for every instance, look
// up (or adjudicate once) the definition-level tally for the instance's
// net-environment signature and fold it, with the definition's keepout
// tallies, into the report.
func (e *Engine) checkInteractions(c *checker, inc *netlist.IncExtraction, stats *EngineStats) {
	if inc.Patch != nil && e.tryReplayInteractions(c, inc, stats) {
		return
	}
	e.replay = replayState{}
	maxGap := e.ct.MaxSpacing()

	facts := newNetFacts(inc.Netlist)

	var keep keepLayers
	keep.cutID, keep.hasCut = e.ct.Cut()
	keep.isoID, keep.hasIso = e.ct.Isolation()
	// With no cut geometry, gates or base keepouts anywhere on the chip no
	// definition can hold a keepout pair (a tally only ever counts real
	// pairs), so the conservative layer mask is a pure work gate.
	keep.hasCut = keep.hasCut && inc.Root.MayHaveLayer(keep.cutID) && len(inc.Gates) > 0
	keep.hasIso = keep.hasIso && len(inc.BaseKeepouts) > 0

	// Parallel prebuild: the per-definition candidate sweeps (CrossItemPairs
	// plus the keepout probes) are the stage's dominant cost on a cold or
	// heavily edited run, and they are independent across definitions —
	// they read only immutable artifacts and the compiled technology. Build
	// every missing entry on the worker pool first; the serial replay loop
	// below then finds them cached. Tallies, signatures, and report
	// assembly stay serial, so the report is byte-identical to a one-worker
	// run's (enforced by TestParallelDeterminism*).
	if workers := e.opts.workerCount(); workers > 1 {
		var order []*netlist.SymbolArtifacts
		seen := make(map[*netlist.SymbolArtifacts]bool)
		for ii := range inc.Instances {
			// The cached ones first: that test hashes nothing, and on a warm
			// run it dismisses every instance but the root's.
			art := inc.Instances[ii].Art
			if e.cachedInter(art) != nil || seen[art] {
				continue
			}
			seen[art] = true
			order = append(order, art)
		}
		if len(order) > 1 {
			dis := make([]*defInter, len(order))
			runShards(len(order), workers, func(k int) {
				dis[k] = e.buildDefInter(order[k], maxGap)
				e.buildKeepouts(dis[k], keep)
			})
			for k, art := range order {
				dis[k].fresh = true
				art.Inter = dis[k]
			}
		}
	}

	scratch := &sigScratch{
		labelOf:   make([]int, len(inc.Netlist.Nets)),
		labelSeen: make([]uint32, len(inc.Netlist.Nets)),
	}
	var rootTally *interactionTally
	processInstance := func(ii int) {
		inst := &inc.Instances[ii]
		di := e.defInterFor(inst.Art, maxGap, stats)
		if !di.keepBuilt {
			e.buildKeepouts(di, keep)
		}
		e.absorbKeepouts(c, inc, ii, di)
		if len(di.pairs) == 0 {
			return
		}
		if di.netFree {
			// Every pair is device-internal: adjudication cannot touch
			// the net environment, so the one tally serves all instances.
			if di.freeTally == nil {
				di.freeTally = e.adjudicateDef(di, nil, nil)
				stats.SigMisses++
			} else {
				stats.SigHits++
			}
			if ii == 0 {
				rootTally = di.freeTally
			}
			e.absorbInstance(c, inc, ii, di.freeTally)
			return
		}
		sig := e.netEnvSignature(di, inc, ii, facts, scratch)
		tally, ok := di.sigs[string(sig)]
		if !ok {
			tally = e.adjudicateDef(di, scratch.labels, sig)
			di.sigs[string(sig)] = tally
			stats.SigMisses++
		} else {
			stats.SigHits++
		}
		if ii == 0 {
			rootTally = tally
		}
		e.absorbInstance(c, inc, ii, tally)
	}
	processInstance(0)
	violMark := len(c.rep.Violations)
	mark := captureCounters(c)
	for ii := 1; ii < len(inc.Instances); ii++ {
		processInstance(ii)
	}

	// Record the stage for the windowed-recheck replay: the root
	// instance's tally stays live (patchRootInter edits it in place), the
	// child instances' results are frozen as resolved violations plus
	// counter deltas. Violations are copied — sortViolations reorders the
	// report's backing array after every run.
	e.replay = replayState{
		valid:     true,
		nl:        inc.Netlist,
		root:      inc.Root,
		inst:      len(inc.Instances),
		facts:     facts,
		rootTally: rootTally,
		childViol: append([]Violation(nil), c.rep.Violations[violMark:]...),
		child:     captureCounters(c).sub(mark),
	}
}

// runShards executes fn(0..n-1) on up to `workers` goroutines, handing out
// indices from a shared counter; every index is visited exactly once. It
// returns when every call is done.
func runShards(n, workers int, fn func(k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// tryReplayInteractions reproduces the previous run's interaction stage
// when extraction patched the root in place: the child instances replay
// from the recorded aggregate, and the root definition's pair set is
// patched for the moved items (old pairs' contributions subtracted, new
// pairs adjudicated directly against the global net facts). Returns false
// — with the recorded state invalidated — when any precondition fails;
// the caller then runs the full stage, which re-records.
func (e *Engine) tryReplayInteractions(c *checker, inc *netlist.IncExtraction, stats *EngineStats) bool {
	r := &e.replay
	p := inc.Patch
	if !r.valid || r.nl != p.PrevNetlist || r.root != inc.Root || r.inst != len(inc.Instances) {
		return false
	}
	// The root's entry must describe the artifact as it was before this
	// run's patch.
	di := e.interAt(inc.Root, p.PrevHash)
	if di == nil {
		return false
	}
	if len(p.Items) > 0 && !e.patchRootInter(di, inc, p.Items) {
		// The cache entry may be half-patched; drop it so the full stage
		// rebuilds it from the (already patched) artifact.
		inc.Root.Inter = nil
		r.valid = false
		return false
	}
	di.hash = inc.Root.Hash
	// The patch's copy; the next patch starts from it. (It shares every
	// terminal list with its predecessor, so the facts carry over.)
	r.nl, r.facts.nl = inc.Netlist, inc.Netlist
	stats.InterReused++
	stats.SigHits += r.inst

	e.absorbKeepouts(c, inc, 0, di)
	if r.rootTally != nil {
		e.absorbInstance(c, inc, 0, r.rootTally)
	}
	r.child.addTo(c)
	c.rep.Violations = append(c.rep.Violations, r.childViol...)
	return true
}

// patchRootInter rewrites the root definition's interaction cache for a
// set of moved own items: pairs with a moved endpoint are removed (their
// contributions subtracted from the live root tally), the items' geometry
// is refreshed, and the moved items' new candidate pairs are enumerated
// and adjudicated into the tally. The per-signature tally cache is
// cleared — pair membership changed, so any cached adjudication is stale.
func (e *Engine) patchRootInter(di *defInter, inc *netlist.IncExtraction, moved []int) bool {
	art := inc.Root
	// Keepout tallies (contact-over-gate, isolation-vs-base) depend on
	// cut/isolation geometry; a moved item on those layers would
	// invalidate them. The netlist patch only moves foot-backed
	// interconnect, so in practice this never trips.
	if cutID, ok := e.ct.Cut(); ok {
		for _, gi := range moved {
			if art.ItemView(gi).Layer == cutID {
				return false
			}
		}
	}
	if isoID, ok := e.ct.Isolation(); ok {
		for _, gi := range moved {
			if art.ItemView(gi).Layer == isoID {
				return false
			}
		}
	}
	maxGap := e.ct.MaxSpacing()
	env := &pairEnv{di: di, facts: e.replay.facts}

	movedL := make(map[int]bool, len(moved)) // local item-table indices
	movedG := make(map[int]bool, len(moved)) // global item indices
	for _, gi := range moved {
		movedG[gi] = true
		if k := di.itemIdx[gi]; k >= 0 {
			movedL[int(k)] = true
		}
	}

	t := e.replay.rootTally
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
			g := defPairGeom{p: pr, opts: &e.opts}
			adjudicatePair(e.tc, e.ct, e.opts, di.itemAt(pr.a), di.itemAt(pr.b), env, &g, &oldT)
			continue
		}
		di.pairs[n] = *pr
		n++
	}
	di.pairs = di.pairs[:n]
	if t == nil {
		if oldT.candidates > 0 {
			return false
		}
	} else if !t.subtract(&oldT) {
		return false
	}

	// Refresh the moved items' geometry, then adjudicate their new pairs
	// straight into the live tally.
	for _, gi := range moved {
		if k := di.itemIdx[gi]; k >= 0 {
			di.items[k] = art.ResolveItem(gi)
		}
	}
	for _, gi := range moved {
		la := art.ItemView(gi).Layer
		probe := art.ItemView(gi).Bounds.Expand(maxGap)
		addPair := func(gj int) {
			if !e.ct.Interacts(la, art.ItemView(gj).Layer) {
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
				e.replay.rootTally = t
			}
			pr := defPair{a: pa, b: pb}
			g := defPairGeom{p: &pr, opts: &e.opts}
			adjudicatePair(e.tc, e.ct, e.opts, di.itemAt(pa), di.itemAt(pb), env, &g, t)
			di.pairs = append(di.pairs, pr)
		}
		for j := range art.Items {
			// Moved-moved pairs are emitted once, by the lower index.
			if j == gi || (movedG[j] && j < gi) {
				continue
			}
			if probe.Touches(art.Items[j].Bounds) {
				addPair(j)
			}
		}
		for si := range art.Children {
			sp := &art.Children[si]
			if !probe.Touches(sp.Bounds) {
				continue
			}
			items := sp.SpanItems()
			for k := range items {
				if probe.Touches(items[k].Bounds) {
					addPair(sp.ItemStart + k)
				}
			}
		}
	}
	// Pair membership changed: every cached per-signature adjudication of
	// this definition is stale.
	di.sigs = make(map[string]*interactionTally)
	di.freeTally = nil
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
	t.candidates -= o.candidates
	t.checked -= o.checked
	t.skippedNoRule -= o.skippedNoRule
	t.skippedSameNet -= o.skippedSameNet
	t.skippedRelated -= o.skippedRelated
	t.skippedConn -= o.skippedConn
	t.downgrades -= o.downgrades
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
// but the patched nets' bounds, so the previous issues are rewritten in
// place instead of recomputed.
func (e *Engine) checkConstruction(c *checker, inc *netlist.IncExtraction) {
	var issues []netlist.Issue
	done := false
	if inc.Patch != nil && e.consValid && e.consNL == inc.Patch.PrevNetlist {
		issues, done = e.patchConstruction(inc, inc.Patch.Items)
	}
	if !done {
		issues = netlist.ConstructionRules(inc.Netlist, e.tc)
	}
	e.consNL, e.consIssues, e.consValid = inc.Netlist, issues, true
	for _, is := range issues {
		c.add(Violation{Rule: is.Rule, Severity: Error, Detail: is.Detail, Where: is.Where})
	}
}

// patchConstruction rewrites the previous run's construction issues for a
// root patch. Each patched item is the sole member of an anonymous net
// with no terminals (the netlist patch preconditions), so its one issue
// is the NET.FANOUT finding, keyed stably by (rule, detail) — only the
// Where moves. Issue order is preserved (sortIssues keys on rule and
// detail, both unchanged).
func (e *Engine) patchConstruction(inc *netlist.IncExtraction, moved []int) ([]netlist.Issue, bool) {
	if len(moved) == 0 {
		return e.consIssues, true
	}
	out := append([]netlist.Issue(nil), e.consIssues...)
	for _, gi := range moved {
		f := inc.Root.ItemFootAt(gi)
		if f < 0 {
			return nil, false
		}
		cl := inc.Root.ClassOf[f]
		net := &inc.Netlist.Nets[cl]
		detail := fmt.Sprintf("net %q has %d device terminal(s), need at least 2",
			net.Name, len(net.Terminals))
		found := false
		for k := range out {
			if out[k].Rule == "NET.FANOUT" && out[k].Detail == detail {
				out[k].Where = net.Bounds
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// adjudicateDef runs the shared subcase logic over every candidate pair of
// one definition under one net-environment signature, producing the
// replayable tally.
func (e *Engine) adjudicateDef(di *defInter, labels []int, sig []byte) *interactionTally {
	env := pairEnv{di: di, labels: labels}
	if sig != nil {
		// The share bits follow five bytes per class (a 4-byte label and a
		// has-device bit).
		env.share = sig[5*len(di.candClasses):]
	}
	// With a nil sig (netFree definitions) every pair is same-device and
	// the env's net methods are provably never reached.

	t := &interactionTally{}
	g := defPairGeom{opts: &e.opts}
	for i := range di.pairs {
		p := &di.pairs[i]
		g.p = p
		adjudicatePair(e.tc, e.ct, e.opts, di.itemAt(p.a), di.itemAt(p.b), &env, &g, t)
	}
	return t
}

// absorbInstance folds one instance's tally into the report: counters add
// up directly; violations are carried from definition space into chip
// space (transform the location, prefix the instance path, resolve the
// local net classes against the global netlist).
func (e *Engine) absorbInstance(c *checker, inc *netlist.IncExtraction, ii int, t *interactionTally) {
	st := &c.rep.Stats
	st.InteractionCandidates += t.candidates
	st.InteractionChecked += t.checked
	st.SkippedNoRule += t.skippedNoRule
	st.SkippedSameNetExempt += t.skippedSameNet
	st.SkippedRelated += t.skippedRelated
	st.SkippedConnectionPairs += t.skippedConn
	st.ProcessDowngrades += t.downgrades
	if c.curStage != nil {
		c.curStage.Checks += t.checks
	}
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
	out := fmt.Sprintf("run %d: %d/%d symbols dirty, %d rehashed, %d artifact defs, interactions %d built/%d reused, signatures %d miss/%d hit, contexts %d derived/%d built",
		s.Runs, s.DirtySymbols, s.Symbols, s.Rehashed, s.ArtifactDefs, s.InterBuilt, s.InterReused, s.SigMisses, s.SigHits, s.CtxHits, s.CtxMisses)
	if s.WindowPatched {
		out += ", window-patched"
	}
	if s.FullPath != "" {
		out += ", full path: " + s.FullPath
	}
	return out
}
