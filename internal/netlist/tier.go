package netlist

import (
	"sync"
	"sync/atomic"

	"repro/internal/layout"
)

// Tier is the content-addressed store that incremental extraction reads
// and fills: definition artifacts, embeddings and their family index, and
// own entries, each keyed by content. Engines that check under one
// technology — and one option set, for what a consumer hangs on the slots
// — may share a tier, each through a view of its own (a Cache), so a cell
// that one engine has extracted, swept and adjudicated is never extracted,
// swept or adjudicated again by another while either holds it.
//
// Published means immutable. A value is built whole by one view, outside
// the tier's lock, and published under it; when two views build the same
// key at once the first to publish wins and the other adopts its value.
// What is filled after publication is filled once, safely for concurrent
// readers: the consumer slots (Slot, first publish wins), the device
// analysis memo, the device-text memo, and the lazily eroded skeletons
// (under their value's lock). The one value ever changed in place is a
// view's own last root, which the root patch first withdraws from the tier
// (Cache.withdraw) and which no other view may hold at that moment.
//
// A value lives while a view references it. A view references what it
// has reached within its last evictAge root builds, and with every
// artifact everything the artifact embeds; each value counts the views
// that reference it, under the tier's lock, and leaves the tier when the
// count falls to zero. A tier therefore holds what its live views reach —
// never more than the views would hold as private caches — and is empty
// once every view is closed.
type Tier struct {
	mu        sync.Mutex
	arts      map[layout.Hash]*SymbolArtifacts
	spans     map[spanKey]*spanData
	spanClass map[spanClassKey]*spanData
	owns      map[layout.Hash]*OwnEntry

	views                  int
	hits, builds, releases uint64
}

// NewTier creates an empty tier.
func NewTier() *Tier {
	return &Tier{
		arts:      make(map[layout.Hash]*SymbolArtifacts),
		spans:     make(map[spanKey]*spanData),
		spanClass: make(map[spanClassKey]*spanData),
		owns:      make(map[layout.Hash]*OwnEntry),
	}
}

// TierStats is a tier's gauge and counters: Entries are the values it
// holds (artifacts, embeddings and own entries), Views the open views over
// it; Hits counts values a view took from it that the view did not hold,
// Builds values a view built and published, and Releases the references
// views dropped, by eviction or on close.
type TierStats struct {
	Entries, Views         int
	Hits, Builds, Releases uint64
}

// Stats returns the tier's gauge and counters.
func (t *Tier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TierStats{
		Entries: len(t.arts) + len(t.spans) + len(t.owns),
		Views:   t.views,
		Hits:    t.hits, Builds: t.builds, Releases: t.releases,
	}
}

// TierCounts counts values by kind: definition artifacts, embeddings and
// own entries.
type TierCounts struct {
	Artifacts, Spans, Owns int
}

// Total is the sum over the kinds.
func (n TierCounts) Total() int { return n.Artifacts + n.Spans + n.Owns }

// Sub is n less o, kind by kind.
func (n TierCounts) Sub(o TierCounts) TierCounts {
	return TierCounts{n.Artifacts - o.Artifacts, n.Spans - o.Spans, n.Owns - o.Owns}
}

// Slot is a consumer's value on a shared entry, published once: empty
// until the first Publish, which wins; a later Publish returns the value
// that won. Readers need no lock.
type Slot struct{ p atomic.Pointer[any] }

// Load returns the published value, nil while the slot is empty.
func (s *Slot) Load() any {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

// Publish stores v unless the slot holds a value already, and returns the
// slot's value.
func (s *Slot) Publish(v any) any {
	if s.p.CompareAndSwap(nil, &v) {
		return v
	}
	return *s.p.Load()
}

// take empties the slot and returns what it held. Only the holder of a
// value no other view can reach — a withdrawn root — may take.
func (s *Slot) take() any {
	if p := s.p.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// NewCache opens a view over the tier.
func (t *Tier) NewCache() *Cache {
	t.mu.Lock()
	t.views++
	t.mu.Unlock()
	return &Cache{
		tier:  t,
		arts:  make(map[*SymbolArtifacts]int),
		spans: make(map[*spanData]int),
		owns:  make(map[layout.Hash]*ownRef),
	}
}

// NewCache creates a view over a tier of its own: a library engine's cache.
func NewCache() *Cache { return NewTier().NewCache() }

// Len reports how many definition artifacts the view references.
func (c *Cache) Len() int { return len(c.arts) }

// ContextStats reports the cumulative span context-dedup counters: hits
// are embeddings made views of a same-(content, orientation)
// representative, misses are full transform builds.
func (c *Cache) ContextStats() (hits, misses int) { return c.ctxHits, c.ctxMisses }

// Use reports the values this view has taken from its tier (held by
// another view, or published before it asked) and the values it has built
// and published, cumulative over its life.
func (c *Cache) Use() (taken, built TierCounts) { return c.taken, c.built }

// Close releases every reference the view holds; the view must not be
// used again. A closed view's values stay valid for whoever still holds
// them, and leave the tier when nobody does.
func (c *Cache) Close() {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	t.views--
	c.dropAll(func(int) bool { return true })
	c.lastRoot, c.lastInc, c.lastIssues, c.lastTop = nil, nil, nil, nil
}

// evict drops the view's references to what the last evictAge root builds
// did not reach.
func (c *Cache) evict() {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	c.dropAll(func(gen int) bool { return c.gen-gen >= evictAge })
}

// dropAll releases every reference whose stamp old accepts. Called with
// the tier's lock held.
func (c *Cache) dropAll(old func(gen int) bool) {
	t := c.tier
	for a, g := range c.arts {
		if old(g) {
			delete(c.arts, a)
			t.releaseArt(a)
		}
	}
	for sd, g := range c.spans {
		if old(g) {
			delete(c.spans, sd)
			t.releaseSpan(sd)
		}
	}
	for h, r := range c.owns {
		if old(r.gen) {
			delete(c.owns, h)
			t.releaseOwn(r.e)
		}
	}
}

// The release* methods drop one view's reference; a value nobody
// references leaves the tier. Called with the tier's lock held.

func (t *Tier) releaseArt(a *SymbolArtifacts) {
	t.releases++
	if a.refs--; a.refs > 0 {
		return
	}
	if t.arts[a.Hash] == a {
		delete(t.arts, a.Hash)
	}
}

func (t *Tier) releaseSpan(sd *spanData) {
	t.releases++
	if sd.refs--; sd.refs > 0 {
		return
	}
	h := sd.childArt.Hash
	if k := (spanKey{h, sd.t, sd.name}); t.spans[k] == sd {
		delete(t.spans, k)
	}
	if k := (spanClassKey{h, sd.t.Orient}); t.spanClass[k] == sd {
		delete(t.spanClass, k)
	}
}

func (t *Tier) releaseOwn(e *OwnEntry) {
	t.releases++
	if e.refs--; e.refs > 0 {
		return
	}
	if t.owns[e.hash] == e {
		delete(t.owns, e.hash)
	}
}

// touch marks an artifact, and everything it embeds, as reached by this
// view in this generation, taking a reference to each value the view did
// not hold: what a live root reaches must not age, or the next edit of
// one of its callers would rebuild definitions nobody changed. An artifact
// already stamped this generation is not descended again, so a root build
// pays one pass over the call sites below the definitions it reused.
// Called with the tier's lock held.
func (c *Cache) touch(a *SymbolArtifacts) {
	g, held := c.arts[a]
	if held && g == c.gen {
		return
	}
	if !held {
		a.refs++
		c.taken.Artifacts++
		c.tier.hits++
	}
	c.arts[a] = c.gen
	for si := range a.children {
		c.reach(a.children[si].sd)
		c.touch(a.children[si].Art)
	}
}

// reach is touch for one embedding: it and its family representative were
// reached in this generation. A view that holds a member holds its
// representative, so the family index lives while any member does.
// Called with the tier's lock held.
func (c *Cache) reach(sd *spanData) {
	c.holdSpan(sd)
	if sd.rep != sd {
		c.holdSpan(sd.rep)
	}
}

// holdSpan stamps one embedding, taking a reference when the view did not
// hold it. Called with the tier's lock held.
func (c *Cache) holdSpan(sd *spanData) {
	if _, held := c.spans[sd]; !held {
		sd.refs++
		c.taken.Spans++
		c.tier.hits++
	}
	c.spans[sd] = c.gen
}

// lookup returns the tier's artifact for a subtree hash, touched, or nil.
func (c *Cache) lookup(h layout.Hash) *SymbolArtifacts {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.arts[h]
	if a != nil {
		c.touch(a)
	}
	return a
}

// publishArt publishes an artifact this view built, whose embeddings the
// view holds already, and returns the tier's value for its hash: the
// artifact, or the one another view published first.
func (c *Cache) publishArt(art *SymbolArtifacts) *SymbolArtifacts {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	c.built.Artifacts++
	t.builds++
	if won := t.arts[art.Hash]; won != nil {
		c.touch(won)
		return won
	}
	t.arts[art.Hash] = art
	art.refs++
	c.arts[art] = c.gen
	return art
}

// holds reports whether the view references an artifact.
func (c *Cache) holds(a *SymbolArtifacts) bool {
	_, ok := c.arts[a]
	return ok
}

// retire drops the view's reference to an artifact.
func (c *Cache) retire(a *SymbolArtifacts) {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(c.arts, a)
	t.releaseArt(a)
}

// withdraw takes an artifact this view holds out of the tier, so that the
// view may change it in place, and reports whether it could: only while no
// other view references it. The view keeps its reference.
func (c *Cache) withdraw(a *SymbolArtifacts) bool {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.refs != 1 {
		return false
	}
	if t.arts[a.Hash] == a {
		delete(t.arts, a.Hash)
	}
	return true
}

// republish files a withdrawn artifact under its (new) hash, unless the
// tier holds another value for it; then the artifact stays the view's
// alone.
func (c *Cache) republish(a *SymbolArtifacts) {
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.arts[a.Hash] == nil {
		t.arts[a.Hash] = a
	}
}
