package netlist

// Incremental, content-addressed extraction.
//
// Walking the fully instantiated chip would redo every element region,
// every skeleton, and every connectivity test per instance and per run.
// This file structures extraction around the paper's own locality
// argument — "the information about what symbol the piece of geometry came
// from is never lost" — so that everything derivable from a symbol
// *definition* is computed once, keyed by the definition's content hash,
// and reused across instances and across checker runs:
//
//   - SymbolArtifacts describes the subtree of one symbol in symbol-local
//     coordinates: its own items and footprints, the embedded subtrees as
//     child spans, the subtree-local net partition (union-find classes),
//     device uses, keepouts, illegal connection candidates, and NET.ELEM
//     issues. It is keyed by the symbol's subtree content hash
//     (layout.Symbol.Hashes). No artifact copies its children's items,
//     footprints or regions: an embedded entry is read from the
//     definition that owns it, through the spans that lead there.
//   - Connectivity between two footprints is discovered exactly once, at
//     the definition of their lowest common ancestor: each definition runs
//     a cross-owner sweep over its own footprints and its children's
//     bounding boxes; pairs internal to one child were already resolved in
//     the child's artifacts and are inherited by index translation.
//   - A span cache keys the embedding of a child subtree by (child hash,
//     call transform, call name), so re-deriving a parent does not
//     re-index unchanged child geometry. An embedding is an index over the
//     child, not a copy: bounds, layer, item→footprint and name columns,
//     with the payload (items, footprints, regions, skeletons, devices,
//     keepouts, issues) read from the definition that owns it and shared
//     under an upright transform; a reoriented family also keeps its
//     regions transformed, once, and each skeleton it has transformed.
//     Embeddings that differ only by translation form a family: one
//     representative holds the columns, and every other member is a view
//     of it — an offset and a call name, shifted on read.
//
// The root symbol's artifacts are, by construction, the chip's extraction:
// local coordinates are chip coordinates, relative paths are instance
// paths, and local class ids are the final net ids (connected components
// numbered by first-footprint order). A warm ExtractIncremental therefore
// equals a cold one, cheaper by every subtree whose content hash is
// unchanged.

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// LocalFoot is one connectable footprint of a subtree, in the subtree's
// local coordinates.
type LocalFoot struct {
	Layer    tech.LayerID
	Bounds   geom.Rect
	Reg      geom.Region
	Declared string // declared net name, qualified relative to this frame
	Elements int    // interconnect elements represented (0 or 1)
	MinWidth int64  // layer minimum width (skeleton shrink), own foots only
}

// childSpan locates one call's embedded subtree within the parent's
// flattened arrays. It keeps no pointer to the call: the artifact serves
// every definition with its content, and the call's instance name and
// transform, all an embedding reads of it, are its spanData's.
type childSpan struct {
	Art *SymbolArtifacts // the callee's definition-level artifacts

	Bounds             geom.Rect // bounds of the embedded subtree (parent frame)
	ItemStart, ItemEnd int
	FootStart, FootEnd int
	DevStart, DevEnd   int

	sd *spanData // the embedding's columns, shared (see spanData)

	// node0 is the union-find node of the child's class 0 while the parent
	// is being built: the child's partition enters the parent's as one
	// node per child class, not one per footprint (see populate).
	node0 int
}

// SymbolArtifacts is the complete extraction of one symbol's subtree in
// symbol-local coordinates, content-addressed by the subtree hash.
// Everything in it is instance-independent; instance-dependent facts
// (global net identity, absolute paths, chip coordinates) are re-derived
// by embedding these arrays translated and index-shifted. It is
// name-independent too: every symbol whose subtree draws the same thing
// shares it, so it holds no symbol, call or name of a definition.
type SymbolArtifacts struct {
	Hash layout.Hash

	// primitive marks the artifact of a primitive device symbol.
	primitive bool

	refs int32 // the views that reference it, under its tier's lock (see Tier)

	// The symbol's own entries: its elements (or device terminals and
	// support geometry for a primitive). The flattened subtree indexes own
	// entries first, then each call's subtree in call order; embedded
	// entries live in the child spans and resolve through the accessors
	// below (NumItems, ItemLayer, ItemBounds, ResolveItem, ItemFootAt,
	// FootItemAt, Near). Counts and index offsets (children spans, ClassOf,
	// ClassFoot) are for the full flattened subtree.
	Items    []ConnItem  // Net holds the LOCAL class id (or NoNet)
	Foots    []LocalFoot // connectable subset, parallel order
	ItemFoot []int       // own item index -> foot index, -1 for support geometry

	// Local net partition over Foots, labeled in first-footprint order.
	ClassOf    []int
	ClassFoot  []int // class -> first (representative) foot index
	NumClasses int

	Devices      []DeviceUse // Path and T relative; TerminalNets hold local class ids
	devText      *deviceMemo // Devices' DeviceText memo, shared by every netlist assembled over them; made before publication
	Gates        []Keepout   // local coordinates; Dev is the local device index
	BaseKeepouts []Keepout
	Issues       []Issue  // NET.ELEM findings, local coordinates
	IllegalCands [][2]int // item-index pairs (a < b), candidates for CONN.ILLEGAL

	children []childSpan

	// nbrAt and nbr list, for each span, the other spans whose bounds come
	// within nbrReach of its own, ascending: span si's are
	// nbr[nbrAt[si]:nbrAt[si+1]]. They are all a probe that skips span si
	// and lies within its bounds grown by nbrReach can meet — a keepout
	// probe (see Near). Only a definition with keepouts has the table.
	nbrAt, nbr []int32
	nbrReach   int64

	// Inter is a slot for the one consumer that keeps per-definition state
	// derived from this exact artifact value — the check engine hangs its
	// interaction cache here, so it is reached without a lookup and is
	// dropped with the artifact. Every engine over the tier shares it: the
	// first to publish wins. The extractor reads it only to hand it over:
	// a root patch changes a withdrawn artifact in place, so tryPatchRoot
	// moves the slot onto the RootPatch and empties it, and the consumer
	// publishes back what it brought up to date.
	Inter Slot

	// Instances counts the placements in this subtree including itself
	// (primitive and composite definitions alike), sized once at build so
	// per-run instance enumeration can preallocate.
	Instances int

	numItems int
	numFoots int
	numTerms int // terminal→net assignments over Devices (sizes the parent's slab)

	footItem []int // lazy inverse of ItemFoot over the own footprints; only buildNew asks, before publication

	skelMu sync.Mutex
	skels  map[int]geom.Region // lazy skeletons of own footprints, under skelMu (see footSkel)
}

// NumItems returns the flattened subtree item count.
func (a *SymbolArtifacts) NumItems() int { return a.numItems }

// Primitive reports whether the artifact is a primitive device symbol's.
func (a *SymbolArtifacts) Primitive() bool { return a.primitive }

// NumFoots returns the flattened subtree footprint count.
func (a *SymbolArtifacts) NumFoots() int { return a.numFoots }

// itemSpan locates the child span containing item index i (-1 for own).
func (a *SymbolArtifacts) itemSpan(i int) int {
	if i < len(a.Items) {
		return -1
	}
	lo, hi := 0, len(a.children)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.children[mid].ItemStart <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// footSpan locates the child span containing foot index i (-1 for own).
func (a *SymbolArtifacts) footSpan(i int) int {
	if i < len(a.Foots) {
		return -1
	}
	lo, hi := 0, len(a.children)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.children[mid].FootStart <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ItemLayer returns the layer of item i.
func (a *SymbolArtifacts) ItemLayer(i int) tech.LayerID {
	if i < len(a.Items) {
		return a.Items[i].Layer
	}
	sp := &a.children[a.itemSpan(i)]
	return sp.sd.rep.itemLayers[i-sp.ItemStart]
}

// ItemBounds returns the bounds of item i in this frame.
func (a *SymbolArtifacts) ItemBounds(i int) geom.Rect {
	if i < len(a.Items) {
		return a.Items[i].Bounds
	}
	sp := &a.children[a.itemSpan(i)]
	return sp.itemBox(i - sp.ItemStart)
}

// ResolveItem returns item i and the offset that moves its region into
// this frame. Everything else is already in this frame: bounds and path
// (read from the span's columns), Dev offset into this frame, Net set to
// this frame's local class (NoNet for support geometry). An embedded item
// is read from the definition that owns it, its region from where
// childSpan.ownerItem finds it. Own items have a zero offset.
func (a *SymbolArtifacts) ResolveItem(i int) (it ConnItem, off geom.Point) {
	if i < len(a.Items) {
		return a.Items[i], geom.Point{}
	}
	sp := &a.children[a.itemSpan(i)]
	local := i - sp.ItemStart
	owner, k, devOff, reg, off := sp.ownerItem(local)
	it = owner.Items[k]
	it.Reg = reg
	it.Bounds = sp.itemBox(local)
	it.Path = sp.sd.itemPath(local)
	if it.Dev >= 0 {
		it.Dev += devOff
	}
	if f := sp.sd.rep.itemFoot[local]; f >= 0 {
		it.Net = NetID(a.ClassOf[sp.FootStart+int(f)])
	} else {
		it.Net = NoNet
	}
	return it, off
}

// ownerItem descends from the span's item i to the definition that
// stores it among its own items: that definition, the item's index k
// there and the offset of its device indices in the span's parent frame;
// and the item's region with the offset that moves it into that frame.
// The region is the owner's, shared, when every embedding on the way down
// is upright, or else the entry of the first reoriented family on the
// way, whose region column holds it transformed. The descent is a loop,
// one span search per level.
func (sp *childSpan) ownerItem(i int) (owner *SymbolArtifacts, k int, devOff int, reg geom.Region, off geom.Point) {
	homed := false
	for {
		if !homed {
			if rep := sp.sd.rep; rep.regs != nil {
				reg, off, homed = rep.regs[i], off.Add(sp.sd.d), true
			} else {
				off = off.Add(sp.sd.t.Trans)
			}
		}
		devOff += sp.DevStart
		a := sp.Art
		if i < len(a.Items) {
			if !homed {
				reg = a.Items[i].Reg
			}
			return a, i, devOff, reg, off
		}
		sp = &a.children[a.itemSpan(i)]
		i -= sp.ItemStart
	}
}

// footHome descends from footprint f to where its geometry is stored: the
// representative of the first reoriented family on the way down, whose
// columns hold it transformed (rep set, k its span-local footprint), or
// else the definition that owns it (k its own footprint). off moves the
// stored geometry into a's frame.
func (a *SymbolArtifacts) footHome(f int) (owner *SymbolArtifacts, rep *spanData, k int, off geom.Point) {
	for f >= len(a.Foots) {
		sp := &a.children[a.footSpan(f)]
		f -= sp.FootStart
		if sp.sd.rep.regs != nil {
			return nil, sp.sd.rep, f, off.Add(sp.sd.d)
		}
		off = off.Add(sp.sd.t.Trans)
		a = sp.Art
	}
	return a, nil, f, off
}

// footReg returns the region of footprint f and the offset that moves it
// into this frame (see footHome).
func (a *SymbolArtifacts) footReg(f int) (geom.Region, geom.Point) {
	owner, rep, k, off := a.footHome(f)
	if rep != nil {
		return rep.regs[rep.footItem[k]], off
	}
	return owner.Foots[k].Reg, off
}

// ItemFootAt returns the footprint index of item i, -1 for support
// geometry: a direct index for own items, a span search and the span's
// item→foot column for embedded ones.
func (a *SymbolArtifacts) ItemFootAt(i int) int {
	if i < len(a.ItemFoot) {
		return a.ItemFoot[i]
	}
	sp := &a.children[a.itemSpan(i)]
	if f := sp.sd.rep.itemFoot[i-sp.ItemStart]; f >= 0 {
		return sp.FootStart + int(f)
	}
	return -1
}

// FootItemAt returns the item index of footprint f: a direct index for
// own footprints, a span search and the span's footprint→item column for
// embedded ones.
func (a *SymbolArtifacts) FootItemAt(f int) int {
	if f >= len(a.Foots) {
		sp := &a.children[a.footSpan(f)]
		return sp.ItemStart + int(sp.sd.rep.footItem[f-sp.FootStart])
	}
	if a.footItem == nil {
		a.footItem = make([]int, len(a.Foots))
		for i, ff := range a.ItemFoot {
			if ff >= 0 {
				a.footItem[ff] = i
			}
		}
	}
	return a.footItem[f]
}

// itemBox returns the bounds of the embedded child's item k (span-local
// index) in the parent frame.
func (sp *childSpan) itemBox(k int) geom.Rect {
	return sp.sd.rep.itemBoxes[k].Translate(sp.sd.d)
}

// footSkel returns the skeleton of footprint f, in the 4× coordinates of
// geom.Skeleton, as a region and the offset that moves it into this frame.
// The definition that owns the footprint erodes it (lazily, once); every
// upright embedding above shares that skeleton through the offset, and a
// reoriented family transforms it once and keeps it — erosion commutes
// with Manhattan rigid transforms, so the result is the region the flat
// extractor would have eroded, at transform cost (nothing, under upright
// embeddings) instead of erosion cost, shared across every instance of the
// owner. Engines sharing a tier sweep over the same published values at
// once, so each lazy fill is made under its value's lock; the locks nest
// downwards only, from a representative to the child it transforms.
func (a *SymbolArtifacts) footSkel(f int) (geom.Region, geom.Point) {
	owner, rep, k, off := a.footHome(f)
	off = geom.Point{X: 4 * off.X, Y: 4 * off.Y}
	if rep != nil {
		rep.skelMu.Lock()
		defer rep.skelMu.Unlock()
		s, ok := rep.skels[k]
		if !ok {
			cs, coff := rep.childArt.footSkel(k)
			s = cs.TransformBy(geom.Translate(coff).Compose(scale4(rep.t)))
			if rep.skels == nil {
				rep.skels = make(map[int]geom.Region)
			}
			rep.skels[k] = s
		}
		return s, off
	}
	owner.skelMu.Lock()
	defer owner.skelMu.Unlock()
	if owner.skels == nil {
		owner.skels = make(map[int]geom.Region)
	}
	s, ok := owner.skels[k]
	if !ok {
		lf := &owner.Foots[k]
		s = geom.Skeleton(lf.Reg, lf.MinWidth)
		owner.skels[k] = s
	}
	return s, off
}

// spanKey identifies one transformed embedding of a subtree.
type spanKey struct {
	hash layout.Hash
	t    geom.Transform
	name string
}

// spanClassKey identifies a family of embeddings that differ only by
// translation: same child content, same orientation. Every member of the
// class is the same geometry shifted, so once one member is built the
// rest are views of it — an offset and a call name — the array-regularity
// dedup that makes a uniform 64×64 array cost one full embedding plus a
// few words per further placement.
type spanClassKey struct {
	hash   layout.Hash
	orient geom.Orient
}

// spanData is the cached embedding of a child subtree under one call
// transform and call name. Shared by every parent that places the same
// content under the same transform and name, and across runs.
//
// An embedding is an index over the child's artifacts, not a copy of
// them. A family representative (rep == itself) keeps only the columns
// the sweeps, the proximity query and the sequential walks read: item
// bounds in the parent frame, item layers, item→footprint and its inverse
// (a footprint's bounds and layer are its item's), footprint element
// counts, and the distinct-path and declared-name index. Items,
// footprints, devices, keepouts and issues stay where the child's
// definitions hold them and are read through the child's accessors,
// placed on read (ResolveItem, footReg, and the copies populate makes);
// so do regions and skeletons under an upright transform. A reoriented
// family transforms its regions once, into a column (see regs). A
// derived member is a view of the representative: the same columns moved
// by d, under its own call name. Every value but the lazily transformed
// skeletons (under skelMu) is immutable once built.
type spanData struct {
	childArt *SymbolArtifacts
	t        geom.Transform
	name     string    // call name the paths/declared names are prefixed with
	bounds   geom.Rect // parent frame
	rep      *spanData // the family representative (itself when it is one)
	d        geom.Point

	// The representative's columns (nil on a derived member), built
	// eagerly with it: the engine's parallel definition builds read them
	// concurrently, so nothing here is ever filled lazily.
	//
	// itemBoxes is the dense bounds table of the cross-pair refinement
	// scans: reading a 32-byte rect stream keeps the hot collect() loops in
	// cache.
	itemBoxes []geom.Rect

	// itemLayers[i] is item i's layer, itemFoot[i] is the span-local
	// footprint of item i (-1 for support geometry), footItem is its
	// inverse, and footElems[f] is footprint f's interconnect element
	// count. None depends on the call translation, so a family builds them
	// once.
	itemLayers                    []tech.LayerID
	itemFoot, footItem, footElems []int32

	// paths holds the family's distinct relative paths and non-rail
	// declared names, under this span's call name: the representative
	// builds the table and its index columns (item, device and footprint →
	// entry), and a member re-prefixes the table once per distinct path as
	// it derives, so reading any span's path is an index. A footprint's
	// name index is -1 when it has none; a rail name is kept verbatim, in
	// the representative's rails table at index -2-j.
	paths                                []string
	rails                                []string
	itemPathIdx, devPathIdx, footNameIdx []int32

	// A reoriented family (t.Orient != R0) also keeps its items' regions
	// transformed into its frame, regs[i] for item i, in one store's
	// slabs: the engine's parallel interaction builds read them through
	// ResolveItem, and a rotation costs a sweep. skels holds the
	// footprint skeletons extraction has transformed so far, under skelMu
	// (see footSkel). An upright family keeps neither: its members read
	// the owners' regions through an offset.
	regs   []geom.Region
	skelMu sync.Mutex
	skels  map[int]geom.Region

	refs int32 // the views that reference it, under its tier's lock (see Tier)
}

// itemPath returns the relative path of span-local item k.
func (sd *spanData) itemPath(k int) string { return sd.paths[sd.rep.itemPathIdx[k]] }

// devPath returns the relative path of span-local device k.
func (sd *spanData) devPath(k int) string { return sd.paths[sd.rep.devPathIdx[k]] }

// footDeclared returns the declared name of span-local footprint k.
func (sd *spanData) footDeclared(k int) string {
	switch j := sd.rep.footNameIdx[k]; {
	case j >= 0:
		return sd.paths[j]
	case j == -1:
		return ""
	default:
		return sd.rep.rails[-2-j]
	}
}

// scale4 lifts a Manhattan transform into the 4× coordinate space of
// geom.Skeleton.
func scale4(t geom.Transform) geom.Transform {
	return geom.Transform{Orient: t.Orient, Trans: geom.Point{X: t.Trans.X * 4, Y: t.Trans.Y * 4}}
}

// Cache is one engine's view of a Tier: the references that keep the
// tier's values alive for it, the generation stamps that age them, and
// everything of the engine's own — the working arrays, the last
// extraction, the interned anonymous net names. It is not safe for
// concurrent use: one goroutine at a time extracts through it, while other
// views over the same tier extract at the same time. A run may itself
// split its chip-sized phases across the workers ExtractIncremental is
// given, the calling goroutine among them; every such phase writes
// disjoint, pre-sized output, and nothing of the view's own state — the
// maps, the scratch — is written off the calling goroutine. The view
// recycles working arrays across runs: only the MOST RECENT IncExtraction
// produced through a Cache is valid — a new extraction overwrites the
// previous result's Instances in place.
// The public Netlist (nets, devices) is never recycled or rewritten and
// stays valid indefinitely: a root patch that moves a net's bounds does so
// on a fresh Netlist over the very same Nets and Devices arrays (with the
// DeviceText memo and the name index), which carries the moved nets'
// bounds beside them in a copy of its predecessor's small overlay
// (Netlist.NetBounds reads through it); the arrays keep their assembled
// values.
// This is the engine's contract: one live run per view. The consumer slots
// on the shared values (SymbolArtifacts.Inter, OwnEntry.Checks) are
// published once and shared by every view over the tier; the one slot of
// the engine's own, IncExtraction.Replay, hangs on its extraction.
// Whatever a consumer keeps in a slot lives with the entry it hangs on,
// and a view references an entry for evictAge root builds after it last
// reached it: one horizon for everything a view holds.
//
// What a full re-derive of the root costs follows from what is kept here.
// Per definition (SymbolArtifacts): its own entries and their regions, the
// spans of its calls, the subtree's net partition, and its devices and
// keepouts. Per translation family of embeddings (spanData
// representatives): index columns only — item bounds, item layers,
// item→footprint and its inverse, footprint element counts, and the
// distinct-path and declared-name index — about 50 bytes per item; no
// item, footprint, device, keepout or issue is copied, and regions only
// by a reoriented family, transformed. Per further member of a family: an
// offset and its re-prefixed distinct paths, nothing per entry. Per
// session: the interned anonymous net names. What a run does per device
// or per net — the devices' terminal lists, the nets' terminal lists — is
// carved from one slab each and filled at copy speed.
type Cache struct {
	tier *Tier

	// The values this view references, each with the generation that last
	// reached it (see touch). A view that references an artifact
	// references everything it embeds, and one that references an
	// embedding references its family representative.
	arts  map[*SymbolArtifacts]int
	spans map[*spanData]int
	owns  map[layout.Hash]*ownRef // by own hash: a held entry is answered without the tier's lock

	// gen numbers the root builds: it is the number of the build in
	// progress, or else of the next one. Every reference carries the
	// generation that last reached it, so an entry reached between builds —
	// by a consumer ahead of its run's build, or in a run the root patch
	// answers — counts as reached by the next build. After each build evict
	// drops the references the last evictAge builds did not reach.
	gen int

	// taken and built count the values this view took from the tier and
	// the values it built (see Use).
	taken, built TierCounts

	// Context-dedup effectiveness counters (cumulative for the session):
	// a hit is an embedding made a view of its family representative, a
	// miss is a full transform build.
	ctxHits, ctxMisses int

	// Reusable per-build scratch: the union-find and classification
	// working arrays are dead the moment a build returns, so one buffer
	// serves every build (the view is single-threaded by contract).
	ufScratch    geom.UnionFind
	classScratch []int32 // union-find root -> class+1
	nodeClass    []int32 // union-find node -> class
	instScratch  []Instance
	starts       []callStart // the calls of the definition being built (see populate)

	// workers sizes the pool the chip-sized phases of a build and of the
	// netlist assembly split across (see runCalls); ExtractIncremental
	// sets it for its run.
	workers int

	anon anonNames // the session's interned anonymous net names

	// lastRoot is the most recent top-level artifact this view built. A
	// root's subtree hash changes on every edit, so its (large, flat-sized)
	// arrays are dead weight the moment the next edit lands; buildRoot
	// drops the view's reference to it then, rather than let it age out.
	lastRoot *SymbolArtifacts

	// lastInc/lastIssues retain the most recent extraction so a
	// window-scoped root edit can patch it in place (tryPatchRoot) instead
	// of re-deriving the root. They obey the same contract as instScratch:
	// only the most recent IncExtraction is valid.
	lastInc    *IncExtraction
	lastIssues []Issue
	// lastTop is the top symbol lastInc was extracted from, and lastSeq
	// its edit number then: the root patch asks the top which elements
	// moved after it (layout.Symbol.MovedSince), which only that symbol
	// can answer.
	lastTop *layout.Symbol
	lastSeq uint64

	closed bool // Close released every reference
}

// OwnEntry is the tier's entry for one definition's own content, keyed
// by the symbol's own content hash: what is derived from its own elements
// whatever its subtree — the device analysis of a primitive, and the
// consumer's per-definition results.
type OwnEntry struct {
	hash     layout.Hash
	analysis atomic.Pointer[analysis] // device.Analyze's result, published once
	refs     int32                    // the views that reference it, under its tier's lock

	// Checks is a slot for the one consumer that keeps results derived
	// from the definition's own content — the check engine keeps its
	// element and layer-rule results here, so they age with the entry. The
	// extractor neither reads nor writes it.
	Checks Slot
}

// analysis is one device analysis.
type analysis struct {
	info  *device.Info
	probs []device.Problem
}

// ownRef is a view's reference to an own entry, with the generation that
// last reached it.
type ownRef struct {
	e   *OwnEntry
	gen int
}

// Own returns the entry for a definition's own content hash, empty when
// first asked for, and marks it reached by the current root build, or else
// by the next one. An entry the view holds is the tier's: it leaves the
// tier only when no view holds it.
func (c *Cache) Own(ownHash layout.Hash) *OwnEntry {
	if r := c.owns[ownHash]; r != nil {
		r.gen = c.gen
		return r.e
	}
	t := c.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.owns[ownHash]
	if e == nil {
		e = &OwnEntry{hash: ownHash}
		t.owns[ownHash] = e
		t.builds++
		c.built.Owns++
	} else {
		t.hits++
		c.taken.Owns++
	}
	e.refs++
	c.owns[ownHash] = &ownRef{e, c.gen}
	return e
}

// Analyze memoizes device.Analyze on the symbol's own entry. Two views
// asking at once may both analyze; the first result published is kept.
func (c *Cache) Analyze(s *layout.Symbol, ownHash layout.Hash, tc *tech.Technology) (*device.Info, []device.Problem) {
	e := c.Own(ownHash)
	a := e.analysis.Load()
	if a == nil {
		a = new(analysis)
		a.info, a.probs = device.Analyze(s, tc)
		if !e.analysis.CompareAndSwap(nil, a) {
			a = e.analysis.Load()
		}
	}
	return a.info, a.probs
}

// evictAge is how many root builds a view keeps referencing an entry it no
// longer reaches; a run the root patch answers builds nothing and is not
// counted (see extractIncremental). The root's artifacts turn over on
// every edit that rebuilds it (its subtree hash always changes), so a
// short horizon keeps a busy session's memory flat while still riding out
// short A/B edit oscillations.
const evictAge = 3

// Instance is one placement of a definition on the chip: its artifacts
// plus the global transform and the offsets of its subtree within the
// root's flattened arrays. Absolute paths are derived on demand via
// IncExtraction.InstPath — they are needed only when a violation is
// instantiated, and eagerly joining tens of thousands of strings per run
// would dominate the warm-recheck floor.
type Instance struct {
	Art       *SymbolArtifacts
	Parent    int    // index of the parent instance, -1 for the root
	Name      string // call name within the parent ("" for the root)
	T         geom.Transform
	ItemStart int
	FootStart int
}

// RootPatch reports that extraction reused the previous run's root
// artifacts, updating the changed items in place. Items lists the root
// item indices whose geometry moved (possibly none: an unchanged design
// replays verbatim, netlist included); the extraction's Netlist differs
// from the previous one only in the listed items' net bounds.
//
// Replay and Inter are the consumer slots of the patched extraction and of
// its root artifact (IncExtraction.Replay, SymbolArtifacts.Inter) as the
// patch found them: they describe the state before the patch, so the patch
// takes them off what it changed. A consumer may patch the listed items
// into them instead of rebuilding, and put them back.
type RootPatch struct {
	Items         []int
	Replay, Inter any
}

// IncExtraction is ExtractIncremental's result: the netlist, keepouts and
// illegal pairs the checker stages consume, plus the definition/instance
// structure the incremental interaction stage keys its caches on. Items
// are never flattened into one array: item i of the chip is
// Root.ResolveItem(i).
type IncExtraction struct {
	Netlist *Netlist

	// Gates are MOS channel keepouts (contact cuts must not land on them,
	// Figure 7).
	Gates []Keepout

	// BaseKeepouts are bipolar base regions that isolation must stay clear
	// of (Figure 6a).
	BaseKeepouts []Keepout

	// IllegalPairs indexes root item pairs that overlap on the same layer
	// without being skeletally connected AND end up on different nets —
	// the illegal connections of Figures 11/15.
	IllegalPairs [][2]int

	Root      *SymbolArtifacts
	Instances []Instance // depth-first preorder; [0] is the root
	// Patch is non-nil when this extraction was produced by patching the
	// previous one in place rather than re-deriving the root.
	Patch *RootPatch
	// Replay is a slot for the one consumer that records what it computed
	// from this extraction — the check engine hangs the record of its
	// interaction and construction stages here, for a root patch to hand
	// over (see RootPatch). The extractor reads it only to hand it over.
	Replay any
	// Refused names why the root patch did not answer this extraction (one
	// of the Refuse* values); empty when Patch is set.
	Refused string
}

// Why tryPatchRoot re-derived the root instead of patching it: one value
// per refusal branch.
const (
	RefuseNoBaseline         = "no-baseline"         // no previous extraction of this top to patch
	RefusePrimitiveTop       = "primitive-top"       // the top symbol is a device
	RefuseChildChanged       = "child-changed"       // a definition the previous extraction embeds changed
	RefuseStructuralEdit     = "structural-edit"     // the top changed by more than in-place element moves
	RefuseElementUnextracted = "element-unextracted" // the edited element had no footprint (it failed to materialize)
	RefuseElementDeclared    = "element-declared"    // the edited element carries a declared net name
	RefuseLayerChanged       = "layer-changed"       // the edit moved the element to another layer
	RefuseElementNotInert    = "element-not-inert"   // its net has other members, device terminals or names
	RefuseIllegalContact     = "illegal-contact"     // it sits in an illegal-connection candidate pair
	RefuseBadGeometry        = "bad-geometry"        // its new geometry does not materialize
	RefuseContactAfterMove   = "contact-after-move"  // its new position touches another footprint of its layer
	RefuseContactAmongMoved  = "contact-among-moved" // two moved elements touch at their new positions
	RefuseRootShared         = "root-shared"         // another view over the tier holds the root
)

// GlobalNet resolves a subtree-local net class of one instance to the
// chip-global net id.
func (x *IncExtraction) GlobalNet(inst int, class int) NetID {
	in := &x.Instances[inst]
	return NetID(x.Root.ClassOf[in.FootStart+in.Art.ClassFoot[class]])
}

// ExtractIncremental extracts over the artifact cache: per-definition work
// is reused across instances and across runs, and the chip is never fully
// instantiated, so a warm recheck's cost scales with the edit, not with
// the flattened chip size. Content hashes are read off the symbols
// (layout.Symbol.Hashes, which re-hashes what a Touch or TouchElement
// moved). When the only change since the cache's previous extraction is
// in-place moves of the top's own elements (TouchElement), the extractor
// may patch the previous result instead of re-deriving the root. The
// result is identical either way (Patch reports which path was
// taken, Refused why not). workers sizes the pool a re-derive's chip-sized
// phases split across (1 or less: the calling goroutine alone); the result
// does not depend on it.
func ExtractIncremental(d *layout.Design, tc *tech.Technology, c *Cache, workers int) (*IncExtraction, []Issue, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	c.workers = max(workers, 1)
	// A patched run builds nothing and retires nothing: everything the
	// previous root reaches is exactly as live as it was, so the cache does
	// not age.
	inc, issues, refused := c.tryPatchRoot(d.Top, tc)
	c.lastTop, c.lastSeq = d.Top, d.Top.Seq()
	if refused == "" {
		return inc, issues, nil
	}
	root := c.buildRoot(d.Top, tc)
	c.evict()
	c.gen++

	issues = make([]Issue, 0, len(root.Issues))
	issues = append(issues, root.Issues...)
	inc = &IncExtraction{
		Gates:        root.Gates,
		BaseKeepouts: root.BaseKeepouts,
		Root:         root,
		Refused:      refused,
	}
	nl := c.assemble(inc)
	issues = nameNets(nl, &issues, &c.anon)
	inc.Netlist = nl
	netAt := func(i int) NetID {
		if f := root.ItemFootAt(i); f >= 0 {
			return NetID(root.ClassOf[f])
		}
		return NoNet
	}
	for _, p := range root.IllegalCands {
		if netAt(p[0]) != netAt(p[1]) {
			inc.IllegalPairs = append(inc.IllegalPairs, p)
		}
	}
	c.lastInc, c.lastIssues = inc, issues
	return inc, issues, nil
}

// tryPatchRoot attempts the windowed recheck: when the design's only
// change since the previous extraction is in-place geometry edits
// of top-level elements whose nets are provably isolated — each edited
// element is the sole member of an anonymous net, touches nothing on its
// layer before or after the move — the previous extraction stays valid
// verbatim except for the moved geometry, which is patched in place. The
// unchanged-hash case (no observable edit) replays with an empty patch.
// Any condition failure returns the reason (a Refuse* value) and the caller
// re-derives; the empty reason means patched.
//
// The patch edits the previous root's artifact in place, which is sound
// only while nothing else embeds it. Within one design no descendant of
// the top shares the top's subtree hash: that hash covers every
// descendant's. Across designs the artifact that is this view's last root
// build (lastRoot) embeds nowhere in the view either: buildRoot retires it
// before it builds anything a later design could hash alike, and a run
// whose root is a cached artifact leaves lastRoot unequal to that run's
// root. Across views, a view that embeds the root, or has it as its own
// root, references it: the patch first withdraws the root from the tier,
// which only the root's one holder can (RefuseRootShared otherwise).
func (c *Cache) tryPatchRoot(top *layout.Symbol, tc *tech.Technology) (*IncExtraction, []Issue, string) {
	art := c.lastRoot
	inc := c.lastInc
	if art == nil || inc == nil || c.lastTop != top || inc.Root != art || !c.holds(art) {
		return nil, nil, RefuseNoBaseline
	}
	newHash := top.Hashes().Subtree
	if newHash == art.Hash {
		// Nothing changed: the previous extraction is the answer, and its
		// root's slot stays where it is.
		inc.Patch = &RootPatch{Replay: inc.Replay, Inter: art.Inter.Load()}
		inc.Replay, inc.Refused = nil, ""
		return inc, c.lastIssues, ""
	}
	if top.IsPrimitive() {
		return nil, nil, RefusePrimitiveTop
	}
	// The move stamps speak for the root's own elements only: the embedded
	// subtrees are checked against their current hashes, one span per call.
	if len(top.Calls) != len(art.children) {
		return nil, nil, RefuseChildChanged
	}
	for si, call := range top.Calls {
		if art.children[si].Art.Hash != call.Target.Hashes().Subtree {
			return nil, nil, RefuseChildChanged
		}
	}
	moved, ok := top.MovedSince(c.lastSeq)
	if !ok || len(moved) == 0 {
		return nil, nil, RefuseStructuralEdit
	}

	type patchItem struct {
		item, foot, class int
		newBounds         geom.Rect
		newReg            geom.Region
	}
	nl := inc.Netlist
	patches := make([]patchItem, 0, len(moved))
	for _, ei := range moved {
		el := top.Elements[ei]
		// The root's own items are its elements in order, less those
		// that failed to materialize (which cannot be patched).
		it, ok := slices.BinarySearchFunc(art.Items, ei, func(item ConnItem, ei int) int { return cmp.Compare(item.Elem, ei) })
		if !ok {
			return nil, nil, RefuseElementUnextracted
		}
		if el.Net != "" {
			return nil, nil, RefuseElementDeclared
		}
		f := art.ItemFoot[it]
		if f < 0 {
			return nil, nil, RefuseElementUnextracted
		}
		foot := &art.Foots[f]
		if el.Layer != foot.Layer {
			return nil, nil, RefuseLayerChanged
		}
		cl := art.ClassOf[f]
		net := &nl.Nets[cl]
		// The edited element must be electrically inert: the sole member
		// of an anonymous net with no device terminals, and no candidate
		// illegal connection. Then moving it cannot change any class, any
		// name, or any extraction issue — only its own geometry.
		if len(net.Declared) != 0 || len(net.Terminals) != 0 || net.Elements != 1 {
			return nil, nil, RefuseElementNotInert
		}
		for _, p := range art.IllegalCands {
			if p[0] == it || p[1] == it {
				return nil, nil, RefuseIllegalContact
			}
		}
		reg, err := el.Region()
		if err != nil {
			return nil, nil, RefuseBadGeometry
		}
		patches = append(patches, patchItem{item: it, foot: f, class: cl, newBounds: reg.Bounds(), newReg: reg})
	}
	// The new position must stay isolated on its layer: no bounds contact
	// with any other footprint (own or embedded). Contact would create
	// connectivity or an illegal-connection candidate — either way the
	// partition changes and the patch does not apply. The scan sees the
	// other patched elements at their old positions, which can only bail
	// conservatively; mutual contact among new positions is checked after.
	for _, pi := range patches {
		layer, contact := art.Foots[pi.foot].Layer, false
		art.Near(pi.newBounds, -1, func(i int, l tech.LayerID, _ geom.Rect) {
			contact = contact || i != pi.item && l == layer && art.ItemFootAt(i) >= 0
		})
		if contact {
			return nil, nil, RefuseContactAfterMove
		}
	}
	for i := range patches {
		for j := i + 1; j < len(patches); j++ {
			if art.Foots[patches[i].foot].Layer == art.Foots[patches[j].foot].Layer &&
				patches[i].newBounds.Touches(patches[j].newBounds) {
				return nil, nil, RefuseContactAmongMoved
			}
		}
	}

	// Commit: withdraw the root from the tier, patch the moved geometry in
	// place and file the root under its new hash. Class structure, names,
	// issues, devices, and instances are all untouched by construction.
	// The moved nets' bounds go on a successor netlist over the same
	// arrays: the previous run's report still points at nl. The consumer
	// slots move onto the patch: what they hung on no longer holds them.
	if !c.withdraw(art) {
		return nil, nil, RefuseRootShared
	}
	// The consumer slot is emptied while the root is withdrawn: once it is
	// filed again another view may take it, and must find nothing on it
	// that describes the old geometry.
	inter := art.Inter.take()
	patched := make([]int, len(patches))
	moves := make([]netBounds, len(patches))
	art.skelMu.Lock()
	for i, pi := range patches {
		art.Foots[pi.foot].Bounds = pi.newBounds
		art.Foots[pi.foot].Reg = pi.newReg
		art.Items[pi.item].Bounds = pi.newBounds
		art.Items[pi.item].Reg = pi.newReg
		delete(art.skels, pi.foot)
		// Assembly unions the sole footprint's bounds into the zero rect,
		// which is the identity: the net bounds ARE the footprint's.
		moves[i] = netBounds{net: pi.class, bounds: pi.newBounds}
		patched[i] = pi.item
	}
	art.skelMu.Unlock()
	inc.Netlist = nl.patched(moves)
	art.Hash = newHash
	inc.Patch = &RootPatch{Items: patched, Replay: inc.Replay, Inter: inter}
	c.republish(art)
	inc.Replay, inc.Refused = nil, ""
	return inc, c.lastIssues, ""
}

// assemble builds the netlist skeleton over the root's classification —
// nets in class order with aggregated element counts, bounds, declared
// names and device terminal references (device TerminalNets already hold
// final net ids) — and, beside it, the instance table inc.Instances. Both
// are chip-sized, so they run on the pool as one batch of independent
// shards: the footprint pass by footprint range, each shard past the
// first into a partial of the nets merged in shard order; the terminal
// count by device range; and the instance table by ranges of the root's
// calls, each call's preorder block placed by the instance counts before
// it. A second batch writes the terminals where the counts put them.
func (c *Cache) assemble(inc *IncExtraction) *Netlist {
	root := inc.Root
	nc, devs, w := root.NumClasses, root.Devices, c.workers
	nl := &Netlist{Nets: make([]Net, nc), Devices: devs, devText: root.devText}
	for i := range nl.Nets {
		nl.Nets[i].ID = NetID(i)
	}
	if cap(c.instScratch) >= root.Instances {
		inc.Instances = c.instScratch[:root.Instances]
	} else {
		inc.Instances = make([]Instance, root.Instances)
	}
	c.instScratch = inc.Instances
	inc.Instances[0] = Instance{Art: root, Parent: -1, T: geom.Identity}

	// A shard's partial costs a net table, and its terminal counts a
	// column per net, for the run: the footprint and terminal passes split
	// no further than there are workers.
	nFoots := root.NumFoots()
	mf := shards(nFoots, w, w)
	mt := shards(root.numTerms, w, w)
	mi := shards(root.Instances, w, len(root.children))
	parts, counts := make([]Net, (mf-1)*nc), make([]int32, mt*nc)
	geom.RunShards(mf+mt+mi, w, func(k int) {
		switch {
		case k < mf:
			nets := nl.Nets
			if k > 0 {
				nets = parts[(k-1)*nc : k*nc]
			}
			lo, hi := geom.ShardRange(k, mf, nFoots)
			addFoots(nets, root, lo, hi)
		case k < mf+mt:
			k -= mf
			lo, hi := geom.ShardRange(k, mt, len(devs))
			countTerms(counts[k*nc:(k+1)*nc], devs, lo, hi)
		default:
			k -= mf + mt
			c0, c1 := geom.ShardRange(k, mi, len(root.children))
			inc.placeCalls(c0, c1)
		}
	})
	for k := 1; k < mf; k++ {
		mergeFoots(nl.Nets, parts[(k-1)*nc:k*nc])
	}
	slab := placeTerms(nl.Nets, counts, mt, root.numTerms)
	geom.RunShards(mt, w, func(k int) {
		lo, hi := geom.ShardRange(k, mt, len(devs))
		fillTerms(slab, counts[k*nc:(k+1)*nc], devs, lo, hi)
	})
	return nl
}

// placeCalls writes the instance table's entries for the root's calls
// [c0, c1): each call's preorder block, placed after the root and the
// blocks of the calls before it (instance 0, the root itself, is written
// before the batch).
func (x *IncExtraction) placeCalls(c0, c1 int) {
	root := x.Root
	at := 1
	for si := 0; si < c0; si++ {
		at += root.children[si].Art.Instances
	}
	for si := c0; si < c1; si++ {
		at = x.place(0, &root.children[si], at)
	}
}

// place writes the instance of span sp of instance pi at index at, then
// its subtree's in preorder, and returns the index past them.
func (x *IncExtraction) place(pi int, sp *childSpan, at int) int {
	parent := &x.Instances[pi]
	x.Instances[at] = Instance{
		Art:       sp.Art,
		Parent:    pi,
		Name:      sp.sd.name,
		T:         sp.sd.t.Compose(parent.T),
		ItemStart: parent.ItemStart + sp.ItemStart,
		FootStart: parent.FootStart + sp.FootStart,
	}
	ii := at
	at++
	for si := range sp.Art.children {
		at = x.place(ii, &sp.Art.children[si], at)
	}
	return at
}

// InstPath materializes the absolute instance path of instance ii.
func (x *IncExtraction) InstPath(ii int) string {
	if ii == 0 {
		return ""
	}
	// Collect names root-ward, then join in path order.
	var names []string
	for i := ii; i > 0; i = x.Instances[i].Parent {
		names = append(names, x.Instances[i].Name)
	}
	out := names[len(names)-1]
	for k := len(names) - 2; k >= 0; k-- {
		out += "." + names[k]
	}
	return out
}

// buildRoot builds the design top's artifacts, or takes them from the
// tier. On a content change the view's previous root is retired
// immediately (its hash can never be asked for again except by an exact
// undo, which simply rebuilds, or by another view that holds it).
func (c *Cache) buildRoot(s *layout.Symbol, tc *tech.Technology) *SymbolArtifacts {
	if a := c.lookup(s.Hashes().Subtree); a != nil {
		return a
	}
	// The previous root this view built embeds nowhere in the view (see
	// tryPatchRoot): drop the view's reference to it.
	if old := c.lastRoot; old != nil && c.holds(old) {
		c.retire(old)
	}
	art := c.buildNew(s, tc)
	c.lastRoot = art
	return art
}

// build computes (or takes from the tier) artifacts for one symbol.
func (c *Cache) build(s *layout.Symbol, tc *tech.Technology) *SymbolArtifacts {
	if a := c.lookup(s.Hashes().Subtree); a != nil {
		return a
	}
	return c.buildNew(s, tc)
}

func (c *Cache) buildNew(s *layout.Symbol, tc *tech.Technology) *SymbolArtifacts {
	h := s.Hashes().Subtree
	art := &SymbolArtifacts{Hash: h, primitive: s.IsPrimitive()}
	u, pending := c.populate(art, s, tc)
	for _, pu := range pending {
		u.Union(pu[0], pu[1])
	}
	levelIllegal := c.connectSweep(art, u)
	nodeClass := c.classify(art, u)
	// Assign local classes to footprint-backed items.
	for i := range art.Items {
		if f := art.ItemFoot[i]; f >= 0 {
			art.Items[i].Net = NetID(art.ClassOf[f])
		}
	}
	// A primitive's own device recorded provisional foot indices in
	// TerminalNets; resolve them to classes.
	if art.primitive && len(art.Devices) == 1 {
		dev := &art.Devices[0]
		for ti := range dev.TerminalNets {
			dev.TerminalNets[ti].Net = NetID(art.ClassOf[int(dev.TerminalNets[ti].Net)])
		}
		art.numTerms = len(dev.TerminalNets)
	}
	// Remap embedded devices' terminal classes into this frame, every
	// device's list carved out of one slab where the starts table puts its
	// call's, on the pool like populate's copies.
	if len(art.children) > 0 {
		starts := c.starts
		art.numTerms = starts[len(art.children)].term
		slab := make([]TerminalNet, art.numTerms)
		c.runCalls(starts, func(c0, c1 int) {
			for si := c0; si < c1; si++ {
				sp := &art.children[si]
				classes := nodeClass[sp.node0:]
				tns := slab[starts[si].term:starts[si+1].term]
				for di := sp.DevStart; di < sp.DevEnd; di++ {
					child := sp.Art.Devices[di-sp.DevStart].TerminalNets
					for ti := range child {
						tns[ti] = TerminalNet{Name: child[ti].Name, Net: NetID(classes[child[ti].Net])}
					}
					art.Devices[di].TerminalNets = tns[:len(child):len(child)]
					tns = tns[len(child):]
				}
			}
		})
	}
	// Footprint pairs translate to item pairs; inherited candidates first
	// (span order), then this level's, both already canonically oriented.
	for _, p := range levelIllegal {
		art.IllegalCands = append(art.IllegalCands, [2]int{art.FootItemAt(p[0]), art.FootItemAt(p[1])})
	}
	art.Instances = 1
	for si := range art.children {
		art.Instances += art.children[si].Art.Instances
	}
	art.neighbours()
	if len(art.Devices) > 0 {
		// Apart from the memo a report keeps nothing of the artifact alive.
		art.devText = new(deviceMemo)
	}
	return c.publishArt(art)
}

// populate fills the walk-order arrays of art (items, foots, devices,
// keepouts, issues, child spans) and returns the union-find seeded with
// child partitions, plus pending unions (device-internal node fusing).
// Embedded items and footprints are not copied: spans record offsets and
// the accessors resolve entries straight out of the shared span cache.
func (c *Cache) populate(art *SymbolArtifacts, s *layout.Symbol, tc *tech.Technology) (*geom.UnionFind, [][2]int) {
	var pending [][2]int
	if s.IsPrimitive() {
		info, _ := c.Analyze(s, s.Hashes().Own, tc)
		if info == nil {
			return c.takeUF(0), nil
		}
		dev := DeviceUse{T: geom.Identity, Info: info}
		nodeToFoot := make(map[int]int)
		for _, term := range info.Terminals {
			if term.Reg.Empty() {
				continue
			}
			idx := len(art.Foots)
			art.Foots = append(art.Foots, LocalFoot{
				Layer: term.Layer, Bounds: term.Reg.Bounds(), Reg: term.Reg,
				MinWidth: tc.Layer(term.Layer).MinWidth,
			})
			art.Items = append(art.Items, ConnItem{
				Layer: term.Layer, Bounds: term.Reg.Bounds(), Reg: term.Reg,
				Dev: 0, Elem: -1,
			})
			art.ItemFoot = append(art.ItemFoot, idx)
			if prev, seen := nodeToFoot[term.Node]; seen {
				pending = append(pending, [2]int{prev, idx})
			} else {
				nodeToFoot[term.Node] = idx
			}
			if _, have := dev.TerminalNet(term.Name); !have {
				// Provisional foot index; build() remaps to classes.
				dev.TerminalNets = append(dev.TerminalNets, TerminalNet{Name: term.Name, Net: NetID(idx)})
			}
		}
		// Support geometry not covered by terminals: checkable but netless.
		// One k-way sweep per layer instead of a fold of pairwise unions.
		termRegs := make(map[tech.LayerID][]geom.Region)
		for _, term := range info.Terminals {
			termRegs[term.Layer] = append(termRegs[term.Layer], term.Reg)
		}
		termCover := make(map[tech.LayerID]geom.Region, len(termRegs))
		for layer, regs := range termRegs {
			termCover[layer] = geom.BulkUnion(regs)
		}
		for _, l := range tc.Layers() {
			reg := s.LayerRegion(l.ID)
			if reg.Empty() {
				continue
			}
			if cover, ok := termCover[l.ID]; ok {
				reg = reg.Subtract(cover)
				if reg.Empty() {
					continue
				}
			}
			art.Items = append(art.Items, ConnItem{
				Layer: l.ID, Bounds: reg.Bounds(), Reg: reg,
				Net: NoNet, Dev: 0, Elem: -1,
			})
			art.ItemFoot = append(art.ItemFoot, -1)
		}
		if !info.Gate.Empty() {
			art.Gates = append(art.Gates, Keepout{Dev: 0, Reg: info.Gate, Bounds: info.Gate.Bounds()})
		}
		if !info.BaseKeepout.Empty() {
			art.BaseKeepouts = append(art.BaseKeepouts, Keepout{
				Dev: 0, Reg: info.BaseKeepout, Bounds: info.BaseKeepout.Bounds(),
				Clearance: info.BaseClearance,
			})
		}
		sort.Slice(dev.TerminalNets, func(i, j int) bool {
			return dev.TerminalNets[i].Name < dev.TerminalNets[j].Name
		})
		art.Devices = append(art.Devices, dev)
		art.numItems, art.numFoots = len(art.Items), len(art.Foots)
		ufp := c.takeUF(len(art.Foots))
		// Defer the class remap of TerminalNets to build() via a pending
		// trick: record foot-index values now; build() remaps own devices.
		return ufp, pending
	}

	// Composite: own elements first, then each call's embedded subtree.
	// Child artifacts and spans are resolved up front so every array can
	// be sized exactly once — the root of a large chip embeds tens of
	// thousands of devices and keepouts, and incremental regrowth would
	// dominate the whole warm-recheck budget.
	childArts := make([]*SymbolArtifacts, len(s.Calls))
	spans := make([]*spanData, len(s.Calls))
	for ci, call := range s.Calls {
		childArts[ci] = c.build(call.Target, tc)
		spans[ci] = c.span(childArts[ci], call.T, call.Name, tc)
	}
	art.Items = make([]ConnItem, 0, len(s.Elements))
	art.Foots = make([]LocalFoot, 0, len(s.Elements))
	art.ItemFoot = make([]int, 0, len(s.Elements))
	art.children = make([]childSpan, 0, len(s.Calls))
	for _, e := range s.Elements {
		reg, err := e.Region()
		if err != nil {
			art.Issues = append(art.Issues, Issue{
				Rule: "NET.ELEM", Detail: err.Error(), Where: e.Bounds(),
			})
			continue
		}
		declared := ""
		if e.Net != "" {
			declared = e.Net // frame-relative; spans re-qualify on embedding
		}
		art.Foots = append(art.Foots, LocalFoot{
			Layer: e.Layer, Bounds: reg.Bounds(), Reg: reg,
			Declared: declared, Elements: 1,
			MinWidth: tc.Layer(e.Layer).MinWidth,
		})
		art.Items = append(art.Items, ConnItem{
			Layer: e.Layer, Bounds: reg.Bounds(), Reg: reg,
			Dev: -1, Elem: e.Index,
		})
		art.ItemFoot = append(art.ItemFoot, len(art.Foots)-1)
	}
	// The union-find runs over the own footprints plus one node per class
	// of each child: a child's internal partition is already decided, so
	// its footprints enter as the classes they belong to and nothing is
	// replayed per embedded footprint. The spans and the starts table are
	// prefix sums over the calls, taken in call order.
	itemCount, footCount := len(art.Items), len(art.Foots)
	nodeCount := footCount
	starts := c.takeStarts(len(s.Calls))
	at := callStart{issue: len(art.Issues)}
	for ci := range s.Calls {
		childArt, sd := childArts[ci], spans[ci]
		starts[ci] = at
		art.children = append(art.children, childSpan{
			Art: childArt, sd: sd, Bounds: sd.bounds,
			ItemStart: itemCount, ItemEnd: itemCount + childArt.NumItems(),
			FootStart: footCount, FootEnd: footCount + childArt.NumFoots(),
			DevStart: at.dev, DevEnd: at.dev + len(childArt.Devices),
			node0: nodeCount,
		})
		nodeCount += childArt.NumClasses
		itemCount += childArt.NumItems()
		footCount += childArt.NumFoots()
		at.dev += len(childArt.Devices)
		at.gate += len(childArt.Gates)
		at.keep += len(childArt.BaseKeepouts)
		at.issue += len(childArt.Issues)
		at.ill += len(childArt.IllegalCands)
		at.term += childArt.numTerms
		if sd.t != geom.Identity {
			for _, ks := range [2][]Keepout{childArt.Gates, childArt.BaseKeepouts} {
				for i := range ks {
					at.bands += ks[i].Reg.NumBands()
					at.spans += ks[i].Reg.NumRects()
				}
			}
		}
	}
	starts[len(s.Calls)] = at
	art.numItems, art.numFoots = itemCount, footCount

	// The children's devices, keepouts, issues and illegal-connection
	// candidates are copied in placed through the call transforms (device
	// TerminalNets are remapped by buildNew): each call's entries go to
	// where the starts table puts them, so the calls fill on the pool,
	// every shard its own range of calls and its own part of the keepout
	// store.
	art.Devices = make([]DeviceUse, at.dev)
	if at.gate > 0 {
		art.Gates = make([]Keepout, at.gate)
	}
	if at.keep > 0 {
		art.BaseKeepouts = make([]Keepout, at.keep)
	}
	if at.issue > len(art.Issues) {
		art.Issues = append(make([]Issue, 0, at.issue), art.Issues...)[:at.issue]
	}
	if at.ill > 0 {
		art.IllegalCands = make([][2]int, at.ill)
	}
	var keepStore geom.RegionStore
	keepStore.Reserve(at.bands, at.spans)
	c.runCalls(starts, func(c0, c1 int) {
		from, to := starts[c0], starts[c1]
		store := keepStore.Part(from.bands, to.bands, from.spans, to.spans)
		for ci := c0; ci < c1; ci++ {
			sp, st := &art.children[ci], &starts[ci]
			childArt, sd := sp.Art, sp.sd
			t := sd.t
			devs := art.Devices[st.dev:]
			for i, dv := range childArt.Devices {
				dv.Path, dv.T, dv.TerminalNets = sd.devPath(i), dv.T.Compose(t), nil
				devs[i] = dv
			}
			gates := art.Gates[st.gate:]
			for i, g := range childArt.Gates {
				g.Dev += sp.DevStart
				g.Reg, g.Bounds = store.TransformBy(g.Reg, t), t.ApplyRect(g.Bounds)
				gates[i] = g
			}
			keeps := art.BaseKeepouts[st.keep:]
			for i, k := range childArt.BaseKeepouts {
				k.Dev += sp.DevStart
				k.Reg, k.Bounds = store.TransformBy(k.Reg, t), t.ApplyRect(k.Bounds)
				keeps[i] = k
			}
			issues := art.Issues[st.issue:]
			for i, is := range childArt.Issues {
				is.Where = t.ApplyRect(is.Where)
				issues[i] = is
			}
			ill := art.IllegalCands[st.ill:]
			for i, p := range childArt.IllegalCands {
				ill[i] = [2]int{sp.ItemStart + p[0], sp.ItemStart + p[1]}
			}
		}
	})
	return c.takeUF(nodeCount), pending
}

// span returns the cached transformed embedding of childArt under (t, name).
// A miss first looks for a same-(content, orientation) representative and
// makes the embedding a view of it; only the first member of each family
// pays for the full transform build.
func (c *Cache) span(childArt *SymbolArtifacts, t geom.Transform, name string, tc *tech.Technology) *spanData {
	key := spanKey{childArt.Hash, t, name}
	ck := spanClassKey{childArt.Hash, t.Orient}
	// The embedding and its representative must reference the identical
	// artifact value: a hash seen again after eviction names a rebuilt
	// artifact whose class numbering an old embedding must not be replayed
	// against.
	tr := c.tier
	tr.mu.Lock()
	if sd := tr.spans[key]; sd != nil && sd.childArt == childArt {
		c.reach(sd)
		tr.mu.Unlock()
		return sd
	}
	base := tr.spanClass[ck]
	if base != nil && base.childArt == childArt {
		c.holdSpan(base)
	} else {
		base = nil
	}
	tr.mu.Unlock()

	var sd *spanData
	if base != nil {
		sd = deriveSpan(base, t, name)
		c.ctxHits++
	} else {
		sd = buildSpan(childArt, t, name, tc)
		c.ctxMisses++
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.builds++
	c.built.Spans++
	if won := tr.spans[key]; won != nil && won.childArt == childArt {
		c.reach(won)
		return won
	}
	tr.spans[key] = sd
	if cur := tr.spanClass[ck]; sd.rep == sd && (cur == nil || cur.childArt != childArt) {
		tr.spanClass[ck] = sd
	}
	sd.refs++
	c.spans[sd] = c.gen
	c.reach(sd.rep) // held since the first look: only stamped
	return sd
}

// buildSpan builds a family representative: the child's columns mapped
// through t, taken once per (content, orientation) family. The walk is
// sequential — the child's own entries, then each of its spans straight
// out of that span's columns, the span's offset folded into the transform
// — so no entry costs an index resolution, and none of the child's
// payload is copied. The index columns are pieces of one slab.
func buildSpan(childArt *SymbolArtifacts, t geom.Transform, name string, tc *tech.Technology) *spanData {
	nItems, nFoots, nDevs := childArt.NumItems(), childArt.NumFoots(), len(childArt.Devices)
	sd := &spanData{childArt: childArt, t: t, name: name}
	sd.rep = sd
	sd.itemBoxes = make([]geom.Rect, nItems)
	sd.itemLayers = make([]tech.LayerID, nItems)
	cols := make([]int32, 2*nItems+3*nFoots+nDevs)
	take := func(n int) []int32 {
		s := cols[:n:n]
		cols = cols[n:]
		return s
	}
	sd.itemFoot, sd.itemPathIdx = take(nItems), take(nItems)
	sd.footItem, sd.footElems, sd.footNameIdx = take(nFoots), take(nFoots), take(nFoots)
	sd.devPathIdx = take(nDevs)

	idx := make(map[string]int32, 64)
	of := func(p string) int32 {
		if i, ok := idx[p]; ok {
			return i
		}
		i := int32(len(sd.paths))
		sd.paths = append(sd.paths, p)
		idx[p] = i
		return i
	}
	// Base qualification left exactly two shapes of declared name: rails
	// verbatim, and everything else prefixed with the call name.
	nameOf := func(dcl string) int32 {
		switch {
		case dcl == "":
			return -1
		case tc.IsRail(dcl):
			for j, r := range sd.rails {
				if r == dcl {
					return int32(-2 - j)
				}
			}
			sd.rails = append(sd.rails, dcl)
			return int32(-1 - len(sd.rails))
		}
		return of(name + "." + dcl)
	}
	for i := range childArt.Foots {
		f := &childArt.Foots[i]
		sd.footElems[i], sd.footNameIdx[i] = int32(f.Elements), nameOf(f.Declared)
	}
	// Consecutive items overwhelmingly share one relative path (the
	// geometry of one embedded instance comes in one run), so a path is
	// joined and looked up once per run, not per item.
	lastRel, last := "\x00", int32(0)
	for i := range childArt.Items {
		it := &childArt.Items[i]
		sd.itemBoxes[i], sd.itemLayers[i] = t.ApplyRect(it.Bounds), it.Layer
		sd.itemFoot[i] = int32(childArt.ItemFoot[i])
		if it.Path != lastRel {
			lastRel, last = it.Path, of(prefixPath(name, it.Path))
		}
		sd.itemPathIdx[i] = last
	}
	for si := range childArt.children {
		csp := &childArt.children[si]
		src, tt := csp.sd.rep, geom.Translate(csp.sd.d).Compose(t)
		f0, i0 := csp.FootStart, csp.ItemStart
		for k := range src.footElems {
			sd.footElems[f0+k], sd.footNameIdx[f0+k] = src.footElems[k], nameOf(csp.sd.footDeclared(k))
		}
		lastIdx := int32(-1)
		for k := range src.itemBoxes {
			sd.itemBoxes[i0+k], sd.itemLayers[i0+k] = tt.ApplyRect(src.itemBoxes[k]), src.itemLayers[k]
			f := src.itemFoot[k]
			if f >= 0 {
				f += int32(f0)
			}
			sd.itemFoot[i0+k] = f
			if r := src.itemPathIdx[k]; r != lastIdx {
				lastIdx, last = r, of(prefixPath(name, csp.sd.paths[r]))
			}
			sd.itemPathIdx[i0+k] = last
		}
	}
	lastRel = "\x00"
	for i := range childArt.Devices {
		if p := childArt.Devices[i].Path; p != lastRel {
			lastRel, last = p, of(prefixPath(name, p))
		}
		sd.devPathIdx[i] = last
	}
	for i, f := range sd.itemFoot {
		if f >= 0 {
			sd.footItem[f] = int32(i)
		}
	}
	for _, b := range sd.itemBoxes {
		sd.bounds = sd.bounds.Union(b)
	}
	if t.Orient != geom.R0 {
		bands, spans := 0, 0
		walkRegs(childArt, t, func(r geom.Region, _ geom.Transform) {
			bands, spans = bands+r.NumBands(), spans+r.NumRects()
		})
		var st geom.RegionStore
		st.Reserve(bands, spans)
		sd.regs = make([]geom.Region, 0, nItems)
		walkRegs(childArt, t, func(r geom.Region, tt geom.Transform) {
			sd.regs = append(sd.regs, st.TransformBy(r, tt))
		})
	}
	return sd
}

// walkRegs visits the items of art's subtree in index order, each with
// its stored region and the transform that maps the region into the frame
// t maps art into: own items, then each span's items — from its family's
// region column when it has one, else from the child's definition.
func walkRegs(art *SymbolArtifacts, t geom.Transform, visit func(r geom.Region, t geom.Transform)) {
	for i := range art.Items {
		visit(art.Items[i].Reg, t)
	}
	for si := range art.children {
		sp := &art.children[si]
		if rep := sp.sd.rep; rep.regs != nil {
			tt := geom.Translate(sp.sd.d).Compose(t)
			for _, r := range rep.regs {
				visit(r, tt)
			}
		} else {
			walkRegs(sp.Art, sp.sd.t.Compose(t), visit)
		}
	}
}

// deriveSpan makes the embedding for (t, name) a view of the family
// representative: same child content, same orientation, so every bounds,
// region and skeleton differs from the representative's by the constant
// offset d = t.Trans - rep.t.Trans, and every path/declared name only in
// the leading call-name component. The view stores the offset and one
// re-prefixed string per distinct path; it copies no entry.
func deriveSpan(rep *spanData, t geom.Transform, name string) *spanData {
	d := t.Trans.Sub(rep.t.Trans)
	sd := &spanData{childArt: rep.childArt, t: t, name: name, bounds: rep.bounds.Translate(d), rep: rep, d: d}
	sd.paths = make([]string, len(rep.paths))
	for i, p := range rep.paths {
		sd.paths[i] = name + p[len(rep.name):]
	}
	return sd
}

func prefixPath(name, rel string) string {
	if rel == "" {
		return name
	}
	return name + "." + rel
}

// callStart is where one call's embedded entries start in its parent's
// arrays while the parent is built — devices, gates, base keepouts,
// issues, illegal-connection candidates, terminal-slab entries, and the
// keepout images' bands and spans in the parent's store — and, one past
// the last call, their totals. The table is a prefix sum over the calls:
// every call's entries have a place before any is filled, so the calls
// fill concurrently.
type callStart struct {
	dev, gate, keep, issue, ill, term int
	bands, spans                      int
}

// work is the entry count before the call: how runCalls weighs shards.
func (st *callStart) work() int { return st.dev + st.gate + st.keep + st.issue + st.ill + st.term }

// takeStarts hands out the cache's reusable starts table for n calls (n+1
// entries). A build's table is written after its children are built, so
// one table serves the recursion.
func (c *Cache) takeStarts(n int) []callStart {
	if cap(c.starts) < n+1 {
		c.starts = make([]callStart, n+1)
	}
	c.starts = c.starts[:n+1]
	return c.starts
}

// runCalls runs fill over the calls of a starts table, split on the pool
// into ranges of calls [c0, c1) of near-equal work: serially, as one
// range, below geom.Shards' fan-out size or with one worker.
func (c *Cache) runCalls(starts []callStart, fill func(c0, c1 int)) {
	n := len(starts) - 1
	total := starts[n].work()
	m := shards(total, c.workers, n)
	if m <= 1 {
		fill(0, n)
		return
	}
	geom.RunShards(m, c.workers, func(k int) {
		lo, hi := geom.ShardRange(k, m, total)
		c0 := sort.Search(n, func(ci int) bool { return starts[ci].work() >= lo })
		c1 := n
		if k < m-1 {
			c1 = sort.Search(n, func(ci int) bool { return starts[ci].work() >= hi })
		}
		fill(c0, c1)
	})
}

// fanned counts the phases that split across more than one worker. Only
// tests read it: a differential that means to compare pooled against
// serial runs asserts that the pool was used.
var fanned atomic.Int64

// shards is geom.Shards capped at most shards, counting in fanned a phase
// that splits.
func shards(n, workers, most int) int {
	m := min(geom.Shards(n, workers), most)
	if m > 1 {
		fanned.Add(1)
	}
	return m
}

// takeUF hands out the cache's reusable union-find sized for n nodes.
func (c *Cache) takeUF(n int) *geom.UnionFind {
	c.ufScratch.Reset(n)
	return &c.ufScratch
}

// footNode returns the union-find node of footprint f while the artifact
// is being built: the footprint itself when it is the symbol's own, the
// child class it belongs to when it is embedded.
func (a *SymbolArtifacts) footNode(f int) int {
	si := a.footSpan(f)
	if si < 0 {
		return f
	}
	sp := &a.children[si]
	return sp.node0 + sp.Art.ClassOf[f-sp.FootStart]
}

// classify converts the union-find over the artifact's nodes into its
// canonical partition (ClassOf, ClassFoot, NumClasses) — classes numbered
// by the index of their first footprint, which fixes the public net
// numbering ("n<k>" names) independently of union order — and returns the
// node → class table (cache-owned scratch, valid until the next build).
//
// Node order is first-footprint order: own footprints come first in both,
// spans follow in footprint order, and within a child the classes are
// themselves numbered by first footprint. So labelling the nodes in order
// labels the classes exactly as a pass over every footprint would, and the
// first node of a class holds the class's first footprint.
func (c *Cache) classify(art *SymbolArtifacts, u *geom.UnionFind) []int32 {
	nNodes, nFoots, numClasses := u.Len(), art.NumFoots(), u.Sets()
	if cap(c.classScratch) < nNodes {
		c.classScratch = make([]int32, nNodes)
		c.nodeClass = make([]int32, nNodes)
	}
	rootToClass, nodeClass := c.classScratch[:nNodes], c.nodeClass[:nNodes]
	for i := range rootToClass {
		rootToClass[i] = 0
	}
	classFoot := make([]int, 0, numClasses)
	label := func(node, firstFoot int) {
		root := u.Find(node)
		cl := rootToClass[root]
		if cl == 0 {
			classFoot = append(classFoot, firstFoot)
			cl = int32(len(classFoot))
			rootToClass[root] = cl
		}
		nodeClass[node] = cl - 1
	}
	out := make([]int, nFoots)
	ownEnd := len(art.Foots)
	for f := 0; f < ownEnd; f++ {
		label(f, f)
		out[f] = int(nodeClass[f])
	}
	for si := range art.children {
		sp := &art.children[si]
		for cc, first := range sp.Art.ClassFoot {
			label(sp.node0+cc, sp.FootStart+first)
		}
		classes := nodeClass[sp.node0:]
		dst := out[sp.FootStart:sp.FootEnd]
		for cf, cc := range sp.Art.ClassOf {
			dst[cf] = int(classes[cc])
		}
	}
	art.ClassOf, art.ClassFoot, art.NumClasses = out, classFoot, numClasses
	return nodeClass
}

// CrossItemPairs enumerates the candidate item pairs whose lowest common
// ancestor is this definition: own-item vs own-item, own-item vs embedded
// child item, and child vs child (different calls), with bounding boxes
// within gap in the L∞ sense — the same predicate as the flat interaction
// sweep — on layers interacts accepts. Pairs internal to one child are
// that child's business. Summing each definition's pairs over its
// instances reproduces the flat sweep's candidate multiset exactly (every
// chip-level pair has a unique LCA). Enumeration order is deterministic
// for identical artifacts.
func (a *SymbolArtifacts) CrossItemPairs(gap int64, interacts func(la, lb tech.LayerID) bool, emit func(i, j int)) {
	if a.NumItems() < 2 {
		return
	}
	forEachCrossPair(a, false, gap, interacts, emit)
}

// Near calls visit, in index order, with every item i of the subtree
// whose bounds touch r, and with its layer and bounds: own items first,
// then each span's. The items of the span that embeds device skipDev are
// passed over (skipDev < 0: none), so a device's keepout probe sees only
// what lies outside the subtree holding it. A span whose bounds miss r is
// passed over whole, and so is every embedded subtree within one: a probe
// visits the cells it meets, not every item of the definition.
//
// A probe that skips a span and lies within its bounds grown by the
// definition's widest keepout clearance — every keepout probe — reads
// only that span's neighbours (see nbr); any other reads every span's
// bounds.
func (a *SymbolArtifacts) Near(r geom.Rect, skipDev int, visit func(i int, l tech.LayerID, b geom.Rect)) {
	for i := range a.Items {
		if it := &a.Items[i]; r.Touches(it.Bounds) {
			visit(i, it.Layer, it.Bounds)
		}
	}
	owner := a.devSpan(skipDev)
	if owner >= 0 && a.nbrAt != nil {
		if e := a.children[owner].Bounds.Expand(a.nbrReach); e.X1 <= r.X1 && e.Y1 <= r.Y1 && r.X2 <= e.X2 && r.Y2 <= e.Y2 {
			for _, sj := range a.nbr[a.nbrAt[owner]:a.nbrAt[owner+1]] {
				if sp := &a.children[sj]; r.Touches(sp.Bounds) {
					sp.near(r, sp.ItemStart, visit)
				}
			}
			return
		}
	}
	for si := range a.children {
		if sp := &a.children[si]; si != owner && r.Touches(sp.Bounds) {
			sp.near(r, sp.ItemStart, visit)
		}
	}
}

// devSpan locates the span that embeds device dev, -1 for none.
func (a *SymbolArtifacts) devSpan(dev int) int {
	si := sort.Search(len(a.children), func(k int) bool { return a.children[k].DevEnd > dev })
	if dev < 0 || si == len(a.children) || dev < a.children[si].DevStart {
		return -1
	}
	return si
}

// neighbours builds the span neighbour table (nbr) of a definition with
// keepouts, under its widest base keepout clearance: one sweep over the
// spans' bounds.
func (a *SymbolArtifacts) neighbours() {
	if len(a.children) < 2 || len(a.Gates)+len(a.BaseKeepouts) == 0 {
		return
	}
	for i := range a.BaseKeepouts {
		a.nbrReach = max(a.nbrReach, a.BaseKeepouts[i].Clearance)
	}
	var pf geom.PairFinder
	for si := range a.children {
		pf.AddRect(si, a.children[si].Bounds, 0)
	}
	var pairs [][2]int32
	pf.Pairs(a.nbrReach, nil, func(p geom.Pair) {
		i, j := int32(p.A.ID), int32(p.B.ID)
		pairs = append(pairs, [2]int32{i, j}, [2]int32{j, i})
	})
	slices.SortFunc(pairs, func(x, y [2]int32) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	a.nbrAt, a.nbr = make([]int32, len(a.children)+1), make([]int32, len(pairs))
	for k, p := range pairs {
		a.nbrAt[p[0]+1]++
		a.nbr[k] = p[1]
	}
	for si := range a.children {
		a.nbrAt[si+1] += a.nbrAt[si]
	}
}

// near is Near within one span: it calls visit with at+k for every item k
// of the embedded subtree whose bounds touch r, in index order. The scan
// reads the family representative's columns, the probe moved into its
// frame and every hit moved back out.
func (sp *childSpan) near(r geom.Rect, at int, visit func(i int, l tech.LayerID, b geom.Rect)) {
	rep := sp.sd.rep
	s := spanScan{rep: rep, probe: r.Translate(sp.sd.d.Neg()), d: sp.sd.d, at: at, visit: visit}
	s.scan(sp.Art, rep.t, 0)
}

// spanScan is one probe of a family representative's columns: probe is in
// the representative's frame, d moves a hit into the span's, and at is
// added to every index reported.
type spanScan struct {
	rep   *spanData
	probe geom.Rect
	d     geom.Point
	at    int
	visit func(i int, l tech.LayerID, b geom.Rect)
}

// scanLeaf is the item count of a span that scan tests box by box rather
// than descend into.
const scanLeaf = 16

// scan reports every item k of a's subtree whose box rep.itemBoxes[base+k]
// — a's items as t maps them into the representative's frame — touches
// the probe. A span of a whose bounds, mapped by t, miss the probe is
// passed over whole, since its items' boxes lie within them: a wire that
// crosses a row of cells visits the cells it meets, not every item of the
// row.
func (s *spanScan) scan(a *SymbolArtifacts, t geom.Transform, base int) {
	s.run(base, base+len(a.Items))
	for si := range a.children {
		cs := &a.children[si]
		if !s.probe.Touches(t.ApplyRect(cs.Bounds)) {
			continue
		}
		lo, hi := base+cs.ItemStart, base+cs.ItemEnd
		if hi-lo > scanLeaf {
			s.scan(cs.Art, cs.sd.t.Compose(t), lo)
		} else {
			s.run(lo, hi)
		}
	}
}

// run tests the boxes [lo, hi) one by one.
func (s *spanScan) run(lo, hi int) {
	boxes := s.rep.itemBoxes
	for k := lo; k < hi; k++ {
		if b := boxes[k]; s.probe.Touches(b) {
			s.visit(s.at+k, s.rep.itemLayers[k], b.Translate(s.d))
		}
	}
}

// bipartiteThreshold bounds the brute-force cross product in span-vs-span
// refinement; beyond it a plane sweep takes over.
const bipartiteThreshold = 256

// connectSweep discovers same-layer footprint connectivity at this
// definition's level: own-vs-own, own-vs-child, and child-vs-child pairs
// (pairs internal to one child were resolved in the child's artifacts).
// Connected pairs are unioned; touching-but-unconnected pairs are returned
// as illegal-connection candidates in canonical (low foot, high foot)
// orientation.
func (c *Cache) connectSweep(art *SymbolArtifacts, u *geom.UnionFind) [][2]int {
	var illegal [][2]int
	if art.NumFoots() < 2 {
		return nil
	}
	// The sweep emits only pairs whose bounds touch. Embedded footprints
	// are tested where their owners store them, the partner shifted by the
	// difference of the two offsets.
	test := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		ra, da := art.footReg(i)
		rb, db := art.footReg(j)
		if !geom.OverlapsShifted(ra, rb, db.Sub(da)) {
			return
		}
		// geom.SkeletonsConnected, across the two frames.
		sa, oa := art.footSkel(i)
		sb, ob := art.footSkel(j)
		if geom.OverlapsShifted(sa, sb, ob.Sub(oa)) {
			u.Union(art.footNode(i), art.footNode(j))
		} else {
			illegal = append(illegal, [2]int{i, j})
		}
	}
	forEachCrossPair(art, true, 0, sameLayer, test)
	return illegal
}

// sameLayer is connectSweep's layer filter: footprints connect only on
// one layer.
func sameLayer(la, lb tech.LayerID) bool { return la == lb }

// forEachCrossPair enumerates candidate pairs at one hierarchy level of a
// — its items, or with foots set its footprints — without visiting pairs
// internal to a child: a coarse sweep over own entries and child bounding
// boxes, refined per candidate by querying only the entries near the
// partner (childSpan.near). A pair is emitted when its bounds come within
// gap and keep accepts its two layers. The enumeration is deterministic
// for identical inputs, which the engine's replayable caches rely on.
func forEachCrossPair(a *SymbolArtifacts, foots bool, gap int64, keep func(la, lb tech.LayerID) bool, emit func(i, j int)) {
	type entry struct {
		i int
		l tech.LayerID
		b geom.Rect
	}
	own := func(i int) entry {
		if foots {
			return entry{i, a.Foots[i].Layer, a.Foots[i].Bounds}
		}
		return entry{i, a.Items[i].Layer, a.Items[i].Bounds}
	}
	ownEnd, coarseBase := len(a.Items), a.NumItems()
	if foots {
		ownEnd, coarseBase = len(a.Foots), a.NumFoots()
	}
	var pf geom.PairFinder
	for i := 0; i < ownEnd; i++ {
		pf.AddRect(i, own(i).b, 0)
	}
	for si := range a.children {
		pf.AddRect(coarseBase+si, a.children[si].Bounds, 1)
	}
	if pf.Len() < 2 {
		return
	}
	within := func(a, b geom.Rect) bool { return a.Expand(gap).Touches(b) }
	// collect gathers the child's entries near the probe rect, with their
	// layers and bounds, straight from the span's columns (no per-element
	// index resolution — this scan is the hot inner loop of a root
	// re-derive); a footprint is its item's, support geometry none.
	collect := func(si int, probe geom.Rect, buf []entry) []entry {
		buf = buf[:0]
		sp := &a.children[si]
		lo, itemFoot := sp.ItemStart, []int32(nil)
		if foots {
			lo, itemFoot = sp.FootStart, sp.sd.rep.itemFoot
		}
		sp.near(probe.Expand(gap), 0, func(k int, l tech.LayerID, b geom.Rect) {
			if itemFoot != nil {
				if k = int(itemFoot[k]); k < 0 {
					return
				}
			}
			buf = append(buf, entry{lo + k, l, b})
		})
		return buf
	}
	var bufA, bufB []entry
	pf.Pairs(gap, nil, func(p geom.Pair) {
		ai, bi := p.A.ID, p.B.ID
		aChild, bChild := ai >= coarseBase, bi >= coarseBase
		switch {
		case !aChild && !bChild:
			if keep(own(ai).l, own(bi).l) {
				emit(ai, bi)
			}
		case aChild != bChild:
			o, child := ai, bi
			if aChild {
				o, child = bi, ai
			}
			// The collect probe is exactly the pairing predicate against
			// the own entry's bounds, so everything collected pairs.
			eo := own(o)
			bufA = collect(child-coarseBase, eo.b, bufA)
			for _, e := range bufA {
				if keep(eo.l, e.l) {
					emit(o, e.i)
				}
			}
		default:
			sa, sb := ai-coarseBase, bi-coarseBase
			bufA = collect(sa, a.children[sb].Bounds, bufA)
			if len(bufA) == 0 {
				return
			}
			bufB = collect(sb, a.children[sa].Bounds, bufB)
			if len(bufB) == 0 {
				return
			}
			if len(bufA)*len(bufB) <= bipartiteThreshold {
				for _, ea := range bufA {
					for _, eb := range bufB {
						if within(ea.b, eb.b) && keep(ea.l, eb.l) {
							emit(ea.i, eb.i)
						}
					}
				}
				return
			}
			// The tag carries the side in its low bit and the layer above.
			var bp geom.PairFinder
			for _, ea := range bufA {
				bp.AddRect(ea.i, ea.b, int(ea.l)<<1)
			}
			for _, eb := range bufB {
				bp.AddRect(eb.i, eb.b, int(eb.l)<<1|1)
			}
			bp.Pairs(gap, func(x, y geom.Item) bool {
				return (x.Tag^y.Tag)&1 != 0 && keep(tech.LayerID(x.Tag>>1), tech.LayerID(y.Tag>>1))
			}, func(q geom.Pair) {
				emit(q.A.ID, q.B.ID)
			})
		}
	})
}
