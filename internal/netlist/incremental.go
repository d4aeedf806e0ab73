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
//     (layout.ContentHashes). No artifact copies its children's items: an
//     embedded item resolves through the span that holds it.
//   - Connectivity between two footprints is discovered exactly once, at
//     the definition of their lowest common ancestor: each definition runs
//     a cross-owner sweep over its own footprints and its children's
//     bounding boxes; pairs internal to one child were already resolved in
//     the child's artifacts and are inherited by index translation.
//   - A span cache keys the transformed embedding of a child subtree by
//     (child hash, call transform, call name), so re-deriving a parent
//     does not re-transform unchanged child geometry. Embeddings that
//     differ only by translation form a family: one representative holds
//     the geometry, and every other member is a view of it — an offset and
//     a call name, shifted on read.
//
// The root symbol's artifacts are, by construction, the chip's extraction:
// local coordinates are chip coordinates, relative paths are instance
// paths, and local class ids are the final net ids (connected components
// numbered by first-footprint order). A warm ExtractIncremental therefore
// equals a cold one, cheaper by every subtree whose content hash is
// unchanged.

import (
	"sort"

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

// ChildSpan locates one call's embedded subtree within the parent's
// flattened arrays.
type ChildSpan struct {
	Call *layout.Call
	Art  *SymbolArtifacts // the callee's definition-level artifacts

	Bounds             geom.Rect // bounds of the embedded subtree (parent frame)
	ItemStart, ItemEnd int
	FootStart, FootEnd int
	DevStart, DevEnd   int

	sd *spanData // shared transformed embedding (skeleton cache lives here)

	// node0 is the union-find node of the child's class 0 while the parent
	// is being built: the child's partition enters the parent's as one
	// node per child class, not one per footprint (see populate).
	node0 int
}

// SymbolArtifacts is the complete extraction of one symbol's subtree in
// symbol-local coordinates, content-addressed by the subtree hash.
// Everything in it is instance-independent; instance-dependent facts
// (global net identity, absolute paths, chip coordinates) are re-derived
// by embedding these arrays translated and index-shifted.
type SymbolArtifacts struct {
	Sym  *layout.Symbol
	Hash layout.Hash

	gen int // the Cache generation that last reached this artifact (see Cache.touch)

	// The symbol's own entries: its elements (or device terminals and
	// support geometry for a primitive). The flattened subtree indexes own
	// entries first, then each call's subtree in call order; embedded
	// entries live in the child spans and resolve through the accessors
	// below (NumItems, ItemLayer, ItemBounds, ResolveItem, ItemFootAt,
	// FootItemAt). Counts and index offsets (Children spans, ClassOf,
	// ClassFoot) are for the full flattened subtree.
	Items    []ConnItem  // Net holds the LOCAL class id (or NoNet)
	Foots    []LocalFoot // connectable subset, parallel order
	ItemFoot []int       // own item index -> foot index, -1 for support geometry

	// Local net partition over Foots, labeled in first-footprint order.
	ClassOf    []int
	ClassFoot  []int // class -> first (representative) foot index
	NumClasses int

	Devices      []DeviceUse // Path and T relative; TerminalNets hold local class ids
	devText      *deviceMemo // Devices' DeviceText memo, made when a netlist is first assembled over them
	Gates        []Keepout   // local coordinates; Dev is the local device index
	BaseKeepouts []Keepout
	Issues       []Issue  // NET.ELEM findings, local coordinates
	IllegalCands [][2]int // item-index pairs (a < b), candidates for CONN.ILLEGAL

	Children []ChildSpan

	// Inter is a slot for the one consumer that keeps per-definition state
	// derived from this exact artifact value — the check engine hangs its
	// interaction cache here, so it is reached without a lookup and is
	// dropped with the artifact. The extractor neither reads nor writes it;
	// the engine that owns the Cache is its only writer (see Cache).
	Inter any

	// Instances counts the placements in this subtree including itself
	// (primitive and composite definitions alike), sized once at build so
	// per-run instance enumeration can preallocate.
	Instances int

	// LayerMask has bit l set when some item in the subtree sits on layer
	// l (layers ≥ 63 set the overflow bit 63, making the mask
	// conservative: a set bit means "maybe present").
	LayerMask uint64

	numItems int
	numFoots int
	numTerms int // terminal→net assignments over Devices (sizes the parent's slab)

	footItem []int // lazy inverse of ItemFoot over the own footprints

	skels map[int]geom.Region // lazy skeletons of own footprints (see footSkel)
}

// NumItems returns the flattened subtree item count.
func (a *SymbolArtifacts) NumItems() int { return a.numItems }

// NumFoots returns the flattened subtree footprint count.
func (a *SymbolArtifacts) NumFoots() int { return a.numFoots }

// itemSpan locates the child span containing item index i (-1 for own).
func (a *SymbolArtifacts) itemSpan(i int) int {
	if i < len(a.Items) {
		return -1
	}
	lo, hi := 0, len(a.Children)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.Children[mid].ItemStart <= i {
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
	lo, hi := 0, len(a.Children)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.Children[mid].FootStart <= i {
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
	sp := &a.Children[a.itemSpan(i)]
	return sp.sd.rep.itemLayers[i-sp.ItemStart]
}

// ItemBounds returns the bounds of item i in this frame.
func (a *SymbolArtifacts) ItemBounds(i int) geom.Rect {
	if i < len(a.Items) {
		return a.Items[i].Bounds
	}
	sp := &a.Children[a.itemSpan(i)]
	return sp.SpanItemBounds(i - sp.ItemStart)
}

// ResolveItem returns item i and the offset that moves its region into
// this frame. Everything else is already in this frame: bounds and path
// (span construction prefixed the call name; a derived span shifts its
// representative's entry and swaps the name), Dev offset into this frame,
// Net set to this frame's local class (NoNet for support geometry). The
// region is as stored — for an item of a derived span, its family
// representative's, so resolving copies no geometry — and off is zero for
// every other item.
func (a *SymbolArtifacts) ResolveItem(i int) (it ConnItem, off geom.Point) {
	if i < len(a.Items) {
		return a.Items[i], geom.Point{}
	}
	sp := &a.Children[a.itemSpan(i)]
	local := i - sp.ItemStart
	it = sp.sd.item(local)
	if it.Dev >= 0 {
		it.Dev += sp.DevStart
	}
	if f := sp.sd.rep.itemFoot[local]; f >= 0 {
		it.Net = NetID(a.ClassOf[sp.FootStart+int(f)])
	} else {
		it.Net = NoNet
	}
	return it, sp.sd.d
}

// footAt returns footprint f as stored and the offset that moves its
// geometry into this frame: own footprints and representatives' entries
// are stored in place (zero offset), a derived span's are its
// representative's. The stored Declared name is the representative's;
// footDeclared has the member's.
func (a *SymbolArtifacts) footAt(f int) (*LocalFoot, geom.Point) {
	if f < len(a.Foots) {
		return &a.Foots[f], geom.Point{}
	}
	sp := &a.Children[a.footSpan(f)]
	return &sp.sd.rep.foots[f-sp.FootStart], sp.sd.d
}

// ItemFootAt returns the footprint index of item i, -1 for support
// geometry: a direct index for own items, a span search and the span's
// item→foot column for embedded ones.
func (a *SymbolArtifacts) ItemFootAt(i int) int {
	if i < len(a.ItemFoot) {
		return a.ItemFoot[i]
	}
	sp := &a.Children[a.itemSpan(i)]
	if f := sp.sd.rep.itemFoot[i-sp.ItemStart]; f >= 0 {
		return sp.FootStart + int(f)
	}
	return -1
}

// FootItemAt returns the item index of footprint f: a direct index for
// own footprints, the child definition's answer for embedded ones.
func (a *SymbolArtifacts) FootItemAt(f int) int {
	if f >= len(a.Foots) {
		sp := &a.Children[a.footSpan(f)]
		return sp.ItemStart + sp.Art.FootItemAt(f-sp.FootStart)
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

// MayHaveLayer reports whether the subtree may contain items on layer l
// (conservative: true can be a false positive for layers ≥ 63).
func (a *SymbolArtifacts) MayHaveLayer(l tech.LayerID) bool {
	return a.LayerMask&layerBit(l) != 0
}

// SpanItemBounds returns the bounds of the embedded child's item k
// (span-local index) in the parent frame.
func (sp *ChildSpan) SpanItemBounds(k int) geom.Rect {
	return sp.sd.rep.itemBoxes[k].Translate(sp.sd.d)
}

// SpanItemLayers is the dense layer column of the embedded child's items.
func (sp *ChildSpan) SpanItemLayers() []tech.LayerID { return sp.sd.rep.itemLayers }

// ItemsOnLayer lists the span-local indices of the embedded items on layer
// l, ascending. The lists are cached with the embedding's family: asking
// costs nothing per item of the span.
func (sp *ChildSpan) ItemsOnLayer(l tech.LayerID) []int32 {
	onLayer := sp.sd.rep.onLayer
	if int(l) >= len(onLayer) {
		return nil
	}
	return onLayer[l]
}

// footSkel returns the skeleton of footprint i, in the 4× coordinates of
// geom.Skeleton, as a region and the offset that moves it into this frame.
// Own footprints erode their region (lazily, once); embedded footprints
// take their span's, which transforms the child definition's skeleton —
// erosion commutes with Manhattan rigid transforms, so the result is the
// region the flat extractor would have eroded, at transform cost instead
// of erosion cost, shared across every instance of the child and, through
// the offset, across every member of the span's family.
func (a *SymbolArtifacts) footSkel(i int) (geom.Region, geom.Point) {
	if si := a.footSpan(i); si >= 0 {
		sp := &a.Children[si]
		return sp.sd.footSkel(i - sp.FootStart)
	}
	if a.skels == nil {
		a.skels = make(map[int]geom.Region)
	}
	s, ok := a.skels[i]
	if !ok {
		f := &a.Foots[i]
		s = geom.Skeleton(f.Reg, f.MinWidth)
		a.skels[i] = s
	}
	return s, geom.Point{}
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

// spanData is the cached transformed embedding of a child subtree:
// the child's artifacts mapped through one call transform with paths
// prefixed by the call name. Shared by every parent that places the same
// content under the same transform and name, and across runs.
//
// Only a family representative (rep == itself) stores entries. A derived
// member is a view: its entries are the representative's moved by d, with
// the representative's call name swapped for its own, and every reader
// shifts on read (item, itemPath, footDeclared, footSkel, footAt,
// SpanItemBounds, the sweeps, and the copies populate makes). A member's
// values are immutable once derived.
type spanData struct {
	childArt *SymbolArtifacts
	t        geom.Transform
	name     string    // call name the paths/declared names are prefixed with
	bounds   geom.Rect // parent frame
	rep      *spanData // the family representative (itself when it is one)
	d        geom.Point

	// The representative's entries (nil on a derived member).
	items  []ConnItem  // parent-frame coordinates, relative paths prefixed
	foots  []LocalFoot // span index left unset; parent assigns
	devs   []DeviceUse // TerminalNets nil; parent remaps classes
	gates  []Keepout
	keeps  []Keepout
	issues []Issue

	skels map[int]geom.Region // lazily transformed child skeletons

	// Dense bounds tables for the cross-pair refinement scans: reading a
	// 32-byte rect stream instead of striding the full 100+-byte struct
	// array keeps the hot collect() loops in cache. Built eagerly with the
	// representative (they are also read concurrently by the engine's
	// parallel definition builds, so they must never be materialized
	// lazily); members read them shifted.
	itemBoxes []geom.Rect
	footBoxes []geom.Rect

	// itemLayers[i] is items[i].Layer, onLayer[l] lists the items on layer
	// l in index order, and itemFoot[i] is the span-local footprint of item
	// i (-1 for support geometry). None depends on the call transform, so a
	// family builds them once (buildSpan) and its members read the
	// representative's; eager for the same reason as the bounds tables.
	itemLayers []tech.LayerID
	onLayer    [][]int32
	itemFoot   []int32

	// paths holds the family's distinct relative paths and non-rail
	// declared names, under this span's call name. The representative's
	// table and its index columns (item, device and footprint → entry, -1
	// for a footprint whose declared name is kept verbatim) are built when
	// the first member derives; a member swaps its name into the table as
	// it derives, once per distinct path, so reading a member's path is an
	// index. Both happen during extraction, which is single-goroutine; the
	// engine's parallel definition builds only read them.
	paths                                []string
	itemPathIdx, devPathIdx, footNameIdx []int32

	// Cache ageing (see Cache.touch): gen is the generation that last
	// reached this embedding, and the representative's classGen is the
	// generation that last reached any member of the family.
	gen, classGen int
}

// pathIndex builds the representative's distinct-path table.
func (sd *spanData) pathIndex(tc *tech.Technology) {
	if sd.itemPathIdx != nil {
		return
	}
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
	sd.itemPathIdx = make([]int32, len(sd.items))
	for i := range sd.items {
		sd.itemPathIdx[i] = of(sd.items[i].Path)
	}
	sd.devPathIdx = make([]int32, len(sd.devs))
	for i := range sd.devs {
		sd.devPathIdx[i] = of(sd.devs[i].Path)
	}
	// Base qualification left exactly two shapes of declared name: rails
	// verbatim, and everything else prefixed with the call name.
	sd.footNameIdx = make([]int32, len(sd.foots))
	for i := range sd.foots {
		sd.footNameIdx[i] = -1
		if dcl := sd.foots[i].Declared; dcl != "" && !tc.IsRail(dcl) {
			sd.footNameIdx[i] = of(dcl)
		}
	}
}

// item returns span-local item k with its bounds in the parent frame and
// its path re-prefixed; the region stays as the representative stores it
// (moved by d, it is the member's), and Dev and Net stay in the child's
// frame.
func (sd *spanData) item(k int) ConnItem {
	rep := sd.rep
	it := rep.items[k]
	if rep != sd {
		it.Bounds = it.Bounds.Translate(sd.d)
		it.Path = sd.itemPath(k)
	}
	return it
}

// itemPath returns the relative path of span-local item k.
func (sd *spanData) itemPath(k int) string {
	if sd.rep == sd {
		return sd.items[k].Path
	}
	return sd.paths[sd.rep.itemPathIdx[k]]
}

// footDeclared returns the declared name of span-local footprint k.
func (sd *spanData) footDeclared(k int) string {
	if sd.rep != sd {
		if j := sd.rep.footNameIdx[k]; j >= 0 {
			return sd.paths[j]
		}
	}
	return sd.rep.foots[k].Declared
}

// footSkel returns the skeleton of span-local footprint k: the
// representative's, cached on it, and the offset (4d) that moves it onto
// this member.
func (sd *spanData) footSkel(k int) (geom.Region, geom.Point) {
	rep := sd.rep
	if rep.skels == nil {
		rep.skels = make(map[int]geom.Region)
	}
	s, ok := rep.skels[k]
	if !ok {
		cs, off := rep.childArt.footSkel(k)
		s = cs.TransformBy(geom.Translate(off).Compose(scale4(rep.t)))
		rep.skels[k] = s
	}
	return s, geom.Point{X: 4 * sd.d.X, Y: 4 * sd.d.Y}
}

// scale4 lifts a Manhattan transform into the 4× coordinate space of
// geom.Skeleton.
func scale4(t geom.Transform) geom.Transform {
	return geom.Transform{Orient: t.Orient, Trans: geom.Point{X: t.Trans.X * 4, Y: t.Trans.Y * 4}}
}

// Cache is the content-addressed artifact store backing incremental
// extraction. It is not safe for concurrent use, and it recycles working
// arrays across runs: only the MOST RECENT IncExtraction produced through
// a Cache is valid — a new extraction overwrites the previous result's
// Instances and (when the root changed) its root classification in place.
// The public Netlist (nets, devices) is never recycled or rewritten and
// stays valid indefinitely: a root patch that moves a net's bounds does so
// on a fresh Netlist with its own copy of the Nets slice, sharing with its
// predecessor only what no patch touches — the per-net Declared/Terminals
// slices, the Devices slice with its DeviceText memo, and the name index.
// This is the engine's contract: one live run per session. One engine owns
// a Cache: each artifact carries a single consumer slot
// (SymbolArtifacts.Inter), so two engines sharing a Cache would overwrite
// each other's entries.
//
// What a full re-derive of the root costs follows from what is kept here.
// Per definition (SymbolArtifacts): its own entries, the spans of its
// calls, the subtree's net partition, and its devices and keepouts. Per
// translation family of embeddings (spanData representatives): the
// transformed items, footprints, devices and keepouts, dense bounds, layer
// and item→footprint columns, the items of each layer, and the regions in
// RegionStore slabs. Per further member of a family: an offset and its
// re-prefixed distinct paths, nothing per entry. Per session: the interned
// anonymous net names. What a run does per device or per net — the
// devices' terminal lists, the nets' terminal lists — is carved from one
// slab each and filled at copy speed.
type Cache struct {
	arts  map[layout.Hash]*SymbolArtifacts
	spans map[spanKey]*spanData
	infos map[layout.Hash]*analysisEntry

	// gen counts the runs that built a root. Every entry carries the
	// generation that last reached it; evict retires the ones no root has
	// reached for evictAge generations.
	gen int

	// spanClass indexes one representative embedding per (content,
	// orientation) family; span misses whose family has a representative
	// become views of it instead of re-transforming the child.
	spanClass map[spanClassKey]*spanData

	// Context-dedup effectiveness counters (cumulative for the session):
	// a hit is an embedding made a view of its family representative, a
	// miss is a full transform build.
	ctxHits, ctxMisses int

	// Reusable per-build scratch: the union-find and classification
	// working arrays are dead the moment a build returns, so one buffer
	// serves every build (the Cache is single-threaded by contract).
	ufScratch    uf
	classScratch []int32 // union-find root -> class+1
	nodeClass    []int32 // union-find node -> class
	instScratch  []Instance
	spareClassOf []int

	anon anonNames // the session's interned anonymous net names

	// lastRoot is the most recent changed top-level artifact. A root's
	// subtree hash changes on every edit, so its (large, flat-sized)
	// arrays are dead weight the moment the next edit lands; buildRoot
	// recycles them instead of re-allocating ~megabytes per recheck.
	// Devices and their TerminalNets maps escape into the public Netlist
	// and are never recycled.
	lastRoot *SymbolArtifacts

	// regStore slab-allocates the storage of every transformed region the
	// family representatives hold: two allocations per slab instead of two
	// per item region. Derived members hold no regions.
	regStore geom.RegionStore

	// lastInc/lastIssues retain the most recent extraction so a
	// window-scoped root edit can patch it in place (tryPatchRoot) instead
	// of re-deriving the root. They obey the same contract as instScratch:
	// only the most recent IncExtraction is valid.
	lastInc    *IncExtraction
	lastIssues []Issue
}

type analysisEntry struct {
	info  *device.Info
	probs []device.Problem
	gen   int // the Cache generation that last read this analysis
}

// NewCache creates an empty artifact cache.
func NewCache() *Cache {
	return &Cache{
		arts:      make(map[layout.Hash]*SymbolArtifacts),
		spans:     make(map[spanKey]*spanData),
		infos:     make(map[layout.Hash]*analysisEntry),
		spanClass: make(map[spanClassKey]*spanData),
	}
}

// Len reports how many definition artifacts are cached.
func (c *Cache) Len() int { return len(c.arts) }

// ContextStats reports the cumulative span context-dedup counters: hits
// are embeddings made views of a same-(content, orientation)
// representative, misses are full transform builds.
func (c *Cache) ContextStats() (hits, misses int) { return c.ctxHits, c.ctxMisses }

// Analyze memoizes device.Analyze by the symbol's own content hash.
func (c *Cache) Analyze(s *layout.Symbol, ownHash layout.Hash, tc *tech.Technology) (*device.Info, []device.Problem) {
	if e, ok := c.infos[ownHash]; ok {
		e.gen = c.gen
		return e.info, e.probs
	}
	info, probs := device.Analyze(s, tc)
	c.infos[ownHash] = &analysisEntry{info: info, probs: probs, gen: c.gen}
	return info, probs
}

// evictAge is how many root builds an entry survives unreached before
// eviction; a run the root patch answers builds nothing and is not counted
// (see extractIncremental). The root's artifacts turn over on every edit
// that rebuilds it (its subtree hash always changes), so a short horizon
// keeps a busy session's memory flat while still riding out short A/B edit
// oscillations.
const evictAge = 3

func (c *Cache) evict() {
	for h, a := range c.arts {
		if c.gen-a.gen >= evictAge {
			delete(c.arts, h)
		}
	}
	for k, sd := range c.spans {
		if c.gen-sd.gen >= evictAge {
			delete(c.spans, k)
		}
	}
	for k, sd := range c.spanClass {
		if c.gen-sd.classGen >= evictAge {
			delete(c.spanClass, k)
		}
	}
	for h, e := range c.infos {
		if c.gen-e.gen >= evictAge {
			delete(c.infos, h)
		}
	}
}

// touch marks a cached artifact, and everything it embeds, as reached in
// this generation: what a live root reaches must not age, or the next edit
// of one of its callers would rebuild definitions nobody changed. The
// stamps are fields, and an artifact already stamped this generation is
// not descended again, so a root build pays one pass over the call sites
// below the definitions it reused.
func (c *Cache) touch(a *SymbolArtifacts) {
	if a.gen == c.gen {
		return
	}
	a.gen = c.gen
	for si := range a.Children {
		c.reach(a.Children[si].sd)
		c.touch(a.Children[si].Art)
	}
}

// reach is touch for one embedding: it and its family were reached in this
// generation.
func (c *Cache) reach(sd *spanData) { sd.gen, sd.rep.classGen = c.gen, c.gen }

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

// EditWindow scopes one run's dirtiness to in-place geometry edits of the
// top symbol's own elements (layout.DirtyInfo, converted by the engine).
// The extractor may use it to patch the previous extraction instead of
// re-deriving the root; it is free to ignore it and rebuild.
type EditWindow struct {
	Elems  []int     // edited element indices
	Window geom.Rect // union of old and new bounds of the edits
}

// RootPatch reports that extraction reused the previous run's root
// artifacts, updating the changed items in place. Items lists the root
// item indices whose geometry moved (possibly none: an unchanged design
// replays verbatim, netlist included). Consumers holding per-item caches
// keyed by PrevHash can migrate them to the new root hash and patch the
// listed items instead of rebuilding. PrevNetlist is the netlist the
// patch started from — the previous run's, which stays as it was; state a
// consumer recorded against it carries over to the extraction's Netlist,
// which differs from it only in the listed items' net bounds.
type RootPatch struct {
	PrevHash    layout.Hash
	PrevNetlist *Netlist
	Items       []int
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
	Hashes    map[*layout.Symbol]layout.SymbolHashes
	Instances []Instance // depth-first preorder; [0] is the root
	// Patch is non-nil when this extraction was produced by patching the
	// previous one in place rather than re-deriving the root.
	Patch *RootPatch
	// Refused names why the root patch did not answer this extraction (one
	// of the Refuse* values); empty when Patch is set.
	Refused string
}

// Why tryPatchRoot re-derived the root instead of patching it: one value
// per refusal branch.
const (
	RefuseNoWindow           = "no-window"           // the caller offered no edit window (it knows why)
	RefuseNoBaseline         = "no-baseline"         // no previous extraction of this top to patch
	RefusePrimitiveTop       = "primitive-top"       // the top symbol is a device
	RefuseStaleBaseline      = "stale-baseline"      // the previous extraction embeds a child the design no longer has
	RefuseElementGone        = "element-gone"        // the window names an element index past the end
	RefuseElementUnextracted = "element-unextracted" // the edited element had no footprint (it failed to materialize)
	RefuseElementDeclared    = "element-declared"    // the edited element carries a declared net name
	RefuseLayerChanged       = "layer-changed"       // the edit moved the element to another layer
	RefuseElementNotInert    = "element-not-inert"   // its net has other members, device terminals or names
	RefuseIllegalContact     = "illegal-contact"     // it sits in an illegal-connection candidate pair
	RefuseBadGeometry        = "bad-geometry"        // its new geometry does not materialize
	RefuseContactAfterMove   = "contact-after-move"  // its new position touches another footprint of its layer
	RefuseContactAmongMoved  = "contact-among-moved" // two moved elements touch at their new positions
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
// the flattened chip size. hashes may be nil, in which case content hashes
// are computed here. win is an optional edit window: when the caller can
// prove the only change since the previous extraction is the in-place
// geometry edits it describes (top symbol only), the extractor may patch
// the previous result instead of re-deriving the root. The result is
// identical either way (Patch reports which path was taken); win == nil
// re-derives unless nothing changed.
func ExtractIncremental(d *layout.Design, tc *tech.Technology, c *Cache, hashes map[*layout.Symbol]layout.SymbolHashes, win *EditWindow) (*IncExtraction, []Issue, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if hashes == nil {
		hashes = d.ContentHashes()
	}
	// A patched run builds nothing and retires nothing: everything the
	// previous root reaches is exactly as live as it was, so the cache does
	// not age.
	inc, issues, refused := c.tryPatchRoot(d.Top, tc, hashes, win)
	if refused == "" {
		return inc, issues, nil
	}
	c.gen++
	root := c.buildRoot(d.Top, hashes, tc)
	c.evict()

	issues = make([]Issue, 0, len(root.Issues))
	issues = append(issues, root.Issues...)
	// Sequential footprint resolution with a span cursor (the assembly
	// visits foots strictly in index order).
	cursor := 0
	foot := func(i int) (geom.Rect, string, int) {
		if i < len(root.Foots) {
			f := &root.Foots[i]
			return f.Bounds, f.Declared, f.Elements
		}
		for cursor < len(root.Children) && i >= root.Children[cursor].FootEnd {
			cursor++
		}
		sp := &root.Children[cursor]
		sd, k := sp.sd, i-sp.FootStart
		f := &sd.rep.foots[k]
		return f.Bounds.Translate(sd.d), sd.footDeclared(k), f.Elements
	}
	if root.devText == nil {
		root.devText = new(deviceMemo)
	}
	nl := assembleNets(root.NumClasses, root.ClassOf, foot, root.NumFoots(), root.Devices, root.devText)
	issues = nameNets(nl, &issues, &c.anon)

	inc = &IncExtraction{
		Netlist:      nl,
		Gates:        root.Gates,
		BaseKeepouts: root.BaseKeepouts,
		Root:         root,
		Hashes:       hashes,
		Refused:      refused,
	}
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
	if cap(c.instScratch) >= root.Instances {
		inc.Instances = c.instScratch[:0]
	}
	inc.buildInstances()
	c.instScratch = inc.Instances
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
func (c *Cache) tryPatchRoot(top *layout.Symbol, tc *tech.Technology, hashes map[*layout.Symbol]layout.SymbolHashes, win *EditWindow) (*IncExtraction, []Issue, string) {
	art := c.lastRoot
	inc := c.lastInc
	if art == nil || inc == nil || art.Sym != top || inc.Root != art || c.arts[art.Hash] != art {
		return nil, nil, RefuseNoBaseline
	}
	newHash := hashes[top].Subtree
	if newHash == art.Hash {
		// Nothing changed: the previous extraction is the answer.
		inc.Hashes = hashes
		inc.Patch, inc.Refused = &RootPatch{PrevHash: art.Hash, PrevNetlist: inc.Netlist}, ""
		return inc, c.lastIssues, ""
	}
	if win == nil || len(win.Elems) == 0 {
		return nil, nil, RefuseNoWindow
	}
	if top.IsPrimitive() {
		return nil, nil, RefusePrimitiveTop
	}
	// The window speaks for the root's own elements only. The caller's
	// baseline (its last completed run) and this cache's (its last
	// extraction) part ways when a run is abandoned after extracting, so a
	// child edited for that run and since restored looks clean to the caller
	// while art still embeds the edited child: verify the embedded subtrees
	// against the hashes in hand rather than trusting the caller for them.
	for si := range art.Children {
		sp := &art.Children[si]
		if sp.Art.Hash != hashes[sp.Call.Target].Subtree {
			return nil, nil, RefuseStaleBaseline
		}
	}

	// Own items of the root in element order (skipping elements that
	// failed to materialize — those cannot be patched).
	itemOfElem := make(map[int]int, len(art.Items))
	for i := range art.Items {
		if e := art.Items[i].Elem; e >= 0 {
			itemOfElem[e] = i
		}
	}
	type patchItem struct {
		item, foot, class int
		newBounds         geom.Rect
		newReg            geom.Region
	}
	nl := inc.Netlist
	patches := make([]patchItem, 0, len(win.Elems))
	seen := make(map[int]bool, len(win.Elems))
	for _, ei := range win.Elems {
		if seen[ei] {
			continue
		}
		seen[ei] = true
		if ei < 0 || ei >= len(top.Elements) {
			return nil, nil, RefuseElementGone
		}
		el := top.Elements[ei]
		it, ok := itemOfElem[ei]
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
		nb := pi.newBounds
		layer := art.Foots[pi.foot].Layer
		for f := range art.Foots {
			if f != pi.foot && art.Foots[f].Layer == layer && art.Foots[f].Bounds.Touches(nb) {
				return nil, nil, RefuseContactAfterMove
			}
		}
		for si := range art.Children {
			sp := &art.Children[si]
			if !sp.Bounds.Touches(nb) {
				continue
			}
			rep, probe := sp.sd.rep, nb.Translate(sp.sd.d.Neg())
			for local, b := range rep.footBoxes {
				if b.Touches(probe) && rep.foots[local].Layer == layer {
					return nil, nil, RefuseContactAfterMove
				}
			}
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

	// Commit: re-key the root under its new hash and patch the moved
	// geometry in place. Class structure, names, issues, devices, and
	// instances are all untouched by construction. The net bounds move on
	// a copy: the previous run's report still points at nl.
	prevHash := art.Hash
	delete(c.arts, prevHash)
	prevNL := nl
	nl = &Netlist{Nets: append([]Net(nil), prevNL.Nets...), Devices: prevNL.Devices, byName: prevNL.byName, devText: prevNL.devText}
	inc.Netlist = nl
	patched := make([]int, len(patches))
	for i, pi := range patches {
		art.Foots[pi.foot].Bounds = pi.newBounds
		art.Foots[pi.foot].Reg = pi.newReg
		art.Items[pi.item].Bounds = pi.newBounds
		art.Items[pi.item].Reg = pi.newReg
		delete(art.skels, pi.foot)
		// assembleNets unions the sole footprint's bounds into the zero
		// rect, which is the identity: the net bounds ARE the footprint's.
		nl.Nets[pi.class].Bounds = pi.newBounds
		patched[i] = pi.item
	}
	art.Hash = newHash
	c.arts[newHash] = art
	inc.Hashes = hashes
	inc.Patch, inc.Refused = &RootPatch{PrevHash: prevHash, PrevNetlist: prevNL, Items: patched}, ""
	return inc, c.lastIssues, ""
}

func (x *IncExtraction) buildInstances() {
	if x.Instances == nil {
		x.Instances = make([]Instance, 0, x.Root.Instances)
	}
	x.Instances = append(x.Instances, Instance{Art: x.Root, Parent: -1, T: geom.Identity})
	var rec func(pi int)
	rec = func(pi int) {
		inst := x.Instances[pi] // copy: the slice reallocates while growing
		for si := range inst.Art.Children {
			sp := &inst.Art.Children[si]
			ci := len(x.Instances)
			x.Instances = append(x.Instances, Instance{
				Art:       sp.Art,
				Parent:    pi,
				Name:      sp.Call.Name,
				T:         sp.Call.T.Compose(inst.T),
				ItemStart: inst.ItemStart + sp.ItemStart,
				FootStart: inst.FootStart + sp.FootStart,
			})
			rec(ci)
		}
	}
	rec(0)
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

// buildRoot builds the design top's artifacts. On a content change the
// previous root entry is retired immediately (its hash can never be asked
// for again except by an exact undo, which simply rebuilds).
func (c *Cache) buildRoot(s *layout.Symbol, hs map[*layout.Symbol]layout.SymbolHashes, tc *tech.Technology) *SymbolArtifacts {
	if a, ok := c.arts[hs[s].Subtree]; ok {
		c.touch(a)
		return a
	}
	if old := c.lastRoot; old != nil && c.arts[old.Hash] == old {
		delete(c.arts, old.Hash)
		// The retired root's classification arrays are unreachable from
		// any report (only the run-local extraction read them); recycle.
		c.spareClassOf = old.ClassOf
	}
	art := c.buildNew(s, hs, tc)
	c.lastRoot = art
	return art
}

// build computes (or returns cached) artifacts for one symbol.
func (c *Cache) build(s *layout.Symbol, hs map[*layout.Symbol]layout.SymbolHashes, tc *tech.Technology) *SymbolArtifacts {
	if a, ok := c.arts[hs[s].Subtree]; ok {
		c.touch(a)
		return a
	}
	return c.buildNew(s, hs, tc)
}

func (c *Cache) buildNew(s *layout.Symbol, hs map[*layout.Symbol]layout.SymbolHashes, tc *tech.Technology) *SymbolArtifacts {
	h := hs[s].Subtree
	art := &SymbolArtifacts{Sym: s, Hash: h}
	u, pending := c.populate(art, s, hs, tc)
	for _, pu := range pending {
		u.union(pu[0], pu[1])
	}
	levelIllegal := c.connectSweep(art, u)
	nodeClass := c.classify(art, u, c.spareClassOf)
	c.spareClassOf = nil
	// Assign local classes to footprint-backed items.
	for i := range art.Items {
		if f := art.ItemFoot[i]; f >= 0 {
			art.Items[i].Net = NetID(art.ClassOf[f])
		}
	}
	// A primitive's own device recorded provisional foot indices in
	// TerminalNets; resolve them to classes.
	if s.IsPrimitive() && len(art.Devices) == 1 {
		dev := &art.Devices[0]
		for ti := range dev.TerminalNets {
			dev.TerminalNets[ti].Net = NetID(art.ClassOf[int(dev.TerminalNets[ti].Net)])
		}
		art.numTerms = len(dev.TerminalNets)
	}
	// Remap embedded devices' terminal classes into this frame, every
	// device's list carved out of one slab.
	for si := range art.Children {
		art.numTerms += art.Children[si].Art.numTerms
	}
	slab := make([]TerminalNet, art.numTerms)
	for si := range art.Children {
		sp := &art.Children[si]
		classes := nodeClass[sp.node0:]
		for di := sp.DevStart; di < sp.DevEnd; di++ {
			child := sp.Art.Devices[di-sp.DevStart].TerminalNets
			tns := slab[:len(child):len(child)]
			slab = slab[len(child):]
			for ti := range child {
				tns[ti] = TerminalNet{Name: child[ti].Name, Net: NetID(classes[child[ti].Net])}
			}
			art.Devices[di].TerminalNets = tns
		}
	}
	// Footprint pairs translate to item pairs; inherited candidates first
	// (span order), then this level's, both already canonically oriented.
	for _, p := range levelIllegal {
		art.IllegalCands = append(art.IllegalCands, [2]int{art.FootItemAt(p[0]), art.FootItemAt(p[1])})
	}
	art.Instances = 1
	for i := range art.Items {
		art.LayerMask |= layerBit(art.Items[i].Layer)
	}
	for si := range art.Children {
		art.Instances += art.Children[si].Art.Instances
		art.LayerMask |= art.Children[si].Art.LayerMask
	}
	art.gen = c.gen
	c.arts[h] = art
	return art
}

// layerBit maps a layer id into the conservative LayerMask (layers ≥ 63
// share the overflow bit).
func layerBit(l tech.LayerID) uint64 {
	if l >= 63 {
		return 1 << 63
	}
	return 1 << uint(l)
}

// populate fills the walk-order arrays of art (items, foots, devices,
// keepouts, issues, child spans) and returns the union-find seeded with
// child partitions, plus pending unions (device-internal node fusing).
// Embedded items and footprints are not copied: spans record offsets and
// the accessors resolve entries straight out of the shared span cache.
func (c *Cache) populate(art *SymbolArtifacts, s *layout.Symbol, hs map[*layout.Symbol]layout.SymbolHashes, tc *tech.Technology) (*uf, [][2]int) {
	var pending [][2]int
	if s.IsPrimitive() {
		info, _ := c.Analyze(s, hs[s].Own, tc)
		if info == nil {
			return c.takeUF(0), nil
		}
		dev := DeviceUse{
			Symbol: s, Type: s.DeviceType, Class: info.Class,
			T: geom.Identity, Info: info,
		}
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
				Dev: 0, Sym: s, Elem: -1,
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
				Net: NoNet, Dev: 0, Sym: s, Elem: -1,
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
	nDevs, nGates, nKeeps, nIssues, nIll := 0, 0, 0, 0, 0
	keepBands, keepSpans := 0, 0 // storage of the keepout regions moved out of views
	for ci, call := range s.Calls {
		childArts[ci] = c.build(call.Target, hs, tc)
		spans[ci] = c.span(childArts[ci], call.T, call.Name, tc)
		nDevs += len(childArts[ci].Devices)
		nGates += len(childArts[ci].Gates)
		nKeeps += len(childArts[ci].BaseKeepouts)
		nIssues += len(childArts[ci].Issues)
		nIll += len(childArts[ci].IllegalCands)
		if rep := spans[ci].rep; rep != spans[ci] {
			for _, ks := range [2][]Keepout{rep.gates, rep.keeps} {
				for i := range ks {
					keepBands += ks[i].Reg.NumBands()
					keepSpans += ks[i].Reg.NumRects()
				}
			}
		}
	}
	var keepStore geom.RegionStore
	keepStore.Reserve(keepBands, keepSpans)
	art.Items = make([]ConnItem, 0, len(s.Elements))
	art.Foots = make([]LocalFoot, 0, len(s.Elements))
	art.ItemFoot = make([]int, 0, len(s.Elements))
	art.Children = make([]ChildSpan, 0, len(s.Calls))
	if nGates > 0 {
		art.Gates = make([]Keepout, 0, nGates)
	}
	if nKeeps > 0 {
		art.BaseKeepouts = make([]Keepout, 0, nKeeps)
	}
	if nIssues > 0 {
		art.Issues = make([]Issue, 0, nIssues)
	}
	if nIll > 0 {
		art.IllegalCands = make([][2]int, 0, nIll)
	}
	art.Devices = make([]DeviceUse, 0, nDevs)
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
			Dev: -1, Sym: s, Elem: e.Index,
		})
		art.ItemFoot = append(art.ItemFoot, len(art.Foots)-1)
	}
	// The union-find runs over the own footprints plus one node per class
	// of each child: a child's internal partition is already decided, so
	// its footprints enter as the classes they belong to and nothing is
	// replayed per embedded footprint.
	itemCount, footCount := len(art.Items), len(art.Foots)
	nodeCount := footCount
	for ci := range s.Calls {
		call := s.Calls[ci]
		childArt := childArts[ci]
		sd := spans[ci]
		sp := ChildSpan{
			Call: call, Art: childArt, sd: sd, Bounds: sd.bounds,
			ItemStart: itemCount, FootStart: footCount, DevStart: len(art.Devices),
			node0: nodeCount,
		}
		nodeCount += childArt.NumClasses
		itemCount += childArt.NumItems()
		footCount += childArt.NumFoots()
		// A view's entries are its representative's moved by d, shifted
		// here as they are copied in (TerminalNets are remapped by build()).
		rep, d := sd.rep, sd.d
		if rep == sd {
			art.Devices = append(art.Devices, sd.devs...)
		} else {
			for i, dv := range rep.devs {
				dv.Path = sd.paths[rep.devPathIdx[i]]
				dv.T.Trans = dv.T.Trans.Add(d)
				art.Devices = append(art.Devices, dv)
			}
		}
		for _, g := range rep.gates {
			g.Dev += sp.DevStart
			g.Reg, g.Bounds = keepStore.Translate(g.Reg, d), g.Bounds.Translate(d)
			art.Gates = append(art.Gates, g)
		}
		for _, k := range rep.keeps {
			k.Dev += sp.DevStart
			k.Reg, k.Bounds = keepStore.Translate(k.Reg, d), k.Bounds.Translate(d)
			art.BaseKeepouts = append(art.BaseKeepouts, k)
		}
		for _, is := range rep.issues {
			is.Where = is.Where.Translate(d)
			art.Issues = append(art.Issues, is)
		}
		sp.ItemEnd = itemCount
		sp.FootEnd = footCount
		sp.DevEnd = len(art.Devices)
		art.Children = append(art.Children, sp)
		// Inherit the child's illegal-connection candidates.
		for _, p := range childArt.IllegalCands {
			art.IllegalCands = append(art.IllegalCands, [2]int{sp.ItemStart + p[0], sp.ItemStart + p[1]})
		}
	}
	art.numItems, art.numFoots = itemCount, footCount
	return c.takeUF(nodeCount), pending
}

// span returns the cached transformed embedding of childArt under (t, name).
// A miss first looks for a same-(content, orientation) representative and
// makes the embedding a view of it; only the first member of each family
// pays for the full transform build.
func (c *Cache) span(childArt *SymbolArtifacts, t geom.Transform, name string, tc *tech.Technology) *spanData {
	key := spanKey{childArt.Hash, t, name}
	if sd, ok := c.spans[key]; ok {
		c.reach(sd)
		return sd
	}
	ck := spanClassKey{childArt.Hash, t.Orient}
	var sd *spanData
	// The representative must reference the identical artifact value: a
	// hash seen again after eviction names a rebuilt artifact whose class
	// numbering the old embedding must not be replayed against.
	if base, ok := c.spanClass[ck]; ok && base.childArt == childArt {
		sd = c.deriveSpan(base, t, name, tc)
		c.ctxHits++
	} else {
		sd = c.buildSpan(childArt, t, name, tc)
		sd.rep = sd
		c.spanClass[ck] = sd
		c.ctxMisses++
	}
	c.reach(sd)
	c.spans[key] = sd
	return sd
}

// buildSpan materializes one transformed embedding from the child's
// artifacts — the full-cost path, taken once per (content, orientation)
// family.
func (c *Cache) buildSpan(childArt *SymbolArtifacts, t geom.Transform, name string, tc *tech.Technology) *spanData {
	sd := &spanData{childArt: childArt, t: t, name: name}
	sd.rep = sd
	sd.foots = make([]LocalFoot, 0, childArt.NumFoots())
	sd.itemFoot = make([]int32, 0, childArt.NumItems())
	sd.items = make([]ConnItem, 0, childArt.NumItems())
	addFoot := func(f LocalFoot, declared string, tt geom.Transform) {
		f.Bounds = tt.ApplyRect(f.Bounds)
		f.Reg = c.regStore.TransformBy(f.Reg, tt)
		f.Declared = declared
		if declared != "" && !tc.IsRail(declared) {
			f.Declared = name + "." + declared
		}
		sd.foots = append(sd.foots, f)
	}
	// Consecutive items overwhelmingly share the same relative path (all
	// the geometry of one embedded instance comes in one run), so one
	// cached join replaces a per-item string concatenation; footprint-
	// backed items share the footprint's transformed geometry instead of
	// re-deriving it.
	lastRel, lastJoined := "\x00", ""
	addItem := func(it ConnItem, rel string, tt geom.Transform) {
		if fi := sd.itemFoot[len(sd.items)]; fi >= 0 {
			it.Bounds = sd.foots[fi].Bounds
			it.Reg = sd.foots[fi].Reg
			it.Net = NetID(childArt.ClassOf[fi])
		} else {
			it.Bounds = tt.ApplyRect(it.Bounds)
			it.Reg = c.regStore.TransformBy(it.Reg, tt)
			it.Net = NoNet
		}
		if rel != lastRel {
			lastRel, lastJoined = rel, prefixPath(name, rel)
		}
		it.Path = lastJoined
		sd.items = append(sd.items, it)
		sd.bounds = sd.bounds.Union(it.Bounds)
	}
	// The child's flattened arrays are its own entries followed by its
	// spans' embeddings, so the walk is sequential: own entries first, then
	// each span straight out of its representative's storage, the span's
	// offset folded into the transform — foot indices, Dev offsets and net
	// classes are mapped into the child frame inline, with no per-item
	// index resolution.
	for i := range childArt.Foots {
		addFoot(childArt.Foots[i], childArt.Foots[i].Declared, t)
	}
	for _, f := range childArt.ItemFoot {
		sd.itemFoot = append(sd.itemFoot, int32(f))
	}
	for _, it := range childArt.Items {
		addItem(it, it.Path, t)
	}
	for si := range childArt.Children {
		csp := &childArt.Children[si]
		src, tt := csp.sd.rep, geom.Translate(csp.sd.d).Compose(t)
		for k := range src.foots {
			addFoot(src.foots[k], csp.sd.footDeclared(k), tt)
		}
		for _, f := range src.itemFoot {
			if f >= 0 {
				f += int32(csp.FootStart)
			}
			sd.itemFoot = append(sd.itemFoot, f)
		}
		for k, it := range src.items {
			if it.Dev >= 0 {
				it.Dev += csp.DevStart
			}
			addItem(it, csp.sd.itemPath(k), tt)
		}
	}
	sd.devs = make([]DeviceUse, len(childArt.Devices))
	for i, d := range childArt.Devices {
		d.Path = prefixPath(name, d.Path)
		d.T = d.T.Compose(t)
		d.TerminalNets = nil // parent remaps classes
		sd.devs[i] = d
	}
	sd.footBoxes = make([]geom.Rect, len(sd.foots))
	for i := range sd.foots {
		sd.footBoxes[i] = sd.foots[i].Bounds
	}
	sd.itemBoxes = make([]geom.Rect, len(sd.items))
	for i := range sd.items {
		sd.itemBoxes[i] = sd.items[i].Bounds
	}
	sd.index()
	sd.gates = transformKeepouts(childArt.Gates, t)
	sd.keeps = transformKeepouts(childArt.BaseKeepouts, t)
	sd.issues = make([]Issue, len(childArt.Issues))
	for i, is := range childArt.Issues {
		is.Where = t.ApplyRect(is.Where)
		sd.issues[i] = is
	}
	return sd
}

// index builds the tables a family shares: the embedding's layer column,
// and its per-layer item lists (one counting sort; the lists are pieces of
// one slab).
func (sd *spanData) index() {
	sd.itemLayers = make([]tech.LayerID, len(sd.items))
	var counts [256]int32
	top := -1
	for i := range sd.items {
		l := sd.items[i].Layer
		sd.itemLayers[i] = l
		counts[l]++
		if int(l) > top {
			top = int(l)
		}
	}
	sd.onLayer = make([][]int32, top+1)
	slab := make([]int32, len(sd.items))
	for l := range sd.onLayer {
		n := counts[l]
		sd.onLayer[l] = slab[:0:n]
		slab = slab[n:]
	}
	for i, l := range sd.itemLayers {
		sd.onLayer[l] = append(sd.onLayer[l], int32(i))
	}
}

// deriveSpan makes the embedding for (t, name) a view of the family
// representative: same child content, same orientation, so every region,
// bounds, and skeleton differs from the representative's by the constant
// offset d = t.Trans - rep.t.Trans, and every path/declared name only in
// the leading call-name component. The view stores the offset and one
// re-prefixed string per distinct path; it copies no entry.
func (c *Cache) deriveSpan(rep *spanData, t geom.Transform, name string, tc *tech.Technology) *spanData {
	rep.pathIndex(tc)
	d := t.Trans.Sub(rep.t.Trans)
	sd := &spanData{childArt: rep.childArt, t: t, name: name, bounds: rep.bounds.Translate(d), rep: rep, d: d}
	sd.paths = make([]string, len(rep.paths))
	for i, p := range rep.paths {
		sd.paths[i] = name + p[len(rep.name):]
	}
	return sd
}

func transformKeepouts(ks []Keepout, t geom.Transform) []Keepout {
	if len(ks) == 0 {
		return nil
	}
	out := make([]Keepout, len(ks))
	for i, k := range ks {
		k.Reg = k.Reg.TransformBy(t)
		k.Bounds = t.ApplyRect(k.Bounds)
		out[i] = k
	}
	return out
}

func prefixPath(name, rel string) string {
	if rel == "" {
		return name
	}
	return name + "." + rel
}

// takeUF hands out the cache's reusable union-find sized for n nodes.
func (c *Cache) takeUF(n int) *uf {
	u := &c.ufScratch
	if cap(u.parent) < n {
		u.parent = make([]int, n)
		u.size = make([]int, n)
	}
	u.parent = u.parent[:n]
	u.size = u.size[:n]
	for i := 0; i < n; i++ {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

// footNode returns the union-find node of footprint f while the artifact
// is being built: the footprint itself when it is the symbol's own, the
// child class it belongs to when it is embedded.
func (a *SymbolArtifacts) footNode(f int) int {
	si := a.footSpan(f)
	if si < 0 {
		return f
	}
	sp := &a.Children[si]
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
// first node of a class holds the class's first footprint. out is an
// optional recycled ClassOf buffer.
func (c *Cache) classify(art *SymbolArtifacts, u *uf, out []int) []int32 {
	nNodes, nFoots := len(u.parent), art.NumFoots()
	numClasses := 0
	for i, p := range u.parent {
		if p == i {
			numClasses++
		}
	}
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
		root := u.find(node)
		cl := rootToClass[root]
		if cl == 0 {
			classFoot = append(classFoot, firstFoot)
			cl = int32(len(classFoot))
			rootToClass[root] = cl
		}
		nodeClass[node] = cl - 1
	}
	if cap(out) >= nFoots {
		out = out[:nFoots]
	} else {
		out = make([]int, nFoots)
	}
	ownEnd := len(art.Foots)
	for f := 0; f < ownEnd; f++ {
		label(f, f)
		out[f] = int(nodeClass[f])
	}
	for si := range art.Children {
		sp := &art.Children[si]
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
// sweep. Pairs internal to one child are that child's business. Summing
// each definition's pairs over its instances reproduces the flat sweep's
// candidate multiset exactly (every chip-level pair has a unique LCA).
// Enumeration order is deterministic for identical artifacts.
func (a *SymbolArtifacts) CrossItemPairs(gap int64, emit func(i, j int)) {
	if a.NumItems() < 2 {
		return
	}
	forEachCrossPair(a.NumItems(), len(a.Items), a.Children,
		func(si int) (int, int) { return a.Children[si].ItemStart, a.Children[si].ItemEnd },
		func(i int) geom.Rect { return a.Items[i].Bounds },
		func(si int) []geom.Rect { return a.Children[si].sd.rep.itemBoxes },
		gap, emit)
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
func (c *Cache) connectSweep(art *SymbolArtifacts, u *uf) [][2]int {
	var illegal [][2]int
	ownEnd := len(art.Foots)
	if art.NumFoots() < 2 {
		return nil
	}
	// Footprints of views are tested where they are stored, the partner
	// shifted by the difference of the two offsets.
	test := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		a, da := art.footAt(i)
		b, db := art.footAt(j)
		if a.Layer != b.Layer || !a.Bounds.Translate(da).Touches(b.Bounds.Translate(db)) {
			return
		}
		if !geom.OverlapsShifted(a.Reg, b.Reg, db.Sub(da)) {
			return
		}
		// geom.SkeletonsConnected, across the two frames.
		sa, oa := art.footSkel(i)
		sb, ob := art.footSkel(j)
		if geom.OverlapsShifted(sa, sb, ob.Sub(oa)) {
			u.union(art.footNode(i), art.footNode(j))
		} else {
			illegal = append(illegal, [2]int{i, j})
		}
	}
	forEachCrossPair(art.NumFoots(), ownEnd, art.Children,
		func(si int) (int, int) { return art.Children[si].FootStart, art.Children[si].FootEnd },
		func(i int) geom.Rect { return art.Foots[i].Bounds },
		func(si int) []geom.Rect { return art.Children[si].sd.rep.footBoxes },
		0, test)
	return illegal
}

// forEachCrossPair enumerates candidate element pairs at one hierarchy
// level without visiting pairs internal to a child: a coarse sweep over
// own entries and child bounding boxes, refined per candidate by scanning
// only the entries near the partner. boundsAt reads own entries; spanBoxes
// is a span's bounds table as its representative stores it, read shifted
// by the span's offset. The enumeration is deterministic for identical
// inputs, which the engine's replayable caches rely on.
func forEachCrossPair(n, ownEnd int, children []ChildSpan,
	childRange func(si int) (int, int), boundsAt func(i int) geom.Rect,
	spanBoxes func(si int) []geom.Rect,
	gap int64, emit func(i, j int)) {

	var pf geom.PairFinder
	for i := 0; i < ownEnd; i++ {
		pf.AddRect(i, boundsAt(i), 0)
	}
	coarseBase := n
	for si := range children {
		pf.AddRect(coarseBase+si, children[si].Bounds, 1)
	}
	if pf.Len() < 2 {
		return
	}
	within := func(a, b geom.Rect) bool { return a.Expand(gap).Touches(b) }
	// collect gathers the child's entries near the probe rect, with their
	// bounds, reading the span embedding directly (no per-element index
	// resolution — this scan is the hot inner loop of a root re-derive):
	// the probe moves into the representative's frame, each hit back out.
	type entry struct {
		i int
		b geom.Rect
	}
	collect := func(si int, probe geom.Rect, buf []entry) []entry {
		buf = buf[:0]
		d := children[si].sd.d
		probe = probe.Expand(gap).Translate(d.Neg())
		lo, _ := childRange(si)
		for local, b := range spanBoxes(si) {
			if probe.Touches(b) {
				buf = append(buf, entry{lo + local, b.Translate(d)})
			}
		}
		return buf
	}
	var bufA, bufB []entry
	pf.Pairs(gap, nil, func(p geom.Pair) {
		ai, bi := p.A.ID, p.B.ID
		aChild, bChild := ai >= coarseBase, bi >= coarseBase
		switch {
		case !aChild && !bChild:
			emit(ai, bi)
		case aChild != bChild:
			own, child := ai, bi
			if aChild {
				own, child = bi, ai
			}
			// The collect probe is exactly the pairing predicate against
			// the own entry's bounds, so everything collected pairs.
			bufA = collect(child-coarseBase, boundsAt(own), bufA)
			for _, e := range bufA {
				emit(own, e.i)
			}
		default:
			sa, sb := ai-coarseBase, bi-coarseBase
			bufA = collect(sa, children[sb].Bounds, bufA)
			if len(bufA) == 0 {
				return
			}
			bufB = collect(sb, children[sa].Bounds, bufB)
			if len(bufB) == 0 {
				return
			}
			if len(bufA)*len(bufB) <= bipartiteThreshold {
				for _, ea := range bufA {
					for _, eb := range bufB {
						if within(ea.b, eb.b) {
							emit(ea.i, eb.i)
						}
					}
				}
				return
			}
			var bp geom.PairFinder
			for _, ea := range bufA {
				bp.AddRect(ea.i, ea.b, 0)
			}
			for _, eb := range bufB {
				bp.AddRect(eb.i, eb.b, 1)
			}
			bp.Pairs(gap, func(x, y geom.Item) bool { return x.Tag != y.Tag }, func(q geom.Pair) {
				emit(q.A.ID, q.B.ID)
			})
		}
	})
}
