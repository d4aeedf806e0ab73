// Package netlist generates the hierarchical net list of the paper's
// Figure 10 pipeline.
//
// Connectivity follows the paper's *skeletal* criterion (Figure 11): two
// same-layer elements are connected iff their skeletons — each element
// shrunk by half its layer's minimum width — touch, overlap, or enclose
// one another. Geometric contact that is not skeletal is deliberately NOT
// a connection here: it is an illegal connection, which the checker
// reports separately. The netlist therefore describes the *intended*
// circuit.
//
// Cross-layer connectivity exists only through devices (contacts, butting
// and buried contacts), and devices exist only as primitive device symbols,
// so device recognition reduces to device-terminal lookup.
//
// Net names use the paper's dot notation: a net declared "q" inside
// instance "row3.bit7" becomes "row3.bit7.q". Power and ground names are
// global. Declared names never *create* connectivity; instead the
// extractor cross-checks declarations against extracted connectivity and
// reports NET.MERGED (two names on one extracted net) and NET.OPEN (one
// name on several extracted nets) — the paper's "check the net list
// against an input net list for consistency".
package netlist

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// NetID indexes a net within a Netlist.
type NetID int

// TermRef names one device terminal attachment.
type TermRef struct {
	Device   int    // index into Netlist.Devices
	Terminal string // terminal name within the device
}

// Net is one extracted electrical net.
type Net struct {
	ID   NetID
	Name string // canonical name: lexically smallest declared name, else "n<k>"
	// Declared lists every declared (possibly path-qualified) name merged
	// into this net, sorted.
	Declared []string
	// Terminals lists the device terminals on this net, in deterministic
	// order. Like DeviceUse.TerminalNets, the lists of one netlist are
	// capacity-clipped pieces of one slab: read-only to every holder.
	Terminals []TermRef
	// Elements counts the interconnect elements on the net.
	Elements int
	// bounds is the bounding box of the net's geometry as the netlist's
	// assembly found it. A window patch moves a net without writing here,
	// so it is read only through Netlist.NetBounds.
	bounds geom.Rect
}

// IsAnonymous reports whether the net has no declared name.
func (n *Net) IsAnonymous() bool { return len(n.Declared) == 0 }

// TerminalNet is one terminal→net assignment of a device.
type TerminalNet struct {
	Name string
	Net  NetID
}

// DeviceUse is one instantiated device. It names no symbol: the artifact
// it comes from serves every definition that draws the same device, and
// its type and class are its Info's.
type DeviceUse struct {
	Path string // hierarchical instance path ("" for a top-level device)
	T    geom.Transform
	// TerminalNets lists terminal→net assignments, sorted by terminal
	// name. A sorted slice rather than a map: devices are the most
	// numerous re-derived objects in an incremental session, and a
	// three-entry map per device per recheck is pure allocator load.
	// The slices of one extraction are carved out of one slab (capacity
	// clipped to length, so an append reallocates instead of running into
	// the next device's entries): read-only to every holder.
	TerminalNets []TerminalNet
	// Info is the cached electrical analysis of the defining symbol's
	// content: its declared Type and its Class among them.
	Info *device.Info
}

// TerminalNet returns the net of the named terminal.
func (d *DeviceUse) TerminalNet(name string) (NetID, bool) {
	for i := range d.TerminalNets {
		if d.TerminalNets[i].Name == name {
			return d.TerminalNets[i].Net, true
		}
	}
	return 0, false
}

// Issue is a netlist-level finding (not necessarily fatal).
type Issue struct {
	Rule   string // NET.MERGED, NET.OPEN, NET.ELEM, DEV.*
	Detail string
	Where  geom.Rect
}

func (i Issue) String() string { return fmt.Sprintf("%s at %v: %s", i.Rule, i.Where, i.Detail) }

// Netlist is the extraction result.
type Netlist struct {
	// Nets, like Devices, is read-only once the netlist is published: a
	// window-patched successor carries the very same array and keeps the
	// bounds of the nets it moved beside it, so a net's bounds are
	// NetBounds(i), never a field of Nets[i].
	Nets []Net
	// Devices is read-only once the netlist is published: a window-patched
	// successor, and any netlist re-assembled over the same cached root,
	// carries the very same array, and DeviceText's memo describes it.
	// Replacing or re-slicing it is safe (the memo is keyed by the array);
	// writing an element in place is not.
	Devices []DeviceUse
	// moved overrides the assembled bounds of the nets window patches
	// moved, ascending by net index. Each patch copies and extends it; the
	// next assembly starts without one.
	moved   []netBounds
	byName  map[string]NetID
	devText *deviceMemo // shared by every netlist built over Devices' array
}

// netBounds is one entry of a netlist's moved overlay: net i's bounds.
type netBounds struct {
	net    int
	bounds geom.Rect
}

// NetBounds returns the bounding box of the geometry of net i, indexed by
// position in Nets (not by Net.ID).
func (nl *Netlist) NetBounds(i int) geom.Rect {
	if k, ok := nl.movedAt(i); ok {
		return nl.moved[k].bounds
	}
	return nl.Nets[i].bounds
}

// EachNet calls visit with every net in index order and its NetBounds,
// walking the moved overlay beside the array instead of searching it once
// per net.
func (nl *Netlist) EachNet(visit func(n *Net, bounds geom.Rect)) {
	m := nl.moved
	for i := range nl.Nets {
		b := nl.Nets[i].bounds
		if len(m) > 0 && m[0].net == i {
			b, m = m[0].bounds, m[1:]
		}
		visit(&nl.Nets[i], b)
	}
}

// movedAt finds net i in the moved overlay: its position, or where it
// would go.
func (nl *Netlist) movedAt(i int) (int, bool) {
	return slices.BinarySearchFunc(nl.moved, i, func(e netBounds, i int) int { return cmp.Compare(e.net, i) })
}

// patched returns a successor of nl over the same arrays in which the nets
// of moves have the given bounds: nl and every holder of it see nothing
// change.
func (nl *Netlist) patched(moves []netBounds) *Netlist {
	next := *nl
	next.moved = make([]netBounds, len(nl.moved), len(nl.moved)+len(moves))
	copy(next.moved, nl.moved)
	for _, mv := range moves {
		if k, ok := next.movedAt(mv.net); ok {
			next.moved[k] = mv
		} else {
			next.moved = slices.Insert(next.moved, k, mv)
		}
	}
	return &next
}

// SetBounds sets the bounds an assembly would have written, for a netlist
// built by hand.
func (n *Net) SetBounds(r geom.Rect) { n.bounds = r }

// deviceMemo holds the rendering of one device array for DeviceText. It
// lives with the root artifact that owns the array, so every netlist
// carrying that array reaches it; a netlist built by hand has none.
type deviceMemo struct{ p atomic.Pointer[deviceText] }

// deviceText is one published state of a deviceMemo: the array it is
// about (first element and length), the netlist that asked for it first
// while nothing is rendered, then the rendered bytes.
type deviceText struct {
	first *DeviceUse
	n     int
	asker *Netlist
	text  []byte
}

// DeviceText returns render(nl.Devices) when it is worth keeping, nil when
// the caller should render the devices itself. The netlist that asks first
// for an array only has it noted, however often it asks again, so a
// netlist on its own keeps nothing; the first request from another netlist
// over the same array — a window-patched successor, a re-assembly over the
// same root — renders, publishes the bytes for every netlist that shares
// the array, and returns them; later requests return them as they are.
// render must be a pure function of the devices: two goroutines rendering
// at once may both render, and either result is kept.
func (nl *Netlist) DeviceText(render func([]DeviceUse) []byte) []byte {
	m := nl.devText
	if m == nil || len(nl.Devices) == 0 {
		return nil
	}
	first, n := &nl.Devices[0], len(nl.Devices)
	cur := m.p.Load()
	switch {
	case cur == nil || cur.first != first || cur.n != n:
		m.p.CompareAndSwap(cur, &deviceText{first: first, n: n, asker: nl})
		return nil
	case cur.text != nil:
		return cur.text
	case cur.asker == nl:
		return nil
	}
	next := &deviceText{first: first, n: n, text: render(nl.Devices)}
	m.p.CompareAndSwap(cur, next)
	return next.text
}

// NetByName resolves a declared or canonical net name. A declared name
// wins over an anonymous net's "n<k>" it happens to spell; a name declared
// on several nets (NET.OPEN) answers the first.
func (nl *Netlist) NetByName(name string) (NetID, bool) {
	if id, ok := nl.byName[name]; ok {
		return id, true
	}
	// byName holds declared names only; an anonymous net is named by its
	// own index, so its name is looked up by parsing that index back out.
	if len(name) < 2 || name[0] != 'n' {
		return 0, false
	}
	k := 0
	for _, ch := range []byte(name[1:]) {
		if ch < '0' || ch > '9' || k >= len(nl.Nets) {
			return 0, false
		}
		k = k*10 + int(ch-'0')
	}
	// Comparing the stored name rejects non-canonical spellings ("n03")
	// and indices of nets that carry a declared name.
	if k >= len(nl.Nets) || nl.Nets[k].Name != name || !nl.Nets[k].IsAnonymous() {
		return 0, false
	}
	return NetID(k), true
}

// NumNets returns the number of nets.
func (nl *Netlist) NumNets() int { return len(nl.Nets) }

// Stats summarizes the netlist.
func (nl *Netlist) Stats() string {
	return fmt.Sprintf("%d nets, %d devices", len(nl.Nets), len(nl.Devices))
}

// Extract builds the netlist of a validated design. The second return value
// carries consistency issues; the error is reserved for structural failures
// (unmaterializable geometry is reported as a NET.ELEM issue instead).
// Extract is a one-shot ExtractIncremental over a fresh cache, for callers
// that only need the netlist. Like a check it runs the hashing pass first,
// so a stamped scalar written without Touch (layout.Symbol.Hashes) is seen.
func Extract(d *layout.Design, tc *tech.Technology) (*Netlist, []Issue, error) {
	d.ContentHashes()
	inc, issues, err := ExtractIncremental(d, tc, NewCache(), 1)
	if err != nil {
		return nil, issues, err
	}
	return inc.Netlist, issues, nil
}

// addFoots folds the root's footprints [lo, hi) into nets, indexed by
// class: element counts, bounds and declared names, read in footprint
// order — own footprints, then each span's from its columns. nets is the
// netlist's own array or a shard's partial of it (see Cache.assemble).
func addFoots(nets []Net, root *SymbolArtifacts, lo, hi int) {
	classOf := root.ClassOf
	i := lo
	for ; i < hi && i < len(root.Foots); i++ {
		f := &root.Foots[i]
		nets[classOf[i]].addFoot(f.Bounds, f.Declared, f.Elements)
	}
	if i >= hi {
		return
	}
	for si := root.footSpan(i); i < hi; si++ {
		sp := &root.children[si]
		sd, end := sp.sd, min(hi, sp.FootEnd)
		rep := sd.rep
		for ; i < end; i++ {
			k := i - sp.FootStart
			nets[classOf[i]].addFoot(rep.itemBoxes[rep.footItem[k]].Translate(sd.d), sd.footDeclared(k), int(rep.footElems[k]))
		}
	}
}

// addFoot folds one footprint into the net.
func (net *Net) addFoot(bounds geom.Rect, declared string, elements int) {
	net.Elements += elements
	net.bounds = net.bounds.Union(bounds)
	// nameNets sorts and dedupes; dropping an immediate repeat here (a
	// rail is declared once per cell) keeps the lists short.
	if n := len(net.Declared); declared != "" && (n == 0 || net.Declared[n-1] != declared) {
		net.Declared = append(net.Declared, declared)
	}
}

// mergeFoots folds a shard's partial of the footprint pass into nets. Sums
// and bounds unions do not depend on the order of folding, and declared
// names are appended in shard order, so the lists come out as one pass
// over every footprint leaves them.
func mergeFoots(nets, part []Net) {
	for i := range part {
		p := &part[i]
		if p.Elements == 0 && p.bounds.Empty() && p.Declared == nil {
			continue
		}
		net := &nets[i]
		net.Elements += p.Elements
		net.bounds = net.bounds.Union(p.bounds)
		for _, dn := range p.Declared {
			if n := len(net.Declared); n == 0 || net.Declared[n-1] != dn {
				net.Declared = append(net.Declared, dn)
			}
		}
	}
}

// countTerms counts the terminals of devices [lo, hi) per net into counts.
func countTerms(counts []int32, devices []DeviceUse, lo, hi int) {
	for di := lo; di < hi; di++ {
		for ti := range devices[di].TerminalNets {
			counts[devices[di].TerminalNets[ti].Net]++
		}
	}
}

// placeTerms carves every net's terminal list out of one slab, each list
// clipped to its own capacity so an append (a holder's) cannot run into
// the next net's. counts holds m shards' per-net terminal counts (see
// countTerms), shard after shard; each count becomes the slab position
// where that shard's first terminal of the net goes, so that the lists
// come out in device order.
func placeTerms(nets []Net, counts []int32, m, total int) []TermRef {
	slab := make([]TermRef, total)
	nc := len(nets)
	at := int32(0)
	for i := range nets {
		base := at
		for k := 0; k < m; k++ {
			c := &counts[k*nc+i]
			at, *c = at+*c, at
		}
		if at > base {
			nets[i].Terminals = slab[base:at:at]
		}
	}
	return slab
}

// fillTerms writes the terminals of devices [lo, hi) into their nets'
// lists, at the positions placeTerms left in cursor.
func fillTerms(slab []TermRef, cursor []int32, devices []DeviceUse, lo, hi int) {
	for di := lo; di < hi; di++ {
		dev := &devices[di]
		// TerminalNets is sorted by name: deterministic terminal order.
		for ti := range dev.TerminalNets {
			tn := &dev.TerminalNets[ti]
			slab[cursor[tn.Net]] = TermRef{Device: di, Terminal: tn.Name}
			cursor[tn.Net]++
		}
	}
}

// anonNames interns the names of anonymous nets ("n<k>" for net k): a
// netlist of a few thousand nets otherwise allocates as many short strings
// on every run, and every run of a session spells the same ones.
type anonNames []string

func (a *anonNames) name(k int) string {
	for len(*a) <= k {
		*a = append(*a, "n"+strconv.Itoa(len(*a)))
	}
	return (*a)[k]
}

// nameNets finalizes net names: dedupe declared names, detect merges and
// opens, name anonymous nets from anon, and fill the lookup table with the
// declared names (NetByName finds an anonymous net by its index). It
// appends NET.MERGED/NET.OPEN findings to issues and returns the final
// slice.
func nameNets(nl *Netlist, issues *[]Issue, anon *anonNames) []Issue {
	nl.byName = make(map[string]NetID)
	for i := range nl.Nets {
		net := &nl.Nets[i]
		net.Declared = dedupeStrings(net.Declared)
		if len(net.Declared) > 0 {
			net.Name = net.Declared[0]
			if len(net.Declared) > 1 {
				*issues = append(*issues, Issue{
					Rule:   "NET.MERGED",
					Detail: fmt.Sprintf("declared nets %v are physically connected", net.Declared),
					Where:  nl.NetBounds(i),
				})
			}
		} else {
			net.Name = anon.name(i)
		}
		for _, dn := range net.Declared {
			// Declared is deduplicated, so a name seen before was seen on
			// an earlier net.
			if prev, seen := nl.byName[dn]; seen {
				*issues = append(*issues, Issue{
					Rule:   "NET.OPEN",
					Detail: fmt.Sprintf("net %q is split across unconnected pieces", dn),
					Where:  nl.NetBounds(int(prev)).Union(nl.NetBounds(i)),
				})
			} else {
				nl.byName[dn] = net.ID
			}
		}
	}
	return *issues
}

func dedupeStrings(ss []string) []string {
	if len(ss) <= 1 {
		return ss
	}
	sort.Strings(ss)
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
