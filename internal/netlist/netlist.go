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
	"fmt"
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
	// Bounds is the bounding box of the net's geometry.
	Bounds geom.Rect
}

// IsAnonymous reports whether the net has no declared name.
func (n *Net) IsAnonymous() bool { return len(n.Declared) == 0 }

// TerminalNet is one terminal→net assignment of a device.
type TerminalNet struct {
	Name string
	Net  NetID
}

// DeviceUse is one instantiated device.
type DeviceUse struct {
	Path   string // hierarchical instance path ("" for a top-level device)
	Symbol *layout.Symbol
	Type   string // declared device type
	Class  string // device class
	T      geom.Transform
	// TerminalNets lists terminal→net assignments, sorted by terminal
	// name. A sorted slice rather than a map: devices are the most
	// numerous re-derived objects in an incremental session, and a
	// three-entry map per device per recheck is pure allocator load.
	// The slices of one extraction are carved out of one slab (capacity
	// clipped to length, so an append reallocates instead of running into
	// the next device's entries): read-only to every holder.
	TerminalNets []TerminalNet
	// Info is the cached electrical analysis of the defining symbol.
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

// TerminalNetIDs appends the device's distinct terminal net ids to buf in
// terminal-name order.
func (d *DeviceUse) TerminalNetIDs(buf []NetID) []NetID {
	for i := range d.TerminalNets {
		g := d.TerminalNets[i].Net
		dup := false
		for _, h := range buf {
			if h == g {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, g)
		}
	}
	return buf
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
	Nets []Net
	// Devices is read-only once the netlist is published: a window-patched
	// successor, and any netlist re-assembled over the same cached root,
	// carries the very same array, and DeviceText's memo describes it.
	// Replacing or re-slicing it is safe (the memo is keyed by the array);
	// writing an element in place is not.
	Devices []DeviceUse
	byName  map[string]NetID
	devText *deviceMemo // shared by every netlist built over Devices' array
}

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
// that only need the netlist.
func Extract(d *layout.Design, tc *tech.Technology) (*Netlist, []Issue, error) {
	inc, issues, err := ExtractIncremental(d, tc, NewCache(), nil, nil)
	if err != nil {
		return nil, issues, err
	}
	return inc.Netlist, issues, nil
}

// assembleNets builds the Netlist skeleton — nets in canonical class order
// with aggregated bounds, element counts, declared names, and device
// terminal references — from a footprint accessor visited in index order.
// Device TerminalNets must already hold final net ids; memo is the
// DeviceText holder of the devices array.
func assembleNets(numClasses int, classOf []int, foot func(i int) (bounds geom.Rect, declared string, elements int), numFoots int, devices []DeviceUse, memo *deviceMemo) *Netlist {
	nl := &Netlist{Nets: make([]Net, numClasses), devText: memo}
	for i := range nl.Nets {
		nl.Nets[i].ID = NetID(i)
	}
	for i := 0; i < numFoots; i++ {
		net := &nl.Nets[classOf[i]]
		bounds, declared, elements := foot(i)
		net.Elements += elements
		net.Bounds = net.Bounds.Union(bounds)
		// nameNets sorts and dedupes; dropping an immediate repeat here (a
		// rail is declared once per cell) keeps the lists short.
		if n := len(net.Declared); declared != "" && (n == 0 || net.Declared[n-1] != declared) {
			net.Declared = append(net.Declared, declared)
		}
	}
	// One slab holds every net's terminal list: a counting pass sizes the
	// pieces, each clipped to its own capacity so the appends below (and
	// any a holder might make) cannot run into the next net's.
	counts := make([]int32, numClasses)
	total := 0
	for di := range devices {
		for ti := range devices[di].TerminalNets {
			counts[devices[di].TerminalNets[ti].Net]++
		}
		total += len(devices[di].TerminalNets)
	}
	slab := make([]TermRef, total)
	for i := range nl.Nets {
		if n := int(counts[i]); n > 0 {
			nl.Nets[i].Terminals = slab[:0:n]
			slab = slab[n:]
		}
	}
	for di := range devices {
		dev := &devices[di]
		// TerminalNets is sorted by name: deterministic terminal order.
		for ti := range dev.TerminalNets {
			tn := &dev.TerminalNets[ti]
			nl.Nets[tn.Net].Terminals = append(nl.Nets[tn.Net].Terminals, TermRef{Device: di, Terminal: tn.Name})
		}
	}
	nl.Devices = devices
	return nl
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
					Where:  net.Bounds,
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
					Where:  nl.Nets[prev].Bounds.Union(net.Bounds),
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

// uf is a weighted quick-union structure.
type uf struct {
	parent []int
	size   []int
}

func (u *uf) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *uf) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
