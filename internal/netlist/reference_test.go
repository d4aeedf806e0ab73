package netlist

// The flat reference extractor. ExtractFull walks the fully instantiated
// chip and redoes every element region, skeleton and connectivity test
// per instance — the simplest statement of what extraction means, kept as
// the oracle ExtractIncremental is compared against. It shares only the
// final net assembly (assembleNets, nameNets) with the production path.

import (
	"sort"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// footprint is one connectable piece of geometry during extraction.
type footprint struct {
	layer  tech.LayerID
	bounds geom.Rect
	reg    geom.Region // chip coordinates
	node   int         // union-find node
	// declared net name (path-qualified), "" if none
	declared string
	elements int // number of interconnect elements represented (0 or 1)
}

// ExtractFull runs extraction and returns both the netlist and the
// artifacts the checker's later stages need.
func ExtractFull(d *layout.Design, tc *tech.Technology) (*Extraction, []Issue, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	var issues []Issue
	var foots []footprint
	var items []ConnItem
	var devices []DeviceUse
	var pendingUnions [][2]int
	ex := &Extraction{}
	infoCache := make(map[*layout.Symbol]*device.Info)

	// Per-symbol support geometry (layer regions not covered by terminal
	// footprints — contact cuts, implants, buried windows, and interior
	// device geometry like a resistor's body middle), computed once per
	// definition and transformed per instance.
	type layerReg struct {
		layer tech.LayerID
		reg   geom.Region
	}
	extraCache := make(map[*layout.Symbol][]layerReg)
	symExtras := func(s *layout.Symbol, info *device.Info) []layerReg {
		if e, ok := extraCache[s]; ok {
			return e
		}
		// One k-way sweep per layer instead of a fold of pairwise unions.
		termRegs := make(map[tech.LayerID][]geom.Region)
		for _, term := range info.Terminals {
			termRegs[term.Layer] = append(termRegs[term.Layer], term.Reg)
		}
		termCover := make(map[tech.LayerID]geom.Region, len(termRegs))
		for layer, regs := range termRegs {
			termCover[layer] = geom.BulkUnion(regs)
		}
		var extras []layerReg
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
			extras = append(extras, layerReg{l.ID, reg})
		}
		extraCache[s] = extras
		return extras
	}

	var walk func(s *layout.Symbol, t geom.Transform, path string)
	walk = func(s *layout.Symbol, t geom.Transform, path string) {
		if s.IsPrimitive() {
			info, ok := infoCache[s]
			if !ok {
				info, _ = device.Analyze(s, tc)
				infoCache[s] = info
			}
			if info == nil {
				return
			}
			devIdx := len(devices)
			dev := DeviceUse{
				Path: path, Symbol: s, Type: s.DeviceType, Class: info.Class,
				T: t, Info: info,
			}
			nodeToFoot := make(map[int]int)
			for _, term := range info.Terminals {
				reg := term.Reg.TransformBy(t)
				if reg.Empty() {
					continue
				}
				idx := len(foots)
				foots = append(foots, footprint{
					layer: term.Layer, bounds: reg.Bounds(), reg: reg, node: idx,
				})
				items = append(items, ConnItem{
					Layer: term.Layer, Bounds: reg.Bounds(), Reg: reg,
					Dev: devIdx, Sym: s, Elem: -1, Path: path,
				})
				if prev, seen := nodeToFoot[term.Node]; seen {
					pendingUnions = append(pendingUnions, [2]int{prev, idx})
				} else {
					nodeToFoot[term.Node] = idx
				}
				if _, have := dev.TerminalNet(term.Name); !have {
					dev.TerminalNets = append(dev.TerminalNets, TerminalNet{Name: term.Name, Net: NetID(idx)})
				}
			}
			// Support geometry not covered by terminals (cuts, implants,
			// buried windows, resistor body middles): checkable but
			// netless — "the gate or implant of a transistor cannot be
			// assigned to a net".
			for _, e := range symExtras(s, info) {
				reg := e.reg.TransformBy(t)
				items = append(items, ConnItem{
					Layer: e.layer, Bounds: reg.Bounds(), Reg: reg,
					Net: NoNet, Dev: devIdx, Sym: s, Elem: -1, Path: path,
				})
			}
			if !info.Gate.Empty() {
				g := info.Gate.TransformBy(t)
				ex.Gates = append(ex.Gates, Keepout{Dev: devIdx, Reg: g, Bounds: g.Bounds()})
			}
			if !info.BaseKeepout.Empty() {
				b := info.BaseKeepout.TransformBy(t)
				ex.BaseKeepouts = append(ex.BaseKeepouts, Keepout{
					Dev: devIdx, Reg: b, Bounds: b.Bounds(), Clearance: info.BaseClearance,
				})
			}
			sort.Slice(dev.TerminalNets, func(i, j int) bool {
				return dev.TerminalNets[i].Name < dev.TerminalNets[j].Name
			})
			devices = append(devices, dev)
			return
		}
		for _, e := range s.Elements {
			reg, err := e.Region()
			if err != nil {
				issues = append(issues, Issue{
					Rule:   "NET.ELEM",
					Detail: err.Error(),
					Where:  t.ApplyRect(e.Bounds()),
				})
				continue
			}
			reg = reg.TransformBy(t)
			declared := ""
			if e.Net != "" {
				declared = qualifyNet(e.Net, path, tc)
			}
			foots = append(foots, footprint{
				layer: e.Layer, bounds: reg.Bounds(), reg: reg,
				node: len(foots), declared: declared, elements: 1,
			})
			items = append(items, ConnItem{
				Layer: e.Layer, Bounds: reg.Bounds(), Reg: reg,
				Dev: -1, Sym: s, Elem: e.Index, Path: path,
			})
		}
		for _, c := range s.Calls {
			walk(c.Target, c.T.Compose(t), joinPath(path, c.Name))
		}
	}
	walk(d.Top, geom.Identity, "")

	// Items with a footprint counterpart share indices in creation order:
	// rebuild the mapping item -> footprint.
	itemFoot := make([]int, len(items))
	fi := 0
	for i := range items {
		if items[i].Net == NoNet && items[i].Dev >= 0 {
			itemFoot[i] = -1 // support geometry has no footprint
			continue
		}
		itemFoot[i] = fi
		fi++
	}

	uf := newUF(len(foots))
	for _, pu := range pendingUnions {
		uf.union(pu[0], pu[1])
	}
	var pf geom.PairFinder
	for i := range foots {
		pf.AddRect(i, foots[i].bounds, int(foots[i].layer))
	}
	skeletons := make([]geom.Region, len(foots))
	haveSkel := make([]bool, len(foots))
	skel := func(i int) geom.Region {
		if !haveSkel[i] {
			mw := tc.Layer(foots[i].layer).MinWidth
			skeletons[i] = geom.Skeleton(foots[i].reg, mw)
			haveSkel[i] = true
		}
		return skeletons[i]
	}
	type candPair struct{ a, b int } // footprint indices, a < b
	var illegalCands []candPair
	pf.Pairs(0, func(a, b geom.Item) bool { return a.Tag == b.Tag }, func(p geom.Pair) {
		i, j := p.A.ID, p.B.ID
		if i > j {
			i, j = j, i // canonical orientation: lower footprint index first
		}
		if !foots[i].reg.Overlaps(foots[j].reg) {
			return
		}
		if geom.SkeletonsConnected(skel(i), skel(j)) {
			uf.union(i, j)
		} else {
			illegalCands = append(illegalCands, candPair{i, j})
		}
	})

	nl, issues, err := assemble(foots, devices, uf, tc, issues)
	if err != nil {
		return nil, issues, err
	}
	ex.Netlist = nl

	// Assign nets to items from the canonical class labels.
	classOf, _ := classify(uf, len(foots))
	for i := range items {
		if f := itemFoot[i]; f >= 0 {
			items[i].Net = NetID(classOf[f])
		}
	}
	ex.Items = items

	// Footprint-index pairs translate to item indices.
	footItem := make(map[int]int, len(foots))
	for i, f := range itemFoot {
		if f >= 0 {
			footItem[f] = i
		}
	}
	for _, c := range illegalCands {
		if classOf[c.a] != classOf[c.b] {
			ex.IllegalPairs = append(ex.IllegalPairs, [2]int{footItem[c.a], footItem[c.b]})
		}
	}
	return ex, issues, nil
}

// qualifyNet applies dot-notation qualification: rails are global.
func qualifyNet(net, path string, tc *tech.Technology) string {
	if tc.IsRail(net) || path == "" {
		return net
	}
	return path + "." + net
}

func joinPath(base, name string) string {
	if base == "" {
		return name
	}
	return base + "." + name
}

// classify converts the union-find over footprints into canonical class
// labels: classes are numbered by the index of their first footprint, which
// fixes the public net numbering ("n<k>" names) independently of union
// order.
func classify(uf *uf, n int) (classOf []int, numClasses int) {
	classOf = make([]int, n)
	rootToClass := make([]int32, n) // roots are foot indices; 0 means unset
	for i := 0; i < n; i++ {
		root := uf.find(i)
		if c := rootToClass[root]; c != 0 {
			classOf[i] = int(c - 1)
			continue
		}
		rootToClass[root] = int32(numClasses + 1)
		classOf[i] = numClasses
		numClasses++
	}
	return classOf, numClasses
}

// assemble converts union-find classes into the final Netlist.
func assemble(foots []footprint, devices []DeviceUse, uf *uf, tc *tech.Technology, issues []Issue) (*Netlist, []Issue, error) {
	classOf, numClasses := classify(uf, len(foots))
	// Resolve device terminal nets from provisional footprint ids.
	for di := range devices {
		dev := &devices[di]
		for ti := range dev.TerminalNets {
			dev.TerminalNets[ti].Net = NetID(classOf[int(dev.TerminalNets[ti].Net)])
		}
	}
	nl := assembleNets(numClasses, classOf, func(i int) (geom.Rect, string, int) {
		return foots[i].bounds, foots[i].declared, foots[i].elements
	}, len(foots), devices, new(deviceMemo))
	return nl, nameNets(nl, &issues, new(anonNames)), nil
}

func newUF(n int) *uf {
	u := &uf{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}
