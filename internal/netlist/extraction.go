package netlist

import (
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// ConnItem is one piece of connectable or checkable geometry produced by
// extraction, in chip coordinates. Interconnect elements and device
// terminals carry a net; device support geometry (contact cuts, implants,
// buried windows) carries NoNet.
type ConnItem struct {
	Layer  tech.LayerID
	Bounds geom.Rect
	Reg    geom.Region
	Net    NetID // NoNet for unassignable geometry (gate, implant, cut)
	Dev    int   // index into Netlist.Devices; -1 for interconnect
	Sym    *layout.Symbol
	Elem   int    // element index within Sym (interconnect only, else -1)
	Path   string // instance path
}

// NoNet marks geometry that cannot be assigned to a net (the paper: "the
// gate or implant of a transistor cannot be assigned to a net").
const NoNet NetID = -1

// Keepout is a device-exported protected region (chip coordinates).
type Keepout struct {
	Dev       int
	Reg       geom.Region
	Bounds    geom.Rect
	Clearance int64 // 0 = overlap forbidden, >0 = spacing required
}

// Extraction is the full result of netlist extraction, retained so the
// checker's connection and interaction stages reuse the same geometry and
// net assignment instead of re-deriving them.
type Extraction struct {
	Netlist *Netlist
	Items   []ConnItem

	// Gates are MOS channel keepouts (contact cuts must not land on them,
	// Figure 7).
	Gates []Keepout

	// BaseKeepouts are bipolar base regions that isolation must stay clear
	// of (Figure 6a).
	BaseKeepouts []Keepout

	// IllegalPairs indexes Item pairs that overlap on the same layer
	// without being skeletally connected AND end up on different nets —
	// the illegal connections of Figures 11/15.
	IllegalPairs [][2]int
}
