package netlist

import (
	"repro/internal/geom"
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
	Net    NetID  // NoNet for unassignable geometry (gate, implant, cut)
	Dev    int    // index into Netlist.Devices; -1 for interconnect
	Elem   int    // element index within the defining symbol (interconnect only, else -1)
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
