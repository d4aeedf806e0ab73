package netlist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/tech"
)

// ConstructionRules checks the paper's four non-geometric composition rules
// on an extracted netlist:
//
//  1. a net must have at least two "devices" on it,
//  2. power and ground must not be shorted,
//  3. a "bus" may not connect to power or ground,
//  4. a depletion device may not connect to ground.
//
// Bus nets are recognized by declared names beginning with "bus" (case
// insensitive), e.g. "bus0", "BUS_data". top is the name of the design's
// top symbol. It names a device placed at the top itself, the one device
// with no instance path, which only a primitive top places. Extraction
// gives a primitive top's nets no declared name, so rule 4 reports such a
// device only on a netlist built by hand, and the findings on an extracted
// netlist never depend on a symbol's name.
func ConstructionRules(nl *Netlist, top string, tc *tech.Technology) []Issue {
	var issues []Issue
	for i := range nl.Nets {
		net := &nl.Nets[i]
		power, ground, bus := false, false, false
		for _, n := range net.Declared {
			base := lastComponent(n)
			if tc.IsPower(base) {
				power = true
			}
			if tc.IsGround(base) {
				ground = true
			}
			if isBusName(base) {
				bus = true
			}
		}
		// Rule 2: power-ground short.
		if power && ground {
			issues = append(issues, Issue{
				Rule:   "NET.PGSHORT",
				Detail: fmt.Sprintf("power and ground shorted on net %q (%v)", net.Name, net.Declared),
				Where:  nl.NetBounds(i),
			})
		}
		// Rule 3: bus to rail.
		if bus && (power || ground) {
			issues = append(issues, Issue{
				Rule:   "NET.BUSRAIL",
				Detail: fmt.Sprintf("bus net %q connects to a supply rail (%v)", net.Name, net.Declared),
				Where:  nl.NetBounds(i),
			})
		}
		// Rule 1: fanout — every non-rail net needs at least two device
		// terminals; a zero-terminal net is floating interconnect.
		if !power && !ground && len(net.Terminals) < 2 {
			issues = append(issues, Issue{
				Rule:   "NET.FANOUT",
				Detail: fanoutDetail(net),
				Where:  nl.NetBounds(i),
			})
		}
	}
	// Rule 4: depletion device to ground. Which device types count is deck
	// data (the depletion attribute) — in the shipped nMOS process, the
	// bare depletion transistor and the depletion pullup.
	for di := range nl.Devices {
		dev := &nl.Devices[di]
		if spec, ok := tc.Device(dev.Info.Type); !ok || !spec.Depletion {
			continue
		}
		for ti := range dev.TerminalNets {
			term, nid := dev.TerminalNets[ti].Name, dev.TerminalNets[ti].Net
			if term == "g" {
				continue // the gate is tied back to the source by design
			}
			for _, n := range nl.Nets[nid].Declared {
				if tc.IsGround(lastComponent(n)) {
					issues = append(issues, Issue{
						Rule: "NET.DEPGND",
						Detail: fmt.Sprintf("depletion device %s terminal %q connects to ground",
							devName(dev, top), term),
						Where: nl.NetBounds(int(nid)),
					})
				}
			}
		}
	}
	sortIssues(issues)
	return issues
}

// fanoutDetail is the detail text of a net's NET.FANOUT issue, the key
// PatchConstruction finds that issue by.
func fanoutDetail(net *Net) string {
	return fmt.Sprintf("net %q has %d device terminal(s), need at least 2",
		net.Name, len(net.Terminals))
}

// PatchConstruction rewrites, in place, the ConstructionRules issues of
// the extraction a root patch started from so that they are inc's, and
// reports whether every moved item found its issue. Each patched item is
// the sole member of an anonymous net with no terminals (the patch's
// preconditions), so its one issue is the NET.FANOUT finding, keyed stably
// by (rule, detail): only the Where moves. Issue order is preserved
// (sortIssues keys on rule and detail, both unchanged).
func PatchConstruction(inc *IncExtraction, issues []Issue) bool {
	for _, gi := range inc.Patch.Items {
		f := inc.Root.ItemFootAt(gi)
		if f < 0 {
			return false
		}
		cl := inc.Root.ClassOf[f]
		detail := fanoutDetail(&inc.Netlist.Nets[cl])
		found := false
		for k := range issues {
			if issues[k].Rule == "NET.FANOUT" && issues[k].Detail == detail {
				issues[k].Where = inc.Netlist.NetBounds(cl)
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func devName(d *DeviceUse, top string) string {
	if d.Path == "" {
		return top
	}
	return d.Path
}

// lastComponent strips the dot-notation path from a qualified net name.
func lastComponent(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func isBusName(name string) bool {
	return len(name) >= 3 && strings.EqualFold(name[:3], "bus")
}

func sortIssues(issues []Issue) {
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Rule != issues[j].Rule {
			return issues[i].Rule < issues[j].Rule
		}
		return issues[i].Detail < issues[j].Detail
	})
}

// Reference is an expected netlist for consistency checking: declared net
// name to the multiset of expected device attachments, each written
// "deviceType:terminal".
type Reference map[string][]string

// Signature returns the sorted device attachments of a net, in the
// Reference's "deviceType:terminal" notation.
func (nl *Netlist) Signature(id NetID) []string {
	net := &nl.Nets[id]
	out := make([]string, 0, len(net.Terminals))
	for _, tr := range net.Terminals {
		out = append(out, nl.Devices[tr.Device].Info.Type+":"+tr.Terminal)
	}
	sort.Strings(out)
	return out
}

// Compare checks the extracted netlist against a reference: every
// referenced net must exist and carry exactly the expected attachments.
// This is the paper's "check the net list against an input net list for
// consistency".
func Compare(nl *Netlist, ref Reference) []Issue {
	var issues []Issue
	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := append([]string(nil), ref[name]...)
		sort.Strings(want)
		id, ok := nl.NetByName(name)
		if !ok {
			issues = append(issues, Issue{
				Rule:   "NET.MISSING",
				Detail: fmt.Sprintf("reference net %q not found in layout", name),
			})
			continue
		}
		got := nl.Signature(id)
		if !equalStrings(got, want) {
			issues = append(issues, Issue{
				Rule:   "NET.MISMATCH",
				Detail: fmt.Sprintf("net %q: layout has %v, reference wants %v", name, got, want),
				Where:  nl.NetBounds(int(id)),
			})
		}
	}
	return issues
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
