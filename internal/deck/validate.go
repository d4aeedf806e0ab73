package deck

import "fmt"

// Options parameterizes validation with knowledge the deck package itself
// must not depend on: the checker's device-class registry and the layer
// roles the technology loader understands. Nil sets skip those checks.
type Options struct {
	// KnownClasses are the device classes the checker can analyze
	// (device.Classes()); unknown classes are errors when set.
	KnownClasses []string
	// KnownRoles are the layer roles the technology loader consumes
	// (tech.Roles()); unknown roles are warnings when set.
	KnownRoles []string
	// KnownUseRoles are the roles device "use" bindings may name
	// (tech.UseRoles()); defaults to KnownRoles when nil.
	KnownUseRoles []string
}

// MaxLayers is the largest layer count a deck may declare — a format
// sanity cap well under the technology's uint8 layer-id space.
const MaxLayers = 64

// Validate checks cross-statement consistency: duplicate or conflicting
// declarations, dangling layer references, unknown classes and roles, and
// the audit-note discipline (a cell that checks nothing must say why).
// All problems are reported, errors first only by construction of severity
// — the slice preserves statement order.
func Validate(d *Deck, opts Options) []Problem {
	var probs []Problem
	errf := func(line int, format string, args ...any) {
		probs = append(probs, Problem{Severity: Error, Line: line, Detail: fmt.Sprintf(format, args...)})
	}
	warnf := func(line int, format string, args ...any) {
		probs = append(probs, Problem{Severity: Warning, Line: line, Detail: fmt.Sprintf(format, args...)})
	}

	if d.Name == "" {
		errf(0, "deck has no technology name")
	}
	if len(d.Layers) == 0 {
		errf(0, "deck declares no layers")
	}
	if len(d.Layers) > MaxLayers {
		errf(0, "deck declares %d layers; at most %d are supported", len(d.Layers), MaxLayers)
	}

	roles := map[string]bool{}
	for _, r := range opts.KnownRoles {
		roles[r] = true
	}
	layerNames := map[string]int{}
	cifNames := map[string]int{}
	for i := range d.Layers {
		l := &d.Layers[i]
		if prev, dup := layerNames[l.Name]; dup {
			errf(l.Line, "duplicate layer %q (first declared on line %d)", l.Name, prev)
		} else {
			layerNames[l.Name] = l.Line
		}
		if prev, dup := cifNames[l.CIF]; dup {
			errf(l.Line, "duplicate CIF code %q (first declared on line %d)", l.CIF, prev)
		} else {
			cifNames[l.CIF] = l.Line
		}
		if l.Role != "" && len(roles) > 0 && !roles[l.Role] {
			warnf(l.Line, "layer %q has unknown role %q (known: %v)", l.Name, l.Role, opts.KnownRoles)
		}
		// Device-dependent rules attach to roles, not names: a layer named
		// like a role but left untagged silently opts out of them (no
		// accidental-transistor or keepout checks), which is almost never
		// what the deck author meant.
		if l.Role == "" && roles[l.Name] {
			warnf(l.Line, "layer %q carries no role; device-dependent rules bind to roles, not names — did you mean role=%s?",
				l.Name, l.Name)
		}
	}

	// Interaction cells: every unordered pair at most once, and a silent
	// cell must carry its audit note. Declaring "space A B" and "space B A"
	// is the asymmetric-cell mistake: the matrix is unordered, so the second
	// statement would silently clobber the first.
	cells := map[[2]string]int{}
	for i := range d.Spaces {
		s := &d.Spaces[i]
		for _, name := range []string{s.A, s.B} {
			if _, ok := layerNames[name]; !ok {
				errf(s.Line, "space cell references unknown layer %q", name)
			}
		}
		key := [2]string{s.A, s.B}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if prev, dup := cells[key]; dup {
			errf(s.Line, "asymmetric or duplicate cell %s-%s (the pair is unordered; first declared on line %d)",
				s.A, s.B, prev)
		} else {
			cells[key] = s.Line
		}
		if s.DiffNet == 0 && s.SameNet == 0 && s.Note == "" {
			warnf(s.Line, "cell %s-%s checks nothing and has no audit note explaining why", s.A, s.B)
		}
	}

	// Geometric rule statements: referenced layers must exist and carry a
	// role. A role-less layer bears no geometry semantics the loader
	// understands, so a width/area/enclose/overlap/extend rule on one is
	// almost certainly a typo'd layer name — reject it outright.
	ruleLayer := func(line int, stmt, name string) {
		l, ok := d.LayerByName(name)
		if !ok {
			errf(line, "%s rule references unknown layer %q", stmt, name)
			return
		}
		if l.Role == "" {
			errf(line, "%s rule on layer %q, which has no geometry-bearing role", stmt, name)
		}
	}
	widthSeen := map[string]int{}
	for i := range d.Widths {
		w := &d.Widths[i]
		ruleLayer(w.Line, "width", w.Layer)
		if prev, dup := widthSeen[w.Layer]; dup {
			errf(w.Line, "duplicate width rule for layer %q (first declared on line %d)", w.Layer, prev)
		} else {
			widthSeen[w.Layer] = w.Line
		}
	}
	areaSeen := map[string]int{}
	for i := range d.Areas {
		a := &d.Areas[i]
		ruleLayer(a.Line, "area", a.Layer)
		if prev, dup := areaSeen[a.Layer]; dup {
			errf(a.Line, "duplicate area rule for layer %q (first declared on line %d)", a.Layer, prev)
		} else {
			areaSeen[a.Layer] = a.Line
		}
	}
	crossSeen := map[[3]string]int{}
	for i := range d.Crosses {
		cr := &d.Crosses[i]
		ruleLayer(cr.Line, cr.Kind, cr.A)
		ruleLayer(cr.Line, cr.Kind, cr.B)
		if cr.A == cr.B {
			errf(cr.Line, "%s rule names layer %q twice; cross-layer rules relate two distinct layers", cr.Kind, cr.A)
		}
		key := [3]string{cr.Kind, cr.A, cr.B}
		if prev, dup := crossSeen[key]; dup {
			errf(cr.Line, "duplicate %s rule %s-%s (first declared on line %d)", cr.Kind, cr.A, cr.B, prev)
		} else {
			crossSeen[key] = cr.Line
		}
	}

	useRoles := roles
	if len(opts.KnownUseRoles) > 0 {
		useRoles = map[string]bool{}
		for _, r := range opts.KnownUseRoles {
			useRoles[r] = true
		}
	}
	classes := map[string]bool{}
	for _, c := range opts.KnownClasses {
		classes[c] = true
	}
	devTypes := map[string]int{}
	for i := range d.Devices {
		dev := &d.Devices[i]
		if prev, dup := devTypes[dev.Type]; dup {
			errf(dev.Line, "duplicate device type %q (first declared on line %d)", dev.Type, prev)
		} else {
			devTypes[dev.Type] = dev.Line
		}
		if len(classes) > 0 && !classes[dev.Class] {
			errf(dev.Line, "device %q has unknown class %q (known: %v)", dev.Type, dev.Class, opts.KnownClasses)
		}
		seenParam := map[string]bool{}
		for _, p := range dev.Params {
			if seenParam[p.Key] {
				errf(dev.Line, "device %q repeats param %q", dev.Type, p.Key)
			}
			seenParam[p.Key] = true
		}
		seenUse := map[string]bool{}
		for _, u := range dev.Uses {
			if seenUse[u.Role] {
				errf(dev.Line, "device %q repeats use role %q", dev.Type, u.Role)
			}
			seenUse[u.Role] = true
			if _, ok := layerNames[u.Layer]; !ok {
				errf(dev.Line, "device %q binds role %q to unknown layer %q", dev.Type, u.Role, u.Layer)
			}
			if len(useRoles) > 0 && !useRoles[u.Role] {
				warnf(dev.Line, "device %q uses unknown role %q", dev.Type, u.Role)
			}
		}
	}

	// Audit-note discipline, extended to whole layers: a layer that ends up
	// with zero rules of any class — no per-element width/space attribute,
	// no interaction cell that checks anything, no geometric rule, and no
	// device binding — is dead weight in the deck and deserves a look.
	ruled := map[string]bool{}
	for i := range d.Layers {
		if l := &d.Layers[i]; l.Width > 0 || l.Space > 0 {
			ruled[l.Name] = true
		}
	}
	for i := range d.Spaces {
		if s := &d.Spaces[i]; s.DiffNet > 0 || s.SameNet > 0 {
			ruled[s.A], ruled[s.B] = true, true
		}
	}
	for i := range d.Widths {
		ruled[d.Widths[i].Layer] = true
	}
	for i := range d.Areas {
		ruled[d.Areas[i].Layer] = true
	}
	for i := range d.Crosses {
		ruled[d.Crosses[i].A], ruled[d.Crosses[i].B] = true, true
	}
	for i := range d.Devices {
		for _, u := range d.Devices[i].Uses {
			ruled[u.Layer] = true
		}
	}
	for i := range d.Layers {
		if l := &d.Layers[i]; !ruled[l.Name] {
			warnf(l.Line, "layer %q has zero rules of any class; give it a rule or document why it is unchecked", l.Name)
		}
	}

	seenRail := map[string]bool{}
	for _, kind := range []struct {
		nets []string
		what string
	}{{d.PowerNets, "power"}, {d.GroundNets, "ground"}} {
		for _, n := range kind.nets {
			if seenRail[n] {
				errf(0, "rail net %q declared more than once", n)
			}
			seenRail[n] = true
		}
	}
	return probs
}
