package tech

import (
	"fmt"
	"sort"

	"repro/internal/deck"
)

// LoadDeck parses deck text and builds its technology with FromDeck.
func LoadDeck(src string, classes []string) (*Technology, error) {
	d, err := deck.Parse(src)
	if err != nil {
		return nil, err
	}
	t, _, err := FromDeck(d, classes)
	return t, err
}

// FromDeck builds the technology a parsed deck describes; it is the only
// constructor. The deck is validated once, against this package's role
// vocabulary and the caller's device classes (device.Classes(); nil skips
// the class check — the deck and tech packages must not depend on the
// checker's class registry), and every problem found is returned, warnings
// included. An error-severity problem refuses the deck. The rules then go
// straight from the deck rows into the dense tables.
func FromDeck(d *deck.Deck, classes []string) (*Technology, []deck.Problem, error) {
	probs := deck.Validate(d, deck.Options{
		KnownClasses:  classes,
		KnownRoles:    Roles(),
		KnownUseRoles: UseRoles(),
	})
	if errs := deck.Errors(probs); len(errs) > 0 {
		return nil, probs, fmt.Errorf("%v (%d problems total)", errs[0], len(probs))
	}
	n := len(d.Layers)
	t := &Technology{
		Name:      d.Name,
		Lambda:    d.Lambda,
		layers:    make([]Layer, n),
		byName:    make(map[string]LayerID, n),
		byCIF:     make(map[string]LayerID, n),
		devices:   make(map[string]DeviceSpec, len(d.Devices)),
		power:     append([]string(nil), d.PowerNets...),
		ground:    append([]string(nil), d.GroundNets...),
		rules:     make([]SpacingRule, n*n),
		interacts: make([]uint64, n),
		polyID:    NoLayer, isoID: NoLayer, cutID: NoLayer,
		isDiff:   make([]bool, n),
		widthMin: make([]int64, n),
		areaMin:  make([]int64, n),
	}
	mark := func(a, b LayerID) {
		t.interacts[a] |= 1 << b
		t.interacts[b] |= 1 << a
	}
	for i := range d.Layers {
		l, id := &d.Layers[i], LayerID(i)
		t.layers[i] = Layer{ID: id, Name: l.Name, CIF: l.CIF, Role: l.Role, MinWidth: l.Width, MinSpace: l.Space}
		t.byName[l.Name], t.byCIF[l.CIF] = id, id
		switch l.Role {
		case RolePoly:
			t.polyID = id
		case RoleDiffusion:
			t.isDiff[id], t.anyDiff = true, true
		case RoleIsolation:
			t.isoID = id
		case RoleContact:
			t.cutID = id
		}
	}
	for i := range d.Spaces {
		s := &d.Spaces[i]
		a, b := t.byName[s.A], t.byName[s.B]
		r := SpacingRule{DiffNet: s.DiffNet, SameNet: s.SameNet, ExemptRelated: s.ExemptRelated, Note: s.Note}
		t.rules[int(a)*n+int(b)], t.rules[int(b)*n+int(a)] = r, r
		t.maxSpacing = max(t.maxSpacing, r.DiffNet, r.SameNet)
		if r.DiffNet > 0 || r.SameNet > 0 {
			mark(a, b)
		}
	}
	// The accidental-transistor rule (Figure 8) adjudicates poly over any
	// diffusion whether or not the pair carries a spacing cell, so those
	// pairs must survive the pre-bucketing interaction filter.
	if t.polyID != NoLayer {
		for l, diff := range t.isDiff {
			if diff {
				mark(t.polyID, LayerID(l))
			}
		}
	}
	for i := range d.Widths {
		if w := &d.Widths[i]; w.Min > 0 {
			t.widthMin[t.byName[w.Layer]] = w.Min
			t.hasLayerRules = true
		}
	}
	for i := range d.Areas {
		if a := &d.Areas[i]; a.MinArea > 0 {
			t.areaMin[t.byName[a.Layer]] = a.MinArea
			t.hasLayerRules = true
		}
	}
	for i := range d.Crosses {
		if cr := &d.Crosses[i]; cr.Margin > 0 {
			t.crosses = append(t.crosses, Cross{Kind: crossKindOf(cr.Kind), A: t.byName[cr.A], B: t.byName[cr.B], Margin: cr.Margin})
			t.hasLayerRules = true
		}
	}
	sort.Slice(t.crosses, func(i, j int) bool {
		a, b := t.crosses[i], t.crosses[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	for i := range d.Devices {
		dev := &d.Devices[i]
		spec := DeviceSpec{Class: dev.Class, Describe: dev.Describe, Depletion: dev.Depletion}
		if len(dev.Params) > 0 {
			spec.Params = make(map[string]int64, len(dev.Params))
			for _, p := range dev.Params {
				spec.Params[p.Key] = p.Value
			}
		}
		if len(dev.Uses) > 0 {
			spec.Layers = make(map[string]string, len(dev.Uses))
			for _, u := range dev.Uses {
				spec.Layers[u.Role] = u.Layer
			}
		}
		t.devices[dev.Type] = spec
	}
	return t, probs, nil
}

// crossKindOf maps a deck cross-rule keyword to its CrossKind; the parser
// only produces the three known keywords.
func crossKindOf(kw string) CrossKind {
	switch kw {
	case deck.KindOverlap:
		return CrossOverlap
	case deck.KindExtend:
		return CrossExtend
	}
	return CrossEnclose
}
