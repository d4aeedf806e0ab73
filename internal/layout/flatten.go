package layout

import (
	"fmt"

	"repro/internal/geom"
)

// FlatElement is a fully instantiated element: the element definition, the
// composed transform placing it in chip coordinates, and the hierarchical
// instance path (dot notation, e.g. "row3.bit7") it came from. The
// traditional baseline checker discards everything but layer and geometry —
// exactly the information loss the paper blames for false and unchecked
// errors — but the flattener preserves path and symbol so experiments can
// compare fairly.
type FlatElement struct {
	Elem   *Element
	T      geom.Transform
	Path   string  // "" for top-level elements
	Symbol *Symbol // defining symbol
}

// Bounds returns the instantiated bounding box.
func (f FlatElement) Bounds() geom.Rect {
	return f.T.ApplyRect(f.Elem.Bounds())
}

// Region materializes the instantiated geometry.
func (f FlatElement) Region() (geom.Region, error) {
	r, err := f.Elem.Region()
	if err != nil {
		return geom.Region{}, err
	}
	return r.TransformBy(f.T), nil
}

// Flatten fully instantiates the design from the top symbol. This is the
// operation the paper's checker avoids; it exists for the traditional
// baseline and for experiment ground truth. The element order is
// deterministic (pre-order traversal).
func (d *Design) Flatten() ([]FlatElement, error) {
	if d.Top == nil {
		return nil, fmt.Errorf("layout: design %q has no top symbol", d.Name)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var out []FlatElement
	var walk func(s *Symbol, t geom.Transform, path string)
	walk = func(s *Symbol, t geom.Transform, path string) {
		for _, e := range s.Elements {
			out = append(out, FlatElement{Elem: e, T: t, Path: path, Symbol: s})
		}
		for _, c := range s.Calls {
			sub := path
			if sub == "" {
				sub = c.Name
			} else {
				sub = sub + "." + c.Name
			}
			walk(c.Target, c.T.Compose(t), sub)
		}
	}
	walk(d.Top, geom.Identity, "")
	return out, nil
}

// FlatLayerRegions unions the fully instantiated geometry per layer — the
// "mask geometry, in its fully instantiated form" that traditional
// checkers operate on.
func (d *Design) FlatLayerRegions(numLayers int) ([]geom.Region, error) {
	flat, err := d.Flatten()
	if err != nil {
		return nil, err
	}
	rects := make([][]geom.Rect, numLayers)
	regions := make([]geom.Region, numLayers)
	for _, fe := range flat {
		if int(fe.Elem.Layer) >= numLayers {
			return nil, fmt.Errorf("layout: element layer %d out of range", fe.Elem.Layer)
		}
		switch fe.Elem.Kind {
		case KindBox:
			rects[fe.Elem.Layer] = append(rects[fe.Elem.Layer], fe.T.ApplyRect(fe.Elem.Box))
		default:
			// Polygons decompose into canonical rects and join the same
			// per-layer batch: one sweep per layer unions everything.
			r, err := fe.Region()
			if err != nil {
				return nil, fmt.Errorf("layout: element %d of %q: %w", fe.Elem.Index, fe.Symbol.Name, err)
			}
			rects[fe.Elem.Layer] = append(rects[fe.Elem.Layer], r.Rects()...)
		}
	}
	for l := range regions {
		regions[l] = geom.FromRects(rects[l])
	}
	return regions, nil
}
