package cif

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Write renders a design as extended CIF text. Symbols are numbered by
// definition id in topological order (callees first) so the output never
// forward-references. The top symbol is defined last, which is how Parse
// recognises it, except the one Parse synthesizes from top-level content
// (named "(top)", which no 9 command can spell): its content is written
// at top level again. The output round-trips through Parse.
func Write(d *layout.Design, tc *tech.Technology) (string, error) {
	if d.Top == nil {
		return "", fmt.Errorf("cif: design %q has no top symbol", d.Name)
	}
	if err := d.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	// The design's name is a top-level 9 command only when Parse reads it
	// back unchanged; otherwise Parse keeps the name its caller passes.
	if layout.IsName(d.Name) {
		fmt.Fprintf(&sb, "9 %s;\n", d.Name)
	}

	order := d.SortedSymbols()
	num := make(map[*layout.Symbol]int, len(order))
	for i, s := range order {
		num[s] = i + 1
	}
	topLevel := d.Top.Name == topName && !d.Top.IsPrimitive() && (len(d.Top.Elements) > 0 || len(d.Top.Calls) > 0)
	for _, s := range order {
		if topLevel && s == d.Top {
			continue
		}
		fmt.Fprintf(&sb, "DS %d 1 1;\n", num[s])
		fmt.Fprintf(&sb, "9 %s;\n", sanitizeName(s.Name))
		if s.DeviceType != "" {
			if s.Checked {
				fmt.Fprintf(&sb, "9D %s CHK;\n", s.DeviceType)
			} else {
				fmt.Fprintf(&sb, "9D %s;\n", s.DeviceType)
			}
		}
		if err := writeBody(&sb, s, num, tc); err != nil {
			return "", err
		}
		sb.WriteString("DF;\n")
	}
	if topLevel {
		if err := writeBody(&sb, d.Top, num, tc); err != nil {
			return "", err
		}
	}
	sb.WriteString("E\n")
	return sb.String(), nil
}

// writeBody writes a symbol's elements, then its calls.
func writeBody(sb *strings.Builder, s *layout.Symbol, num map[*layout.Symbol]int, tc *tech.Technology) error {
	if err := writeElements(sb, s, tc); err != nil {
		return err
	}
	for _, c := range s.Calls {
		if c.Name != "" {
			fmt.Fprintf(sb, "9I %s;\n", sanitizeName(c.Name))
		}
		fmt.Fprintf(sb, "C %d%s;\n", num[c.Target], transformItems(c.T))
	}
	return nil
}

func writeElements(sb *strings.Builder, s *layout.Symbol, tc *tech.Technology) error {
	cur := tech.NoLayer
	for _, e := range s.Elements {
		if e.Layer != cur {
			fmt.Fprintf(sb, "L %s;\n", tc.Layer(e.Layer).CIF)
			cur = e.Layer
		}
		if e.Net != "" {
			fmt.Fprintf(sb, "9N %s;\n", sanitizeName(e.Net))
		}
		switch e.Kind {
		case layout.KindBox:
			w, h := e.Box.W(), e.Box.H()
			cx, cy := e.Box.X1+w/2, e.Box.Y1+h/2
			// Centers of odd-extent boxes are not on the lattice; CIF centers
			// are integers, so odd boxes are written as 4-point polygons.
			if (e.Box.X1+e.Box.X2)%2 != 0 || (e.Box.Y1+e.Box.Y2)%2 != 0 {
				fmt.Fprintf(sb, "P %d %d %d %d %d %d %d %d;\n",
					e.Box.X1, e.Box.Y1, e.Box.X2, e.Box.Y1,
					e.Box.X2, e.Box.Y2, e.Box.X1, e.Box.Y2)
				continue
			}
			fmt.Fprintf(sb, "B %d %d %d %d;\n", w, h, cx, cy)
		case layout.KindWire:
			fmt.Fprintf(sb, "W %d", e.Width)
			for _, p := range e.Path {
				fmt.Fprintf(sb, " %d %d", p.X, p.Y)
			}
			sb.WriteString(";\n")
		case layout.KindPolygon:
			sb.WriteString("P")
			for _, p := range e.Poly {
				fmt.Fprintf(sb, " %d %d", p.X, p.Y)
			}
			sb.WriteString(";\n")
		default:
			return fmt.Errorf("cif: cannot write element kind %v", e.Kind)
		}
	}
	return nil
}

// transformItems renders a Manhattan transform as CIF transform items
// (leading space included when non-empty).
func transformItems(t geom.Transform) string {
	var sb strings.Builder
	if t.Orient >= geom.MX {
		sb.WriteString(" M Y") // our MX base mirror negates y
	}
	switch t.Orient & 3 {
	case 1:
		sb.WriteString(" R 0 1")
	case 2:
		sb.WriteString(" R -1 0")
	case 3:
		sb.WriteString(" R 0 -1")
	}
	if t.Trans != (geom.Point{}) {
		fmt.Fprintf(&sb, " T %d %d", t.Trans.X, t.Trans.Y)
	}
	return sb.String()
}

// sanitizeName makes a name safe for the single-token extension commands.
func sanitizeName(n string) string {
	if n == "" {
		return "unnamed"
	}
	var sb strings.Builder
	for _, r := range n {
		if r < utf8.RuneSelf && layout.IsNameByte(byte(r)) {
			sb.WriteRune(r)
		} else {
			sb.WriteRune('_')
		}
	}
	return sb.String()
}
