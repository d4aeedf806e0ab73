package deck

import (
	"fmt"
	"strings"
)

// Write renders a deck in canonical text form: statements in section order
// (tech, layers, spaces, widths, areas, cross rules, devices, rails),
// dimensions as λ-expressions
// whenever they are whole or half multiples of lambda, and notes quoted.
// Write∘Parse is idempotent: parsing the output reproduces the same Deck,
// and writing it again reproduces the same text — the round-trip property
// the deck tests and fuzzer lock.
func Write(d *Deck) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tech %s", name(d.Name))
	if d.Lambda > 0 {
		fmt.Fprintf(&b, " lambda=%d", d.Lambda)
	}
	b.WriteByte('\n')

	if len(d.Layers) > 0 {
		b.WriteByte('\n')
	}
	for i := range d.Layers {
		l := &d.Layers[i]
		fmt.Fprintf(&b, "layer %s cif=%s", name(l.Name), val(l.CIF))
		if l.Role != "" {
			fmt.Fprintf(&b, " role=%s", val(l.Role))
		}
		if l.Width > 0 {
			fmt.Fprintf(&b, " width=%s", d.dim(l.Width))
		}
		if l.Space > 0 {
			fmt.Fprintf(&b, " space=%s", d.dim(l.Space))
		}
		b.WriteByte('\n')
	}

	if len(d.Spaces) > 0 {
		b.WriteByte('\n')
	}
	for i := range d.Spaces {
		s := &d.Spaces[i]
		fmt.Fprintf(&b, "space %s %s", name(s.A), name(s.B))
		if s.DiffNet > 0 {
			fmt.Fprintf(&b, " diff=%s", d.dim(s.DiffNet))
		}
		if s.SameNet > 0 {
			fmt.Fprintf(&b, " same=%s", d.dim(s.SameNet))
		}
		if s.ExemptRelated {
			b.WriteString(" exempt-related")
		}
		if s.Note != "" {
			fmt.Fprintf(&b, " note=%s", quote(s.Note))
		}
		b.WriteByte('\n')
	}

	if len(d.Widths) > 0 {
		b.WriteByte('\n')
	}
	for i := range d.Widths {
		w := &d.Widths[i]
		fmt.Fprintf(&b, "width %s %s", name(w.Layer), d.dim(w.Min))
		if w.Note != "" {
			fmt.Fprintf(&b, " note=%s", quote(w.Note))
		}
		b.WriteByte('\n')
	}

	if len(d.Areas) > 0 {
		b.WriteByte('\n')
	}
	for i := range d.Areas {
		ar := &d.Areas[i]
		fmt.Fprintf(&b, "area %s %s", name(ar.Layer), d.dimArea(ar.MinArea))
		if ar.Note != "" {
			fmt.Fprintf(&b, " note=%s", quote(ar.Note))
		}
		b.WriteByte('\n')
	}

	if len(d.Crosses) > 0 {
		b.WriteByte('\n')
	}
	for i := range d.Crosses {
		cr := &d.Crosses[i]
		fmt.Fprintf(&b, "%s %s %s %s", cr.Kind, name(cr.A), name(cr.B), d.dim(cr.Margin))
		if cr.Note != "" {
			fmt.Fprintf(&b, " note=%s", quote(cr.Note))
		}
		b.WriteByte('\n')
	}

	for i := range d.Devices {
		dev := &d.Devices[i]
		b.WriteByte('\n')
		fmt.Fprintf(&b, "device %s class=%s", name(dev.Type), val(dev.Class))
		if dev.Depletion {
			b.WriteString(" depletion")
		}
		if dev.Describe != "" {
			fmt.Fprintf(&b, " describe=%s", quote(dev.Describe))
		}
		b.WriteByte('\n')
		for _, u := range dev.Uses {
			fmt.Fprintf(&b, "  use %s=%s\n", u.Role, val(u.Layer))
		}
		for _, p := range dev.Params {
			fmt.Fprintf(&b, "  param %s=%s\n", p.Key, d.dim(p.Value))
		}
	}

	if len(d.PowerNets) > 0 || len(d.GroundNets) > 0 {
		b.WriteByte('\n')
	}
	if len(d.PowerNets) > 0 {
		fmt.Fprintf(&b, "rail power %s\n", names(d.PowerNets))
	}
	if len(d.GroundNets) > 0 {
		fmt.Fprintf(&b, "rail ground %s\n", names(d.GroundNets))
	}
	return b.String()
}

// dim renders a dimension canonically: "<n>L" or "<n>.5L" when it is a
// whole or half multiple of lambda, the raw centimicron integer otherwise.
func (d *Deck) dim(v int64) string {
	if d.Lambda > 0 && v > 0 {
		if v%d.Lambda == 0 {
			return fmt.Sprintf("%dL", v/d.Lambda)
		}
		if d.Lambda%2 == 0 && v%(d.Lambda/2) == 0 {
			return fmt.Sprintf("%d.5L", v/d.Lambda)
		}
	}
	return fmt.Sprintf("%d", v)
}

// dimArea renders an area dimension canonically: "<n>L" when it is a
// whole multiple of λ² (and λ² itself is representable), the raw
// square-centimicron integer otherwise.
func (d *Deck) dimArea(v int64) string {
	if d.Lambda > 0 && v > 0 && d.Lambda <= MaxDim/d.Lambda {
		if sq := d.Lambda * d.Lambda; v%sq == 0 {
			return fmt.Sprintf("%dL", v/sq)
		}
	}
	return fmt.Sprintf("%d", v)
}

// sanitize drops the characters the format cannot represent in any
// position: the quote delimiter itself, newlines (a statement runs to end
// of line), and carriage returns (whitespace outside quotes). Strings
// produced by the parser never contain '"' or '\n'; strings in a Deck
// built by Go code (a generator of random decks, say) are clipped so the
// written deck always reparses. Sanitizing happens before the quoting
// decision, keeping the writer idempotent.
func sanitize(s string) string {
	if !strings.ContainsAny(s, "\"\n\r") {
		return s
	}
	return strings.Map(func(r rune) rune {
		if r == '"' || r == '\n' || r == '\r' {
			return -1
		}
		return r
	}, s)
}

// quote wraps a string in raw double quotes (the format has no escape
// sequences — a quoted span simply runs to the next '"').
func quote(s string) string { return `"` + sanitize(s) + `"` }

// name renders a bare-position token (a layer or device name), quoting it
// when the bare form would not re-tokenize to the same text.
func name(s string) string {
	if t := sanitize(s); t == "" || strings.ContainsAny(t, " \t#=") {
		return quote(t)
	} else {
		return t
	}
}

// val renders an attribute value, quoting when it contains separators.
// ('=' needs no quote: key=value splits at the first '=' only.)
func val(s string) string {
	if t := sanitize(s); strings.ContainsAny(t, " \t#") {
		return quote(t)
	} else {
		return t
	}
}

// names renders a rail net list.
func names(ns []string) string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = name(n)
	}
	return strings.Join(out, " ")
}
