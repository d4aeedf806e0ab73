package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Fingerprint serializes everything in a Report that is a pure function of
// the design state — violations, netlist, and all statistics except
// wall-clock stage durations. Two runs over the same design state must
// produce equal fingerprints regardless of cache temperature, worker
// count, or which pipeline (Check or an Engine) produced them; the
// randomized incremental tests enforce exactly that, byte for byte. It is
// the readable form; FingerprintDigest hashes the same bytes without
// building the text.
func Fingerprint(rep *Report) string {
	var b strings.Builder
	writeFingerprint(&b, rep)
	return b.String()
}

// FingerprintDigest is the sha256 hex form of Fingerprint — small enough
// to embed in wire reports and logs, with the same guarantee: equal
// digests mean the duration-free report content is byte-identical. The
// check service stamps every report with it so clients can assert parity
// against an offline Recheck of the same edit script. The text is streamed
// into the hash chunk by chunk and never held whole, so the cost in
// allocations does not grow with the netlist.
func FingerprintDigest(rep *Report) string {
	h := sha256.New()
	writeFingerprint(h, rep)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// fpChunk is the serializer's buffer size: large enough that the sink
// sees few writes, small enough to stay a cheap per-call allocation.
const fpChunk = 8 << 10

// fpWriter appends the fingerprint format into one fixed-size chunk and
// hands each full chunk to the sink (a hash.Hash or a strings.Builder,
// neither of which can fail a Write). The forms it writes are the ones
// fmt produces for the report's types under %d, %s, %q and %v: the format
// is pinned against a fmt-based oracle in fingerprint_test.go.
type fpWriter struct {
	sink io.Writer
	buf  []byte // len ≤ cap == fpChunk
}

func (w *fpWriter) flush() {
	w.sink.Write(w.buf)
	w.buf = w.buf[:0]
}

// str appends s verbatim, flushing as the chunk fills.
func (w *fpWriter) str(s string) {
	for len(s) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

// int appends label then v in decimal.
func (w *fpWriter) int(label string, v int64) {
	w.str(label)
	if cap(w.buf)-len(w.buf) < 20 { // len("-9223372036854775808")
		w.flush()
	}
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// quote appends label then s as %q would. Plain printable ASCII without
// quote or backslash — nearly every name, path and type — is its own
// quoted form; anything else goes through strconv, into the emptied chunk
// when the result fits and into a temporary when it does not.
func (w *fpWriter) quote(label, s string) {
	w.str(label)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			w.flush()
			w.sink.Write(strconv.AppendQuote(w.buf, s))
			return
		}
	}
	w.str(`"`)
	w.str(s)
	w.str(`"`)
}

// rect appends label then geom.Rect's String form, [x1,y1 x2,y2].
func (w *fpWriter) rect(label string, r geom.Rect) {
	w.str(label)
	w.int("[", r.X1)
	w.int(",", r.Y1)
	w.int(" ", r.X2)
	w.int(",", r.Y2)
	w.str("]")
}

// strs appends label then a string slice as %v would: [a b], elements
// verbatim.
func (w *fpWriter) strs(label string, ss []string) {
	w.str(label)
	w.str("[")
	for i, s := range ss {
		if i > 0 {
			w.str(" ")
		}
		w.str(s)
	}
	w.str("]")
}

// writeFingerprint streams the fingerprint of rep into sink. Each call
// below is one verb of the format: label, then the value in fmt's form.
func writeFingerprint(sink io.Writer, rep *Report) {
	w := fpWriter{sink: sink, buf: make([]byte, 0, fpChunk)}
	w.quote("design ", rep.Design.Name)

	w.int("\nviolations ", int64(len(rep.Violations)))
	w.str("\n")
	for i := range rep.Violations {
		v := &rep.Violations[i]
		w.str("  ")
		w.str(v.Rule)
		w.int(" sev=", int64(v.Severity))
		w.rect(" where=", v.Where)
		w.quote(" sym=", v.Symbol)
		w.quote(" path=", v.Path)
		w.int(" layer=", int64(v.Layer))
		w.strs(" nets=", v.Nets)
		w.quote(" detail=", v.Detail)
		w.str("\n")
	}

	st := &rep.Stats
	w.int("stats elems=", int64(st.ElementsChecked))
	w.int(" symdefs=", int64(st.SymbolDefsChecked))
	w.int(" devinst=", int64(st.DeviceInstances))
	w.int(" cand=", int64(st.InteractionCandidates))
	w.int(" checked=", int64(st.InteractionChecked))
	w.int(" norule=", int64(st.SkippedNoRule))
	w.int(" samenet=", int64(st.SkippedSameNetExempt))
	w.int(" related=", int64(st.SkippedRelated))
	w.int(" conn=", int64(st.SkippedConnectionPairs))
	w.int(" downgrades=", int64(st.ProcessDowngrades))
	w.str("\n")
	for _, s := range st.Stages {
		w.quote("stage ", s.Name)
		w.int(" checks=", int64(s.Checks))
		w.int(" violations=", int64(s.Violations))
		w.str("\n")
	}

	if nl := rep.Netlist; nl != nil {
		w.int("netlist nets=", int64(len(nl.Nets)))
		w.int(" devices=", int64(len(nl.Devices)))
		w.str("\n")
		for i := range nl.Nets {
			n := &nl.Nets[i]
			w.int("  net ", int64(n.ID))
			w.quote(" ", n.Name)
			w.strs(" declared=", n.Declared)
			w.int(" elements=", int64(n.Elements))
			w.rect(" bounds=", n.Bounds)
			w.str(" terms=[") // %v of []netlist.TermRef: [{3 gate} {4 source}]
			for ti := range n.Terminals {
				if ti > 0 {
					w.str(" ")
				}
				w.int("{", int64(n.Terminals[ti].Device))
				w.str(" ")
				w.str(n.Terminals[ti].Terminal)
				w.str("}")
			}
			w.str("]\n")
		}
		for i := range nl.Devices {
			d := &nl.Devices[i]
			w.int("  dev ", int64(i))
			w.quote(" path=", d.Path)
			w.quote(" type=", d.Type)
			w.quote(" class=", d.Class)
			w.str(" t=") // geom.Transform's String form, R0+(x,y)
			w.str(d.T.Orient.String())
			w.int("+(", d.T.Trans.X)
			w.int(",", d.T.Trans.Y)
			w.str(")")
			for ti := range d.TerminalNets {
				w.str(" ")
				w.str(d.TerminalNets[ti].Name)
				w.int("=", int64(d.TerminalNets[ti].Net))
			}
			w.str("\n")
		}
	}
	w.flush()
}
