package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/geom"
	"repro/internal/netlist"
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
// allocations does not grow with the netlist. The device section — most of
// a netlist's text — is rendered once per device array, when a second
// netlist carrying that array is digested, and hashed from the memo
// (netlist.Netlist.DeviceText) by every later digest of either: every
// window-patched successor of a session's run shares its predecessor's
// array. A netlist digested on its own, however often, streams.
func FingerprintDigest(rep *Report) string {
	h := sha256.New()
	writeFingerprint(h, rep)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// deviceSections counts device sections rendered for a netlist's memo.
// Nothing in production reads it: it is how the tests pin "once per device
// array".
var deviceSections atomic.Int64

// deviceSection renders the device lines of the fingerprint: the bytes the
// netlist's DeviceText memo keeps. A counting pass sizes them first, so
// the memo costs its own length in allocation and nothing more.
func deviceSection(devs []netlist.DeviceUse) []byte {
	deviceSections.Add(1)
	var n byteCount
	writeDevices(&n, devs)
	text := bytes.NewBuffer(make([]byte, 0, int(n)))
	writeDevices(text, devs)
	return text.Bytes()
}

// writeDevices streams the device lines of devs into sink.
func writeDevices(sink io.Writer, devs []netlist.DeviceUse) {
	w := fpWriter{sink: sink}
	c := fpChunks.Get().(*[fpChunk]byte)
	b := c[:0]
	for i := range devs {
		b = w.device(b, i, &devs[i])
	}
	sink.Write(b)
	fpChunks.Put(c)
}

// byteCount is a sink that only counts what it is handed.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// fpChunk is the serializer's buffer size: large enough that the sink
// sees few writes. fpChunks recycles the chunks, so a session's digest per
// engine run allocates none.
const fpChunk = 8 << 10

var fpChunks = sync.Pool{New: func() any { return new([fpChunk]byte) }}

// fixedMax bounds any stretch of a record that holds no string — labels,
// separators, ints of at most 20 bytes (len("-9223372036854775808")) — the
// longest being the stats line's ten ints, 290 bytes. A record reserves it
// once, up front; each string the record carries is then measured once, by
// its length, against the room left (quote, str), and the rest is appended
// with no check at all.
const fixedMax = 320

// fpWriter appends the fingerprint format record by record into one
// fixed-size chunk and hands each full chunk to the sink (a hash.Hash, a
// strings.Builder or a bytes.Buffer, none of which can fail a Write). The
// chunk is threaded through as b and never outgrows its capacity. The
// forms written are the ones fmt produces for the report's types under %d,
// %s, %q and %v: the format is pinned against a fmt-based oracle in
// fingerprint_test.go.
type fpWriter struct {
	sink io.Writer
}

// flushed hands b to the sink and returns it emptied.
func (w fpWriter) flushed(b []byte) []byte {
	w.sink.Write(b)
	return b[:0]
}

// open starts a record: fixedMax bytes of room.
func (w fpWriter) open(b []byte) []byte {
	if cap(b)-len(b) < fixedMax {
		return w.flushed(b)
	}
	return b
}

// str appends s verbatim and leaves fixedMax bytes of room after it.
func (w fpWriter) str(b []byte, s string) []byte {
	if cap(b)-len(b) < len(s)+fixedMax {
		b, s = w.spill(b, s)
	}
	return append(b, s...)
}

// spill makes room for s after b, sending on chunk-sized pieces of a
// string too long for an empty chunk, and returns what is left of it.
func (w fpWriter) spill(b []byte, s string) ([]byte, string) {
	for b = w.flushed(b); cap(b) < len(s)+fixedMax; b = w.flushed(b) {
		n := cap(b) - fixedMax
		b, s = append(b, s[:n]...), s[n:]
	}
	return b, s
}

// quote appends s as %q would and leaves fixedMax bytes of room after it.
// Every escape takes at most four bytes per byte of s (\xff), so a string
// whose worst case fits is appended in one go; one whose worst case does
// not fit even an empty chunk streams a rune at a time.
func (w fpWriter) quote(b []byte, s string) []byte {
	if need := 2 + 4*len(s) + fixedMax; cap(b)-len(b) < need {
		if b = w.flushed(b); cap(b) < need {
			return w.spillQuoted(b, s)
		}
	}
	return appendQuoted(b, s)
}

// spillQuoted is quote for a string longer than a quarter chunk, which no
// generated design has: the escaped form is written a rune at a time,
// flushing whenever the next one (at most ten bytes, \U0010ffff) and the
// closing quote might not fit.
func (w fpWriter) spillQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for len(s) > 0 {
		if cap(b)-len(b) < 11+fixedMax {
			b = w.flushed(b)
		}
		b, s = appendEscaped(b, s)
	}
	return append(b, '"')
}

// strs appends a string slice as %v would: [a b], elements verbatim.
func (w fpWriter) strs(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ' ')
		}
		b = w.str(b, s)
	}
	return append(b, ']')
}

// appendQuoted appends s as %q would; the caller has made room for the
// worst case. Runs of printable ASCII are copied whole, and the escape
// every NET.* detail needs — a quoted net name, \" — is written in place.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for {
		i := 0
		for i < len(s) && s[i] >= ' ' && s[i] <= '~' && s[i] != '"' && s[i] != '\\' {
			i++
		}
		b, s = append(b, s[:i]...), s[i:]
		if len(s) == 0 {
			return append(b, '"')
		}
		if c := s[0]; c == '"' || c == '\\' {
			b, s = append(b, '\\', c), s[1:]
		} else {
			b, s = appendEscaped(b, s)
		}
	}
}

const lowerhex = "0123456789abcdef"

// appendEscaped appends the %q form of s's first rune — a byte that does
// not start valid UTF-8 counts as one, and is written \xNN — and returns
// the rest of s: strconv.Quote's escaping, without its buffer.
func appendEscaped(b []byte, s string) ([]byte, string) {
	r, n := rune(s[0]), 1
	if r >= utf8.RuneSelf {
		if r, n = utf8.DecodeRuneInString(s); r == utf8.RuneError && n == 1 {
			return append(b, '\\', 'x', lowerhex[s[0]>>4], lowerhex[s[0]&0xf]), s[1:]
		}
	}
	switch {
	case r == '"' || r == '\\':
		return append(b, '\\', byte(r)), s[1:]
	case strconv.IsPrint(r):
		return append(b, s[:n]...), s[n:]
	}
	switch r {
	case '\a':
		b = append(b, `\a`...)
	case '\b':
		b = append(b, `\b`...)
	case '\f':
		b = append(b, `\f`...)
	case '\n':
		b = append(b, `\n`...)
	case '\r':
		b = append(b, `\r`...)
	case '\t':
		b = append(b, `\t`...)
	case '\v':
		b = append(b, `\v`...)
	default:
		switch {
		case r < ' ' || r == 0x7f:
			b = append(b, '\\', 'x', lowerhex[r>>4], lowerhex[r&0xf])
		case r < 0x10000:
			b = append(b, '\\', 'u')
			for shift := 12; shift >= 0; shift -= 4 {
				b = append(b, lowerhex[r>>shift&0xf])
			}
		default:
			b = append(b, '\\', 'U')
			for shift := 28; shift >= 0; shift -= 4 {
				b = append(b, lowerhex[r>>shift&0xf])
			}
		}
	}
	return b, s[n:]
}

const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// pow10[k] is 10**k.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 10
	}
	return p
}()

// appendInt appends v in decimal, as strconv.AppendInt(b, v, 10) does, but
// straight into b's spare capacity, which the record has reserved:
// strconv formats into a temporary and copies it out, and on a report's
// nets and violations — a few thousand short ints — that copy cost more
// than the digits.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b, u = append(b, '-'), -u
	}
	n := bits.Len64(u) * 1233 >> 12 // the digit count, or one less
	if n < len(pow10) && u >= pow10[n] {
		n++
	}
	b = b[:len(b)+max(n, 1)]
	i := len(b)
	for ; u >= 100; u /= 100 {
		i -= 2
		b[i], b[i+1] = digitPairs[u%100*2], digitPairs[u%100*2+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// appendRect appends geom.Rect's String form, [x1,y1 x2,y2].
func appendRect(b []byte, r geom.Rect) []byte {
	b = appendInt(append(b, '['), r.X1)
	b = appendInt(append(b, ','), r.Y1)
	b = appendInt(append(b, ' '), r.X2)
	b = appendInt(append(b, ','), r.Y2)
	return append(b, ']')
}

// violation appends one violation line.
func (w fpWriter) violation(b []byte, v *Violation) []byte {
	b = append(w.open(b), "  "...)
	b = append(w.str(b, v.Rule), " sev="...)
	b = appendInt(b, int64(v.Severity))
	b = append(appendRect(append(b, " where="...), v.Where), " sym="...)
	b = append(w.quote(b, v.Symbol), " path="...)
	b = append(w.quote(b, v.Path), " layer="...)
	b = appendInt(b, int64(v.Layer))
	b = append(w.strs(append(b, " nets="...), v.Nets), " detail="...)
	return append(w.quote(b, v.Detail), '\n')
}

// net appends one net line; its terminal list (%v of []netlist.TermRef:
// [{3 gate} {4 source}]) is as long as the net is busy.
func (w fpWriter) net(b []byte, n *netlist.Net) []byte {
	b = appendInt(append(w.open(b), "  net "...), int64(n.ID))
	b = append(w.quote(append(b, ' '), n.Name), " declared="...)
	b = append(w.strs(b, n.Declared), " elements="...)
	b = appendInt(b, int64(n.Elements))
	b = append(appendRect(append(b, " bounds="...), n.Bounds), " terms=["...)
	for ti := range n.Terminals {
		if ti > 0 {
			b = append(b, ' ')
		}
		b = appendInt(append(b, '{'), int64(n.Terminals[ti].Device))
		b = append(w.str(append(b, ' '), n.Terminals[ti].Terminal), '}')
	}
	return append(b, "]\n"...)
}

// device appends the line of device i.
func (w fpWriter) device(b []byte, i int, d *netlist.DeviceUse) []byte {
	b = appendInt(append(w.open(b), "  dev "...), int64(i))
	b = append(w.quote(append(b, " path="...), d.Path), " type="...)
	b = append(w.quote(b, d.Type), " class="...)
	b = append(w.quote(b, d.Class), " t="...)
	// geom.Transform's String form, R0+(x,y).
	b = appendInt(append(append(b, d.T.Orient.String()...), "+("...), d.T.Trans.X)
	b = append(appendInt(append(b, ','), d.T.Trans.Y), ')')
	for ti := range d.TerminalNets {
		b = append(w.str(append(b, ' '), d.TerminalNets[ti].Name), '=')
		b = appendInt(b, int64(d.TerminalNets[ti].Net))
	}
	return append(b, '\n')
}

// writeFingerprint streams the fingerprint of rep into sink, line by line;
// the device lines come from the netlist's memo once it holds them.
func writeFingerprint(sink io.Writer, rep *Report) {
	w := fpWriter{sink: sink}
	c := fpChunks.Get().(*[fpChunk]byte)
	defer fpChunks.Put(c)
	b := w.quote(append(c[:0], "design "...), rep.Design.Name)
	b = appendInt(append(b, "\nviolations "...), int64(len(rep.Violations)))
	b = append(b, '\n')
	for i := range rep.Violations {
		b = w.violation(b, &rep.Violations[i])
	}

	st := &rep.Stats
	b = appendInt(append(w.open(b), "stats elems="...), int64(st.ElementsChecked))
	b = appendInt(append(b, " symdefs="...), int64(st.SymbolDefsChecked))
	b = appendInt(append(b, " devinst="...), int64(st.DeviceInstances))
	b = appendInt(append(b, " cand="...), int64(st.InteractionCandidates))
	b = appendInt(append(b, " checked="...), int64(st.InteractionChecked))
	b = appendInt(append(b, " norule="...), int64(st.SkippedNoRule))
	b = appendInt(append(b, " samenet="...), int64(st.SkippedSameNetExempt))
	b = appendInt(append(b, " related="...), int64(st.SkippedRelated))
	b = appendInt(append(b, " conn="...), int64(st.SkippedConnectionPairs))
	b = appendInt(append(b, " downgrades="...), int64(st.ProcessDowngrades))
	b = append(b, '\n')
	for _, s := range st.Stages {
		b = w.quote(append(w.open(b), "stage "...), s.Name)
		b = appendInt(append(b, " checks="...), int64(s.Checks))
		b = appendInt(append(b, " violations="...), int64(s.Violations))
		b = append(b, '\n')
	}

	if nl := rep.Netlist; nl != nil {
		b = appendInt(append(w.open(b), "netlist nets="...), int64(len(nl.Nets)))
		b = appendInt(append(b, " devices="...), int64(len(nl.Devices)))
		b = append(b, '\n')
		for i := range nl.Nets {
			b = w.net(b, &nl.Nets[i])
		}
		if text := nl.DeviceText(deviceSection); text != nil {
			b = w.flushed(b)
			sink.Write(text)
		} else {
			for i := range nl.Devices {
				b = w.device(b, i, &nl.Devices[i])
			}
		}
	}
	sink.Write(b)
}
