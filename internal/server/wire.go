package server

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the report wire's reader: one hand-written pass over the
// bytes behind Report, ReportDelta and CreateResponse's UnmarshalJSON,
// with no reflection and no separate validation scan. It decodes exactly
// what encoding/json decodes from the same bytes, which FuzzReportWire
// pins:
//   - a key matches its field exactly, else case-insensitively; unknown
//     keys are skipped, their values checked for syntax;
//   - null leaves a string, number, bool or struct as it is and sets a
//     slice, map or pointer to nil;
//   - a repeated key decodes into what the first one left: structs and
//     slice elements in place, map entries added;
//   - an empty array is an empty, non-nil slice;
//   - strings decode \u escapes and surrogate pairs, and each invalid
//     UTF-8 byte or lone surrogate becomes U+FFFD;
//   - an integer field refuses fractions, exponents and overflow.
// Any input encoding/json refuses, the reader refuses too.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// UnmarshalJSON reads a report/v1 payload.
func (rep *Report) UnmarshalJSON(data []byte) error {
	return readWire(data, func(r *wireReader) { r.report(rep) })
}

// UnmarshalJSON reads a report-delta/v1 payload.
func (d *ReportDelta) UnmarshalJSON(data []byte) error {
	return readWire(data, func(r *wireReader) { r.delta(d) })
}

// UnmarshalJSON reads a create response, its report included.
func (c *CreateResponse) UnmarshalJSON(data []byte) error {
	return readWire(data, func(r *wireReader) { r.create(c) })
}

// wireError is a refused input: what was wrong, and where.
type wireError struct {
	off int
	msg string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("report wire: %s at offset %d", e.msg, e.off)
}

// readWire runs read over one JSON value, which must fill data up to
// trailing whitespace. A top-level null is a no-op. The reader reports a
// refusal by panicking with a *wireError, which readWire returns.
func readWire(data []byte, read func(*wireReader)) (err error) {
	r := &wireReader{data: data}
	defer func() {
		if rec := recover(); rec != nil {
			we, ok := rec.(*wireError)
			if !ok {
				panic(rec)
			}
			err = we
		}
	}()
	if !r.null() {
		read(r)
	}
	if r.ws(); r.pos != len(data) {
		r.fail("data after the value")
	}
	return nil
}

// wireReader is the reader's cursor over one payload.
type wireReader struct {
	data  []byte
	pos   int
	depth int
	buf   []byte // unquote scratch

	// recent are the last short strings text returned, next the slot
	// the next one takes.
	recent [16]string
	next   int
}

// maxInterned is the longest string text looks up in recent.
const maxInterned = 24

func (r *wireReader) fail(msg string) {
	panic(&wireError{off: r.pos, msg: msg})
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (r *wireReader) ws() byte {
	d, i := r.data, r.pos
	for ; i < len(d); i++ {
		switch c := d[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			r.pos = i
			return c
		}
	}
	r.pos = i
	return 0
}

func (r *wireReader) expect(c byte) {
	if r.ws() != c {
		r.fail(fmt.Sprintf("want %q", c))
	}
	r.pos++
}

// literal consumes the literal lit, which must come next.
func (r *wireReader) literal(lit string) {
	if end := r.pos + len(lit); end > len(r.data) || string(r.data[r.pos:end]) != lit {
		r.fail("invalid literal")
	}
	r.pos += len(lit)
}

// null consumes a null if one comes next.
func (r *wireReader) null() bool {
	if r.ws() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// open consumes the opening bracket c of an object or array.
func (r *wireReader) open(c byte) {
	r.expect(c)
	if r.depth++; r.depth > maxWireDepth {
		r.fail("exceeded max depth")
	}
}

// more reports whether the object or array being read, closed by end,
// has another member, consuming the comma before it or the closing
// bracket. first is true until the first member.
func (r *wireReader) more(end byte, first *bool) bool {
	c := r.ws()
	if c == end {
		r.pos++
		r.depth--
		return false
	}
	if *first {
		*first = false
		return true
	}
	if c != ',' {
		r.fail(fmt.Sprintf("want ',' or %q", end))
	}
	r.pos++
	return true
}

// raw consumes a string and returns its bytes between the quotes and
// whether they are its value as they stand: no escape and valid UTF-8.
func (r *wireReader) raw() ([]byte, bool) {
	if r.ws() != '"' {
		r.fail("want a string")
	}
	d := r.data
	start := r.pos + 1
	i, esc, high := start, false, false
	for i < len(d) {
		c := d[i]
		if c >= ' ' && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		switch {
		case c == '"':
			r.pos = i + 1
			s := d[start:i]
			return s, !esc && (!high || utf8.Valid(s))
		case c == '\\':
			esc = true
			r.pos = i
			if i++; i == len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if hex4(d[i+1:]) < 0 {
					r.fail("invalid \\u escape")
				}
				i += 5
			default:
				r.fail("invalid escape")
			}
		case c < ' ':
			r.pos = i
			r.fail("control character in string")
		default:
			high = true
			i++
		}
	}
	r.pos = i
	r.fail("unterminated string")
	return nil, false
}

// hex4 is the value of four hex digits at the start of s, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var v rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// unquote appends the decoded form of a string's validated raw bytes
// to dst, the way encoding/json decodes them.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(rr) {
					lo := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						lo = hex4(s[i+2:])
					}
					if dec := utf16.DecodeRune(rr, lo); dec != utf8.RuneError {
						dst = utf8.AppendRune(dst, dec)
						i += 6
						continue
					}
					rr = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(s) && s[j] != '\\' && s[j] < utf8.RuneSelf {
				j++
			}
			dst = append(dst, s[i:j]...)
			i = j
		default:
			rr, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, rr)
			i += n
		}
	}
	return dst
}

// text consumes a string and returns its decoded value. A short value
// that one of the last few short strings already had (a rule name, a
// severity, a net) reuses that string instead of allocating.
func (r *wireReader) text() string {
	s, plain := r.raw()
	if !plain {
		r.buf = unquote(r.buf[:0], s)
		s = r.buf
	}
	if len(s) > maxInterned {
		return string(s)
	}
	for _, t := range r.recent {
		if string(s) == t {
			return t
		}
	}
	t := string(s)
	r.recent[r.next%len(r.recent)] = t
	r.next++
	return t
}

// key consumes an object key and its colon and returns the entry of
// fields it names: the exact match, else the first case-insensitive one
// (as encoding/json matches field names), else "".
func (r *wireReader) key(fields []string) string {
	k, plain := r.raw()
	if !plain {
		r.buf = unquote(r.buf[:0], k)
		k = r.buf
	}
	r.expect(':')
	for _, f := range fields {
		if string(k) == f {
			return f
		}
	}
	for _, f := range fields {
		if strings.EqualFold(string(k), f) {
			return f
		}
	}
	return ""
}

// number consumes a JSON number and returns its bytes.
func (r *wireReader) number() []byte {
	start := r.pos
	if r.at('-') {
		r.pos++
	}
	switch {
	case r.at('0'):
		r.pos++
	case r.pos < len(r.data) && '1' <= r.data[r.pos] && r.data[r.pos] <= '9':
		r.digits()
	default:
		r.fail("invalid number")
	}
	if r.at('.') {
		r.pos++
		r.digits()
	}
	if r.at('e') || r.at('E') {
		r.pos++
		if r.at('+') || r.at('-') {
			r.pos++
		}
		r.digits()
	}
	return r.data[start:r.pos]
}

func (r *wireReader) at(c byte) bool { return r.pos < len(r.data) && r.data[r.pos] == c }

// digits consumes one or more decimal digits.
func (r *wireReader) digits() {
	start := r.pos
	for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
		r.pos++
	}
	if r.pos == start {
		r.fail("invalid number")
	}
}

// integer reads a number that must be an integer in [lo, hi] into dst;
// null leaves dst as it is.
func (r *wireReader) integer(dst *int64, lo, hi int64) {
	if r.null() {
		return
	}
	if c := r.ws(); c != '-' && (c < '0' || c > '9') {
		r.fail("want a number")
	}
	s := r.number()
	neg := s[0] == '-'
	if neg {
		s = s[1:]
	}
	limit := uint64(hi)
	if neg {
		limit = uint64(-(lo + 1)) + 1
	}
	var u uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			r.fail("want an integer")
		}
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			r.fail("integer overflow")
		}
		u = u*10 + d
	}
	if neg {
		*dst = int64(-u) // -(1<<63) wraps to itself
	} else {
		*dst = int64(u)
	}
}

func (r *wireReader) int64v(dst *int64) { r.integer(dst, math.MinInt64, math.MaxInt64) }

func (r *wireReader) intv(dst *int) {
	v := int64(*dst)
	r.integer(&v, math.MinInt, math.MaxInt)
	*dst = int(v)
}

func (r *wireReader) str(dst *string) {
	if !r.null() {
		*dst = r.text()
	}
}

func (r *wireReader) boolv(dst *bool) {
	switch r.ws() {
	case 't':
		r.literal("true")
		*dst = true
	case 'f':
		r.literal("false")
		*dst = false
	case 'n':
		r.literal("null")
	default:
		r.fail("want a bool")
	}
}

// skip consumes any one value.
func (r *wireReader) skip() {
	first := true
	switch c := r.ws(); {
	case c == '{':
		r.open('{')
		for r.more('}', &first) {
			r.raw()
			r.expect(':')
			r.skip()
		}
	case c == '[':
		r.open('[')
		for r.more(']', &first) {
			r.skip()
		}
	case c == '"':
		r.raw()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.fail("want a value")
	}
}

// object reads an object, handing each member's key (an entry of
// fields, or "" for an unknown one) to member, which consumes the
// value; member reports false for a key it does not decode, whose value
// is skipped. A null leaves the target as it is.
func (r *wireReader) object(fields []string, member func(key string) bool) {
	if r.null() {
		return
	}
	first := true
	r.open('{')
	for r.more('}', &first) {
		if !member(r.key(fields)) {
			r.skip()
		}
	}
}

// readSlice reads an array into s the way encoding/json does: element i
// is decoded into s[i] in place, the slice grows one element at a time,
// an empty array is an empty non-nil slice, and null is nil.
func readSlice[T any](r *wireReader, s []T, elem func(*wireReader, *T)) []T {
	if r.null() {
		return nil
	}
	first := true
	r.open('[')
	i := 0
	for r.more(']', &first) {
		if i == cap(s) {
			var zero T
			s = append(s[:i], zero)
		} else if i >= len(s) {
			s = s[:i+1]
		}
		elem(r, &s[i])
		i++
	}
	if i == 0 {
		return []T{}
	}
	return s[:i]
}

var (
	envelopeFields = []string{"schema", "fingerprint", "classes", "check_ns"}
	bodyFields     = []string{"design", "clean", "errors", "warnings", "stages", "stats", "netlist", "engine"}
	reportFields   = slices.Concat(envelopeFields, bodyFields, []string{"violations"})
	deltaFields    = slices.Concat(envelopeFields, []string{"base", "reset", "added", "removed"}, bodyFields)
	createFields   = []string{"id", "report"}
)

func (r *wireReader) create(c *CreateResponse) {
	r.object(createFields, func(key string) bool {
		switch key {
		case "id":
			r.str(&c.ID)
		case "report":
			if r.null() {
				c.Report = nil
				break
			}
			if c.Report == nil {
				c.Report = new(Report)
			}
			r.report(c.Report)
		default:
			return false
		}
		return true
	})
}

func (r *wireReader) report(rep *Report) {
	r.object(reportFields, func(key string) bool {
		if key == "violations" {
			rep.Violations = readSlice(r, rep.Violations, (*wireReader).violation)
			return true
		}
		return r.envelope(key, &rep.Envelope) || r.body(key, &rep.ReportBody)
	})
}

func (r *wireReader) delta(d *ReportDelta) {
	r.object(deltaFields, func(key string) bool {
		switch key {
		case "base":
			r.str(&d.Base)
		case "reset":
			r.boolv(&d.Reset)
		case "added":
			d.Added = readSlice(r, d.Added, (*wireReader).violation)
		case "removed":
			d.Removed = readSlice(r, d.Removed, (*wireReader).violation)
		default:
			return r.envelope(key, &d.Envelope) || r.body(key, &d.ReportBody)
		}
		return true
	})
}

// envelope decodes key's value into env if key is an Envelope field.
func (r *wireReader) envelope(key string, env *Envelope) bool {
	switch key {
	case "schema":
		r.str(&env.Schema)
	case "fingerprint":
		r.str(&env.Fingerprint)
	case "classes":
		env.Classes = r.classes(env.Classes)
	case "check_ns":
		r.int64v(&env.CheckNS)
	default:
		return false
	}
	return true
}

// classes reads a class tally into m, allocating it if nil.
func (r *wireReader) classes(m map[string]int) map[string]int {
	if r.null() {
		return nil
	}
	if m == nil {
		m = map[string]int{}
	}
	first := true
	r.open('{')
	for r.more('}', &first) {
		k := r.text()
		r.expect(':')
		var n int
		r.intv(&n)
		m[k] = n
	}
	return m
}

// body decodes key's value into b if key is a ReportBody field.
func (r *wireReader) body(key string, b *ReportBody) bool {
	switch key {
	case "design":
		r.str(&b.Design)
	case "clean":
		r.boolv(&b.Clean)
	case "errors":
		r.intv(&b.Errors)
	case "warnings":
		r.intv(&b.Warnings)
	case "stages":
		b.Stages = readSlice(r, b.Stages, (*wireReader).stage)
	case "stats":
		r.stats(&b.Stats)
	case "netlist":
		if r.null() {
			b.Netlist = nil
			break
		}
		if b.Netlist == nil {
			b.Netlist = new(Netlist)
		}
		r.netlist(b.Netlist)
	case "engine":
		if r.null() {
			b.Engine = nil
			break
		}
		if b.Engine == nil {
			b.Engine = new(EngineStats)
		}
		r.engine(b.Engine)
	default:
		return false
	}
	return true
}

var violationFields = []string{"rule", "severity", "detail", "where", "symbol", "path", "layer", "nets"}

func (r *wireReader) violation(v *Violation) {
	r.object(violationFields, func(key string) bool {
		switch key {
		case "rule":
			r.str(&v.Rule)
		case "severity":
			r.str(&v.Severity)
		case "detail":
			r.str(&v.Detail)
		case "where":
			r.rect(&v.Where)
		case "symbol":
			r.str(&v.Symbol)
		case "path":
			r.str(&v.Path)
		case "layer":
			r.intv(&v.Layer)
		case "nets":
			v.Nets = readSlice(r, v.Nets, (*wireReader).str)
		default:
			return false
		}
		return true
	})
}

var rectFields = []string{"x1", "y1", "x2", "y2"}

func (r *wireReader) rect(rc *Rect) {
	r.object(rectFields, func(key string) bool {
		switch key {
		case "x1":
			r.int64v(&rc.X1)
		case "y1":
			r.int64v(&rc.Y1)
		case "x2":
			r.int64v(&rc.X2)
		case "y2":
			r.int64v(&rc.Y2)
		default:
			return false
		}
		return true
	})
}

var stageFields = []string{"name", "duration_ns", "checks", "violations"}

func (r *wireReader) stage(s *Stage) {
	r.object(stageFields, func(key string) bool {
		switch key {
		case "name":
			r.str(&s.Name)
		case "duration_ns":
			r.int64v(&s.DurationNS)
		case "checks":
			r.intv(&s.Checks)
		case "violations":
			r.intv(&s.Violations)
		default:
			return false
		}
		return true
	})
}

var statsFields = []string{
	"elements_checked", "symbol_defs_checked", "device_instances", "interaction_candidates",
	"interaction_checked", "skipped_no_rule", "skipped_same_net_exempt", "skipped_related",
	"skipped_connection_pairs", "process_downgrades",
}

func (r *wireReader) stats(s *Stats) {
	dst := [...]*int{
		&s.ElementsChecked, &s.SymbolDefsChecked, &s.DeviceInstances, &s.InteractionCandidates,
		&s.InteractionChecked, &s.SkippedNoRule, &s.SkippedSameNetExempt, &s.SkippedRelated,
		&s.SkippedConnectionPairs, &s.ProcessDowngrades,
	}
	r.intFields(statsFields, dst[:])
}

var netlistFields = []string{"nets", "devices"}

func (r *wireReader) netlist(n *Netlist) {
	r.intFields(netlistFields, []*int{&n.Nets, &n.Devices})
}

// intFields reads an object whose fields are all ints: fields[i] into
// *dst[i].
func (r *wireReader) intFields(fields []string, dst []*int) {
	r.object(fields, func(key string) bool {
		i := slices.Index(fields, key)
		if i < 0 {
			return false
		}
		r.intv(dst[i])
		return true
	})
}

var engineFields = []string{
	"runs", "symbols", "dirty_symbols", "rehashed", "artifact_defs", "inter_built", "inter_reused",
	"sig_misses", "sig_hits", "ctx_hits", "ctx_misses", "window_patched", "full_path",
}

func (r *wireReader) engine(e *EngineStats) {
	ints := [...]*int{
		&e.Runs, &e.Symbols, &e.DirtySymbols, &e.Rehashed, &e.ArtifactDefs, &e.InterBuilt,
		&e.InterReused, &e.SigMisses, &e.SigHits, &e.CtxHits, &e.CtxMisses,
	}
	r.object(engineFields, func(key string) bool {
		switch key {
		case "window_patched":
			r.boolv(&e.WindowPatched)
		case "full_path":
			r.str(&e.FullPath)
		case "":
			return false
		default: // the ints lead engineFields
			r.intv(ints[slices.Index(engineFields, key)])
		}
		return true
	})
}
