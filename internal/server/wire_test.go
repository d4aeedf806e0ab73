package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// The oracle types have the wire types' fields and no methods, so
// encoding/json decodes them by reflection, not through wire.go.
type (
	oracleReport Report
	oracleDelta  ReportDelta
	oracleCreate struct {
		ID     string        `json:"id"`
		Report *oracleReport `json:"report"`
	}
)

// Document kinds the generator writes and the decoders read.
const (
	kindReport = iota
	kindDelta
	kindCreate
	kinds
)

// readerDecode decodes data as kind with the wire reader, called the
// way the client calls it.
func readerDecode(kind int, data []byte) (any, error) {
	switch kind {
	case kindReport:
		var v Report
		return &v, v.UnmarshalJSON(data)
	case kindDelta:
		var v ReportDelta
		return &v, v.UnmarshalJSON(data)
	default:
		var v CreateResponse
		return &v, v.UnmarshalJSON(data)
	}
}

// unmarshalDecode decodes data as kind through json.Unmarshal, which
// hands the bytes to the wire reader after its own scan.
func unmarshalDecode(kind int, data []byte) (any, error) {
	var v any
	switch kind {
	case kindReport:
		v = new(Report)
	case kindDelta:
		v = new(ReportDelta)
	default:
		v = new(CreateResponse)
	}
	return v, json.Unmarshal(data, v)
}

// oracleDecode decodes data as kind by encoding/json's reflection.
func oracleDecode(kind int, data []byte) (any, error) {
	switch kind {
	case kindReport:
		var v oracleReport
		err := json.Unmarshal(data, &v)
		return (*Report)(&v), err
	case kindDelta:
		var v oracleDelta
		err := json.Unmarshal(data, &v)
		return (*ReportDelta)(&v), err
	default:
		var v oracleCreate
		err := json.Unmarshal(data, &v)
		return &CreateResponse{ID: v.ID, Report: (*Report)(v.Report)}, err
	}
}

// jsonNames lists the JSON names of t's fields, embedded structs'
// included, in order.
func jsonNames(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && tag == "":
			out = append(out, jsonNames(f.Type)...)
		case tag != "-":
			out = append(out, tag)
		}
	}
	return out
}

// TestWireReaderKnowsEveryField: the reader's field lists are the wire
// types' JSON names, so a field added to a type cannot be skipped
// silently by the client.
func TestWireReaderKnowsEveryField(t *testing.T) {
	for _, c := range []struct {
		v      any
		fields []string
	}{
		{Report{}, reportFields}, {ReportDelta{}, deltaFields}, {CreateResponse{}, createFields},
		{Violation{}, violationFields}, {Rect{}, rectFields}, {Stage{}, stageFields},
		{Stats{}, statsFields}, {Netlist{}, netlistFields}, {EngineStats{}, engineFields},
	} {
		typ := reflect.TypeOf(c.v)
		got, want := slices.Clone(c.fields), jsonNames(typ)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: reader reads %v, the type has %v", typ.Name(), got, want)
		}
	}
}

// wireGen writes random report-shaped JSON: every field of the wire
// types, in random order, with nulls, repeated and case-folded keys,
// unknown fields, escapes, invalid UTF-8, surrogates and integer
// extremes.
type wireGen struct {
	rng *rand.Rand
	b   []byte
}

func genDoc(seed int64, kind int) []byte {
	g := &wireGen{rng: rand.New(rand.NewSource(seed))}
	switch kind {
	case kindReport:
		g.report()
	case kindDelta:
		g.delta()
	default:
		g.object([]genField{{"id", (*wireGen).str}, {"report", (*wireGen).report}})
	}
	return g.b
}

type genField struct {
	key string
	val func(*wireGen)
}

// stringPieces are the fragments a generated string is made of, as
// they appear between the quotes.
var stringPieces = []string{
	"", "n1", "poly", "AREA.NM metal island", " ", `\"`, `\\`, `\/`, `\b\f\n\r\t`,
	`\u00e9`, `\u00E9`, "\u00e9", "\u2028", "<&>", `\u0000`, "\xff", "\xe2\x82", "\xed\xa0\x80",
	`\ud800`, `\udc00`, `\ud83d\ude00`, `\ude00\ud83d`, `\ud83d\ud83d\ude00`, `\ud800x`,
}

func (g *wireGen) str() {
	g.b = append(g.b, '"')
	for n := g.rng.Intn(4); n >= 0; n-- {
		g.b = append(g.b, stringPieces[g.rng.Intn(len(stringPieces))]...)
	}
	g.b = append(g.b, '"')
}

func (g *wireGen) integer(lo, hi int64) {
	switch g.rng.Intn(8) {
	case 0:
		g.b = fmt.Append(g.b, lo)
	case 1:
		g.b = fmt.Append(g.b, hi)
	case 2:
		g.b = append(g.b, "-0"...)
	default:
		g.b = fmt.Append(g.b, g.rng.Int63n(2000)-1000)
	}
}

func (g *wireGen) int64v() { g.integer(math.MinInt64, math.MaxInt64) }
func (g *wireGen) intv()   { g.integer(math.MinInt, math.MaxInt) }

func (g *wireGen) boolv() {
	g.b = fmt.Append(g.b, g.rng.Intn(2) == 0)
}

func (g *wireGen) null() { g.b = append(g.b, "null"...) }

// value writes an arbitrary JSON value: what an unknown field carries.
func (g *wireGen) value() { g.valueDepth(3) }

func (g *wireGen) valueDepth(depth int) {
	switch n := g.rng.Intn(9); {
	case n == 0 && depth > 0:
		g.b = append(g.b, '{')
		for i := g.rng.Intn(3); i > 0; i-- {
			g.str()
			g.b = append(g.b, ':')
			g.valueDepth(depth - 1)
			g.b = append(g.b, ',')
		}
		g.b = append(bytes.TrimSuffix(g.b, []byte{','}), '}')
	case n == 1 && depth > 0:
		g.b = append(g.b, '[')
		for i := g.rng.Intn(3); i > 0; i-- {
			g.valueDepth(depth - 1)
			g.b = append(g.b, ',')
		}
		g.b = append(bytes.TrimSuffix(g.b, []byte{','}), ']')
	case n == 2:
		g.str()
	case n == 3:
		g.b = append(g.b, []string{"1.5e-3", "-0.0", "1E+2", "0", "-12", "3.25"}[g.rng.Intn(6)]...)
	case n == 4:
		g.boolv()
	default:
		g.null()
	}
}

// key writes a field name as it is, upper-cased, with a Kelvin sign for
// its k (both fold to the field), or with its first letter escaped.
func (g *wireGen) key(k string) {
	switch g.rng.Intn(12) {
	case 0:
		k = strings.ToUpper(k)
	case 1:
		k = strings.ReplaceAll(k, "k", "K")
	case 2:
		k = fmt.Sprintf(`\u%04x%s`, k[0], k[1:])
	}
	g.b = append(append(append(g.b, '"'), k...), '"')
}

// object writes the fields in random order: each is sometimes absent,
// null or repeated, and an unknown field sometimes follows one.
func (g *wireGen) object(fields []genField) {
	g.b = append(g.b, '{')
	n := 0
	member := func(k string, val func(*wireGen)) {
		if n > 0 {
			g.b = append(g.b, ',')
		}
		n++
		g.key(k)
		g.b = append(g.b, ':')
		val(g)
	}
	for _, i := range g.rng.Perm(len(fields)) {
		f := fields[i]
		switch g.rng.Intn(24) {
		case 0:
		case 1:
			member(f.key, (*wireGen).null)
		case 2:
			member(f.key, f.val)
			member(f.key, f.val)
		default:
			member(f.key, f.val)
		}
		if g.rng.Intn(12) == 0 {
			member("x_unknown", (*wireGen).value)
		}
	}
	g.b = append(g.b, '}')
}

// array writes up to max elements, an occasional one null.
func (g *wireGen) array(max int, elem func(*wireGen)) {
	g.b = append(g.b, '[')
	for i := g.rng.Intn(max + 1); i > 0; i-- {
		if g.rng.Intn(16) == 0 {
			g.null()
		} else {
			elem(g)
		}
		if i > 1 {
			g.b = append(g.b, ',')
		}
	}
	g.b = append(g.b, ']')
}

func (g *wireGen) classes() {
	g.b = append(g.b, '{')
	for i := g.rng.Intn(4); i > 0; i-- {
		g.str()
		g.b = append(g.b, ':')
		if g.rng.Intn(8) == 0 {
			g.null()
		} else {
			g.intv()
		}
		if i > 1 {
			g.b = append(g.b, ',')
		}
	}
	g.b = append(g.b, '}')
}

func envelopeGen() []genField {
	return []genField{
		{"schema", (*wireGen).str}, {"fingerprint", (*wireGen).str},
		{"classes", (*wireGen).classes}, {"check_ns", (*wireGen).int64v},
	}
}

func bodyGen() []genField {
	ints := func(names ...string) func(*wireGen) {
		return func(g *wireGen) {
			fs := make([]genField, len(names))
			for i, n := range names {
				fs[i] = genField{n, (*wireGen).intv}
			}
			g.object(fs)
		}
	}
	stage := func(g *wireGen) {
		g.object([]genField{
			{"name", (*wireGen).str}, {"duration_ns", (*wireGen).int64v},
			{"checks", (*wireGen).intv}, {"violations", (*wireGen).intv},
		})
	}
	engine := func(g *wireGen) {
		fs := []genField{{"window_patched", (*wireGen).boolv}, {"full_path", (*wireGen).str}}
		for _, n := range engineFields[:len(engineFields)-2] {
			fs = append(fs, genField{n, (*wireGen).intv})
		}
		g.object(fs)
	}
	return []genField{
		{"design", (*wireGen).str}, {"clean", (*wireGen).boolv},
		{"errors", (*wireGen).intv}, {"warnings", (*wireGen).intv},
		{"stages", func(g *wireGen) { g.array(3, stage) }},
		{"stats", ints(statsFields...)},
		{"netlist", ints("nets", "devices")},
		{"engine", engine},
	}
}

func (g *wireGen) violation() {
	g.object([]genField{
		{"rule", (*wireGen).str}, {"severity", (*wireGen).str}, {"detail", (*wireGen).str},
		{"where", func(g *wireGen) {
			g.object([]genField{
				{"x1", (*wireGen).int64v}, {"y1", (*wireGen).int64v},
				{"x2", (*wireGen).int64v}, {"y2", (*wireGen).int64v},
			})
		}},
		{"symbol", (*wireGen).str}, {"path", (*wireGen).str}, {"layer", (*wireGen).intv},
		{"nets", func(g *wireGen) { g.array(3, (*wireGen).str) }},
	})
}

func (g *wireGen) violations() { g.array(4, (*wireGen).violation) }

func (g *wireGen) report() {
	fs := append(envelopeGen(), bodyGen()...)
	g.object(append(fs, genField{"violations", (*wireGen).violations}))
}

func (g *wireGen) delta() {
	fs := append(envelopeGen(), bodyGen()...)
	g.object(append(fs,
		genField{"base", (*wireGen).str}, genField{"reset", (*wireGen).boolv},
		genField{"added", (*wireGen).violations}, genField{"removed", (*wireGen).violations}))
}

// FuzzReportWire pins the wire reader to encoding/json. A generated
// document, compact or indented, must decode to DeepEqual values through
// the reader, through json.Unmarshal and through encoding/json's
// reflection. Arbitrary bytes must never panic the reader, which may
// accept them only if encoding/json does, with the same result.
func FuzzReportWire(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, genDoc(seed, int(seed%kinds)))
	}
	f.Add(int64(-1), []byte(`{"violations":[{"rule":"a","nets":["x","y"]}],"violations":[{"detail":"d"}]}`))
	f.Add(int64(-2), []byte(`{"check_ns":9223372036854775808}`))
	f.Add(int64(-3), []byte(`{"report":{"classes":{"a":1,"a":null}},"id":"𐀀"}`))
	f.Add(int64(-4), []byte(`{"report":{"design":"d"},"report":null,"netlist":{"nets":1},"netlist":null}`))
	f.Add(int64(-5), []byte("{\"detail\":\"a\tb\"}"))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		kind := int(uint64(seed) % kinds)
		doc := genDoc(seed, kind)
		var indented bytes.Buffer
		if err := json.Indent(&indented, doc, "", "  "); err != nil {
			t.Fatalf("generator wrote invalid JSON: %v\n%s", err, doc)
		}
		for _, data := range [][]byte{doc, indented.Bytes()} {
			want, err := oracleDecode(kind, data)
			if err != nil {
				t.Fatalf("encoding/json refuses a generated document: %v\n%s", err, data)
			}
			for _, decode := range []func(int, []byte) (any, error){readerDecode, unmarshalDecode} {
				got, err := decode(kind, data)
				if err != nil {
					t.Fatalf("reader refuses a generated document: %v\n%s", err, data)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("reader and encoding/json disagree on\n%s\nreader:        %#v\nencoding/json: %#v", data, got, want)
				}
			}
		}
		for kind := 0; kind < kinds; kind++ {
			got, err := readerDecode(kind, raw)
			if err != nil {
				continue
			}
			want, werr := oracleDecode(kind, raw)
			if werr != nil {
				t.Fatalf("reader accepts what encoding/json refuses (%v):\n%q", werr, raw)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reader and encoding/json disagree on\n%q\nreader:        %#v\nencoding/json: %#v", raw, got, want)
			}
		}
	})
}

// randomViolations draws up to n sorted core violations from small
// domains, so equal findings repeat.
func randomViolations(rng *rand.Rand, n int) []core.Violation {
	pick := func(s ...string) string { return s[rng.Intn(len(s))] }
	vs := make([]core.Violation, rng.Intn(n+1))
	for i := range vs {
		x, y := int64(rng.Intn(3)), int64(rng.Intn(3))
		vs[i] = core.Violation{
			Rule:     pick("AREA.NM", "W.CM", "DEV.ACCIDENTAL"),
			Severity: core.Severity(rng.Intn(2)),
			Detail:   pick("", "too small", "\"quoted\" \xff"),
			Where:    geom.Rect{X1: x, Y1: y, X2: x + 1, Y2: y + int64(rng.Intn(2))},
			Symbol:   pick("", "cell"),
			Path:     pick("", "chip/cell[0]"),
			Layer:    tech.LayerID(rng.Intn(2)),
		}
		for k := rng.Intn(3); k > 0; k-- {
			vs[i].Nets = append(vs[i].Nets, pick("n1", "vdd", "gnd"))
		}
	}
	slices.SortFunc(vs, func(a, b core.Violation) int { return core.CompareViolations(&a, &b) })
	return vs
}

// deltaPair builds two random reports and the delta between them, all
// three as the daemon would encode them.
func deltaPair(seed int64) (base, delta, next []byte) {
	rng := rand.New(rand.NewSource(seed))
	d := &layout.Design{Name: "fuzz"}
	prev := &core.Report{Design: d, Violations: randomViolations(rng, 6)}
	cur := &core.Report{Design: d, Violations: randomViolations(rng, 6)}
	if rng.Intn(2) == 0 {
		// A small edit: keep most of prev.
		cur.Violations = append(slices.Clone(prev.Violations[:len(prev.Violations)/2]), cur.Violations...)
		slices.SortFunc(cur.Violations, func(a, b core.Violation) int { return core.CompareViolations(&a, &b) })
	}
	b := BuildReport(prev, nil)
	base, _ = json.Marshal(b)
	delta, _ = json.Marshal(BuildDelta(b.Fingerprint, prev.Violations, cur, nil))
	next, _ = json.Marshal(BuildReport(cur, nil))
	return base, delta, next
}

// FuzzApplyDelta: a delta BuildDelta computes between two reports,
// carried over the wire, always rebuilds the second report; and no pair
// of decoded payloads, however malformed, makes ApplyDelta panic.
func FuzzApplyDelta(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		base, delta, _ := deltaPair(seed)
		f.Add(seed, base, delta)
	}
	f.Fuzz(func(t *testing.T, seed int64, base, delta []byte) {
		b, d, next := deltaPair(seed)
		var br Report
		var dd ReportDelta
		if err := br.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if err := dd.UnmarshalJSON(d); err != nil {
			t.Fatal(err)
		}
		got, err := ApplyDelta(&br, &dd)
		if err != nil {
			t.Fatalf("apply: %v\nbase:  %s\ndelta: %s", err, b, d)
		}
		if want, err := oracleDecode(kindReport, next); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("delta does not rebuild the report (%v)\nbase:  %s\ndelta: %s\ngot:   %s\nwant:  %s", err, b, d, fullJSON(t, got), next)
		}

		var fb Report
		var fd ReportDelta
		if fb.UnmarshalJSON(base) != nil || fd.UnmarshalJSON(delta) != nil {
			return
		}
		_, _ = ApplyDelta(&fb, &fd)
		_, _ = ApplyDelta(nil, &fd)
	})
}

// TestWireBytesOut: every response leaves compact and in one piece with
// its Content-Length, a full report over 4 KiB included, and /v1/stats
// counts the body bytes by class: the create and the full report under
// bytes_out_report, the delta under bytes_out_delta, the edit's
// acknowledgement under bytes_out_other. Each report body decodes
// through the reader exactly as encoding/json decodes it.
func TestWireBytesOut(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv := New(Config{Debounce: -1})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	call := func(method, path string, body any) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %s %s", method, path, resp.Status, data)
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) > 0 {
			t.Fatalf("%s %s: Content-Length %d for a %d-byte body, transfer encoding %v",
				method, path, resp.ContentLength, len(data), resp.TransferEncoding)
		}
		if bytes.IndexByte(data, '\n') != len(data)-1 {
			t.Fatalf("%s %s: body is not one compact line", method, path)
		}
		return data
	}
	same := func(kind int, data []byte) any {
		t.Helper()
		got, err := readerDecode(kind, data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleDecode(kind, data)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reader and encoding/json disagree on %s (%v)", data, err)
		}
		return got
	}

	create := call("POST", "/v1/sessions", CreateRequest{Name: "wire", CIF: text, Tech: "cmos"})
	cr := same(kindCreate, create).(*CreateResponse)
	var narrow []layout.Edit
	for j := int64(0); j < 40; j++ {
		y := -20000 - j*5000
		narrow = append(narrow, layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal, Box: []int64{-30000, y, -29900, y + 1000}})
	}
	edit := call("POST", "/v1/sessions/"+cr.ID+"/edits", EditRequest{Edits: narrow})
	full := call("GET", "/v1/sessions/"+cr.ID+"/report", nil)
	same(kindReport, full)
	if len(full) <= 4096 {
		t.Fatalf("full report is %d bytes; the test wants one over 4 KiB", len(full))
	}
	delta := call("GET", "/v1/sessions/"+cr.ID+"/report?since="+cr.Report.Fingerprint, nil)
	if d := same(kindDelta, delta).(*ReportDelta); d.Reset || len(d.Added) == 0 {
		t.Fatalf("delta: reset=%v, %d added", d.Reset, len(d.Added))
	}

	var st ServerStatsResponse
	if err := json.Unmarshal(call("GET", "/v1/stats", nil), &st); err != nil {
		t.Fatal(err)
	}
	if got, want := st.BytesOutReport, uint64(len(create)+len(full)); got != want {
		t.Errorf("bytes_out_report = %d, want %d (create %d + report %d)", got, want, len(create), len(full))
	}
	if got, want := st.BytesOutDelta, uint64(len(delta)); got != want {
		t.Errorf("bytes_out_delta = %d, want %d", got, want)
	}
	if got, want := st.BytesOutOther, uint64(len(edit)); got != want {
		t.Errorf("bytes_out_other = %d, want %d (the edit acknowledgement)", got, want)
	}
}
