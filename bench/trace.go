package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// this package only. Parent is an index into the trace (-1 for an op's
// root span); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans in memory. A nil *tracer records nothing, which
// is how the timed phase runs with tracing off. The served workloads'
// clients record into one tracer from a goroutine each.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// ms returns a closed span's duration in milliseconds.
func (t *tracer) ms(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[id].EndNS-t.spans[id].StartNS) / 1e6
}

// child records an already-measured interval under parent: durations the
// program reports itself (Report.Stats.Stages) or that were timed beside
// the op (the fingerprint inside BuildReport). Children are laid end to
// end from the parent's start and clipped to it.
func (t *tracer) child(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.StartNS
	for _, s := range t.spans[parent+1:] {
		if s.Parent == parent && s.EndNS > start {
			start = s.EndNS
		}
	}
	end := min(start+d.Nanoseconds(), p.EndNS)
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, StartNS: start, EndNS: end})
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// layerSelfMS sums self time by span name within each op and returns, per
// name, the per-op totals in milliseconds — the samples a layer metric's
// median is taken over. The "op" root spans' self time is what no layer
// span accounts for.
func layerSelfMS(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	type key struct {
		name string
		op   int
	}
	perOp := map[key]float64{}
	var order []key
	for i, s := range spans {
		k := key{s.Name, s.Op}
		if _, seen := perOp[k]; !seen {
			order = append(order, k)
		}
		perOp[k] += float64(self[i]) / 1e6
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], perOp[k])
	}
	return out
}

// spanTotalsMS returns, per span name, every span's full duration in ms.
func spanTotalsMS(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
