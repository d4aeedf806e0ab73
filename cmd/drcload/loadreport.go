package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// loadLatency is a latency distribution summary in nanoseconds.
type loadLatency struct {
	Count int     `json:"count"`
	P50NS int64   `json:"p50_ns"`
	P95NS int64   `json:"p95_ns"`
	P99NS int64   `json:"p99_ns"`
	MaxNS int64   `json:"max_ns"`
	MeanN float64 `json:"mean_ns"`
}

// summarizeLatencies computes the percentile summary of a sample set
// (nearest-rank; an empty set is all zeros).
func summarizeLatencies(samples []time.Duration) loadLatency {
	if len(samples) == 0 {
		return loadLatency{}
	}
	ns := make([]int64, len(samples))
	for i, d := range samples {
		ns[i] = d.Nanoseconds()
	}
	sorted, mean := sortedMean(ns)
	return loadLatency{
		Count: len(sorted),
		P50NS: nearestRank(sorted, 0.50),
		P95NS: nearestRank(sorted, 0.95),
		P99NS: nearestRank(sorted, 0.99),
		MaxNS: sorted[len(sorted)-1],
		MeanN: mean,
	}
}

// byteSummary is a payload-size distribution summary in bytes — the
// report-delta evidence: full-report bytes vs delta bytes under the same
// edit loop.
type byteSummary struct {
	Count int     `json:"count"`
	P50   int64   `json:"p50_bytes"`
	P99   int64   `json:"p99_bytes"`
	Max   int64   `json:"max_bytes"`
	Mean  float64 `json:"mean_bytes"`
}

// summarizeBytes computes the percentile summary of a payload-size
// sample set (nearest-rank; an empty set is all zeros).
func summarizeBytes(samples []int64) byteSummary {
	if len(samples) == 0 {
		return byteSummary{}
	}
	sorted, mean := sortedMean(append([]int64(nil), samples...))
	return byteSummary{
		Count: len(sorted),
		P50:   nearestRank(sorted, 0.50),
		P99:   nearestRank(sorted, 0.99),
		Max:   sorted[len(sorted)-1],
		Mean:  mean,
	}
}

// sortedMean sorts a non-empty sample set in place and returns it with its
// mean.
func sortedMean(sorted []int64) ([]int64, float64) {
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, x := range sorted {
		sum += x
	}
	return sorted, float64(sum) / float64(len(sorted))
}

// nearestRank is the p-quantile of a non-empty ascending sample set by the
// nearest-rank method.
func nearestRank(sorted []int64, p float64) int64 {
	idx := int(p*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// loadSnapshot is the BENCH_LOAD_<date>.json document: one drcload run
// against a live daemon — throughput, latency distributions per
// operation, the error-class histogram, and the daemon's end-of-run
// resource gauges (the bounded-memory/goroutine evidence).
type loadSnapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	Sessions   int    `json:"sessions"`
	Chaos      bool   `json:"chaos"`
	Delta      bool   `json:"delta,omitempty"` // delta-mode report loop
	DurationNS int64  `json:"duration_ns"`

	Requests  uint64            `json:"requests"`
	Reports   loadLatency       `json:"report_latency"`
	Edits     loadLatency       `json:"edit_latency"`
	Creates   loadLatency       `json:"create_latency"`
	ErrClass  map[string]uint64 `json:"errors_by_class"`
	Transport uint64            `json:"transport_errors"`

	// Payload-size evidence for delta mode: FullBytes samples full-report
	// payloads, DeltaBytes the ?since= delta payloads of the same loop;
	// DeltaResets counts deltas that degraded to the full list. Churns is
	// how many voluntary delete/recreate cycles the drivers performed.
	FullBytes   byteSummary `json:"full_bytes,omitempty"`
	DeltaBytes  byteSummary `json:"delta_bytes,omitempty"`
	DeltaResets uint64      `json:"delta_resets,omitempty"`
	Churns      uint64      `json:"churns,omitempty"`

	ServerGoroutines int    `json:"server_goroutines"`
	ServerHeapBytes  uint64 `json:"server_heap_bytes"`

	SLOViolations []string `json:"slo_violations,omitempty"`
}

// JSON renders the snapshot.
func (s loadSnapshot) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Filename returns the canonical snapshot name for its date.
func (s loadSnapshot) Filename() string { return fmt.Sprintf("BENCH_LOAD_%s.json", s.Date) }
