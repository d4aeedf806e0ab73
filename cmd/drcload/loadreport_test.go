package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSummarizeLatencies(t *testing.T) {
	if got := summarizeLatencies(nil); got.Count != 0 || got.P99NS != 0 {
		t.Fatalf("empty summary not zero: %+v", got)
	}

	// 1ms..100ms: nearest-rank percentiles land on exact samples.
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	// Order must not matter.
	samples[0], samples[99] = samples[99], samples[0]
	s := summarizeLatencies(samples)
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50NS != (50 * time.Millisecond).Nanoseconds() {
		t.Fatalf("p50 = %v", time.Duration(s.P50NS))
	}
	if s.P95NS != (95 * time.Millisecond).Nanoseconds() {
		t.Fatalf("p95 = %v", time.Duration(s.P95NS))
	}
	if s.P99NS != (99 * time.Millisecond).Nanoseconds() {
		t.Fatalf("p99 = %v", time.Duration(s.P99NS))
	}
	if s.MaxNS != (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("max = %v", time.Duration(s.MaxNS))
	}
	if want := float64((50500 * time.Microsecond).Nanoseconds()); s.MeanN != want {
		t.Fatalf("mean = %v, want %v", s.MeanN, want)
	}

	one := summarizeLatencies([]time.Duration{7 * time.Millisecond})
	if one.P50NS != one.P99NS || one.P99NS != one.MaxNS {
		t.Fatalf("single-sample percentiles disagree: %+v", one)
	}
}

func TestLoadSnapshotArtifact(t *testing.T) {
	snap := loadSnapshot{Date: "2026-08-08", Sessions: 4, Chaos: true,
		ErrClass: map[string]uint64{"overload": 3}}
	if snap.Filename() != "BENCH_LOAD_2026-08-08.json" {
		t.Fatalf("filename = %s", snap.Filename())
	}
	out, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back loadSnapshot
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.ErrClass["overload"] != 3 || !back.Chaos {
		t.Fatalf("artifact did not round-trip: %+v", back)
	}
}
