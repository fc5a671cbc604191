package main

import (
	"strings"
	"testing"
)

func bm(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: metrics}
}

func TestShardDeltaLineBothSides(t *testing.T) {
	old := bm("Fig8", map[string]float64{"ns/op": 100, "windows": 200, "barrier_stall_ms": 4, "lookahead_eff": 150})
	new_ := bm("Fig8", map[string]float64{"ns/op": 90, "windows": 220, "barrier_stall_ms": 2, "lookahead_eff": 150})
	line := shardDeltaLine(old, new_)
	if line == "" {
		t.Fatal("expected a telemetry sub-line when both sides carry the keys")
	}
	for _, want := range []string{
		"windows 200.0 -> 220.0 (+10.0%)",
		"barrier_stall_ms 4.0 -> 2.0 (-50.0%)",
		"lookahead_eff 150.0 -> 150.0 (+0.0%)",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("sub-line %q missing %q", line, want)
		}
	}
	if !strings.HasPrefix(line, "      ") {
		t.Errorf("sub-line should be indented under the benchmark row, got %q", line)
	}
}

func TestShardDeltaLineMissingOnOneSide(t *testing.T) {
	// An old archive from before the telemetry existed must not produce a
	// sub-line — the keys have to be present on BOTH sides.
	old := bm("Fig8", map[string]float64{"ns/op": 100})
	new_ := bm("Fig8", map[string]float64{"ns/op": 90, "windows": 220, "barrier_stall_ms": 2})
	if line := shardDeltaLine(old, new_); line != "" {
		t.Fatalf("expected no sub-line when old archive lacks the keys, got %q", line)
	}
	if line := shardDeltaLine(new_, old); line != "" {
		t.Fatalf("expected no sub-line when new archive lacks the keys, got %q", line)
	}
}

func TestShardDeltaLinePartialOverlap(t *testing.T) {
	// Only the shared key shows up.
	old := bm("Fig8", map[string]float64{"windows": 100})
	new_ := bm("Fig8", map[string]float64{"windows": 100, "barrier_stall_ms": 3})
	line := shardDeltaLine(old, new_)
	if !strings.Contains(line, "windows") || strings.Contains(line, "barrier_stall_ms") {
		t.Fatalf("expected only the shared windows delta, got %q", line)
	}
}

func TestShardDeltaLineZeroBaseline(t *testing.T) {
	old := bm("Fig8", map[string]float64{"barrier_stall_ms": 0})
	new_ := bm("Fig8", map[string]float64{"barrier_stall_ms": 5})
	line := shardDeltaLine(old, new_)
	if !strings.Contains(line, "+Inf") {
		t.Fatalf("a zero baseline that grew should render an unbounded delta, got %q", line)
	}
	// Zero on both sides is a clean 0% — not NaN.
	same := shardDeltaLine(old, bm("Fig8", map[string]float64{"barrier_stall_ms": 0}))
	if strings.Contains(same, "NaN") {
		t.Fatalf("0 -> 0 must not render NaN, got %q", same)
	}
}

func TestParseLineRoundTripsShardMetrics(t *testing.T) {
	// A bench line carrying the sharded telemetry units parses into the
	// metrics map the diff sub-line reads.
	line := "BenchmarkFig8ImpeccableFlux65536-4   1   123456 ns/op   2.5 barrier_stall_ms   200 windows   150 lookahead_eff"
	b, ok := parseLine(line)
	if !ok {
		t.Fatal("line should parse")
	}
	if b.Metrics["barrier_stall_ms"] != 2.5 || b.Metrics["windows"] != 200 || b.Metrics["lookahead_eff"] != 150 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
}

func TestDiffRowAllocsOnlyIgnoresHostTime(t *testing.T) {
	old := bm("FailureSweepCell", map[string]float64{"ns/op": 100, "allocs/op": 1000, "B/op": 50000})
	slower := bm("FailureSweepCell", map[string]float64{"ns/op": 300, "allocs/op": 1000, "B/op": 50000})
	if _, regressed := diffRow(old, slower, allocMetrics, 15); regressed {
		t.Fatal("a slower host with the same allocations must pass the allocation gate")
	}
	if _, regressed := diffRow(old, slower, diffMetrics, 15); !regressed {
		t.Fatal("the default gate must still catch a 3x ns/op regression")
	}
	for _, grown := range []map[string]float64{
		{"ns/op": 100, "allocs/op": 1200, "B/op": 50000},
		{"ns/op": 100, "allocs/op": 1000, "B/op": 60000},
	} {
		row, regressed := diffRow(old, bm("FailureSweepCell", grown), allocMetrics, 15)
		if !regressed {
			t.Fatalf("20%% more allocs/op or B/op must fail the allocation gate: %s", row)
		}
	}
	if _, regressed := diffRow(bm("X", map[string]float64{"B/op": 0}), bm("X", map[string]float64{"B/op": 8}), allocMetrics, 15); !regressed {
		t.Fatal("a zero B/op baseline that grew is an unbounded regression")
	}
}
