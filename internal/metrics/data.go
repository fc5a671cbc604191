package metrics

// Data-movement metrics: bytes moved per storage route, locality hit
// rates, staging wall time, and transfer-bandwidth timelines — the
// analysis layer over the data subsystem's per-transfer traces.

import (
	"sort"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// DataSummary aggregates the data subsystem's activity for one run.
type DataSummary struct {
	// Transfers is the number of completed transfers; BytesMoved their
	// total size.
	Transfers  int
	BytesMoved int64
	// BytesByRoute breaks bytes down by "src→dst" channel pair (node
	// channels collapse to "nvme").
	BytesByRoute map[string]int64
	// Hits / Misses count input-directive locality lookups across all
	// task traces.
	Hits   int
	Misses int
	// StageInTotal / StageOutTotal sum the wall time tasks spent staging.
	StageInTotal  sim.Duration
	StageOutTotal sim.Duration
}

// HitRate returns hits/(hits+misses), zero before any lookup.
func (s DataSummary) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// routeKey collapses per-node channel names so routes aggregate across
// nodes ("nvme:12" → "nvme").
func routeKey(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return name
}

// SummarizeData derives the data summary from task and transfer traces.
func SummarizeData(tasks []*profiler.TaskTrace, transfers []profiler.TransferTrace) DataSummary {
	s := DataSummary{BytesByRoute: make(map[string]int64)}
	for _, t := range transfers {
		s.Transfers++
		s.BytesMoved += t.Bytes
		s.BytesByRoute[routeKey(t.Src)+"→"+routeKey(t.Dst)] += t.Bytes
	}
	for _, t := range tasks {
		s.Hits += t.DataHits
		s.Misses += t.DataMisses
		s.StageInTotal += t.StageIn
		s.StageOutTotal += t.StageOut
	}
	return s
}

// Routes returns the summary's route keys sorted by bytes descending (key
// ascending on ties), for stable report output.
func (s DataSummary) Routes() []string {
	keys := make([]string, 0, len(s.BytesByRoute))
	for k := range s.BytesByRoute {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if s.BytesByRoute[keys[i]] != s.BytesByRoute[keys[j]] {
			return s.BytesByRoute[keys[i]] > s.BytesByRoute[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
