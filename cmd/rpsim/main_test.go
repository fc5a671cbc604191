package main

import "testing"

func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		name, exp                     string
		nodes, pilots, rep, instances int
		ok                            bool
	}{
		{"defaults", "flux_n", 4, 1, 3, 1, true},
		{"one node per pilot", "flux_n", 4, 4, 1, 1, true},
		{"one node per instance", "flux_n", 4, 1, 1, 4, true},
		{"zero nodes", "flux_n", 0, 1, 3, 1, false},
		{"negative nodes", "flux_n", -2, 1, 3, 1, false},
		{"zero pilots", "flux_n", 4, 0, 3, 1, false},
		{"more pilots than nodes", "flux_n", 3, 4, 3, 1, false},
		{"zero reps", "flux_n", 4, 1, 0, 1, false},
		{"negative reps", "flux_n", 4, 1, -1, 1, false},
		{"zero instances", "flux_n", 4, 1, 3, 0, false},
		{"negative instances", "flux_n", 4, 1, 3, -1, false},
		{"more instances than nodes", "flux_n", 4, 1, 3, 9, false},
		{"flux_dragon, zero instances", "flux_dragon", 4, 1, 3, 0, false},
		{"flux_dragon, more instances than nodes", "flux_dragon", 4, 1, 3, 9, false},
		{"srun ignores instances", "srun", 2, 1, 3, 4, true},
		{"impeccable_flux ignores instances", "impeccable_flux", 2, 1, 3, 0, true},
	} {
		err := checkSizes(tc.exp, tc.nodes, tc.pilots, tc.rep, tc.instances)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkSizes(%q, %d, %d, %d, %d) = %v, want ok=%v",
				tc.name, tc.exp, tc.nodes, tc.pilots, tc.rep, tc.instances, err, tc.ok)
		}
	}
}
