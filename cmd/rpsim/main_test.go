package main

import "testing"

func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		name               string
		nodes, pilots, rep int
		ok                 bool
	}{
		{"defaults", 4, 1, 3, true},
		{"one node per pilot", 4, 4, 1, true},
		{"zero nodes", 0, 1, 3, false},
		{"negative nodes", -2, 1, 3, false},
		{"zero pilots", 4, 0, 3, false},
		{"more pilots than nodes", 3, 4, 3, false},
		{"zero reps", 4, 1, 0, false},
		{"negative reps", 4, 1, -1, false},
	} {
		err := checkSizes(tc.nodes, tc.pilots, tc.rep)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkSizes(%d, %d, %d) = %v, want ok=%v",
				tc.name, tc.nodes, tc.pilots, tc.rep, err, tc.ok)
		}
	}
}
