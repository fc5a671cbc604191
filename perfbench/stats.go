package main

import "sort"

// quantile returns the q-quantile of v by linear interpolation between
// the closest ranks (0 for an empty sample). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// meanOf is the mean of one field over the input pool's simulated
// results. The pool mixes launch paths whose results differ by orders of
// magnitude, so a median would jump between paths from seed to seed.
func meanOf(sims []simStats, field func(simStats) float64) float64 {
	v := make([]float64, len(sims))
	for i, s := range sims {
		v[i] = field(s)
	}
	return mean(v)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
