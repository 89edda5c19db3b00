package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It sorts a copy and returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// metric is one reported figure. Base names the sample set or the
// denominator the value is computed over, with its count, so that every
// ratio states what it is a ratio of.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Base  string
}

// perVerdict divides a total by the number of verdicts it was accumulated
// over and records that base.
func perVerdict(name, unit string, total float64, verdicts int64, scope string) metric {
	return metric{Name: name, Unit: unit, Value: total / float64(verdicts),
		Base: fmt.Sprintf("per verdict over %d verdicts (%s)", verdicts, scope)}
}

// perVerdictMedian is the median over slices of a per-verdict ratio
// computed per slice (a pass over the corpus, or a slice of jobs).
func perVerdictMedian(name, unit string, perSlice []float64, verdicts int64, slices string) metric {
	return metric{Name: name, Unit: unit, Value: median(perSlice),
		Base: fmt.Sprintf("per verdict over %d verdicts; median of %d %s", verdicts, len(perSlice), slices)}
}

// fraction is part/whole with its base; 0 when whole is 0.
func fraction(name string, part, whole float64, scope string) metric {
	v := 0.0
	if whole > 0 {
		v = part / whole
	}
	return metric{Name: name, Unit: "1", Value: v, Base: fmt.Sprintf("%.0f of %.0f %s", part, whole, scope)}
}

// groupQuantileMetric reports the median over groups of samples (the
// passes or time slices of a window) of each group's nearest-rank p-th
// percentile, with the group and sample counts as its base. Host load that
// slows a minority of the groups moves a minority of the per-group figures
// and not their median, where a percentile over all samples of the window
// would take its tail from the slowed groups.
func groupQuantileMetric(name, unit string, groups [][]float64, p float64, group, what string) metric {
	var per []float64
	n := 0
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, percentile(g, p))
			n += len(g)
		}
	}
	return metric{Name: name, Unit: unit, Value: median(per),
		Base: fmt.Sprintf("median over %d %s of the nearest-rank p%.0f of their %s, %d in all", len(per), group, p, what, n)}
}

// groups cuts samples at the given end offsets.
func groups(samples []float64, ends []int) [][]float64 {
	out := make([][]float64, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		out = append(out, samples[lo:hi])
		lo = hi
	}
	return out
}

// medianMetric reports the median of per-slice values with the slice count
// as its base.
func medianMetric(name, unit string, perSlice []float64, what string) metric {
	return metric{Name: name, Unit: unit, Value: median(perSlice),
		Base: fmt.Sprintf("median of %d %s", len(perSlice), what)}
}

// notReached is a per-layer metric of a layer the workload does not run
// through; it reads 0 and says why.
func notReached(name, unit, why string) metric {
	return metric{Name: name, Unit: unit, Value: 0, Base: "not reached: " + why}
}
