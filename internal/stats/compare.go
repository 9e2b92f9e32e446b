package stats

import (
	"math"
	"sort"
	"strings"
)

// Sample is one metric's value population in one cell of a snapshot —
// the unit Compare works on. Cell identifies the measurement context
// (an experiment/scenario pair, a benchmark name); Metric names the
// measured quantity; Better is its polarity when the snapshot format
// declares one; Values holds one entry per repetition (a single entry
// for unreplicated snapshots like bench output).
type Sample struct {
	Cell   string
	Metric string
	Unit   string
	Better Polarity
	Values []float64
}

// Polarity says which way a metric improves.
type Polarity int8

const (
	// ByName, the zero value, leaves the polarity to Direction's naming
	// rules: the case for benchmark snapshots, whose metrics declare
	// none.
	ByName Polarity = iota
	LowerIsBetter
	HigherIsBetter
	// Ungated marks bookkeeping quantities that must not be gated on
	// (seeds, run indices, event counts).
	Ungated
)

// direction is the sample's polarity as Compare uses it: +1 when a
// higher value is worse, −1 when higher is better, 0 when ungated.
func (s Sample) direction() int {
	switch s.Better {
	case LowerIsBetter:
		return 1
	case HigherIsBetter:
		return -1
	case Ungated:
		return 0
	}
	return Direction(s.Metric)
}

// Options tunes Compare. ThresholdPct is the minimum |relative delta|
// (percent) for a difference to matter; differences below it are noise
// regardless of significance. Zero means the default 5%.
type Options struct {
	ThresholdPct float64
}

// DefaultThresholdPct is the delta floor used when Options leaves it 0.
const DefaultThresholdPct = 5.0

// Delta is the comparison of one (cell, metric) pair across two
// snapshots. Significant means the relative delta exceeded the
// threshold AND the two 95% confidence intervals do not overlap — both
// conditions must hold, so neither a tiny-but-tight change nor a
// large-but-noisy one trips the gate. Regression and Improvement
// qualify a significant delta by the metric's polarity.
type Delta struct {
	Cell     string
	Metric   string
	Unit     string
	Old, New Summary
	// DeltaPct is 100·(new−old)/old; ±Inf when old is zero and new is
	// not.
	DeltaPct    float64
	Significant bool
	Regression  bool
	Improvement bool
}

// Direction classifies a benchmark metric's polarity by its name, for
// samples that declare none: −1 (higher is better) for throughputs
// (_per_sec) and speedups (_speedup_ratio), +1 (higher is worse) for
// everything else — ns/op, seconds, packets, bytes, allocations.
func Direction(metric string) int {
	if strings.HasSuffix(metric, "_per_sec") || strings.HasSuffix(metric, "_speedup_ratio") {
		return -1
	}
	return 1
}

// Compare pairs the samples of two snapshots by (cell, metric) and
// returns one Delta per pair present on both sides, ordered by cell
// then metric. Ungated metrics are skipped. A delta is flagged
// Significant only when it exceeds opt.ThresholdPct and the Student-t
// 95% confidence intervals of the two populations are disjoint.
func Compare(old, new []Sample, opt Options) []Delta {
	threshold := opt.ThresholdPct
	if threshold == 0 {
		threshold = DefaultThresholdPct
	}
	type key struct{ cell, metric string }
	olds := make(map[key]Sample, len(old))
	for _, s := range old {
		olds[key{s.Cell, s.Metric}] = s
	}
	var out []Delta
	for _, s := range new {
		dir := s.direction()
		if dir == 0 {
			continue
		}
		o, ok := olds[key{s.Cell, s.Metric}]
		if !ok {
			continue
		}
		d := Delta{
			Cell: s.Cell, Metric: s.Metric, Unit: s.Unit,
			Old: Summarize(o.Values), New: Summarize(s.Values),
		}
		switch {
		case d.Old.Mean != 0:
			d.DeltaPct = 100 * (d.New.Mean - d.Old.Mean) / d.Old.Mean
		case d.New.Mean > 0:
			d.DeltaPct = math.Inf(1)
		case d.New.Mean < 0:
			d.DeltaPct = math.Inf(-1)
		}
		if math.Abs(d.DeltaPct) >= threshold && !d.Old.Overlaps(d.New) {
			d.Significant = true
			worse := d.New.Mean > d.Old.Mean
			if dir < 0 {
				worse = !worse
			}
			d.Regression = worse
			d.Improvement = !worse
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}
