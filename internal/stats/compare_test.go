package stats

import (
	"math"
	"testing"
)

func samples(cell, metric string, values ...float64) []Sample {
	return []Sample{{Cell: cell, Metric: metric, Values: values}}
}

// TestCompareFlagsInjectedRegression: a tight population shifted well
// past the threshold must come back Significant and a Regression.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	old := samples("a/b", "elapsed_seconds", 1.00, 1.01, 0.99, 1.00, 1.00)
	new := samples("a/b", "elapsed_seconds", 1.50, 1.51, 1.49, 1.50, 1.50)
	ds := Compare(old, new, Options{ThresholdPct: 5})
	if len(ds) != 1 {
		t.Fatalf("got %d deltas, want 1", len(ds))
	}
	d := ds[0]
	if !d.Significant || !d.Regression || d.Improvement {
		t.Fatalf("delta not flagged as regression: %+v", d)
	}
	if math.Abs(d.DeltaPct-50) > 1 {
		t.Fatalf("delta %.1f%%, want ≈50%%", d.DeltaPct)
	}
	// The reverse direction is an improvement, not a regression.
	rev := Compare(new, old, Options{ThresholdPct: 5})
	if !rev[0].Significant || rev[0].Regression || !rev[0].Improvement {
		t.Fatalf("reverse delta not an improvement: %+v", rev[0])
	}
}

// TestCompareOverlappingCIsNotSignificant: a large delta whose noise
// bands still overlap must not trip the gate.
func TestCompareOverlappingCIsNotSignificant(t *testing.T) {
	old := samples("a/b", "elapsed_seconds", 1.0, 2.0, 3.0, 4.0, 5.0)
	new := samples("a/b", "elapsed_seconds", 1.5, 2.5, 3.5, 4.5, 5.5)
	ds := Compare(old, new, Options{ThresholdPct: 5})
	if len(ds) != 1 || ds[0].Significant {
		t.Fatalf("noisy delta flagged significant: %+v", ds)
	}
}

// TestCompareBelowThresholdNotSignificant: disjoint CIs with a delta
// under the threshold stay quiet.
func TestCompareBelowThresholdNotSignificant(t *testing.T) {
	old := samples("a/b", "packets", 100.0, 100.0, 100.0, 100.1, 99.9)
	new := samples("a/b", "packets", 102.0, 102.0, 102.0, 102.1, 101.9)
	ds := Compare(old, new, Options{ThresholdPct: 5})
	if len(ds) != 1 || ds[0].Significant {
		t.Fatalf("2%% delta flagged at 5%% threshold: %+v", ds)
	}
}

// TestCompareHigherIsBetterMetrics: a drop in a higher-is-better metric
// is the regression, whether the sample declares its polarity or the
// benchmark naming rules supply it.
func TestCompareHigherIsBetterMetrics(t *testing.T) {
	old := samples("a/b", "cache_hit_ratio", 0.90, 0.91, 0.89, 0.90, 0.90)
	new := samples("a/b", "cache_hit_ratio", 0.50, 0.51, 0.49, 0.50, 0.50)
	old[0].Better, new[0].Better = HigherIsBetter, HigherIsBetter
	ds := Compare(old, new, Options{})
	if len(ds) != 1 || !ds[0].Regression {
		t.Fatalf("hit-ratio drop not a regression: %+v", ds)
	}
	for metric, want := range map[string]int{
		"ns_per_op": 1, "allocs_per_packet": 1, "pipeline_first_sec": 1,
		"events_per_sec": -1, "mux_frames_per_sec": -1, "engine_speedup_ratio": -1,
	} {
		if got := Direction(metric); got != want {
			t.Errorf("Direction(%q) = %d, want %d", metric, got, want)
		}
	}
}

// TestDirectionCriticalPath: the attribution metrics gate as
// lower-is-better costs — a critical-path increase is a regression.
func TestDirectionCriticalPath(t *testing.T) {
	for _, metric := range []string{"critical_path_ms", "blame_nagle_ms", "blame_connect_ms"} {
		if d := Direction(metric); d != 1 {
			t.Errorf("Direction(%q) = %d, want 1 (higher is worse)", metric, d)
		}
	}
	old := samples("a/b", "critical_path_ms", 100, 101, 99, 100, 100)
	new := samples("a/b", "critical_path_ms", 150, 151, 149, 150, 150)
	ds := Compare(old, new, Options{ThresholdPct: 5})
	if len(ds) != 1 || !ds[0].Regression || ds[0].Improvement {
		t.Fatalf("critical-path growth not a regression: %+v", ds)
	}
}

// TestCompareSkipsNeutralAndUnpaired: bookkeeping metrics and cells
// missing on one side produce no deltas.
func TestCompareSkipsNeutralAndUnpaired(t *testing.T) {
	old := append(samples("a/b", "seed", 1, 2), samples("only-old", "packets", 5)...)
	new := append(samples("a/b", "seed", 3, 4), samples("only-new", "packets", 5)...)
	old[0].Better, new[0].Better = Ungated, Ungated
	if ds := Compare(old, new, Options{}); len(ds) != 0 {
		t.Fatalf("neutral/unpaired compared: %+v", ds)
	}
}

// TestCompareSingleValueSnapshots: bench-style single observations have
// zero-width CIs, so the threshold alone decides.
func TestCompareSingleValueSnapshots(t *testing.T) {
	old := samples("bench:X", "ns_per_op", 100)
	fast := Compare(old, samples("bench:X", "ns_per_op", 103), Options{ThresholdPct: 5})
	if fast[0].Significant {
		t.Fatalf("3%% single-value delta flagged: %+v", fast[0])
	}
	slow := Compare(old, samples("bench:X", "ns_per_op", 150), Options{ThresholdPct: 5})
	if !slow[0].Significant || !slow[0].Regression {
		t.Fatalf("50%% single-value delta not flagged: %+v", slow[0])
	}
}

// TestCompareZeroBaseline: growth from a zero mean is an infinite
// relative delta and must flag when the CIs are disjoint.
func TestCompareZeroBaseline(t *testing.T) {
	old := samples("a/b", "retransmissions", 0, 0, 0)
	new := samples("a/b", "retransmissions", 12, 13, 11)
	ds := Compare(old, new, Options{})
	if len(ds) != 1 || !ds[0].Regression || !math.IsInf(ds[0].DeltaPct, 1) {
		t.Fatalf("zero-baseline growth not flagged: %+v", ds)
	}
}

func TestCompareOrderingDeterministic(t *testing.T) {
	old := []Sample{
		{Cell: "b", Metric: "m2", Values: []float64{1}},
		{Cell: "a", Metric: "m1", Values: []float64{1}},
		{Cell: "b", Metric: "m1", Values: []float64{1}},
	}
	new := []Sample{
		{Cell: "b", Metric: "m1", Values: []float64{1}},
		{Cell: "b", Metric: "m2", Values: []float64{1}},
		{Cell: "a", Metric: "m1", Values: []float64{1}},
	}
	ds := Compare(old, new, Options{})
	want := [][2]string{{"a", "m1"}, {"b", "m1"}, {"b", "m2"}}
	if len(ds) != len(want) {
		t.Fatalf("got %d deltas, want %d", len(ds), len(want))
	}
	for i, w := range want {
		if ds[i].Cell != w[0] || ds[i].Metric != w[1] {
			t.Fatalf("delta %d = %s/%s, want %s/%s", i, ds[i].Cell, ds[i].Metric, w[0], w[1])
		}
	}
}
