package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netem"
)

func TestStatsDisabledByDefault(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	var m exp.Metrics
	res, err := core.Run(timelineScenario(netem.LAN), site, core.WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != nil {
		t.Fatal("Latency non-nil without WithStats")
	}
	if m.Dist != nil {
		t.Fatalf("Dist metrics present without WithStats: %v", m.Dist)
	}
}

// TestStatsLatencyMatchesRequests checks the collected latency set
// covers every completed request, and that the derived metric keys are
// the documented stable dozen.
func TestStatsLatencyMatchesRequests(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	var m exp.Metrics
	res, err := core.Run(timelineScenario(netem.PPP), site, core.WithStats(), core.WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil {
		t.Fatal("no latency set with WithStats")
	}
	if got := res.Latency.Count(); got != int64(res.Client.Requests) {
		t.Fatalf("latency set has %d observations for %d requests", got, res.Client.Requests)
	}
	if res.Latency.Total.Min() < 0 {
		t.Fatal("negative total latency")
	}
	// Queue ≤ total for every request, so the aggregate maxima must be
	// ordered too.
	if res.Latency.Queue.Max() > res.Latency.Total.Max() {
		t.Fatalf("queue max %d exceeds total max %d",
			res.Latency.Queue.Max(), res.Latency.Total.Max())
	}
	if len(m.Dist) != 12 {
		t.Fatalf("got %d dist keys, want 12: %v", len(m.Dist), m.Dist)
	}
	for _, key := range []string{
		"lat_queue_ms_p50", "lat_queue_ms_p90", "lat_queue_ms_p99", "lat_queue_ms_max",
		"lat_ttfb_ms_p50", "lat_ttfb_ms_p90", "lat_ttfb_ms_p99", "lat_ttfb_ms_max",
		"lat_total_ms_p50", "lat_total_ms_p90", "lat_total_ms_p99", "lat_total_ms_max",
	} {
		if _, ok := m.Dist[key]; !ok {
			t.Errorf("dist missing %s", key)
		}
	}
	if m.Dist["lat_total_ms_p50"] > m.Dist["lat_total_ms_p99"] {
		t.Errorf("p50 %.1f > p99 %.1f", m.Dist["lat_total_ms_p50"], m.Dist["lat_total_ms_p99"])
	}
	if m.Dist["lat_total_ms_max"] <= 0 {
		t.Errorf("non-positive max latency %v", m.Dist["lat_total_ms_max"])
	}
}
