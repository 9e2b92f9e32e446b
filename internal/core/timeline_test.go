package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
)

func timelineScenario(env netem.Environment) core.Scenario {
	return core.Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      env,
		Workload: httpclient.FirstTime,
		Seed:     1,
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	var m exp.Metrics
	res, err := core.Run(timelineScenario(netem.LAN), site, core.WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Fatal("Timeline non-nil without WithTimeline")
	}
	if m.TimelineEvents != 0 || m.TimelineSpans != 0 {
		t.Fatalf("timeline metrics %d/%d without WithTimeline", m.TimelineEvents, m.TimelineSpans)
	}
}

func TestTimelineSpansMatchRequests(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	var m exp.Metrics
	res, err := core.Run(timelineScenario(netem.LAN), site, core.WithTimeline(), core.WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	bus := res.Timeline
	if bus == nil {
		t.Fatal("no timeline with WithTimeline")
	}
	spans := bus.Spans()
	if len(spans) != res.Client.Requests {
		t.Fatalf("%d spans for %d requests", len(spans), res.Client.Requests)
	}
	if m.TimelineSpans != len(spans) || m.TimelineEvents != bus.Len() {
		t.Fatalf("metrics (%d events, %d spans) disagree with bus (%d, %d)",
			m.TimelineEvents, m.TimelineSpans, bus.Len(), len(spans))
	}
	for _, sp := range spans {
		if sp.Done == obs.NoTime {
			t.Fatalf("span %d (%s) never completed", sp.ID, sp.Path)
		}
		if sp.Queued > sp.Written || sp.Written > sp.FirstByte || sp.FirstByte > sp.Done {
			t.Fatalf("span %d instants out of order: %+v", sp.ID, sp)
		}
		if sp.Status != 200 {
			t.Fatalf("span %d status %d", sp.ID, sp.Status)
		}
	}
	if len(bus.Conns()) == 0 {
		t.Fatal("no connections recorded")
	}
	rows := bus.Waterfall()
	if len(rows) != len(spans) {
		t.Fatalf("%d waterfall rows for %d spans", len(rows), len(spans))
	}
	// Pipelined mode: everything after the first request reuses the
	// connection.
	reused := 0
	for _, r := range rows {
		if r.Reused {
			reused++
		}
	}
	if reused != len(rows)-1 {
		t.Fatalf("%d reused rows, want %d", reused, len(rows)-1)
	}
	var buf bytes.Buffer
	report.WriteWaterfall(&buf, bus, nil)
	if buf.Len() == 0 {
		t.Fatal("empty waterfall table")
	}
}

// TestPcapFromFullScenario is the acceptance criterion for -pcap: the
// capture of a complete run must parse cleanly under the strict reader.
func TestPcapFromFullScenario(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(timelineScenario(netem.PPP), site, core.WithCapture())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Capture.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := trace.ParsePcap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Packets) != res.Stats.Packets {
		t.Fatalf("pcap has %d packets, stats say %d", len(f.Packets), res.Stats.Packets)
	}
	syns, last := 0, int64(-1)
	for i, p := range f.Packets {
		if p.TimeNanos < last {
			t.Fatalf("packet %d timestamp not monotone", i)
		}
		last = p.TimeNanos
		if p.Flags == 0 {
			t.Fatalf("packet %d has no TCP flags", i)
		}
		if p.Flags&0x02 != 0 && p.Flags&0x10 == 0 {
			syns++
		}
	}
	if syns != res.Stats.Connections {
		t.Fatalf("%d bare SYNs in pcap, stats say %d connections", syns, res.Stats.Connections)
	}
}

func TestPerfettoFromFullScenario(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(timelineScenario(netem.PPP), site, core.WithTimeline())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Timeline.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	counts := map[string]int{}
	for i, ev := range out.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil || ev.Pid == nil {
			t.Fatalf("event %d incomplete: %+v", i, ev)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Fatalf("complete event %d lacks dur", i)
		}
		counts[ev.Ph]++
	}
	if counts["b"] != counts["e"] {
		t.Fatalf("unbalanced async spans: %d begins, %d ends", counts["b"], counts["e"])
	}
	// A PPP pipelined run has request spans, state slices, wire slices,
	// and cwnd counters.
	for _, ph := range []string{"M", "X", "b", "C"} {
		if counts[ph] == 0 {
			t.Errorf("no %q events in full-scenario trace", ph)
		}
	}
}
