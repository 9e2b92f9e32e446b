package core

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/proxy"
	"repro/internal/trace"
)

// runArtifacts is everything a run measures that an observer must not
// change.
type runArtifacts struct {
	pcap     []byte
	perfetto []byte // with a timeline armed only
	viaSpans int    // timeline spans a proxy originated
	client   httpclient.Result
	server   httpserver.Stats
	proxy    *proxy.Stats
	origin   *trace.Stats
	csv      map[string]string // the record's CSV cells by column
	metrics  exp.Metrics
}

func observedRun(t *testing.T, sc Scenario, opts ...Option) runArtifacts {
	t.Helper()
	var a runArtifacts
	res, err := Run(sc, testSite(t), append([]Option{WithCapture(), WithMetrics(&a.metrics)}, opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	var pc, pf bytes.Buffer
	if err := res.Capture.WritePcap(&pc); err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		if err := res.Timeline.WritePerfetto(&pf); err != nil {
			t.Fatal(err)
		}
		for _, sp := range res.Timeline.Spans() {
			if sp.Via != "" {
				a.viaSpans++
			}
		}
	}
	col := exp.NewCollector()
	col.Add(a.metrics)
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	a.csv = map[string]string{}
	for i, name := range rows[0] {
		a.csv[name] = rows[1][i]
	}
	a.pcap, a.perfetto = pc.Bytes(), pf.Bytes()
	a.client, a.server, a.proxy, a.origin = res.Client, res.Server, res.Proxy, res.Origin
	return a
}

// observerColumn reports whether an observer fills the CSV column: the
// timeline counts, the blame categories and critical path, and the
// latency quantiles.
func observerColumn(name string) bool {
	return strings.HasPrefix(name, "timeline_") || strings.HasPrefix(name, "blame_") ||
		name == "critical_path_ms" || strings.HasPrefix(name, "lat_")
}

// perturbObserver is one observer the non-perturbation tests arm.
type perturbObserver struct {
	name      string
	opts      []Option
	telemetry bool // arm the process-wide stream and flight recorder
}

// perturbScenario is one run the non-perturbation tests observe.
type perturbScenario struct {
	spec string
	seed uint64
}

// The scenarios cover the clean paper paths, loss recovery (retransmits,
// watchdog, retries) and both faulted framed modes; proxiedScenarios
// add warm and cold proxied runs.
var (
	directScenarios = []perturbScenario{
		{"apache/pipelined/LAN/first", 1},
		{"apache/pipelined/PPP/first", 1},
		{"apache/pipelined/WAN/first/burst-loss", 11},
		// mux-rst resets client-opened streams, and a mux-push client
		// opens only the root one, so each framed mode takes the fault
		// that fires on it.
		{"apache/mux/WAN/first/mux-rst", 1},
		{"apache/mux-push/WAN/first/mux-push-abort", 1},
	}
	proxiedScenarios = []perturbScenario{
		{"jigsaw/pipelined/WAN/first/proxy:WAN:warm", 1},
		{"apache/pipelined/PPP/first/proxy:WAN", 1},
	}
	allScenarios = append(append([]perturbScenario(nil), directScenarios...), proxiedScenarios...)
)

// checkDoesNotPerturb is the contract every observer hangs on: arming
// it leaves the run byte-identical to a bare one — same packet trace,
// same client, server, proxy and origin results, same CSV columns apart
// from the ones the observer fills. Each observer other than the
// timeline also leaves an armed timeline's Perfetto export unchanged,
// so it adds no bus events.
func checkDoesNotPerturb(t *testing.T, o perturbObserver, scenarios []perturbScenario) {
	t.Helper()
	for _, s := range scenarios {
		sc, err := ParseScenario(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = s.seed
		bare := observedRun(t, sc)
		timeline := observedRun(t, sc, WithTimeline())
		m := bare.metrics
		if sc.Fault != faults.None && m.FaultsInjected+m.Retransmissions+m.StreamsReset == 0 {
			t.Errorf("%s: fault profile never fired; recovery paths untested", s.spec)
		}
		// A cold proxy forwards every miss upstream in spans tagged with
		// its Via.
		if sc.Proxy != nil && !sc.Proxy.Warm && timeline.viaSpans == 0 {
			t.Errorf("%s: no spans tagged with the proxy's Via on an observed proxy run", s.spec)
		}
		t.Run(s.spec, func(t *testing.T) {
			run := func(opts ...Option) (a runArtifacts) {
				opts = append(opts, o.opts...)
				if !o.telemetry {
					return observedRun(t, sc, opts...)
				}
				withTelemetry(t, func(*bytes.Buffer, string) { a = observedRun(t, sc, opts...) })
				return a
			}
			got := run()
			if exposed := len(got.perfetto) > 0; exposed != (o.name == "timeline") {
				t.Errorf("RunResult.Timeline exposed = %v; only WithTimeline exposes the bus", exposed)
			}
			if !bytes.Equal(bare.pcap, got.pcap) {
				t.Error("pcap differs")
			}
			if bare.client != got.client {
				t.Errorf("client result differs:\n  bare     %+v\n  observed %+v", bare.client, got.client)
			}
			if !reflect.DeepEqual(bare.server, got.server) || !reflect.DeepEqual(bare.proxy, got.proxy) ||
				!reflect.DeepEqual(bare.origin, got.origin) {
				t.Errorf("server, proxy or origin results differ:\n  bare     %+v %+v %+v\n  observed %+v %+v %+v",
					bare.server, bare.proxy, bare.origin, got.server, got.proxy, got.origin)
			}
			for name, v := range bare.csv {
				if !observerColumn(name) && got.csv[name] != v {
					t.Errorf("CSV column %s: bare %q, observed %q", name, v, got.csv[name])
				}
			}
			if o.name != "timeline" && !bytes.Equal(timeline.perfetto, run(WithTimeline()).perfetto) {
				t.Error("Perfetto timeline differs with the observer armed")
			}
		})
	}
}

var timelineObserver = perturbObserver{"timeline", []Option{WithTimeline()}, false}

// TestTimelineDoesNotPerturb: a run observed by the full event bus
// measures identically to the same run without it.
func TestTimelineDoesNotPerturb(t *testing.T) {
	checkDoesNotPerturb(t, timelineObserver, directScenarios)
}

// TestProxyTimelineDoesNotPerturb extends the timeline's guarantee to
// multi-hop runs: observing a proxied run changes nothing any tier
// measures, and a cold proxy's upstream spans carry its Via.
func TestProxyTimelineDoesNotPerturb(t *testing.T) {
	checkDoesNotPerturb(t, timelineObserver, proxiedScenarios)
}

// TestStatsDoNotPerturb: collecting per-request latency histograms
// changes nothing the run measures.
func TestStatsDoNotPerturb(t *testing.T) {
	checkDoesNotPerturb(t, perturbObserver{"stats", []Option{WithStats()}, false}, allScenarios)
}

// TestBlameDoesNotPerturb: arming the delay-attribution analyzer
// changes nothing the run measures.
func TestBlameDoesNotPerturb(t *testing.T) {
	checkDoesNotPerturb(t, perturbObserver{"blame", []Option{WithBlame()}, false}, allScenarios)
}

// TestTelemetryDoesNotPerturb: with the telemetry stream and flight
// recorder armed the run is byte-identical; telemetry observes the run,
// it never steers it.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	checkDoesNotPerturb(t, perturbObserver{"flight+telemetry", nil, true}, allScenarios)
}
