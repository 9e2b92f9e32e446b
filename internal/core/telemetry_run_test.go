package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// withTelemetry installs a stream and flight recorder for the duration
// of fn and restores the previous globals afterwards, so the rest of
// the package's tests keep running unobserved.
func withTelemetry(t *testing.T, fn func(stream *bytes.Buffer, flightDir string)) {
	t.Helper()
	var buf bytes.Buffer
	st := telemetry.NewStream(&buf)
	dir := t.TempDir()
	fl, err := telemetry.NewFlight(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	prevSt := telemetry.SetStream(st)
	prevFl := telemetry.SetFlight(fl)
	defer func() {
		telemetry.SetStream(prevSt)
		telemetry.SetFlight(prevFl)
	}()
	fn(&buf, dir)
}

// TestFlightDumpOnWatchdog runs a stall-fault cell — the scripted way to
// trip the client watchdog — and checks the recorder leaves a parseable
// pair of artifacts behind and announces them on the stream.
func TestFlightDumpOnWatchdog(t *testing.T) {
	site := testSite(t)
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Seed:     3,
		Fault:    faults.Stall,
	}
	withTelemetry(t, func(stream *bytes.Buffer, flightDir string) {
		res, err := Run(sc, site)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if res.Client.Timeouts < 1 {
			t.Fatal("stall fault did not trip the watchdog; dump trigger untested")
		}

		perfettoPath := findDump(t, flightDir, "watchdog", ".perfetto.json")
		pcapPath := findDump(t, flightDir, "watchdog", ".pcap")

		// The Perfetto dump must be a well-formed trace with events.
		data, err := os.ReadFile(perfettoPath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("flight Perfetto dump is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatal("flight Perfetto dump has no trace events")
		}

		// The pcap must survive the analyzer-grade parser.
		raw, err := os.ReadFile(pcapPath)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := trace.ParsePcap(raw)
		if err != nil {
			t.Fatalf("flight pcap dump does not parse: %v", err)
		}
		if len(pf.Packets) == 0 {
			t.Fatal("flight pcap dump has no packets")
		}

		// The stream must carry a flight record pointing at the dump.
		counts, err := telemetry.ValidateStream(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatalf("stream does not validate: %v", err)
		}
		if counts[telemetry.RecordFlight] < 1 {
			t.Fatalf("stream has %d flight records, want >= 1", counts[telemetry.RecordFlight])
		}
		if !strings.Contains(stream.String(), `"reason":"watchdog"`) {
			t.Fatal("flight record on the stream does not carry the watchdog reason")
		}
	})
}

// TestFlightDumpOnPanic pins the crash path: a panic on the simulation
// goroutine must leave a dump behind and then propagate — the recorder
// may not swallow the crash.
func TestFlightDumpOnPanic(t *testing.T) {
	site := testSite(t)
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.FirstTime)

	testHookAfterRun = func(Scenario) { panic("telemetry test: injected crash") }
	defer func() { testHookAfterRun = nil }()

	withTelemetry(t, func(stream *bytes.Buffer, flightDir string) {
		recovered := func() (r any) {
			defer func() { r = recover() }()
			Run(sc, site)
			return nil
		}()
		if recovered == nil {
			t.Fatal("injected panic was swallowed by the flight recorder")
		}
		if s, ok := recovered.(string); !ok || !strings.Contains(s, "injected crash") {
			t.Fatalf("recovered %v, want the injected panic value", recovered)
		}
		findDump(t, flightDir, "panic", ".perfetto.json")
		raw, err := os.ReadFile(findDump(t, flightDir, "panic", ".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ParsePcap(raw); err != nil {
			t.Fatalf("panic-path pcap does not parse: %v", err)
		}
	})
}

// findDump locates the single flight artifact for reason with the given
// suffix, failing the test when it is missing or ambiguous.
func findDump(t *testing.T, dir, reason, suffix string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var match string
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, "-"+reason+suffix) && strings.HasSuffix(name, suffix) {
			if match != "" {
				t.Fatalf("multiple %s dumps with suffix %s in %s", reason, suffix, dir)
			}
			match = filepath.Join(dir, name)
		}
	}
	if match == "" {
		t.Fatalf("no %s dump with suffix %s in %s (have %v)", reason, suffix, dir, names(entries))
	}
	return match
}

func names(entries []os.DirEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name()
	}
	return out
}
