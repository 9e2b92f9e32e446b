package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/stats"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const benchOld = `{
  "schema": "benchjson/1",
  "date": "2026-08-01",
  "benchmarks": [
    {"name": "Table4", "procs": 1, "iterations": 1, "ns_per_op": 1000,
     "metrics": {"pipeline_first_sec": 0.486, "pipeline_first_pa": 206}}
  ],
  "units": {"ns_per_op": "ns/op", "pipeline_first_sec": "seconds", "pipeline_first_pa": "packets"}
}`

// TestInjectedRegressionFails is the acceptance criterion: a snapshot
// with a significant injected regression must exit non-zero.
func TestInjectedRegressionFails(t *testing.T) {
	benchNew := strings.Replace(benchOld, "0.486", "0.986", 1) // ≈ +103%
	old := write(t, "old.json", benchOld)
	newer := write(t, "new.json", benchNew)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on injected regression, want 1\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "REGRESS bench:Table4 pipeline_first_sec") {
		t.Errorf("regression line missing:\n%s", out)
	}
	if !strings.Contains(out, "1 regressions") {
		t.Errorf("summary missing regression count:\n%s", out)
	}
}

func TestIdenticalSnapshotsPass(t *testing.T) {
	old := write(t, "old.json", benchOld)
	newer := write(t, "new.json", benchOld)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on identical snapshots, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "0 regressions") {
		t.Errorf("summary wrong:\n%s", stdout.String())
	}
}

func TestBelowThresholdPasses(t *testing.T) {
	benchNew := strings.Replace(benchOld, "0.486", "0.500", 1) // ≈ +2.9%
	old := write(t, "old.json", benchOld)
	newer := write(t, "new.json", benchNew)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on below-threshold delta, want 0", code)
	}
	// But a tighter threshold flags it.
	if code := run([]string{"-threshold", "2", old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with -threshold 2, want 1", code)
	}
}

func TestAnnotateEmitsWarning(t *testing.T) {
	benchNew := strings.Replace(benchOld, "0.486", "0.986", 1)
	old := write(t, "old.json", benchOld)
	newer := write(t, "new.json", benchNew)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-annotate", old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "::warning title=perfdiff regression::bench:Table4 pipeline_first_sec") {
		t.Errorf("no GitHub annotation:\n%s", stdout.String())
	}
}

// TestRunsPopulationsUseCIs: replicated httpperf runs form populations;
// a large delta whose CIs overlap must NOT gate.
func TestRunsPopulationsUseCIs(t *testing.T) {
	// Old cell: mean 10, tight. New cell: mean 13 (+30%) but enormous
	// spread, so the CIs overlap and the delta is noise.
	oldJSON := `{"runs": [
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 9.9},
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 10.0},
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 10.1}
	]}`
	newJSON := `{"runs": [
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 1.0},
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 13.0},
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 25.0}
	]}`
	old := write(t, "old.json", oldJSON)
	newer := write(t, "new.json", newJSON)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on overlapping-CI delta, want 0\n%s", code, stdout.String())
	}
	// The same means with tight new-side spread DO gate.
	tight := `{"runs": [
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 12.9},
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 13.0},
	  {"experiment": "e", "scenario": "s", "elapsed_seconds": 13.1}
	]}`
	tightPath := write(t, "tight.json", tight)
	if code := run([]string{old, tightPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on disjoint-CI regression, want 1\n%s", code, stdout.String())
	}
}

func TestCSVInput(t *testing.T) {
	oldCSV := "experiment,scenario,seed,run,packets,elapsed_seconds\n" +
		"e,s,1,0,100,2.0\n" +
		"e,s,2,0,102,2.1\n"
	newCSV := "experiment,scenario,seed,run,packets,elapsed_seconds\n" +
		"e,s,1,0,300,2.0\n" +
		"e,s,2,0,302,2.1\n"
	old := write(t, "old.csv", oldCSV)
	newer := write(t, "new.csv", newCSV)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on tripled packets, want 1\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "e/s packets") || !strings.Contains(out, "[packets]") {
		t.Errorf("packets regression missing:\n%s", out)
	}
	// seed and run are bookkeeping: never compared.
	if strings.Contains(out, "e/s seed") || strings.Contains(out, "e/s run") {
		t.Errorf("bookkeeping columns compared:\n%s", out)
	}
}

// TestOnlyFilter: -only restricts the gate to matching metrics, so a
// regression outside the filter passes while one inside it fails.
func TestOnlyFilter(t *testing.T) {
	benchNew := strings.Replace(benchOld, "0.486", "0.986", 1) // regress _sec only
	old := write(t, "old.json", benchOld)
	newer := write(t, "new.json", benchNew)
	var stdout, stderr bytes.Buffer
	// Filter matches only the untouched packets metric: no regression.
	if code := run([]string{"-only", "_pa$", old, newer}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with -only excluding the regression, want 0\n%s", code, stdout.String())
	}
	// Filter matches the regressed metric: still gates.
	if code := run([]string{"-only", "pipeline_first_sec", old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with -only covering the regression, want 1\n%s", code, stdout.String())
	}
	// A filter matching nothing is a usage-level error (exit 2), so a CI
	// gate with a typoed pattern fails loudly instead of passing silently.
	if code := run([]string{"-only", "no_such_metric", old, newer}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d with -only matching nothing, want 2", code)
	}
	// Malformed regexp is a usage error.
	if code := run([]string{"-only", "(", old, newer}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d with malformed -only pattern, want 2", code)
	}
}

func TestBadInputs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"one-arg-only"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on bad usage, want 2", code)
	}
	garbage := write(t, "garbage.txt", "not a snapshot\n")
	ok := write(t, "ok.json", benchOld)
	if code := run([]string{garbage, ok}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on unrecognised input, want 2", code)
	}
	empty := write(t, "empty.json", `{"neither": true}`)
	if code := run([]string{empty, ok}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on shapeless JSON, want 2", code)
	}
}

// TestVerboseMetricSummary: -v adds a per-metric digest — cell count,
// mean delta, worst cell — without changing the gate's exit status.
func TestVerboseMetricSummary(t *testing.T) {
	benchNew := strings.Replace(benchOld, "0.486", "0.986", 1)
	old := write(t, "old.json", benchOld)
	newer := write(t, "new.json", benchNew)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-v", old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (-v must not change the gate)", code)
	}
	out := stdout.String()
	if !strings.Contains(out, "metric pipeline_first_sec") {
		t.Errorf("no summary line for pipeline_first_sec:\n%s", out)
	}
	if !strings.Contains(out, "1 cells") || !strings.Contains(out, "worst +102.9% (bench:Table4)") {
		t.Errorf("summary line missing cell count or worst cell:\n%s", out)
	}
	if !strings.Contains(out, "[seconds]") {
		t.Errorf("summary line missing unit:\n%s", out)
	}
	// An unchanged metric still gets a summary line under -v, even though
	// its delta line is suppressed.
	if !strings.Contains(out, "metric pipeline_first_pa") {
		t.Errorf("unchanged metric absent from -v summary:\n%s", out)
	}

	// Without -v none of the summary lines appear.
	stdout.Reset()
	run([]string{old, newer}, &stdout, &stderr)
	if strings.Contains(stdout.String(), "metric pipeline_first_sec") {
		t.Errorf("summary printed without -v:\n%s", stdout.String())
	}
}

// TestEnvMismatchWarns: snapshots stamped on different machines compare,
// but perfdiff must say the deltas may be environmental.
func TestEnvMismatchWarns(t *testing.T) {
	stamped := strings.Replace(benchOld, `"schema": "benchjson/1",`,
		`"schema": "benchjson/1", "go": "go1.22.1", "gomaxprocs": 8, "cpu": "Xeon E5",`, 1)
	other := strings.Replace(benchOld, `"schema": "benchjson/1",`,
		`"schema": "benchjson/1", "go": "go1.24.0", "gomaxprocs": 2, "cpu": "EPYC 7543",`, 1)
	old := write(t, "old.json", stamped)
	newer := write(t, "new.json", other)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on identical numbers, want 0 (env mismatch warns, never gates)", code)
	}
	errs := stderr.String()
	for _, frag := range []string{"environment mismatch", "go1.22.1", "go1.24.0", "gomaxprocs 8 vs 2", "cpu"} {
		if !strings.Contains(errs, frag) {
			t.Errorf("stderr missing %q:\n%s", frag, errs)
		}
	}

	// An unstamped baseline against a stamped snapshot stays silent: old
	// snapshots predate the stamp and must not warn forever.
	plain := write(t, "plain.json", benchOld)
	stderr.Reset()
	run([]string{plain, old}, &stdout, &stderr)
	if strings.Contains(stderr.String(), "environment mismatch") {
		t.Errorf("pre-stamp baseline warned:\n%s", stderr.String())
	}
}

// TestHeaderBytesSavedIsHigherBetter: header_bytes_saved counts bytes
// the header coder saved, so halving it is a regression, exactly like
// halving cache_bytes_saved.
func TestHeaderBytesSavedIsHigherBetter(t *testing.T) {
	csvFile := func(name string, saved ...int) string {
		var b strings.Builder
		b.WriteString("experiment,scenario,seed,run,header_bytes_saved\n")
		for i, v := range saved {
			fmt.Fprintf(&b, "mux,s,%d,%d,%d\n", i+1, i, v)
		}
		return write(t, name, b.String())
	}
	old := csvFile("old.csv", 7779, 7781, 7780, 7779, 7782)
	newer := csvFile("new.csv", 3890, 3889, 3891, 3890, 3890)
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, newer}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on halved header_bytes_saved, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESS mux/s header_bytes_saved") {
		t.Errorf("halved header_bytes_saved not reported as a regression:\n%s", stdout.String())
	}
}

// TestRunRecordUnits loads the -json and -csv forms of a small run's
// records and checks every sample carries the unit and polarity its
// Metrics field's tag declares.
func TestRunRecordUnits(t *testing.T) {
	type decl struct {
		unit, better string
	}
	want := map[string]decl{}
	typ := reflect.TypeOf(exp.Metrics{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		parts := strings.Split(typ.Field(i).Tag.Get("metric"), ",")
		want[name] = decl{parts[0], parts[1]}
	}
	polarity := map[string]stats.Polarity{"lower": stats.LowerIsBetter, "higher": stats.HigherIsBetter, "none": stats.Ungated}

	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	col := exp.NewCollector()
	for _, spec := range []string{"apache/mux-push/WAN/first", "jigsaw/pipelined/WAN/first/proxy:WAN:warm"} {
		sc, err := core.ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		var m exp.Metrics
		if _, err := core.Run(sc, site, core.WithMetrics(&m), core.WithTimeline(), core.WithStats(), core.WithBlame()); err != nil {
			t.Fatal(err)
		}
		col.Add(m)
	}
	var csvOut bytes.Buffer
	if err := col.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	jsonOut, err := json.Marshal(map[string]any{"runs": col.Records()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ name, content string }{
		{"runs.csv", csvOut.String()},
		{"runs.json", string(jsonOut)},
	} {
		samples, _, err := loadSamples(write(t, f.name, f.content))
		if err != nil {
			t.Fatal(err)
		}
		units := map[string]string{}
		for _, s := range samples {
			w, ok := want[s.Metric]
			if !ok && strings.HasPrefix(s.Metric, "lat_") {
				w, ok = want["dist"], true
			}
			if !ok {
				t.Errorf("%s: sample %s is no Metrics column", f.name, s.Metric)
				continue
			}
			if s.Unit != w.unit || s.Better != polarity[w.better] {
				t.Errorf("%s: %s carries [%s] polarity %d, want [%s] %s", f.name, s.Metric, s.Unit, s.Better, w.unit, w.better)
			}
			units[s.Metric] = s.Unit
		}
		for metric, unit := range map[string]string{
			"blame_wire_ms": "ms", "critical_path_ms": "ms", "cache_bytes_saved": "bytes",
			"header_bytes_saved": "bytes", "lat_total_ms_p50": "ms", "packets": "packets",
		} {
			if units[metric] != unit {
				t.Errorf("%s: %s unit %q, want %q", f.name, metric, units[metric], unit)
			}
		}
		if _, ok := units["sim_events_per_sec"]; ok != (f.name == "runs.json") {
			t.Errorf("%s: sim_events_per_sec present = %v; it belongs to the JSON records only", f.name, ok)
		}
	}
}
