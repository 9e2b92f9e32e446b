package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/webgen"
)

func testSite(t *testing.T) *webgen.Site {
	t.Helper()
	site, err := webgen.Microscape(webgen.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func rounds(m *scenarioMix, seed uint64, n int) [][]scenarioOp {
	s := newStream(m, seed)
	out := make([][]scenarioOp, n)
	for r := range out {
		for range m.specs {
			out[r] = append(out[r], s.next())
		}
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for _, m := range []*scenarioMix{pageLoad(), framedFaults()} {
		a, b := rounds(m, 42, 3), rounds(m, 42, 3)
		for r := range a {
			for i := range a[r] {
				if a[r][i] != b[r][i] {
					t.Fatalf("%s: op %d of round %d differs between two streams of seed 42: %v vs %v", m.name, i, r, a[r][i], b[r][i])
				}
			}
		}
	}
}

// TestSeedChangesScenarioSeedsNotMix checks that every round runs each
// cell exactly once whatever the seed, while the scenario seeds the
// ops draw do depend on it.
func TestSeedChangesScenarioSeedsNotMix(t *testing.T) {
	for _, m := range []*scenarioMix{pageLoad(), framedFaults()} {
		seedsOf := map[uint64][]uint64{}
		for _, seed := range []uint64{1, 2} {
			for r, round := range rounds(m, seed, 3) {
				cells := make([]int, 0, len(round))
				for _, op := range round {
					cells = append(cells, op.cell)
				}
				sort.Ints(cells)
				for i, c := range cells {
					if c != i {
						t.Fatalf("%s seed %d round %d: cells %v, want each of %d cells once", m.name, seed, r, cells, len(m.specs))
					}
				}
				byCell := make([]uint64, len(round))
				for _, op := range round {
					byCell[op.cell] = op.seed
				}
				seedsOf[seed] = append(seedsOf[seed], byCell...)
			}
		}
		same := true
		for i := range seedsOf[1] {
			same = same && seedsOf[1][i] == seedsOf[2][i]
		}
		if same {
			t.Errorf("%s: workload seeds 1 and 2 gave every cell the same scenario seeds", m.name)
		}
	}
}

func TestFramedFaultsScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every framed-faults cell")
	}
	site := testSite(t)
	m := framedFaults()
	err := exp.ForEach(2, len(m.specs), func(c int) error {
		_, err := m.run(scenarioOp{cell: c, seed: poolSeed(0)}, site, false)
		if errors.Is(err, core.ErrMuxTopology) {
			t.Errorf("%s: %v", m.specs[c], err)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricSpec checks BENCHMARK.json's metric table against the
// metrics the benchmark computes: every name well formed, with a unit
// and a direction, and the two sets equal.
func TestMetricSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v: want a name matching %s, a unit matching %s and better higher|lower", m, nameRE, unitRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]float64) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	res := &result{setup: []float64{1}, setupScale: []float64{1}, phase: phase{ops: 1, windows: []window{{ops: 1, busy: time.Second, cpu: time.Second, p50: 1, p90: 1, scale: 1}}, wall: time.Second, busy: time.Second}}
	if got, want := keys(endToEnd(res, true)), names(spec.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics computed %v, BENCHMARK.json names %v", got, want)
	}
	rw := &registryWorkload{generate: map[string]time.Duration{}}
	for _, name := range exp.Names() {
		rw.generate[name] = time.Millisecond
	}
	p := phase{ops: 1, wall: time.Second, busy: time.Second}
	if got, want := keys(perLayer(rw, p, p, nil, nil, 0)), names(spec.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics computed %v, BENCHMARK.json names %v", got, want)
	}
}

// TestCorruptReferenceFails corrupts one reference entry of a scenario
// workload and of registry, and checks that the op reading it counts as
// failed while the pristine reference passes.
func TestCorruptReferenceFails(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	site := testSite(t)
	mix := pageLoad()
	first := newStream(mix, 9).next()
	corrupt := func(m map[string]string, key string) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			out[k] = v
		}
		out[key] = "0000000000000000"
		return out
	}
	scenario := func(ref map[string]string) phase {
		w := &scenarioWorkload{mix: mix, stream: newStream(mix, 9), site: site, ref: ref}
		return closedLoop(w, time.Hour, len(mix.specs), nil, nil)
	}
	if p := scenario(ref["page-load"]); p.failed != 0 || p.ops != len(mix.specs) {
		t.Fatalf("pristine reference: %d of %d ops failed", p.failed, p.ops)
	}
	if p := scenario(corrupt(ref["page-load"], mix.key(first))); p.failed == 0 {
		t.Errorf("corrupted entry %s: no op failed", mix.key(first))
	}

	registry := func(ref map[string]string) phase {
		w := &registryWorkload{site: site, names: []string{"1", "tagcase"}, ref: ref}
		return closedLoop(w, time.Hour, 1, nil, nil)
	}
	if p := registry(ref["registry"]); p.failed != 0 {
		t.Fatalf("pristine registry reference: pass failed")
	}
	if p := registry(corrupt(ref["registry"], "tagcase")); p.failed == 0 {
		t.Errorf("corrupted registry entry: pass did not fail")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 0.9}, {100, 0.9}, {50, 0.8}, {12, 0.5}, {1, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/httpmsg.(*ResponseParser).appendBody", "repro/internal/core.run"}, "httpmsg"},
		{[]string{"repro/internal/telemetry.(*Ring[go.shape.struct]).Push"}, "telemetry"},
		{[]string{"runtime.memmove", "repro/internal/experiments.init.func1", "repro/internal/exp.ForEach"}, "other"},
		{[]string{"encoding/json.Marshal", "main.metricsDigest"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestDecodeCPUProfile decodes a real profile of labelled busy work.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("fetch", "first"), func(context.Context) {
		sum := 0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1e5; i++ {
				sum += i * i
			}
		}
		sink = sum
	})
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled int64
	for _, s := range samples {
		if s.ns <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample %+v: want a positive time and a stack", s)
		}
		if s.labels["fetch"] == "first" {
			labelled += s.ns
		}
	}
	if labelled == 0 {
		t.Errorf("no labelled CPU time in %d samples", len(samples))
	}
}

var sink int
