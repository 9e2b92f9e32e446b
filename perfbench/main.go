// Command perfbench is the repository's benchmark. It drives the
// simulator from outside, through its public entry points
// (webgen.Microscape, core.Run, exp.Session and the experiment
// registry's Generate and Render), runs one of three closed-loop
// workloads for a fixed time, checks every output against a recorded
// reference, and prints the metrics BENCHMARK.json names. See README.md.
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload page-load --seed 1 --seconds 36 --trace 0
//
// --trace 1 prints the per-layer metrics instead, from a run whose
// second half is traced, and writes spans and a CPU profile under
// .bench_build/trace. --regen-reference re-records the reference and is
// the only way to rewrite it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	_ "repro/internal/experiments"
	"repro/internal/webgen"
)

// setupCalls is how many times set-up is timed per run; setup_s is
// their median, since one call varies by a quarter between runs.
const setupCalls = 5

// warmup runs ops of the scenario workloads before any phase is
// measured, so heap growth and the GC pacer have settled.
const warmup = 500 * time.Millisecond

// workers is how many ops run at once: one closed loop. On a host that
// gives the process a few shared cores, a second loop measures the
// scheduler and the neighbours' load as much as the program; with one,
// the other cores take the GC's background work.
const workers = 1

// overheadSample is how many framed-faults ops are re-run with and
// without observers to measure what the observers cost.
const overheadSample = 150

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

// Paths, relative to the repository root the benchmark runs from.
var (
	specPath      = "BENCHMARK.json"
	referencePath = filepath.Join("perfbench", "reference.json")
	traceDir      = filepath.Join(".bench_build", "trace")
)

func run() error {
	var o options
	regen := flag.Bool("regen-reference", false, "re-record the output reference from every op the workloads can produce, and exit")
	flag.StringVar(&o.workload, "workload", "", "workload to run: page-load, framed-faults or registry")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (registry has no seed: its inputs are the paper's tables)")
	flag.Float64Var(&o.seconds, "seconds", 36, "length of the measured phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	if *regen {
		return regenReference(o)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		return err
	}
	res, err := measure(o, ref)
	if err != nil {
		return err
	}
	return report(o, spec, res)
}

// result is everything one run measured.
type result struct {
	setup      []float64 // CPU seconds per set-up call
	setupScale []float64 // from the calibration batch after each call
	attempted  int
	failed     int
	phase      phase              // the untraced measured phase
	layers     map[string]float64 // per-layer metrics, traced runs only
}

// measure sets up, warms up, and runs the measured phase; with --trace 1
// it splits --seconds into an untraced and a traced half.
func measure(o options, ref reference) (*result, error) {
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	res := &result{}
	cal := newCalibrator()
	site, err := setUp(res, tr, cal)
	if err != nil {
		return nil, err
	}

	w, err := newWorkload(o, site, ref)
	if err != nil {
		return nil, err
	}
	if _, ok := w.(*scenarioWorkload); ok {
		warm := closedLoop(w, warmup, 0, nil, nil)
		res.attempted += warm.ops
		res.failed += warm.failed
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if tr == nil {
		res.phase = closedLoop(w, d, 0, nil, cal)
		res.attempted += res.phase.ops
		res.failed += res.phase.failed
		if len(res.phase.windows) == 0 {
			return nil, fmt.Errorf("--seconds %g is too short for one %v window", o.seconds, windowLen)
		}
		return res, nil
	}

	res.phase = closedLoop(w, d/2, 0, nil, nil)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	allocs0 := takeAllocSnapshot()
	traced := closedLoop(w, d/2, 0, tr, nil)
	pprof.StopCPUProfile()
	allocs := foldAllocs(allocs0, takeAllocSnapshot())
	res.attempted += res.phase.ops + traced.ops
	res.failed += res.phase.failed + traced.failed

	samples, err := decodeCPUProfile(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	obsOverhead := 0.0
	if sw, ok := w.(*scenarioWorkload); ok && sw.mix.observe {
		obsOverhead = observerOverhead(sw, o.seed)
	}
	res.layers = perLayer(w, res.phase, traced, samples, allocs, obsOverhead)

	if err := os.WriteFile(stem+".cpu.pprof", cpu.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(stem+".trace.json", stamp(o, res)); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %s.trace.json (%d spans), %s.cpu.pprof\n", stem, len(tr.spans), stem)
	return res, nil
}

// setUp synthesizes the site setupCalls times, recording the CPU time
// of each call as closedLoop times its ops, with a calibration batch
// after each, and returns the last site.
func setUp(res *result, tr *tracer, cal *calibrator) (*webgen.Site, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var site *webgen.Site
	for i := 0; i < setupCalls; i++ {
		id := tr.id()
		start, cpu0 := time.Now(), threadCPU()
		s, err := webgen.Microscape(webgen.Options{Seed: 1})
		cpu := threadCPU() - cpu0
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr.record(span{ID: id, Trace: id, Name: "webgen.Microscape", Start: start, End: time.Now()})
		res.setup = append(res.setup, cpu.Seconds())
		res.setupScale = append(res.setupScale, cal.batch())
		site = s
	}
	return site, nil
}

func newWorkload(o options, site *webgen.Site, ref reference) (workload, error) {
	switch o.workload {
	case "page-load", "framed-faults":
		mix := pageLoad()
		if o.workload == "framed-faults" {
			mix = framedFaults()
		}
		return &scenarioWorkload{mix: mix, stream: newStream(mix, o.seed), site: site, ref: ref[o.workload]}, nil
	case "registry":
		return &registryWorkload{site: site, names: exp.Names(), ref: ref["registry"], generate: map[string]time.Duration{}}, nil
	}
	return nil, fmt.Errorf("unknown --workload %q (want page-load, framed-faults or registry)", o.workload)
}

// observerOverhead re-runs the same sample of framed-faults ops with
// the observers armed and bare, alternating which goes first, and
// returns the share of the armed time the observers account for.
func observerOverhead(w *scenarioWorkload, seed uint64) float64 {
	var armed, bare time.Duration
	for round := 0; round < 2; round++ {
		for _, isBare := range []bool{round == 1, round == 0} {
			rerun := *w
			rerun.stream = newStream(w.mix, seed)
			rerun.bare = isBare
			p := closedLoop(&rerun, time.Hour, overheadSample/2, nil, nil)
			if isBare {
				bare += p.opTime
			} else {
				armed += p.opTime
			}
		}
	}
	if armed <= 0 {
		return 0
	}
	return 1 - float64(bare)/float64(armed)
}

// perLayer folds the traced phase into the per-layer metrics.
func perLayer(w workload, untraced, traced phase, samples []cpuSample, allocs map[string]float64, obsOverhead float64) map[string]float64 {
	m := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops := float64(traced.ops)
	c := traced.counts

	self := map[string]float64{}
	byFetch := map[string]float64{} // "<layer>.<fetch>" → ns
	var total float64
	for _, s := range samples {
		l := layerOf(s.stack)
		self[l] += float64(s.ns)
		total += float64(s.ns)
		if f := s.labels["fetch"]; f != "" {
			byFetch[l+"."+f] += float64(s.ns)
		}
	}
	for _, l := range append(append([]string{}, layers...), "gc", "other") {
		m[l+".self_frac"] = ratio(self[l], total)
	}
	var allocTotal float64
	for _, b := range allocs {
		allocTotal += b
	}
	for _, l := range []string{"httpmsg", "htmlparse", "tcpsim", "sim", "mux", "causality", "obs", "httpclient", "webgen", "flatez", "lzw"} {
		m[l+".alloc_frac"] = ratio(allocs[l], allocTotal)
	}
	m["gc.cycles_per_op"] = ratio(float64(traced.gcCycles), ops)

	m["httpmsg.ns_per_byte"] = ratio(self["httpmsg"], float64(c.payload))
	for _, l := range []string{"httpmsg", "htmlparse"} {
		for _, f := range []string{"first", "reval"} {
			m[l+".us_per_op."+f] = ratio(byFetch[l+"."+f], float64(traced.fetchOps[f])) / 1e3
		}
	}
	m["sim.ns_per_event"] = ratio(self["sim"], float64(c.simEvents))
	m["sim.events_per_op"] = ratio(float64(c.simEvents), ops)
	m["tcpsim.ns_per_packet"] = ratio(self["tcpsim"]+self["netem"], float64(c.packets))
	m["tcpsim.packets_per_op"] = ratio(float64(c.packets), ops)
	m["tcpsim.retransmit_frac"] = ratio(float64(c.retrans), float64(c.packets))
	m["tcpsim.rto_per_op"] = ratio(float64(c.rto), ops)
	m["netem.drops_per_op"] = ratio(float64(c.drops), ops)
	m["netem.goodput_frac"] = ratio(float64(c.payload), float64(c.linkWire))

	m["mux.streams_per_op"] = ratio(float64(c.streams), ops)
	m["mux.flow_stalls_per_op"] = ratio(float64(c.flowStalls), ops)
	m["mux.streams_reset_per_op"] = ratio(float64(c.streamsReset), ops)
	m["mux.push_used_frac"] = ratio(float64(c.pushUsed), float64(c.pushPromised))
	m["httpclient.dials_per_op"] = ratio(float64(c.dials), ops)
	m["httpclient.recovered_per_op"] = ratio(float64(c.recovered), ops)
	m["httpclient.requests_failed_frac"] = ratio(float64(c.reqFailed), float64(c.requests))
	m["httpclient.wasted_bytes_frac"] = ratio(float64(c.wasted), float64(c.payload))
	m["cache.hit_ratio"] = ratio(float64(c.cacheHits), float64(c.cacheLookups))
	m["proxy.upstream_per_op"] = ratio(float64(c.upstream), ops)

	m["obs.events_per_op"] = ratio(float64(c.timelineEvents), ops)
	m["obs.overhead_frac"] = obsOverhead

	if rw, ok := w.(*registryWorkload); ok {
		for name, d := range rw.generate {
			m["registry."+name+".generate_ms"] = ratio(float64(d.Nanoseconds())/1e6, ops)
		}
		m["report.render_ms"] = ratio(float64(rw.render.Nanoseconds())/1e6, ops)
	} else {
		m["report.render_ms"] = 0
	}
	m["bench.tracing_overhead_frac"] = 1 - ratio(float64(traced.ops)/traced.busy.Seconds(), float64(untraced.ops)/untraced.busy.Seconds())
	return m
}

// endToEnd computes the end-to-end metrics of the untraced phase. The
// timing metrics are medians over its windows (over its calls for
// setup_s), each scaled by its calibration batch to the reference host
// when scaled is true, and as this host ran them when it is false.
func endToEnd(res *result, scaled bool) map[string]float64 {
	p := res.phase
	ops := float64(p.ops)
	scale := func(k float64) float64 {
		if scaled {
			return k
		}
		return 1
	}
	// median applies f to each window with the factor its times scale by.
	median := func(f func(w window, k float64) float64) float64 {
		xs := make([]float64, len(p.windows))
		for i, w := range p.windows {
			xs[i] = f(w, scale(w.scale))
		}
		return quantile(xs, 0.5)
	}
	setup := make([]float64, len(res.setup))
	for i, s := range res.setup {
		setup[i] = s * scale(res.setupScale[i])
	}
	return map[string]float64{
		"setup_s":            quantile(setup, 0.5),
		"ops_per_s":          median(func(w window, k float64) float64 { return float64(w.ops) / w.busy.Seconds() / k }),
		"cpu_ms_per_op":      median(func(w window, k float64) float64 { return float64(w.cpu.Nanoseconds()) / 1e6 / float64(w.ops) * k }),
		"op_ms_p50":          median(func(w window, k float64) float64 { return w.p50 * k }),
		"op_ms_p90":          median(func(w window, k float64) float64 { return w.p90 * k }),
		"alloc_bytes_per_op": float64(p.allocBytes) / ops,
		"allocs_per_op":      float64(p.allocs) / ops,
		"retained_heap_mb":   p.retainedMB,
	}
}

// tailQuantile is the quantile op_ms_p90 reports for a window of n
// ops: 0.9, or when fewer than 100 ops ran in it, the highest quantile
// with at least ten ops beyond it, and never below the median. A
// registry window is one pass, which supports no tail, so there it
// reports the pass's time, as op_ms_p50 does.
func tailQuantile(n int) float64 {
	return min(0.9, max(0.5, 1-10/float64(n)))
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// report prints every metric by name with its unit, the provenance
// stamp, and last the one-line JSON result.
func report(o options, spec *benchSpec, res *result) error {
	want, got, unscaled := spec.EndToEnd, endToEnd(res, true), endToEnd(res, false)
	if o.trace == 1 {
		want, got, unscaled = spec.PerLayer, res.layers, nil
	}
	for name := range got {
		if !spec.has(name) && !strings.HasPrefix(name, "registry.") {
			return fmt.Errorf("metric %s is not in %s", name, specPath)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Printf("perfbench %s seed=%d trace=%d: %d ops in %.2fs, timings are medians over %d windows of at least %v; set-up timed %d times\n",
		o.workload, o.seed, o.trace, res.phase.ops, res.phase.wall.Seconds(), len(res.phase.windows), windowLen, len(res.setup))
	if unscaled != nil {
		fmt.Printf("  timings are scaled to the reference host; in brackets, as this host ran them\n")
	}
	for _, ms := range want {
		v, ok := got[ms.Name]
		if !ok {
			if !strings.HasPrefix(ms.Name, "registry.") {
				return fmt.Errorf("metric %s named in %s was not measured", ms.Name, specPath)
			}
			v = 0 // an experiment this workload does not run
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", ms.Name, v)
		}
		metrics[ms.Name] = value{v, ms.Unit}
		fmt.Printf("  %-36s %14.6g %-10s (%s is better)", ms.Name, v, ms.Unit, ms.Better)
		if u := unscaled[ms.Name]; u != v && unscaled != nil {
			fmt.Printf(" [%.6g]", u)
		}
		fmt.Println()
	}
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("  %-36s %14.6g %-10s (%d of %d ops; latency quantiles over %d ops)\n",
		"failed_frac", failedFrac, "fraction", res.failed, res.attempted, res.phase.ops)
	prov, err := json.Marshal(map[string]provenance{"provenance": stamp(o, res)})
	if err != nil {
		return err
	}
	fmt.Println(string(prov))
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// provenance says which code, toolchain, machine and inputs produced a
// result.
type provenance struct {
	Revision   string  `json:"revision"`
	Dirty      *bool   `json:"dirty"` // null when the build carried no VCS stamp
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Workers    int     `json:"workers"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Ops        int     `json:"ops"`
}

func stamp(o options, res *result) provenance {
	p := provenance{
		Revision: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Workers: workers, Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace, Ops: res.attempted,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				dirty := s.Value == "true"
				p.Dirty = &dirty
			}
		}
	}
	return p
}

// cpuModel reads the processor model from /proc/cpuinfo, or falls back
// to the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics it must print, with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func (s *benchSpec) has(name string) bool {
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return true
		}
	}
	return false
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no metrics", path)
	}
	return &s, nil
}

// reference maps each workload to its expected outputs: per-op metrics
// digests keyed by "spec@seed" for the scenario workloads, and each
// experiment's rendered-output SHA-256 for registry.
type reference map[string]map[string]string

func loadReference(path string) (reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r) == 0 {
		return nil, errors.New(path + " is empty")
	}
	return r, nil
}

// regenReference runs every op the scenario workloads can produce and
// one registry pass, and writes their outputs as the new reference.
func regenReference(o options) error {
	site, err := webgen.Microscape(webgen.Options{Seed: 1})
	if err != nil {
		return err
	}
	ref := reference{}
	for _, mix := range []*scenarioMix{pageLoad(), framedFaults()} {
		pool := mix.pool()
		digests := make([]string, len(pool))
		err := exp.ForEach(runtime.NumCPU(), len(pool), func(i int) error {
			met, err := mix.run(pool[i], site, mix.observe)
			if err != nil {
				return fmt.Errorf("%s: %w", mix.key(pool[i]), err)
			}
			digests[i], err = metricsDigest(met)
			return err
		})
		if err != nil {
			return err
		}
		ref[mix.name] = map[string]string{}
		for i, op := range pool {
			ref[mix.name][mix.key(op)] = digests[i]
		}
	}
	s := &exp.Session{Site: site, Runs: 1, Seeds: 1, Parallel: runtime.NumCPU()}
	ref["registry"] = map[string]string{}
	for _, name := range exp.Names() {
		out, _, _, err := runExperiment(s, name, nil, 0)
		if err != nil {
			return fmt.Errorf("registry %s: %w", name, err)
		}
		ref["registry"][name] = sha256Hex(out)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d page-load ops, %d framed-faults ops, %d experiments\n",
		referencePath, len(ref["page-load"]), len(ref["framed-faults"]), len(ref["registry"]))
	return nil
}
