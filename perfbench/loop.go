package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/exp"
	"repro/internal/webgen"
)

// opResult is one completed op.
type opResult struct {
	dur     time.Duration // CPU time of the op's calls into the program
	failed  bool
	fetch   string        // "first" or "reval" on the scenario workloads
	metrics []exp.Metrics // one record per simulation run the op made
}

// workload runs ops for the closed loop. An op that errors or whose
// output differs from the reference comes back failed.
type workload interface {
	// op runs the next op, labelling its profile samples. With a
	// non-nil tracer it also records spans. It is called only on the
	// closed loop's locked thread, so it can time its calls with
	// threadCPU.
	op(tr *tracer) opResult
}

// windowLen is how long a window of the measured phase lasts at least.
// The timing metrics are medians over the windows, so that a stretch of
// a few seconds in which the host ran slow moves a few windows but not
// the median.
const windowLen = time.Second

// window is the ops of one window: they started in it, one after the
// other, and it closed when the first of them to end after windowLen
// had ended. A registry pass outlasts windowLen, so there each window
// is one pass.
type window struct {
	ops      int
	busy     time.Duration // CPU time of the closed loop's thread
	cpu      time.Duration // CPU time of the process, all threads
	p50, p90 float64       // ms per op; p90 is at tailQuantile(ops)
	scale    float64       // from the calibration batch after the window; 1 without one
}

// phase is what one measured phase of the closed loop produced.
type phase struct {
	ops, failed int
	windows     []window      // every full window, in order
	opTime      time.Duration // summed over ops
	fetchOps    map[string]int
	counts      tally
	wall        time.Duration
	busy        time.Duration // CPU time of the closed loop's thread
	allocBytes  uint64
	allocs      uint64
	gcCycles    uint32
	retainedMB  float64
}

// closedLoop runs ops of w one after another until d has passed or
// limit ops have run (limit 0 means no limit); no op starts after the
// deadline. With a calibrator, a calibration batch runs after each
// window, outside it.
//
// The loop holds its OS thread, and ops are timed in that thread's CPU
// time. A shared host takes its virtual CPUs away for seconds at a time,
// to run its other guests; wall time counts those seconds, and two sets
// of ten runs of the same code spread by a fifth to a quarter of their
// median in wall time. The guest kernel leaves the stolen time out of
// CPU time. An op runs on its caller's goroutine alone (the program
// starts none at Parallel 1), so its thread's CPU time is all of its
// work but the GC's background marking, which cpu_ms_per_op counts.
func closedLoop(w workload, d time.Duration, limit int, tr *tracer, cal *calibrator) phase {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, busy0 := time.Now(), threadCPU()
	var calBytes, calAllocs uint64
	if cal != nil {
		calBytes, calAllocs = cal.allocBytes, cal.allocs
	}
	out := phase{fetchOps: map[string]int{}}
	var lat []float64 // ms per op of the open window
	winStart, winBusy, winCPU := start, busy0, processCPU()
	for time.Since(start) < d && (limit == 0 || out.ops < limit) {
		r := w.op(tr)
		out.ops++
		if r.failed {
			out.failed++
		}
		lat = append(lat, float64(r.dur.Nanoseconds())/1e6)
		out.opTime += r.dur
		out.fetchOps[r.fetch]++
		for i := range r.metrics {
			out.counts.add(&r.metrics[i])
		}
		if now := time.Now(); now.Sub(winStart) >= windowLen {
			busy, cpu := threadCPU(), processCPU()
			win := window{ops: len(lat), busy: busy - winBusy, cpu: cpu - winCPU,
				p50: quantile(lat, 0.5), p90: quantile(lat, tailQuantile(len(lat))), scale: 1}
			if cal != nil {
				win.scale = cal.batch()
				now, busy, cpu = time.Now(), threadCPU(), processCPU()
			}
			out.windows = append(out.windows, win)
			lat, winStart, winBusy, winCPU = lat[:0], now, busy, cpu
		}
	}
	out.wall, out.busy = time.Since(start), threadCPU()-busy0
	runtime.ReadMemStats(&m1)
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.allocs = m1.Mallocs - m0.Mallocs
	if cal != nil {
		out.allocBytes -= cal.allocBytes - calBytes
		out.allocs -= cal.allocs - calAllocs
	}
	out.gcCycles = m1.NumGC - m0.NumGC
	// The second cycle frees what the first moved to sync.Pool victims.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out.retainedMB = float64(m1.HeapAlloc) / 1e6
	runtime.KeepAlive(w) // the site and whatever the program caches on it count as retained
	return out
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread, to the
// nanosecond. Its caller must hold the thread (runtime.LockOSThread)
// across the interval it times.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // the clock exists on every Linux the benchmark builds for
	}
	return time.Duration(ts.Nano())
}

// scenarioWorkload runs a scenarioMix's op stream and checks each op's
// metrics digest against the reference.
type scenarioWorkload struct {
	mix    *scenarioMix
	stream *opStream
	site   *webgen.Site
	ref    map[string]string
	// bare strips the mix's observers; the observer-overhead sample
	// re-runs ops this way, unchecked, since the observer fields of
	// their metrics stay empty.
	bare bool
}

func (w *scenarioWorkload) op(tr *tracer) opResult {
	op := w.stream.next()
	r := opResult{fetch: w.mix.fetch(op)}
	var met exp.Metrics
	var err error
	id := tr.id()
	start, cpu0 := time.Now(), threadCPU()
	// The labels cost nothing measurable unless the profiler is on.
	pprof.Do(context.Background(), pprof.Labels("workload", w.mix.name, "fetch", r.fetch), func(context.Context) {
		met, err = w.mix.run(op, w.site, w.mix.observe && !w.bare)
	})
	r.dur = threadCPU() - cpu0
	end := time.Now()
	tr.record(span{ID: id, Trace: id, Name: "core.Run", Attr: w.mix.key(op), Start: start, End: end})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.mix.key(op), err)
		r.failed = true
		return r
	}
	r.metrics = []exp.Metrics{met}
	if w.bare {
		return r
	}
	got, err := metricsDigest(met)
	if want, ok := w.ref[w.mix.key(op)]; err != nil || !ok || got != want {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, reference %q\n", w.mix.key(op), got, want)
		r.failed = true
	}
	return r
}

// registryWorkload renders every registered experiment, one full pass
// per op, and checks each experiment's output against the reference.
type registryWorkload struct {
	site  *webgen.Site
	names []string
	ref   map[string]string

	// Filled on traced passes: time spent in each experiment's
	// Generate and in Render, summed over passes.
	generate map[string]time.Duration
	render   time.Duration
}

func (w *registryWorkload) op(tr *tracer) opResult {
	s := &exp.Session{Site: w.site, Runs: 1, Seeds: 1, Parallel: 1}
	if tr != nil {
		s.Collector = exp.NewCollector()
	}
	var r opResult
	passID := tr.id()
	passStart := time.Now()
	for _, name := range w.names {
		out, gen, ren, err := runExperiment(s, name, tr, passID)
		r.dur += gen + ren
		if tr != nil {
			w.generate[name] += gen
			w.render += ren
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: registry %s: %v\n", name, err)
			r.failed = true
			continue
		}
		if got, want := sha256Hex(out), w.ref[name]; got != want {
			fmt.Fprintf(os.Stderr, "perfbench: registry %s: output sha256 %s, reference %q\n", name, got, want)
			r.failed = true
		}
	}
	tr.record(span{ID: passID, Trace: passID, Name: "registry.pass", Start: passStart, End: time.Now()})
	if s.Collector != nil {
		r.metrics = s.Collector.Records()
	}
	return r
}

// runExperiment generates and renders one experiment, returning its
// rendered bytes and the CPU time each call took on the calling thread.
func runExperiment(s *exp.Session, name string, tr *tracer, pass uint64) (out []byte, gen, ren time.Duration, err error) {
	e, ok := exp.Lookup(name)
	if !ok {
		return nil, 0, 0, fmt.Errorf("not registered")
	}
	var data any
	var buf bytes.Buffer
	call := func(phase string, f func() error) (time.Duration, error) {
		id := tr.id()
		start, cpu0 := time.Now(), threadCPU()
		pprof.Do(context.Background(), pprof.Labels("workload", "registry", "experiment", name, "phase", phase), func(context.Context) {
			err = f()
		})
		cpu := threadCPU() - cpu0
		tr.record(span{ID: id, Parent: pass, Trace: pass, Name: "experiment." + phase, Attr: name, Start: start, End: time.Now()})
		return cpu, err
	}
	if gen, err = call("generate", func() (err error) { data, err = e.Generate(s); return err }); err != nil {
		return nil, gen, 0, err
	}
	if e.Render != nil {
		ren, err = call("render", func() error { return e.Render(&buf, s, data) })
	}
	return buf.Bytes(), gen, ren, err
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tally sums the simulated counts of a phase's ops. They are outputs of
// the model, identical for identical inputs; the per-layer metrics use
// them as denominators.
type tally struct {
	simEvents, packets, payload, linkWire     int64
	retrans, rto, drops                       int64
	streams, flowStalls, streamsReset         int64
	pushPromised, pushUsed                    int64
	dials, recovered, requests, reqFailed     int64
	wasted, cacheHits, cacheLookups, upstream int64
	timelineEvents                            int64
}

func (t *tally) add(m *exp.Metrics) {
	t.simEvents += int64(m.SimEvents)
	t.packets += int64(m.Packets + m.OriginPackets)
	t.payload += m.PayloadBytes
	t.linkWire += m.LinkWireBytes
	t.retrans += int64(m.Retransmissions)
	t.rto += int64(m.RTOTimeouts)
	t.drops += int64(m.Drops)
	t.streams += int64(m.StreamsOpened)
	t.flowStalls += int64(m.FlowControlStalls)
	t.streamsReset += int64(m.StreamsReset)
	t.pushPromised += int64(m.PushPromised)
	t.pushUsed += int64(m.PushUsed)
	t.dials += int64(m.Dials)
	t.recovered += int64(m.RequestsRecovered)
	t.requests += int64(m.Responses200 + m.Responses206 + m.Responses304 + m.RequestsFailed)
	t.reqFailed += int64(m.RequestsFailed)
	t.wasted += m.WastedBytes
	t.cacheHits += int64(m.CacheHits)
	t.cacheLookups += int64(m.CacheHits + m.CacheMisses + m.CacheRevalidations)
	t.upstream += int64(m.UpstreamRequests)
	t.timelineEvents += int64(m.TimelineEvents)
}
