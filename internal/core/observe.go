package core

import (
	"os"

	"repro/internal/causality"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// observer is one passive analyzer riding along a run. attach, when
// set, runs before the engine starts; finish runs after it drains and
// fills the observer's own RunResult and Metrics fields. Observers only
// read — they neither schedule events nor publish into the bus — so an
// observed run measures byte-identically to a bare one.
type observer struct {
	bus    busNeed
	attach func(r *runState)
	// finish gets a nil res when the run ends without a result
	// (r.failure says why), and a nil m without WithMetrics.
	finish func(r *runState, res *RunResult, m *exp.Metrics)
}

// busNeed is how much of the event bus an observer reads: none, the
// client's request-lifecycle spans only, or every layer's events.
type busNeed int8

const (
	noBus busNeed = iota
	spansBus
	wiredBus
)

// runState is what observers see of the run they ride along.
type runState struct {
	sc      Scenario
	sim     *sim.Simulator
	bus     *obs.Bus
	capture *trace.Capture
	poll    func() // set by an observer to run at engine safe points
	// failure says why a run ends without a result: "error" when the
	// client never finished, "panic" when the run panicked.
	failure string
}

// observers lists the analyzers armed for one run: those its options
// ask for, then the process-wide flight recorder and telemetry stream.
func (c runConfig) observers() []observer {
	var list []observer
	if c.timeline {
		list = append(list, observer{bus: wiredBus, finish: finishTimeline})
	}
	if c.stats {
		list = append(list, observer{bus: spansBus, finish: finishStats})
	}
	if c.blame {
		list = append(list, observer{bus: wiredBus, finish: finishBlame})
	}
	if f := telemetry.ActiveFlight(); f != nil {
		list = append(list, flightObserver(f))
	}
	if telemetry.Active() {
		list = append(list, trackerObserver())
	}
	return list
}

// finishTimeline exposes the full-stack event bus (WithTimeline).
func finishTimeline(r *runState, res *RunResult, m *exp.Metrics) {
	if res == nil {
		return
	}
	res.Timeline = r.bus
	if m != nil {
		m.TimelineEvents = r.bus.Len()
		m.TimelineSpans = len(r.bus.Spans())
	}
}

// finishStats derives per-request latencies from the client's lifecycle
// spans (WithStats): queue = decided-to-fetch → request handed to TCP,
// TTFB = request written → first response byte, total = decided →
// complete. Intermediary-originated spans (Via) and abandoned spans
// carry no client-visible latency and are skipped.
func finishStats(r *runState, res *RunResult, m *exp.Metrics) {
	if res == nil {
		return
	}
	ls := &stats.LatencySet{}
	for _, sp := range r.bus.Spans() {
		if sp.Via != "" || sp.Done == obs.NoTime || sp.Written == obs.NoTime {
			continue
		}
		ls.Observe(int64(sp.Written-sp.Queued), int64(sp.FirstByte-sp.Written), int64(sp.Done-sp.Queued))
	}
	res.Latency = ls
	if m != nil {
		m.Dist = ls.DistMap()
	}
}

// finishBlame attributes each request's delay to its causes and
// reconstructs the page-load critical path (WithBlame), replaying the
// bus, which retains every event in order.
func finishBlame(r *runState, res *RunResult, m *exp.Metrics) {
	if res == nil {
		return
	}
	a := causality.Analyze(r.bus)
	res.Blame = a
	if m == nil {
		return
	}
	m.BlameConnectMs = a.Total.Ms(causality.CatConnect)
	m.BlameRTOMs = a.Total.Ms(causality.CatRTO)
	m.BlameNagleMs = a.Total.Ms(causality.CatNagle)
	m.BlameFlowMs = a.Total.Ms(causality.CatFlow)
	m.BlameSlowStartMs = a.Total.Ms(causality.CatSlowStart)
	m.BlameServerMs = a.Total.Ms(causality.CatServer)
	m.BlameHOLMs = a.Total.Ms(causality.CatHOL)
	m.BlameWireMs = a.Total.Ms(causality.CatWire)
	m.CriticalPathMs = float64(a.CriticalPath) / 1e6
}

// flightObserver retains the tail of the event stream in a bounded ring
// and dumps it, with the packet capture, when the run panics, the
// client never finishes, or the client's recovery watchdog fired.
func flightObserver(f *telemetry.Flight) observer {
	ring := telemetry.NewRing[obs.Event](f.Events())
	sawWatchdog := false
	return observer{
		bus: wiredBus,
		attach: func(r *runState) {
			r.bus.Subscribe(func(ev obs.Event) {
				ring.Push(ev)
				sawWatchdog = sawWatchdog || ev.Kind == obs.KindClientTimeout
			})
		},
		finish: func(r *runState, res *RunResult, _ *exp.Metrics) {
			reason := r.failure
			if res != nil {
				if !sawWatchdog {
					return
				}
				reason = "watchdog"
			}
			f.Dump(telemetry.DumpSource{
				Label:   r.sc.String(),
				Reason:  reason,
				Events:  ring.Len(),
				Dropped: ring.Dropped(),
				Perfetto: func(w *os.File) error {
					return obs.WritePerfettoEvents(w, ring.Snapshot(), r.bus.Conns(), r.bus.Spans())
				},
				Pcap: func(w *os.File) error {
					return r.capture.WritePcap(w)
				},
			})
		},
	}
}

// trackerObserver publishes the engine's counters into the process
// telemetry registry at safe points. RunWithPoll fires the same events
// in the same order as Run.
func trackerObserver() observer {
	tracker := telemetry.NewSimTracker(telemetry.Default())
	return observer{
		attach: func(r *runState) {
			r.poll = func() {
				st := r.sim.Stats()
				tracker.Poll(st.Fired, st.Pending, st.WheelDepth, st.PoolInUse)
			}
		},
		finish: func(r *runState, _ *RunResult, _ *exp.Metrics) {
			tracker.Finish(r.sim.Stats().Fired)
		},
	}
}
