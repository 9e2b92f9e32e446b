// Package exp orchestrates experiment sweeps. It provides the three
// pieces the paper's measurement methodology needs at scale: a
// declarative registry of named experiments (registry.go), a
// deterministic worker pool that fans independent simulation runs out
// across goroutines (pool.go), and a structured per-run metrics record
// emitted as JSON or CSV alongside the text tables (this file).
//
// The package sits below internal/core: core fills Metrics records and
// drives the pool, while experiment registration and rendering live in
// internal/experiments, above both.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Metrics is the structured record of one scenario execution — the
// quantities a tcpdump-plus-accounting harness would extract from a
// single run. Every field is filled by core.Run when the run is executed
// with core.WithMetrics.
//
// The struct is the record's one schema. Beside its json key each field
// carries a `metric:"<unit>,<lower|higher|none>[,wall]"` tag: the unit,
// which way the metric improves (none for bookkeeping that must never be
// gated on), and wall for host wall-clock measurements, which vary from
// run to run and so stay out of the deterministic CSV. The tag on Dist
// covers every distribution key. WriteCSV reads the tags, and perfdiff
// through ColumnOf; nothing else restates them.
type Metrics struct {
	// Experiment names the registry entry the run belongs to ("" for
	// direct core.Run calls).
	Experiment string `json:"experiment,omitempty" metric:"label,none"`
	// Scenario is the scenario's display string
	// (server/client/env/workload).
	Scenario string `json:"scenario" metric:"label,none"`
	// Seed is the effective seed of this run; Run is the repetition
	// index within its sweep cell.
	Seed uint64 `json:"seed" metric:"id,none"`
	Run  int    `json:"run" metric:"id,none"`

	// Packets counts segments in both directions, split into the
	// client→server and server→client components.
	Packets    int `json:"packets" metric:"packets,lower"`
	PacketsC2S int `json:"packets_c2s" metric:"packets,lower"`
	PacketsS2C int `json:"packets_s2c" metric:"packets,lower"`

	// PayloadBytes is TCP payload; WireBytes adds the 40-byte TCP/IP
	// header per packet; LinkWireBytes is what the link actually
	// serialized (after V.42bis modem compression, with framing).
	PayloadBytes  int64 `json:"payload_bytes" metric:"bytes,lower"`
	WireBytes     int64 `json:"wire_bytes" metric:"bytes,lower"`
	LinkWireBytes int64 `json:"link_wire_bytes" metric:"bytes,lower"`

	// OverheadPct is the paper's %ov metric.
	OverheadPct float64 `json:"overhead_pct" metric:"percent,lower"`
	// ElapsedSeconds is first packet to last packet, like the paper's
	// tcpdump-based timings.
	ElapsedSeconds float64 `json:"elapsed_seconds" metric:"seconds,lower"`

	// Retransmissions counts segments sent more than once;
	// RTOTimeouts counts retransmission-timer expirations; Drops counts
	// packets discarded by the link loss model.
	Retransmissions int `json:"retransmissions" metric:"packets,lower"`
	RTOTimeouts     int `json:"rto_timeouts" metric:"count,lower"`
	Drops           int `json:"drops" metric:"packets,lower"`

	// Dials is the number of outbound connections opened; SocketsUsed
	// the number the fetch consumed; MaxOpenConns the simultaneous-
	// connection high-water mark.
	Dials        int `json:"dials" metric:"count,lower"`
	SocketsUsed  int `json:"sockets_used" metric:"count,lower"`
	MaxOpenConns int `json:"max_open_conns" metric:"count,lower"`

	// ClientCPUSeconds and ServerCPUSeconds are total simulated CPU
	// work consumed by each endpoint (sim.CPU.TotalWork).
	ClientCPUSeconds float64 `json:"client_cpu_seconds" metric:"seconds,lower"`
	ServerCPUSeconds float64 `json:"server_cpu_seconds" metric:"seconds,lower"`

	Responses200 int `json:"responses_200" metric:"count,none"`
	Responses304 int `json:"responses_304" metric:"count,none"`
	Responses206 int `json:"responses_206" metric:"count,none"`
	Errors       int `json:"errors" metric:"count,lower"`
	Retried      int `json:"retried" metric:"count,lower"`

	// Fault-injection and recovery accounting (all zero on fault-free
	// runs): client watchdog timeouts, requests that recovered after a
	// retry vs were dropped permanently, payload bytes delivered and then
	// re-fetched, summed failure→first-recovery intervals, protocol
	// fallbacks taken, and server-side faults fired.
	Timeouts          int     `json:"timeouts,omitempty" metric:"count,lower"`
	RequestsRecovered int     `json:"requests_recovered,omitempty" metric:"count,higher"`
	RequestsFailed    int     `json:"requests_failed,omitempty" metric:"count,lower"`
	WastedBytes       int64   `json:"wasted_bytes,omitempty" metric:"bytes,lower"`
	RecoverySeconds   float64 `json:"recovery_seconds,omitempty" metric:"seconds,lower"`
	Fallbacks         int     `json:"fallbacks,omitempty" metric:"count,lower"`
	FaultsInjected    int     `json:"faults_injected,omitempty" metric:"count,none"`

	// Multiplexed-protocol accounting (all zero outside the mux, mux-push
	// and burst client modes): client-opened streams, server push
	// promises made/claimed, pushed bytes the client never wanted,
	// HPACK-style header compression savings, and flow-control window
	// exhaustions on either endpoint.
	StreamsOpened     int   `json:"streams_opened,omitempty" metric:"count,lower"`
	PushPromised      int   `json:"push_promised,omitempty" metric:"count,lower"`
	PushUsed          int   `json:"push_used,omitempty" metric:"count,lower"`
	PushWastedBytes   int64 `json:"push_wasted_bytes,omitempty" metric:"bytes,lower"`
	HeaderBytesSaved  int64 `json:"header_bytes_saved,omitempty" metric:"bytes,higher"`
	FlowControlStalls int   `json:"flow_control_stalls,omitempty" metric:"count,lower"`

	// Mux fault-recovery accounting (all zero outside faulted framed
	// runs): streams torn down by RST_STREAM for error recovery, GOAWAY
	// session-close announcements on the connection, and watchdog
	// expiries proven to be flow-control deadlocks.
	StreamsReset      int `json:"streams_reset,omitempty" metric:"count,lower"`
	Goaways           int `json:"goaways,omitempty" metric:"count,lower"`
	DeadlocksDetected int `json:"deadlocks_detected,omitempty" metric:"count,lower"`

	// TimelineEvents and TimelineSpans count the observability bus's
	// recorded events and request spans; both are zero when the run
	// executed without core.WithTimeline.
	TimelineEvents int `json:"timeline_events,omitempty" metric:"events,none"`
	TimelineSpans  int `json:"timeline_spans,omitempty" metric:"count,none"`

	// Causal delay attribution (all zero unless the run executed with
	// core.WithBlame): each request's elapsed time decomposed into
	// exclusive categories, summed over requests, in milliseconds. The
	// categories partition each request window, so their sum equals the
	// summed request elapsed time exactly. CriticalPathMs is the length
	// of the page-load dependency chain (root document → last-finishing
	// object through binding constraints); lower is better.
	BlameConnectMs   float64 `json:"blame_connect_ms,omitempty" metric:"ms,lower"`
	BlameRTOMs       float64 `json:"blame_rto_ms,omitempty" metric:"ms,lower"`
	BlameNagleMs     float64 `json:"blame_nagle_ms,omitempty" metric:"ms,lower"`
	BlameFlowMs      float64 `json:"blame_flow_ms,omitempty" metric:"ms,lower"`
	BlameSlowStartMs float64 `json:"blame_slowstart_ms,omitempty" metric:"ms,lower"`
	BlameServerMs    float64 `json:"blame_server_ms,omitempty" metric:"ms,lower"`
	BlameHOLMs       float64 `json:"blame_hol_ms,omitempty" metric:"ms,lower"`
	BlameWireMs      float64 `json:"blame_wire_ms,omitempty" metric:"ms,lower"`
	CriticalPathMs   float64 `json:"critical_path_ms,omitempty" metric:"ms,lower"`

	// SimEvents is the number of discrete events the simulation engine
	// fired during the run — a deterministic measure of engine work per
	// cell. SimEventsPerSec divides it by the run's wall-clock time; it
	// varies with host load, so it appears in the JSON records but not
	// in the deterministic CSV.
	SimEvents       uint64  `json:"sim_events" metric:"events,none"`
	SimEventsPerSec float64 `json:"sim_events_per_sec,omitempty" metric:"events/s,higher,wall"`

	// Dist carries the run's optional distribution metrics — per-request
	// latency quantiles in milliseconds (lat_queue_ms_p50, ...,
	// lat_total_ms_max), derived from the request-lifecycle spans — and
	// is nil unless the run executed with core.WithStats. Keys are
	// stable; CSV emission appends them after the fixed columns in
	// sorted order, with empty cells for records that lack a key.
	Dist map[string]float64 `json:"dist,omitempty" metric:"ms,lower"`

	// Cache and origin-side accounting for runs through the shared
	// caching proxy tier (all zero on direct client↔origin runs). On a
	// proxy run the Packets/Bytes fields above describe the client-side
	// (last-mile) link only; OriginPackets/OriginBytes describe the
	// proxy↔origin link.
	CacheHits          int     `json:"cache_hits,omitempty" metric:"count,higher"`
	CacheMisses        int     `json:"cache_misses,omitempty" metric:"count,lower"`
	CacheRevalidations int     `json:"cache_revalidations,omitempty" metric:"count,lower"`
	CacheHitRatio      float64 `json:"cache_hit_ratio,omitempty" metric:"ratio,higher"`
	CacheBytesSaved    int64   `json:"cache_bytes_saved,omitempty" metric:"bytes,higher"`
	UpstreamRequests   int     `json:"upstream_requests,omitempty" metric:"count,lower"`
	OriginPackets      int     `json:"origin_packets,omitempty" metric:"packets,lower"`
	OriginBytes        int64   `json:"origin_bytes,omitempty" metric:"bytes,lower"`
}

// Column is one metric of the per-run record, as its Metrics field's
// tags declare it.
type Column struct {
	// Name is the JSON key, which is also the CSV header.
	Name   string
	Unit   string
	Better stats.Polarity
	// Wall marks a host wall-clock measurement, kept out of the CSV.
	Wall  bool
	field int // index into Metrics
}

// columns holds every Metrics field in declaration order; columnIndex
// finds one by name, and dist is the Dist column's index.
var columns, columnIndex, dist = parseSchema()

// parseSchema reads the metric tags of Metrics once. A missing or
// malformed tag is a programming error in this file, so it panics at
// start-up rather than letting a column go out without a unit or
// polarity.
func parseSchema() ([]Column, map[string]int, int) {
	polarity := map[string]stats.Polarity{"lower": stats.LowerIsBetter, "higher": stats.HigherIsBetter, "none": stats.Ungated}
	t := reflect.TypeOf(Metrics{})
	cols := make([]Column, t.NumField())
	index := make(map[string]int, len(cols))
	distIdx := -1
	for i := range cols {
		f := t.Field(i)
		tag := f.Tag.Get("metric")
		unit, rest, _ := strings.Cut(tag, ",")
		better, wall, _ := strings.Cut(rest, ",")
		pol, ok := polarity[better]
		if unit == "" || !ok || (wall != "" && wall != "wall") {
			panic(fmt.Sprintf("exp: Metrics.%s: bad metric tag %q", f.Name, tag))
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		cols[i] = Column{Name: name, Unit: unit, Better: pol, Wall: wall != "", field: i}
		index[name] = i
		if f.Type.Kind() == reflect.Map {
			distIdx = i
		}
	}
	return cols, index, distIdx
}

// ColumnOf describes a key of a -json run record or a -csv header: the
// column of that name, or else a distribution key, which the Dist
// column's tag covers — distribution keys are the only ones a record
// carries beyond its fields.
func ColumnOf(key string) Column {
	if i, ok := columnIndex[key]; ok {
		return columns[i]
	}
	return columns[dist]
}

// Collector accumulates per-run metrics from concurrent workers. The
// zero value is ready to use; Add is safe for concurrent use, and
// Records returns a deterministically ordered snapshot so that sweep
// output is byte-identical at any parallelism level.
type Collector struct {
	mu   sync.Mutex
	recs []Metrics
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add appends one record.
func (c *Collector) Add(m Metrics) {
	c.mu.Lock()
	c.recs = append(c.recs, m)
	c.mu.Unlock()
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Records returns a sorted copy of the collected records, ordered by
// (experiment, scenario, seed, run) — an order independent of worker
// scheduling.
func (c *Collector) Records() []Metrics {
	c.mu.Lock()
	out := make([]Metrics, len(c.recs))
	copy(out, c.recs)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Run < b.Run
	})
	return out
}

// distColumns returns the sorted union of Dist keys across the records
// — the optional CSV columns, in their one deterministic order.
func distColumns(recs []Metrics) []string {
	seen := map[string]bool{}
	var cols []string
	for _, m := range recs {
		for k := range m.Dist {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	sort.Strings(cols)
	return cols
}

// WriteCSV writes the collected records as CSV with a header row: the
// fixed columns in Metrics field order, then any optional distribution
// columns present in the population, sorted by name. Records lacking an
// optional key emit an empty cell, so the header — and the whole file —
// is a pure function of the collected records, independent of worker
// scheduling or map iteration order.
func (c *Collector) WriteCSV(w io.Writer) error {
	recs := c.Records()
	f6 := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	// The fixed columns are every field but the wall-clock one and the
	// Dist map, whose keys follow.
	var fixed []Column
	var header []string
	for _, col := range columns {
		if !col.Wall && col.field != dist {
			fixed = append(fixed, col)
			header = append(header, col.Name)
		}
	}
	extras := distColumns(recs)
	header = append(header, extras...)
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range recs {
		rec := reflect.ValueOf(&recs[i]).Elem()
		row := make([]string, 0, len(header))
		for _, col := range fixed {
			if v := rec.Field(col.field); v.Kind() == reflect.Float64 {
				row = append(row, f6(v.Float()))
			} else {
				row = append(row, fmt.Sprint(v.Interface()))
			}
		}
		for _, k := range extras {
			if v, ok := recs[i].Dist[k]; ok {
				row = append(row, f6(v))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
