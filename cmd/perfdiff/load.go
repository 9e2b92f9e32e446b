package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/stats"
)

// snapshotEnv is the environment header a benchjson snapshot carries
// (Go toolchain, OS/arch, parallelism, CPU model). Other formats carry
// none; missing fields stay empty and are never compared.
type snapshotEnv struct {
	Go         string
	GOOS       string
	GOARCH     string
	GOMAXPROCS int
	CPU        string
}

// mismatches compares two environment headers field by field, skipping
// any field either side left empty (old snapshots predate the stamp).
func (e snapshotEnv) mismatches(other snapshotEnv) []string {
	var out []string
	check := func(label, a, b string) {
		if a != "" && b != "" && a != b {
			out = append(out, fmt.Sprintf("%s %q vs %q", label, a, b))
		}
	}
	check("go", e.Go, other.Go)
	check("goos", e.GOOS, other.GOOS)
	check("goarch", e.GOARCH, other.GOARCH)
	check("cpu", e.CPU, other.CPU)
	if e.GOMAXPROCS > 0 && other.GOMAXPROCS > 0 && e.GOMAXPROCS != other.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs %d vs %d", e.GOMAXPROCS, other.GOMAXPROCS))
	}
	return out
}

// loadSamples reads a performance snapshot file and flattens it into
// Compare's sample form, together with the snapshot's environment
// header when the format carries one. Three formats are recognised by
// shape:
//
//   - benchjson snapshots ({"benchmarks": [...]}) — one value per
//     (benchmark, metric); cells are "bench:<Name>"
//   - httpperf -json output ({"runs": [...]}) — per-run metrics grouped
//     by experiment/scenario, so replicated runs become populations and
//     Compare can use their confidence intervals
//   - httpperf -csv metrics files (header starts "experiment,scenario")
func loadSamples(path string) ([]stats.Sample, snapshotEnv, error) {
	var env snapshotEnv
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, env, err
	}
	trimmed := strings.TrimSpace(string(data))
	switch {
	case strings.HasPrefix(trimmed, "{"):
		return loadJSON(data, path)
	case strings.HasPrefix(trimmed, "experiment,scenario"):
		samples, err := loadCSV(data)
		return samples, env, err
	}
	return nil, env, fmt.Errorf("%s: unrecognised snapshot format (want benchjson JSON, httpperf -json, or httpperf -csv)", path)
}

func loadJSON(data []byte, path string) ([]stats.Sample, snapshotEnv, error) {
	var probe struct {
		Go         string `json:"go"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPU        string `json:"cpu"`
		Benchmarks []struct {
			Name    string             `json:"name"`
			NsPerOp float64            `json:"ns_per_op"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
		Units map[string]string `json:"units"`
		Runs  []map[string]any  `json:"runs"`
	}
	env := snapshotEnv{}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, env, fmt.Errorf("%s: %w", path, err)
	}
	env = snapshotEnv{Go: probe.Go, GOOS: probe.GOOS, GOARCH: probe.GOARCH,
		GOMAXPROCS: probe.GOMAXPROCS, CPU: probe.CPU}
	switch {
	case probe.Benchmarks != nil:
		var out []stats.Sample
		for _, b := range probe.Benchmarks {
			cell := "bench:" + b.Name
			out = append(out, stats.Sample{
				Cell: cell, Metric: "ns_per_op", Unit: probe.Units["ns_per_op"],
				Values: []float64{b.NsPerOp},
			})
			for _, name := range sortedKeys(b.Metrics) {
				out = append(out, stats.Sample{
					Cell: cell, Metric: name, Unit: probe.Units[name],
					Values: []float64{b.Metrics[name]},
				})
			}
		}
		return out, env, nil
	case probe.Runs != nil:
		samples, err := samplesFromRuns(probe.Runs)
		return samples, env, err
	}
	return nil, env, fmt.Errorf("%s: JSON has neither \"benchmarks\" nor \"runs\"", path)
}

// samplesFromRuns groups per-run metric records by experiment/scenario
// cell and collects each numeric field's values across the cell's runs.
// The nested distribution map (latency quantiles) is flattened into its
// keys.
func samplesFromRuns(runs []map[string]any) ([]stats.Sample, error) {
	var rv runValues
	for _, run := range runs {
		expName, _ := run["experiment"].(string)
		scenario, _ := run["scenario"].(string)
		cell := expName + "/" + scenario
		for _, name := range sortedKeys(run) {
			switch v := run[name].(type) {
			case float64:
				rv.add(cell, name, v)
			case map[string]any:
				for _, dk := range sortedKeys(v) {
					if dv, ok := v[dk].(float64); ok {
						rv.add(cell, dk, dv)
					}
				}
			}
		}
	}
	if len(rv.order) == 0 {
		return nil, fmt.Errorf("no numeric per-run metrics found")
	}
	return rv.samples(), nil
}

func loadCSV(data []byte) ([]stats.Sample, error) {
	rows, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("CSV has no data rows")
	}
	header := rows[0]
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	var rv runValues
	for _, row := range rows[1:] {
		cell := row[col["experiment"]] + "/" + row[col["scenario"]]
		for i, field := range row {
			name := header[i]
			if name == "experiment" || name == "scenario" || field == "" {
				continue
			}
			if v, err := strconv.ParseFloat(field, 64); err == nil {
				rv.add(cell, name, v)
			}
		}
	}
	return rv.samples(), nil
}

// runValues groups per-run record values by (cell, metric), keeping the
// order in which each pair was first seen.
type runValues struct {
	order  []cellMetric
	values map[cellMetric][]float64
}

type cellMetric struct{ cell, metric string }

func (rv *runValues) add(cell, metric string, v float64) {
	k := cellMetric{cell, metric}
	if rv.values == nil {
		rv.values = map[cellMetric][]float64{}
	}
	if _, seen := rv.values[k]; !seen {
		rv.order = append(rv.order, k)
	}
	rv.values[k] = append(rv.values[k], v)
}

// samples returns one sample per (cell, metric), carrying the metric's
// unit and polarity from the record schema.
func (rv *runValues) samples() []stats.Sample {
	out := make([]stats.Sample, 0, len(rv.order))
	for _, k := range rv.order {
		col := exp.ColumnOf(k.metric)
		out = append(out, stats.Sample{
			Cell: k.cell, Metric: k.metric, Unit: col.Unit, Better: col.Better,
			Values: rv.values[k],
		})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
