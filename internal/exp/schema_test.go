package exp

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// csvHeader is the fixed CSV header the schema yields, for the tests
// that count CSV columns.
var csvHeader = func() []string {
	var h []string
	for _, c := range columns {
		if !c.Wall && c.field != dist {
			h = append(h, c.Name)
		}
	}
	return h
}()

// TestSchemaComplete: every exported Metrics field states its unit and
// polarity once, in its metric tag, and exactly one field — the engine
// throughput — is host wall-clock.
func TestSchemaComplete(t *testing.T) {
	units := map[string]bool{
		"label": true, "id": true, "packets": true, "bytes": true, "seconds": true,
		"ms": true, "percent": true, "ratio": true, "count": true, "events": true, "events/s": true,
	}
	polarities := map[string]bool{"lower": true, "higher": true, "none": true}
	typ := reflect.TypeOf(Metrics{})
	var wall []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		parts := strings.Split(f.Tag.Get("metric"), ",")
		if len(parts) < 2 || !units[parts[0]] || !polarities[parts[1]] {
			t.Errorf("Metrics.%s: metric tag %q lacks a known unit and polarity", f.Name, f.Tag.Get("metric"))
			continue
		}
		if len(parts) == 3 && parts[2] == "wall" {
			wall = append(wall, f.Name)
		}
	}
	if !reflect.DeepEqual(wall, []string{"SimEventsPerSec"}) {
		t.Errorf("wall-clock fields %v, want exactly [SimEventsPerSec]", wall)
	}
	if len(columns) != typ.NumField() {
		t.Fatalf("%d columns for %d fields", len(columns), typ.NumField())
	}
	for _, name := range []string{"header_bytes_saved", "cache_bytes_saved", "cache_hit_ratio", "requests_recovered"} {
		if c := ColumnOf(name); c.Better != stats.HigherIsBetter {
			t.Errorf("%s polarity %v, want higher is better", name, c.Better)
		}
	}
	if c := ColumnOf("lat_total_ms_p99"); c.Unit != "ms" || c.Better != stats.LowerIsBetter {
		t.Errorf("distribution key described as %+v, want the Dist column", c)
	}
}

// TestMetricsJSONPinned pins the JSON encoding of a record with every
// field set: key names, order and number formats. Benchmark digests
// and httpperf -json consumers depend on these bytes.
func TestMetricsJSONPinned(t *testing.T) {
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(columns[i].Name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Map:
			m.Dist = map[string]float64{"lat_total_ms_p50": 1.25, "lat_queue_ms_max": 2}
		default:
			t.Fatalf("field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"experiment":"experiment","scenario":"scenario","seed":3,"run":4,"packets":5,` +
		`"packets_c2s":6,"packets_s2c":7,"payload_bytes":8,"wire_bytes":9,` +
		`"link_wire_bytes":10,"overhead_pct":10.5,"elapsed_seconds":11.5,` +
		`"retransmissions":13,"rto_timeouts":14,"drops":15,"dials":16,` +
		`"sockets_used":17,"max_open_conns":18,"client_cpu_seconds":18.5,` +
		`"server_cpu_seconds":19.5,"responses_200":21,"responses_304":22,` +
		`"responses_206":23,"errors":24,"retried":25,"timeouts":26,` +
		`"requests_recovered":27,"requests_failed":28,"wasted_bytes":29,` +
		`"recovery_seconds":29.5,"fallbacks":31,"faults_injected":32,` +
		`"streams_opened":33,"push_promised":34,"push_used":35,"push_wasted_bytes":36,` +
		`"header_bytes_saved":37,"flow_control_stalls":38,"streams_reset":39,` +
		`"goaways":40,"deadlocks_detected":41,"timeline_events":42,"timeline_spans":43,` +
		`"blame_connect_ms":43.5,"blame_rto_ms":44.5,"blame_nagle_ms":45.5,` +
		`"blame_flow_ms":46.5,"blame_slowstart_ms":47.5,"blame_server_ms":48.5,` +
		`"blame_hol_ms":49.5,"blame_wire_ms":50.5,"critical_path_ms":51.5,` +
		`"sim_events":53,"sim_events_per_sec":53.5,` +
		`"dist":{"lat_queue_ms_max":2,"lat_total_ms_p50":1.25},"cache_hits":56,` +
		`"cache_misses":57,"cache_revalidations":58,"cache_hit_ratio":58.5,` +
		`"cache_bytes_saved":60,"upstream_requests":61,"origin_packets":62,` +
		`"origin_bytes":63}`
	if string(got) != want {
		t.Fatalf("Metrics JSON drifted:\n got %s\nwant %s", got, want)
	}
}
