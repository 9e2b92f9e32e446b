package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/webgen"
)

// scenarioMix is a workload whose op is one core.Run. One round of the
// op stream runs every cell once, in an order shuffled from the
// workload seed; each op draws its scenario seed from a fixed pool of
// seeds per cell, so every (cell, scenario seed) pair the stream can
// produce has a digest in the reference.
type scenarioMix struct {
	name  string
	specs []string // core.ParseScenario specs, one per cell
	seeds int      // size of each cell's scenario-seed pool
	// observe arms the timeline, latency statistics and blame
	// observers on every op, as `httpperf -blame` runs do.
	observe bool

	scenarios []core.Scenario // parsed specs
}

// pageLoad is the paper's core traffic: clean direct HTTP/1.x page
// loads over the cells of Tables 3-9, first fetches and revalidations.
func pageLoad() *scenarioMix {
	var specs []string
	for _, mode := range []string{"http10", "serial", "pipelined"} {
		for _, server := range []string{"jigsaw", "apache"} {
			for _, env := range []string{"LAN", "WAN", "PPP"} {
				for _, fetch := range []string{"first", "reval"} {
					specs = append(specs, strings.Join([]string{server, mode, env, fetch}, "/"))
				}
			}
		}
	}
	return mustMix("page-load", specs, 8, false)
}

// framedFaults drives the framed modes direct and the HTTP/1.x and burst
// modes through the caching proxy, under every fault profile, with the
// observers armed.
func framedFaults() *scenarioMix {
	routes := []string{
		"apache/mux/%s/%s/%s",
		"apache/mux-push/%s/%s/%s",
		"apache/burst/%s/%s/%s",
		"jigsaw/pipelined/%s/%s/proxy:WAN:warm/%s",
		"jigsaw/burst/%s/%s/proxy:WAN:warm/%s",
		"jigsaw/pipelined/%s/%s/proxy:WAN:stale/%s",
		"jigsaw/burst/%s/%s/proxy:WAN:stale/%s",
	}
	var specs []string
	for _, route := range routes {
		for _, env := range []string{"WAN", "PPP"} {
			for _, fetch := range []string{"first", "reval"} {
				for _, fault := range faults.Names() {
					specs = append(specs, fmt.Sprintf(route, env, fetch, fault))
				}
			}
		}
	}
	return mustMix("framed-faults", specs, 3, true)
}

func mustMix(name string, specs []string, seeds int, observe bool) *scenarioMix {
	m := &scenarioMix{name: name, specs: specs, seeds: seeds, observe: observe}
	for _, spec := range specs {
		sc, err := core.ParseScenario(spec)
		if err != nil {
			panic(fmt.Sprintf("%s: bad cell %q: %v", name, spec, err))
		}
		sc.Jitter = true
		m.scenarios = append(m.scenarios, sc)
	}
	return m
}

// scenarioOp is one op of a scenarioMix: a cell and its scenario seed.
type scenarioOp struct {
	cell int
	seed uint64
}

// poolSeed is the k-th scenario seed of every cell's pool.
func poolSeed(k int) uint64 { return uint64(k+1) * 7919 }

func (m *scenarioMix) key(op scenarioOp) string {
	return fmt.Sprintf("%s@%d", m.specs[op.cell], op.seed)
}

// fetch is the op's client workload, "first" or "reval"; the benchmark
// labels its profile samples with it.
func (m *scenarioMix) fetch(op scenarioOp) string {
	if m.scenarios[op.cell].Workload == httpclient.Revalidate {
		return "reval"
	}
	return "first"
}

// pool lists every op the stream can produce, in cell order.
func (m *scenarioMix) pool() []scenarioOp {
	var out []scenarioOp
	for c := range m.specs {
		for k := 0; k < m.seeds; k++ {
			out = append(out, scenarioOp{cell: c, seed: poolSeed(k)})
		}
	}
	return out
}

// run executes one op and returns its metrics record.
func (m *scenarioMix) run(op scenarioOp, site *webgen.Site, observe bool) (exp.Metrics, error) {
	var met exp.Metrics
	opts := []core.Option{core.WithSeed(op.seed), core.WithMetrics(&met)}
	if observe {
		opts = append(opts, core.WithTimeline(), core.WithStats(), core.WithBlame())
	}
	_, err := core.Run(m.scenarios[op.cell], site, opts...)
	return met, err
}

// opStream yields a scenarioMix's ops for one workload seed. It is safe
// for concurrent use; the sequence it yields depends only on the seed.
type opStream struct {
	mix *scenarioMix
	mu  sync.Mutex
	rng splitmix
	buf []scenarioOp
}

func newStream(m *scenarioMix, seed uint64) *opStream {
	return &opStream{mix: m, rng: splitmix(seed)}
}

func (s *opStream) next() scenarioOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		n := len(s.mix.specs)
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(s.rng.next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for _, c := range order {
			k := int(s.rng.next() % uint64(s.mix.seeds))
			s.buf = append(s.buf, scenarioOp{cell: c, seed: poolSeed(k)})
		}
	}
	op := s.buf[0]
	s.buf = s.buf[1:]
	return op
}

// splitmix is the SplitMix64 generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// metricsDigest hashes a run's deterministic metrics: every field but
// the wall-clock SimEventsPerSec. A change that only speeds the program
// up leaves it unchanged.
func metricsDigest(m exp.Metrics) (string, error) {
	m.SimEventsPerSec = 0
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("digest %s: %w", m.Scenario, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
