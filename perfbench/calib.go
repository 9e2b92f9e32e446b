package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
)

// calUnits is how many calibration units run in one batch: after each
// window of the measured phase and after each set-up call.
const calUnits = 25

// refUnitMs is the CPU time of one calibration unit on the reference
// host (2-vCPU Intel Xeon, go1.24.0), in ms. Scaled timings are what
// the reference host would take.
const refUnitMs = 2.8

// calibrator measures how fast the host runs while the benchmark runs.
// The virtual machines this benchmark was written on change speed by a
// quarter over minutes, in CPU time as well as in wall time, because
// other guests share their caches and cores, so runs of the same code
// ten minutes apart differ by as much as a regression bound allows. A
// fixed unit of work, run in a batch right after each
// window, slows down with the host: over ten runs on page-load whose
// op_ms_p50 spread 0.26 of the median in CPU time, the unit's time per
// run followed it with a correlation of 0.98, and op time divided by
// unit time spread 0.03.
//
// The unit does what the program does most, with the standard library
// only, so that no change to the program changes the unit: it deflates
// an HTML-like page, encodes and decodes JSON records, and sorts and
// indexes their keys. Like the program it allocates freely (about 1 MB a
// unit, most of it the compressor's tables), since allocation and fresh
// memory are where the host's slowdowns hurt most; a unit that reused
// its buffers followed the host less closely. What the batches allocate
// is left out of the allocation metrics.
type calibrator struct {
	page []byte
	recs []calRecord
	sink int

	// allocBytes and allocs count what the batches allocated.
	allocBytes, allocs uint64
}

type calRecord struct {
	Name  string
	Count int
	Tags  []string
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewPCG(7, 7))
	c := &calibrator{}
	var page bytes.Buffer
	for page.Len() < 32<<10 {
		fmt.Fprintf(&page, "<a href=\"/img/%d.gif\">item %d</a> ", r.IntN(500), r.IntN(1e6))
	}
	c.page = page.Bytes()
	for i := 0; i < 150; i++ {
		c.recs = append(c.recs, calRecord{Name: "rec" + strconv.Itoa(r.IntN(1e6)), Count: r.IntN(1000), Tags: []string{"a", "bb", strconv.Itoa(i)}})
	}
	return c
}

// unit runs the fixed work once.
func (c *calibrator) unit() {
	var out bytes.Buffer
	fw, _ := flate.NewWriter(&out, 6) // level 6 is valid
	fw.Write(c.page)
	fw.Close()
	js, _ := json.Marshal(c.recs) // plain records always encode
	var back []calRecord
	if err := json.Unmarshal(js, &back); err != nil {
		panic(err) // decoding what was just encoded
	}
	keys := make([]string, 0, 2000)
	index := map[string]int{}
	for i := 0; i < 2000; i++ {
		k := back[i%len(back)].Name + strconv.Itoa(i)
		keys = append(keys, k)
		index[k] = i
	}
	slices.Sort(keys)
	for _, k := range keys {
		c.sink += index[k]
	}
	c.sink += out.Len()
}

// batch runs calUnits units on the calling thread, which its caller
// holds, and returns the factor that scales a CPU time measured next to
// it to the reference host: refUnitMs over the median unit's time.
func (c *calibrator) batch() float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ms := make([]float64, calUnits)
	for i := range ms {
		t0 := threadCPU()
		c.unit()
		ms[i] = float64((threadCPU() - t0).Nanoseconds()) / 1e6
	}
	runtime.ReadMemStats(&m1)
	c.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	c.allocs += m1.Mallocs - m0.Mallocs
	return refUnitMs / quantile(ms, 0.5)
}
