package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/report"
)

// TestCriticalPathProperties checks the chain's structural invariants
// on a real run: links tile contiguously earliest-first, the path
// length is the tiled interval, its blame partition conserves exactly,
// and OnPath marks exactly the chain's members.
func TestCriticalPathProperties(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(timelineScenario(netem.WAN), site, core.WithBlame())
	if err != nil {
		t.Fatal(err)
	}
	a := res.Blame
	if a == nil || len(a.Requests) == 0 {
		t.Fatal("no attribution produced")
	}
	if len(a.Chain) == 0 {
		t.Fatal("empty critical path")
	}
	for i, l := range a.Chain {
		if l.From >= l.To {
			t.Fatalf("link %d is empty or reversed: %+v", i, l)
		}
		if i > 0 && a.Chain[i-1].To != l.From {
			t.Fatalf("chain not contiguous at %d: %v then %v", i, a.Chain[i-1], l)
		}
	}
	span := a.Chain[len(a.Chain)-1].To.Sub(a.Chain[0].From)
	if a.CriticalPath != span {
		t.Fatalf("critical path %v != tiled interval %v", a.CriticalPath, span)
	}
	if a.CriticalBlame.Sum() != a.CriticalPath {
		t.Fatalf("critical blame %v != critical path %v", a.CriticalBlame.Sum(), a.CriticalPath)
	}
	onPath := map[int]bool{}
	for _, l := range a.Chain {
		onPath[int(l.Span)] = true
	}
	marked := 0
	for _, rb := range a.Requests {
		if rb.OnPath != onPath[int(rb.Span)] {
			t.Fatalf("span %d OnPath=%v but chain membership=%v", rb.Span, rb.OnPath, onPath[int(rb.Span)])
		}
		if rb.OnPath {
			marked++
		}
		if rb.B.Sum() != rb.Elapsed {
			t.Fatalf("span %d: blame sum %v != elapsed %v", rb.Span, rb.B.Sum(), rb.Elapsed)
		}
	}
	if marked == 0 {
		t.Fatal("no request marked OnPath")
	}
}

// TestWaterfallBlameGolden pins the blame-annotated waterfall — phase
// columns and critical-path flags — for the canonical pipelined PPP
// run, byte for byte.
func TestWaterfallBlameGolden(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(timelineScenario(netem.PPP), site, core.WithTimeline(), core.WithBlame())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report.WriteWaterfall(&buf, res.Timeline, res.Blame)
	checkGolden(t, "waterfall_blame_ppp.txt", buf.Bytes())
}
