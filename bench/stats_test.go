package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1, 2}, [3]float64{1, 2, 3.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 9, 4, 7, 1}, [3]float64{1.5, 4, 8}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if q := quartiles(nil); !math.IsNaN(q[1]) {
		t.Errorf("quartiles(nil) = %v, want NaN", q)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 70, End: 80},
		{Name: "a1", Parent: 1, Start: 15, End: 20},
	}}
	self := tr.selfTimes()
	want := []time.Duration{100 - 50, 30 - 5, 20, 10, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", tr.spans[i].Name, self[i], want[i])
		}
	}
	if got := tr.total("a"); got != 30 {
		t.Errorf("total(a) = %v, want 30", got)
	}
}

func TestChromeTraceRecordsParentsAndSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("engine.entries", -1)
	tr.do("engine.fig6", root, func() {})
	tr.end(root)
	tr.begin("unclosed", -1)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want the 2 closed spans", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[1]
	if child.Name != "engine.fig6" || child.Ph != "X" || child.Args["parent"] != "engine.entries" {
		t.Errorf("child event = %+v", child)
	}
	if _, ok := child.Args["self_us"]; !ok {
		t.Error("child event lacks self_us")
	}
}
