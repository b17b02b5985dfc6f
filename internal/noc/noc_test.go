package noc

import (
	"math"
	"testing"
)

func TestRouteXY(t *testing.T) {
	m := MustNew(Fast())
	links := m.route(Coord{0, 0}, Coord{2, 3})
	if len(links) != 5 {
		t.Fatalf("route length %d, want 5", len(links))
	}
	// X first: the first three hops leave crosspoints in row 0, heading
	// east (link indices are dense: (row*Cols+col)*numDirs + dir).
	for i := 0; i < 3; i++ {
		want := m.linkIndex(0, i, dirEast)
		if links[i] != want {
			t.Errorf("hop %d is link %d, want %d (row 0 col %d east)", i, links[i], want, i)
		}
	}
	if m.Hops(Coord{0, 0}, Coord{2, 3}) != 5 {
		t.Error("hop count mismatch")
	}
	if m.Hops(Coord{1, 1}, Coord{1, 1}) != 0 {
		t.Error("self hop count != 0")
	}
}

func TestUnloadedLatencyGrowsWithDistance(t *testing.T) {
	m := MustNew(Fast())
	near := m.LatencyNS(Coord{1, 1}, Coord{1, 2}, 64)
	far := m.LatencyNS(Coord{0, 0}, Coord{3, 3}, 64)
	if far <= near {
		t.Errorf("far latency %.2f <= near %.2f", far, near)
	}
	if self := m.LatencyNS(Coord{1, 1}, Coord{1, 1}, 64); self <= 0 {
		t.Errorf("self latency %.2f, want > 0 (ejection)", self)
	}
}

func TestLoadIncreasesLatency(t *testing.T) {
	m := MustNew(Fast())
	base := m.LatencyNS(Coord{1, 0}, Coord{1, 3}, 64)
	// Offer 80% of one link's bandwidth along the same route.
	m.AddFlow(Coord{1, 0}, Coord{1, 3}, 0.8*m.Config().LinkGBs())
	loaded := m.LatencyNS(Coord{1, 0}, Coord{1, 3}, 64)
	if loaded <= base {
		t.Errorf("loaded latency %.2f <= base %.2f", loaded, base)
	}
	if q := m.QueueingNS(Coord{1, 0}, Coord{1, 3}, 64); math.Abs(loaded-base-q) > 1e-9 {
		t.Errorf("queueing %.3f != loaded-base %.3f", q, loaded-base)
	}
	m.ResetLoad()
	if m.LatencyNS(Coord{1, 0}, Coord{1, 3}, 64) != base {
		t.Error("reset did not clear load")
	}
}

func TestDisjointRoutesDoNotInterfere(t *testing.T) {
	m := MustNew(Fast())
	m.AddFlow(Coord{0, 0}, Coord{0, 3}, 0.9*m.Config().LinkGBs())
	if q := m.QueueingNS(Coord{3, 0}, Coord{3, 3}, 64); q != 0 {
		t.Errorf("disjoint route sees queueing %.3f", q)
	}
}

func TestSaturationIsFiniteButLarge(t *testing.T) {
	m := MustNew(Slow())
	m.AddFlow(Coord{1, 0}, Coord{1, 1}, 10*m.Config().LinkGBs())
	q := m.QueueingNS(Coord{1, 0}, Coord{1, 1}, 64)
	if math.IsInf(q, 1) || math.IsNaN(q) {
		t.Fatal("saturated queueing not finite")
	}
	unloadedService := 64.0 / m.Config().LinkGBs()
	if q < 10*unloadedService {
		t.Errorf("saturated queueing %.2f too small", q)
	}
	if m.MaxUtilisation() < 0.97 {
		t.Errorf("max utilisation %.2f, want near cap", m.MaxUtilisation())
	}
}

func TestSlowNoCSlowerThanFast(t *testing.T) {
	fast, slow := MustNew(Fast()), MustNew(Slow())
	if slow.LatencyNS(Coord{1, 0}, Coord{1, 3}, 64) <= fast.LatencyNS(Coord{1, 0}, Coord{1, 3}, 64) {
		t.Error("slow NoC not slower")
	}
	if slow.Config().LinkGBs() >= fast.Config().LinkGBs() {
		t.Error("slow NoC bandwidth not lower")
	}
}

func TestDefaultLayoutValid(t *testing.T) {
	l := DefaultLayout()
	if err := l.Validate(Fast()); err != nil {
		t.Fatal(err)
	}
	if len(l.MainPos) != 4 || len(l.LLCPos) != 4 {
		t.Error("layout shape wrong")
	}
	m := MustNew(Fast())
	for mc := 0; mc < 4; mc++ {
		// Checker i sits at most 1 hop from its main core (it shares the
		// adjacent LLC crosspoint), per fig. 5.
		if h := m.Hops(l.Main(mc), l.Checker(mc, 0)); h > 1 {
			t.Errorf("main %d to checker i: %d hops", mc, h)
		}
		for k := 0; k < 4; k++ {
			if h := m.Hops(l.Main(mc), l.Checker(mc, k)); h > 2 {
				t.Errorf("main %d to checker %d: %d hops, want <= 2", mc, k, h)
			}
		}
	}
	// Checker indices beyond the layout wrap.
	if l.Checker(0, 5) != l.Checker(0, 1) {
		t.Error("checker index wrap broken")
	}
}

func TestLayoutOffMeshRejected(t *testing.T) {
	cases := []struct {
		edit func(*Layout)
		want string
	}{
		{func(l *Layout) { l.MainPos[1] = Coord{1, 4} }, "noc: main 1 at {1 4} outside 4x4 mesh"},
		{func(l *Layout) { l.CheckerPos[0][2] = Coord{5, 0} }, "noc: checker 0.2 at {5 0} outside 4x4 mesh"},
		{func(l *Layout) { l.LLCPos[3] = Coord{-1, 2} }, "noc: llc 3 at {-1 2} outside 4x4 mesh"},
	}
	for _, c := range cases {
		l := DefaultLayout()
		c.edit(l)
		err := l.Validate(Fast())
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate = %v, want %q", err, c.want)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error for zero config")
	}
}

func TestQueueingMonotoneInLoad(t *testing.T) {
	// Property: queueing delay grows monotonically with offered load.
	m := MustNew(Fast())
	from, to := Coord{1, 0}, Coord{1, 2}
	prev := -1.0
	for load := 0.0; load < 0.9; load += 0.1 {
		m.ResetLoad()
		m.AddFlow(from, to, load*m.Config().LinkGBs())
		q := m.QueueingNS(from, to, 64)
		if q < prev {
			t.Fatalf("queueing fell from %.3f to %.3f at load %.1f", prev, q, load)
		}
		prev = q
	}
}

func TestLatencyScalesWithMessageSize(t *testing.T) {
	m := MustNew(Fast())
	small := m.LatencyNS(Coord{0, 0}, Coord{0, 3}, 8)
	big := m.LatencyNS(Coord{0, 0}, Coord{0, 3}, 512)
	if big <= small {
		t.Error("large message not slower")
	}
	// Serialisation: 512B over 3 links at 64 GB/s is 24ns more than 8B.
	if big-small < 20 {
		t.Errorf("serialisation gap %.1fns too small", big-small)
	}
}

func TestFlowsAccumulate(t *testing.T) {
	m := MustNew(Fast())
	m.AddFlow(Coord{1, 0}, Coord{1, 1}, 10)
	m.AddFlow(Coord{1, 0}, Coord{1, 1}, 10)
	q2 := m.QueueingNS(Coord{1, 0}, Coord{1, 1}, 64)
	m.ResetLoad()
	m.AddFlow(Coord{1, 0}, Coord{1, 1}, 10)
	q1 := m.QueueingNS(Coord{1, 0}, Coord{1, 1}, 64)
	if q2 <= q1 {
		t.Error("flows do not accumulate")
	}
}
