package obs

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// The metrics readers parse files handed to `paraverser metrics`, so
// they must reject malformed input with an error, never a panic. The
// seed corpora under testdata/fuzz are a small real export:
//
//	paraverser -quick -benchmarks exchange2 -trace t.json -trace-cap 6 \
//	    -metrics-out m.json fig6

// FuzzReadSnapshotJSON checks that any input either fails to parse or
// survives WriteJSON → ReadSnapshotJSON unchanged.
func FuzzReadSnapshotJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshotJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted snapshot: %v", err)
		}
		back, err := ReadSnapshotJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading its own output: %v\n%s", err, buf.Bytes())
		}
		// An empty bucket list is omitted on write and reads back nil.
		for _, ms := range [][]Metric{s.Metrics, back.Metrics} {
			for i := range ms {
				if len(ms[i].Buckets) == 0 {
					ms[i].Buckets = nil
				}
			}
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the snapshot:\n%+v\nvs\n%+v", s, back)
		}
	})
}

// FuzzReadTraceJSON checks that any input either fails to parse or,
// written back through Trace.WriteJSON, reads back as the same events
// (in the writer's (pid, tid, ts) order) and dropped counts.
func FuzzReadTraceJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, dropped, err := ReadTraceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr := &Trace{events: evs, cap: len(evs), dropped: dropped}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted trace: %v", err)
		}
		backEvs, backDropped, err := ReadTraceJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading its own output: %v\n%s", err, buf.Bytes())
		}
		want := append([]TraceEvent(nil), evs...)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := &want[i], &want[j]
			if a.PID != b.PID {
				return a.PID < b.PID
			}
			if a.TID != b.TID {
				return a.TID < b.TID
			}
			return a.TS < b.TS
		})
		// Empty args are omitted on write and read back nil.
		for _, es := range [][]TraceEvent{want, backEvs} {
			for i := range es {
				if len(es[i].Args) == 0 {
					es[i].Args = nil
				}
			}
		}
		if (len(want) > 0 || len(backEvs) > 0) && !reflect.DeepEqual(want, backEvs) {
			t.Fatalf("round trip changed the events:\n%+v\nvs\n%+v", want, backEvs)
		}
		if !reflect.DeepEqual(dropped, backDropped) {
			t.Fatalf("round trip changed the dropped counts: %v vs %v", dropped, backDropped)
		}
	})
}
