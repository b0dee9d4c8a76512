package transport

import (
	"errors"
	"testing"

	"ssmfp/internal/graph"
)

// stubTransport is a node transport with fixed counters that records its
// Close calls.
type stubTransport struct {
	stats  Stats
	err    error
	closes int
}

func (s *stubTransport) Link(from, to graph.ProcessID) Link { panic("stub has no links") }
func (s *stubTransport) Stats() Stats                       { return s.stats }
func (s *stubTransport) Close() error                       { s.closes++; return s.err }
func (s *stubTransport) OnArrival(graph.ProcessID, func())  {}

func TestMultiStatsSumsEveryField(t *testing.T) {
	a := &stubTransport{stats: Stats{FramesSent: 1, FramesRecvd: 2, DroppedFull: 3, DroppedImpair: 4,
		Duplicated: 5, BytesSent: 6, BytesRecvd: 7, Dials: 8, Redials: 9}}
	b := &stubTransport{stats: Stats{FramesSent: 10, FramesRecvd: 20, DroppedFull: 30, DroppedImpair: 40,
		Duplicated: 50, BytesSent: 60, BytesRecvd: 70, Dials: 80, Redials: 90}}
	m := NewMulti(map[graph.ProcessID]Transport{0: a, 1: b, 2: &stubTransport{}})
	want := Stats{FramesSent: 11, FramesRecvd: 22, DroppedFull: 33, DroppedImpair: 44,
		Duplicated: 55, BytesSent: 66, BytesRecvd: 77, Dials: 88, Redials: 99}
	if got := m.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

func TestMultiCloseClosesEachOnce(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	ok := &stubTransport{}
	a := &stubTransport{err: errA}
	b := &stubTransport{err: errB}
	m := NewMulti(map[graph.ProcessID]Transport{0: ok, 1: a, 2: b})
	if err := m.Close(); err != errA {
		t.Fatalf("Close() = %v, want the lowest failing node's error %v", err, errA)
	}
	for p, s := range []*stubTransport{ok, a, b} {
		if s.closes != 1 {
			t.Errorf("node transport %d closed %d times, want 1", p, s.closes)
		}
	}

	clean := NewMulti(map[graph.ProcessID]Transport{0: &stubTransport{}, 1: &stubTransport{}})
	if err := clean.Close(); err != nil {
		t.Fatalf("Close() over clean transports = %v, want nil", err)
	}
	lone := NewMulti(map[graph.ProcessID]Transport{0: &stubTransport{}, 1: &stubTransport{err: errA}, 2: &stubTransport{}})
	if err := lone.Close(); err != errA {
		t.Fatalf("Close() = %v, want the one node error %v", err, errA)
	}
}
