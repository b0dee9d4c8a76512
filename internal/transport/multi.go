package transport

import (
	"sync"

	"ssmfp/internal/graph"
)

// Multi composes node-scoped transports (one TCP transport per
// processor, typically) into a whole-graph transport: the send end of
// u→v resolves into u's transport, the receive end into v's. It is how
// an in-process test or benchmark runs a full loopback TCP cluster behind
// the same Transport interface msgpass consumes. It is not Elastic: an
// epoch that changes edges needs one Network per node transport.
type Multi struct {
	per map[graph.ProcessID]Transport

	mu    sync.Mutex
	links map[[2]graph.ProcessID]*multiLink
}

// NewMulti builds the composite. Every processor of the deployment must
// be present in per.
func NewMulti(per map[graph.ProcessID]Transport) *Multi {
	return &Multi{per: per, links: make(map[[2]graph.ProcessID]*multiLink)}
}

// Link pairs u's send end with v's receive end.
func (m *Multi) Link(from, to graph.ProcessID) Link {
	key := [2]graph.ProcessID{from, to}
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.links[key]; ok {
		return l
	}
	l := &multiLink{
		send: m.per[from].Link(from, to),
		recv: m.per[to].Link(from, to),
	}
	m.links[key] = l
	return l
}

// Stats sums every node transport's counters. Sends are counted at the
// sender's transport and receives at the receiver's, so the sum counts
// each frame once per direction.
func (m *Multi) Stats() Stats {
	var s Stats
	for _, t := range m.per {
		ts := t.Stats()
		s.FramesSent += ts.FramesSent
		s.FramesRecvd += ts.FramesRecvd
		s.DroppedFull += ts.DroppedFull
		s.DroppedImpair += ts.DroppedImpair
		s.Duplicated += ts.Duplicated
		s.BytesSent += ts.BytesSent
		s.BytesRecvd += ts.BytesRecvd
		s.Dials += ts.Dials
		s.Redials += ts.Redials
	}
	return s
}

// Close closes every node transport, returning the first error.
func (m *Multi) Close() error {
	var first error
	for _, t := range m.per {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// multiLink splices a send end and a receive end of the same directed
// edge, owned by two different node transports.
type multiLink struct {
	send Link
	recv Link
}

func (l *multiLink) Send(f Frame) bool  { return l.send.Send(f) }
func (l *multiLink) Recv() <-chan Frame { return l.recv.Recv() }
func (l *multiLink) Close() error       { l.send.Close(); return l.recv.Close() }

func (l *multiLink) Stats() LinkStats {
	s := l.send.Stats()
	r := l.recv.Stats()
	s.Recvd += r.Recvd
	s.DroppedFull += r.DroppedFull
	s.DroppedImpair += r.DroppedImpair
	return s
}
