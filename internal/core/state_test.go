package core

import (
	"math/rand"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

func TestMessageEqualityHelpers(t *testing.T) {
	a := &Message{Payload: "x", LastHop: 1, Color: 2}
	b := &Message{Payload: "x", LastHop: 3, Color: 2}
	c := &Message{Payload: "x", LastHop: 1, Color: 0}
	d := &Message{Payload: "y", LastHop: 1, Color: 2}

	if !a.SameMC(b) {
		t.Error("SameMC must ignore last hop")
	}
	if a.SameMC(c) {
		t.Error("SameMC must compare color")
	}
	if a.SameMC(d) {
		t.Error("SameMC must compare payload")
	}
	if a.Equals(b) {
		t.Error("Equals must compare last hop")
	}
	if !a.Equals(&Message{Payload: "x", LastHop: 1, Color: 2, UID: 999}) {
		t.Error("Equals must ignore simulation-side fields")
	}
	if a.SameMC(nil) || a.Equals(nil) || (*Message)(nil).SameMC(a) || (*Message)(nil).Equals(a) {
		t.Error("nil never matches")
	}
}

func TestMessageWithHelpersCopy(t *testing.T) {
	m := &Message{Payload: "x", LastHop: 1, Color: 2, UID: 7, Valid: true}
	h := m.WithHop(4)
	if h == m || h.LastHop != 4 || h.Color != 2 || h.UID != 7 || !h.Valid {
		t.Fatalf("WithHop wrong: %+v", h)
	}
	hc := m.WithHopColor(5, 0)
	if hc.LastHop != 5 || hc.Color != 0 || hc.UID != 7 {
		t.Fatalf("WithHopColor wrong: %+v", hc)
	}
	if m.LastHop != 1 || m.Color != 2 {
		t.Fatal("original mutated")
	}
}

func TestMessageString(t *testing.T) {
	if got := (*Message)(nil).String(); got != "∅" {
		t.Errorf("nil string = %q", got)
	}
	m := &Message{Payload: "hi", LastHop: 2, Color: 1, Valid: true}
	if got := m.String(); got != "(hi,q=2,c=1,valid)" {
		t.Errorf("String() = %q", got)
	}
}

func TestNodeCloneIsDeep(t *testing.T) {
	g := graph.Line(3)
	n := CleanNode(g, 1)
	n.FW.Enqueue("a", 0)
	n.FW.Dest(0).BufR = &Message{Payload: "x"}
	n.FW.Dest(0).Queue = []graph.ProcessID{0, 1}

	c := n.Clone().(*Node)
	c.FW.Pending[0].Payload = "mutated"
	c.FW.Dest(0).BufR = nil
	c.FW.Dest(0).Queue[0] = 2
	c.RT.Routes[0].Dist = 99

	if n.FW.Pending[0].Payload != "a" {
		t.Error("Pending shared")
	}
	if n.FW.Dest(0).BufR == nil {
		t.Error("buffer field shared")
	}
	if n.FW.Dest(0).Queue[0] != 0 {
		t.Error("queue shared")
	}
	if n.RT.Route(0).Dist == 99 {
		t.Error("routing table shared")
	}
}

// TestNodeStageCommit writes everything a slot-s move may write on a
// staged scratch — destination s-1's buffers and queue through SetDest,
// the unsliced pending queue, request bit and sequence counter, and the
// routing entry through SetRoute, the way A does. Until the commit the
// original is unchanged and the scratch still reads its values; the
// commit writes exactly those writes into the original. A scratch
// restaged for a move that writes nothing commits nothing of the earlier
// move.
func TestNodeStageCommit(t *testing.T) {
	g := graph.Line(5)
	n := CleanNode(g, 1)
	n.FW.Pending = make([]Outbound, 0, 8) // spare capacity an append could share
	n.FW.Enqueue("a", 0)
	n.FW.Enqueue("b", 2)
	n.FW.Dest(0).BufR = &Message{Payload: "x"}
	n.FW.Dest(0).Queue = []graph.ProcessID{0, 1}
	n.FW.Dest(3).BufE = &Message{Payload: "z"}
	before := Fingerprint([]sm.State{n})

	c := n.Stage(nil, routing.SlotOf(0)).(*Node)
	ds := *c.FW.Dest(0)
	ds.BufR = nil
	ds.BufE = &Message{Payload: "y"}
	ds.Queue = append(ds.Queue, 2)
	c.FW.SetDest(0, ds)
	c.FW.Pending = c.FW.Pending[1:]
	c.FW.Enqueue("c", 2)
	c.FW.Request = false
	c.FW.NextSeq++
	c.RT.SetRoute(0, routing.Route{Dist: 99, Parent: 2})

	if got := Fingerprint([]sm.State{n}); got != before {
		t.Fatalf("staged writes reached the original before the commit:\nbefore %s\nafter  %s", before, got)
	}
	if c.FW.Dest(0).BufE != nil || c.RT.Route(0).Dist == 99 {
		t.Fatal("the scratch must read the pre-step slot, not its staged write")
	}
	otherDest, otherRoute := n.FW.Dest(3).BufE, n.RT.Route(3)
	n.Commit(c)
	if got := n.FW.Dest(0); got.BufR != nil || got.BufE == nil || got.BufE.Payload != "y" || len(got.Queue) != 3 {
		t.Fatalf("destination 0 after the commit = %+v", *got)
	}
	if n.RT.Route(0) != (routing.Route{Dist: 99, Parent: 2}) || n.FW.Request || n.FW.NextSeq != 1 {
		t.Fatal("the commit lost the route, the request bit or the sequence counter")
	}
	if len(n.FW.Pending) != 2 || n.FW.Pending[0].Payload != "b" || n.FW.Pending[1].Payload != "c" {
		t.Fatalf("pending after the commit = %v, want [b c]", n.FW.Pending)
	}
	if n.FW.Dest(3).BufE != otherDest || n.RT.Route(3) != otherRoute {
		t.Fatal("the commit wrote a destination the move did not")
	}

	after := Fingerprint([]sm.State{n})
	if c2 := n.Stage(c, routing.SlotOf(2)); c2 != c {
		t.Fatal("Stage did not reuse the scratch it was given")
	}
	n.Commit(c)
	if got := Fingerprint([]sm.State{n}); got != after {
		t.Fatalf("a restaged scratch committed the earlier move again:\nbefore %s\nafter  %s", after, got)
	}
}

// TestStagedWriteOutsideSlotPanics: a slotted move writes only its own
// destination, so a staged SetDest or SetRoute of another one panics.
func TestStagedWriteOutsideSlotPanics(t *testing.T) {
	g := graph.Line(3)
	n := CleanNode(g, 1)
	for name, write := range map[string]func(c *Node){
		"SetDest":  func(c *Node) { c.FW.SetDest(2, DestState{BufR: &Message{Payload: "x"}}) },
		"SetRoute": func(c *Node) { c.RT.SetRoute(2, routing.Route{Dist: 1, Parent: 2}) },
	} {
		c := n.Stage(nil, routing.SlotOf(0)).(*Node)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of destination 2 on a scratch of destination 0 did not panic", name)
				}
			}()
			write(c)
		}()
	}
}

func TestEnqueueRaisesRequestOnce(t *testing.T) {
	g := graph.Line(2)
	s := EmptyState(g)
	if s.Request {
		t.Fatal("fresh state must not request")
	}
	s.Enqueue("a", 1)
	if !s.Request || len(s.Pending) != 1 {
		t.Fatal("Enqueue must raise request and append")
	}
	s.Enqueue("b", 0)
	if len(s.Pending) != 2 {
		t.Fatal("second Enqueue must append")
	}
	d, ok := s.NextDestination()
	if !ok || d != 1 {
		t.Fatalf("NextDestination = %d,%v; want 1,true", d, ok)
	}
}

func TestNextDestinationEmpty(t *testing.T) {
	s := EmptyState(graph.Line(2))
	if _, ok := s.NextDestination(); ok {
		t.Fatal("NextDestination on empty pending must report false")
	}
}

func TestRandomConfigWellTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Figure1Network()
	delta := g.MaxDegree()
	for trial := 0; trial < 30; trial++ {
		cfg := RandomConfig(g, rng, DefaultCorrupt)
		if len(cfg) != g.N() {
			t.Fatal("wrong config length")
		}
		for pp, s := range cfg {
			p := graph.ProcessID(pp)
			node := s.(*Node)
			for d := 0; d < g.N(); d++ {
				ds := &node.FW.Dests[d]
				for _, m := range []*Message{ds.BufR, ds.BufE} {
					if m == nil {
						continue
					}
					if m.Valid {
						t.Fatal("initial messages must be invalid")
					}
					if m.Color < 0 || m.Color > delta {
						t.Fatalf("color %d out of range", m.Color)
					}
					if !g.IsNeighborOrSelf(p, m.LastHop) {
						t.Fatalf("last hop %d not in N_%d ∪ {%d}", m.LastHop, p, p)
					}
				}
				for _, q := range ds.Queue {
					if !g.IsNeighborOrSelf(p, q) {
						t.Fatalf("queue entry %d ill-typed at %d", q, p)
					}
				}
				if len(ds.Queue) > delta+1 {
					t.Fatalf("queue longer than Δ+1: %d", len(ds.Queue))
				}
			}
		}
	}
}

func TestRandomConfigRespectsOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Ring(5)
	cfg := RandomConfig(g, rng, CorruptOptions{BufferFill: 0, CorruptRouting: false})
	for pp, s := range cfg {
		node := s.(*Node)
		for d := 0; d < g.N(); d++ {
			if ds := &node.FW.Dests[d]; ds.BufR != nil || ds.BufE != nil {
				t.Fatal("BufferFill=0 must leave buffers empty")
			}
			if len(node.FW.Dests[d].Queue) != 0 {
				t.Fatal("CorruptQueues=false must leave queues empty")
			}
		}
		if node.FW.Request {
			t.Fatal("PhantomRequests=false must leave request down")
		}
		for d := 0; d < g.N(); d++ {
			if node.RT.Routes[d].Dist != g.Dist(graph.ProcessID(pp), graph.ProcessID(d)) {
				t.Fatal("CorruptRouting=false must give correct tables")
			}
		}
	}
}

func TestOccupancyAndQuiescent(t *testing.T) {
	g := graph.Line(3)
	cfg := CleanConfig(g)
	if !Quiescent(cfg) {
		t.Fatal("clean config must be quiescent")
	}
	total, valid := Occupancy(cfg, 0)
	if total != 0 || valid != 0 {
		t.Fatal("clean config must have empty buffers")
	}
	cfg[1].(*Node).FW.Dest(0).BufR = &Message{Payload: "x", Valid: true}
	cfg[2].(*Node).FW.Dest(0).BufE = &Message{Payload: "y"}
	if Quiescent(cfg) {
		t.Fatal("occupied config must not be quiescent")
	}
	total, valid = Occupancy(cfg, 0)
	if total != 2 || valid != 1 {
		t.Fatalf("occupancy = %d,%d; want 2,1", total, valid)
	}
	cfg2 := CleanConfig(g)
	cfg2[0].(*Node).FW.Enqueue("z", 1)
	if Quiescent(cfg2) {
		t.Fatal("pending generation must break quiescence")
	}
}

func TestCaterpillarTypeString(t *testing.T) {
	for typ, want := range map[CaterpillarType]string{
		None: "none", Type1: "type-1", Type2: "type-2", Type3: "type-3",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestRuleName(t *testing.T) {
	if RuleName("R3", 7) != "R3@7" {
		t.Fatalf("RuleName wrong: %s", RuleName("R3", 7))
	}
}

func TestNormalizeQueue(t *testing.T) {
	cases := []struct {
		stored, cands, want []graph.ProcessID
	}{
		{nil, nil, []graph.ProcessID{}},
		{nil, []graph.ProcessID{2, 5}, []graph.ProcessID{2, 5}},
		{[]graph.ProcessID{5, 2}, []graph.ProcessID{2, 5}, []graph.ProcessID{5, 2}},    // stored order kept
		{[]graph.ProcessID{9, 5}, []graph.ProcessID{2, 5}, []graph.ProcessID{5, 2}},    // stale 9 dropped, 2 appended
		{[]graph.ProcessID{5, 5, 2}, []graph.ProcessID{2, 5}, []graph.ProcessID{5, 2}}, // duplicates collapsed
		{[]graph.ProcessID{1, 2, 3}, []graph.ProcessID{}, []graph.ProcessID{}},         // all stale
		{[]graph.ProcessID{3}, []graph.ProcessID{1, 2, 3}, []graph.ProcessID{3, 1, 2}}, // head kept, arrivals appended
	}
	for i, c := range cases {
		got := normalizeQueue(c.stored, c.cands, nil)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}
