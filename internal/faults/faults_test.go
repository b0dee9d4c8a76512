package faults_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/faults"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// editDest rewrites p's state for destination d on a running engine
// through SetDest, leaving the configurations that share its chunk
// intact.
func editDest(e *sm.Engine, p, d graph.ProcessID, edit func(*core.DestState)) {
	fw := e.StateOf(p).(*core.Node).FW
	ds := *fw.Dest(d)
	edit(&ds)
	fw.SetDest(d, ds)
}

func newSystem(g *graph.Graph, seed int64) (*sm.Engine, *checker.Tracker) {
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewCentralRandom(seed), cfg)
	tr := checker.New(g)
	tr.Attach(e)
	return e, tr
}

func enqueue(e *sm.Engine, src graph.ProcessID, payload string, dst graph.ProcessID) {
	e.StateOf(src).(*core.Node).FW.Enqueue(payload, dst)
}

func TestKindStrings(t *testing.T) {
	for _, k := range faults.AllKinds {
		if k.String() == "unknown-fault" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if faults.Kind(99).String() != "unknown-fault" {
		t.Fatal("unknown kind must say so")
	}
}

func TestStrikeReportsTouchedMessages(t *testing.T) {
	g := graph.Line(4)
	e, _ := newSystem(g, 1)
	// Put a valid message in flight.
	editDest(e, 1, 3, func(ds *core.DestState) {
		ds.BufE = &core.Message{Payload: "v", LastHop: 1, Color: 0, UID: 42, Src: 1, Dest: 3, Valid: true}
	})
	in := faults.NewInjector(g, 5, []faults.Kind{faults.BufferDrop})
	var got []uint64
	for i := 0; i < 200 && len(got) == 0; i++ {
		got = in.Strike(e, 1)
	}
	if len(got) == 0 || got[0] != 42 {
		t.Fatalf("BufferDrop never reported the destroyed message: %v", got)
	}
}

// TestStrikeWritesTheLiveConfiguration: the engine writes its states in
// place, so a fault struck between steps must land in the configuration
// the engine steps next — visible through PeekStateOf, with a snapshot
// cloned before it unchanged — and leave the enabled-set cache consistent
// (the self-check runs at every step under go test).
func TestStrikeWritesTheLiveConfiguration(t *testing.T) {
	g := graph.Grid(3, 3)
	cfg := core.RandomConfig(g, rand.New(rand.NewSource(4)), core.DefaultCorrupt)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(4), cfg)
	live := func() []sm.State {
		out := make([]sm.State, g.N())
		for p := range out {
			out[p] = e.PeekStateOf(graph.ProcessID(p))
		}
		return out
	}
	for i := 0; i < 5; i++ {
		e.Step()
	}
	in := faults.NewInjector(g, 9, []faults.Kind{faults.BufferGarbage})
	for i := 0; i < 50; i++ {
		snap := live()
		for p, s := range snap {
			snap[p] = s.Clone()
		}
		want := core.Fingerprint(snap)
		in.Strike(e, 1)
		if core.Fingerprint(live()) == want {
			t.Fatalf("strike %d: the live configuration does not show the fault", i)
		}
		if core.Fingerprint(snap) != want {
			t.Fatalf("strike %d: the fault reached a snapshot cloned before it", i)
		}
		e.Step()
	}
}

func TestInFlightValid(t *testing.T) {
	g := graph.Line(4)
	e, _ := newSystem(g, 1)
	if ids := faults.InFlightValid(e, g); len(ids) != 0 {
		t.Fatalf("clean system has no in-flight messages, got %v", ids)
	}
	editDest(e, 1, 3, func(ds *core.DestState) { ds.BufE = &core.Message{UID: 7, Valid: true} })
	editDest(e, 2, 3, func(ds *core.DestState) { ds.BufR = &core.Message{UID: 7, Valid: true} }) // copy, same UID
	editDest(e, 0, 2, func(ds *core.DestState) { ds.BufR = &core.Message{UID: 9, Valid: false} })
	ids := faults.InFlightValid(e, g)
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("InFlightValid = %v, want [7] (dedup, valid only)", ids)
	}
}

func TestRearmRequests(t *testing.T) {
	g := graph.Line(3)
	e, _ := newSystem(g, 1)
	fw := e.StateOf(0).(*core.Node).FW
	fw.Pending = append(fw.Pending, core.Outbound{Payload: "x", Dest: 2})
	fw.Request = false // fault knocked it down
	faults.RearmRequests(e, g)
	if !fw.Request {
		t.Fatal("request must be re-raised while messages wait")
	}
}

// TestSnapStabilizationAfterMidRunFault is the headline property: a
// transient fault strikes mid-execution; every message generated after the
// strike (and every unaffected earlier one) is still delivered exactly
// once.
func TestSnapStabilizationAfterMidRunFault(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(5+rng.Intn(5), 14, rng)
		e, tr := newSystem(g, rng.Int63())
		in := faults.NewInjector(g, rng.Int63(), nil)

		// Phase 1: traffic before the fault.
		for k := 0; k < 5; k++ {
			enqueue(e, graph.ProcessID(rng.Intn(g.N())), fmt.Sprintf("pre-%d", k), graph.ProcessID(rng.Intn(g.N())))
		}
		for i := 0; i < 30; i++ {
			e.Step()
		}

		// The strike: corrupt state, exempt everything in flight, let the
		// higher layer re-arm.
		tr.MarkCompromised(faults.InFlightValid(e, g)...)
		tr.MarkCompromised(in.Strike(e, g.N()/2)...)
		faults.RearmRequests(e, g)

		// Phase 2: traffic after the fault — fully guaranteed.
		for k := 0; k < 5; k++ {
			enqueue(e, graph.ProcessID(rng.Intn(g.N())), fmt.Sprintf("post-%d", k), graph.ProcessID(rng.Intn(g.N())))
		}
		if _, terminal := e.Run(4_000_000, nil); !terminal {
			t.Fatalf("trial %d: did not terminate after the fault", trial)
		}
		if v := tr.Violations(); len(v) > 0 {
			t.Fatalf("trial %d: violations after fault: %v", trial, v)
		}
		if !tr.AllValidDelivered() {
			t.Fatalf("trial %d: undelivered non-compromised messages: %v", trial, tr.UndeliveredValid())
		}
	}
}

// TestRepeatedFaultStorm strikes several times; after the *last* strike
// everything generated afterwards must still be exactly-once.
func TestRepeatedFaultStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Grid(3, 3)
	e, tr := newSystem(g, 3)
	in := faults.NewInjector(g, 7, nil)

	for wave := 0; wave < 4; wave++ {
		for k := 0; k < 3; k++ {
			enqueue(e, graph.ProcessID(rng.Intn(g.N())), fmt.Sprintf("w%d-%d", wave, k), graph.ProcessID(rng.Intn(g.N())))
		}
		for i := 0; i < 40; i++ {
			e.Step()
		}
		tr.MarkCompromised(faults.InFlightValid(e, g)...)
		tr.MarkCompromised(in.Strike(e, 3)...)
		faults.RearmRequests(e, g)
	}
	// Final guaranteed wave.
	for k := 0; k < 4; k++ {
		enqueue(e, graph.ProcessID(rng.Intn(g.N())), fmt.Sprintf("final-%d", k), graph.ProcessID(rng.Intn(g.N())))
	}
	if _, terminal := e.Run(4_000_000, nil); !terminal {
		t.Fatal("did not terminate after the storm")
	}
	if v := tr.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if !tr.AllValidDelivered() {
		t.Fatalf("undelivered: %v", tr.UndeliveredValid())
	}
	if tr.Compromised() == 0 {
		t.Fatal("the storm should have compromised something (else the test is vacuous)")
	}
}

// Property: random fault classes, random strike sizes, random timing —
// post-fault generations are always exactly-once.
func TestQuickPostFaultGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, strikeRaw, whenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(4+int(strikeRaw)%4, 10, rng)
		e, tr := newSystem(g, seed)
		in := faults.NewInjector(g, seed+1, nil)
		enqueue(e, 0, "pre", graph.ProcessID(g.N()-1))
		for i := 0; i < int(whenRaw)%50; i++ {
			e.Step()
		}
		tr.MarkCompromised(faults.InFlightValid(e, g)...)
		tr.MarkCompromised(in.Strike(e, 1+int(strikeRaw)%5)...)
		faults.RearmRequests(e, g)
		enqueue(e, graph.ProcessID(g.N()-1), "post", 0)
		if _, terminal := e.Run(4_000_000, nil); !terminal {
			return false
		}
		return len(tr.Violations()) == 0 && tr.AllValidDelivered()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEachFaultKindBehaves(t *testing.T) {
	g := graph.Line(4)
	mkEngine := func() *sm.Engine {
		e, _ := newSystem(g, 1)
		return e
	}
	place := func(e *sm.Engine, p graph.ProcessID, d int, uid uint64) *core.Message {
		m := &core.Message{Payload: "v", LastHop: p, Color: 0, UID: uid,
			Src: p, Dest: graph.ProcessID(d), Valid: true}
		editDest(e, p, graph.ProcessID(d), func(ds *core.DestState) { ds.BufE = m })
		return m
	}
	countMsgs := func(e *sm.Engine) int {
		n := 0
		for p := 0; p < g.N(); p++ {
			for _, ds := range e.StateOf(graph.ProcessID(p)).(*core.Node).FW.Dests {
				for _, m := range []*core.Message{ds.BufR, ds.BufE} {
					if m != nil {
						n++
					}
				}
			}
		}
		return n
	}

	t.Run("buffer-garbage overwrites or fills", func(t *testing.T) {
		e := mkEngine()
		in := faults.NewInjector(g, 3, []faults.Kind{faults.BufferGarbage})
		in.Strike(e, 10)
		if countMsgs(e) == 0 {
			t.Fatal("garbage strikes should plant messages")
		}
	})
	t.Run("buffer-clone duplicates into the sibling", func(t *testing.T) {
		e := mkEngine()
		place(e, 1, 3, 71)
		in := faults.NewInjector(g, 5, []faults.Kind{faults.BufferClone})
		var compromised []uint64
		for i := 0; i < 400 && len(compromised) == 0; i++ {
			compromised = in.Strike(e, 1)
		}
		if len(compromised) != 1 || compromised[0] != 71 {
			t.Fatalf("clone never reported: %v", compromised)
		}
		ds := e.StateOf(1).(*core.Node).FW.Dest(3)
		if ds.BufR == nil || ds.BufE == nil || ds.BufR.UID != ds.BufE.UID {
			t.Fatal("clone must occupy both buffers with the same UID")
		}
	})
	t.Run("color-scramble recolors in place", func(t *testing.T) {
		e := mkEngine()
		place(e, 2, 0, 72)
		in := faults.NewInjector(g, 7, []faults.Kind{faults.ColorScramble})
		var compromised []uint64
		for i := 0; i < 400 && len(compromised) == 0; i++ {
			compromised = in.Strike(e, 1)
		}
		if len(compromised) != 1 || compromised[0] != 72 {
			t.Fatalf("recolor never reported: %v", compromised)
		}
		if m := e.StateOf(2).(*core.Node).FW.Dest(0).BufE; m == nil || m.UID != 72 {
			t.Fatal("recolored message must stay in place")
		}
	})
	t.Run("queue-scramble stays well-typed", func(t *testing.T) {
		e := mkEngine()
		in := faults.NewInjector(g, 9, []faults.Kind{faults.QueueScramble})
		in.Strike(e, 20)
		cfg := make([]sm.State, g.N())
		for p := 0; p < g.N(); p++ {
			cfg[p] = e.StateOf(graph.ProcessID(p))
		}
		if err := checker.WellTyped(g, cfg); err != nil {
			t.Fatalf("queue scramble broke typing: %v", err)
		}
	})
	t.Run("request-flip toggles", func(t *testing.T) {
		e := mkEngine()
		in := faults.NewInjector(g, 11, []faults.Kind{faults.RequestFlip})
		in.Strike(e, 15)
		flipped := 0
		for p := 0; p < g.N(); p++ {
			if e.StateOf(graph.ProcessID(p)).(*core.Node).FW.Request {
				flipped++
			}
		}
		if flipped == 0 {
			t.Fatal("15 request flips should leave some request bit up")
		}
	})
	t.Run("table-scramble stays well-typed", func(t *testing.T) {
		e := mkEngine()
		in := faults.NewInjector(g, 13, []faults.Kind{faults.TableScramble})
		in.Strike(e, 10)
		cfg := make([]sm.State, g.N())
		for p := 0; p < g.N(); p++ {
			cfg[p] = e.StateOf(graph.ProcessID(p))
		}
		if err := checker.WellTyped(g, cfg); err != nil {
			t.Fatalf("table scramble broke typing: %v", err)
		}
	})
}
