package workload_test

import (
	"math/rand"
	"strings"
	"testing"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

func coreAdapter(s sm.State) workload.Enqueuer { return s.(*core.Node).FW }

func TestSinglePair(t *testing.T) {
	w := workload.SinglePair(1, 3, 5)
	if len(w) != 5 {
		t.Fatalf("len = %d", len(w))
	}
	seen := map[string]bool{}
	for _, s := range w {
		if s.Src != 1 || s.Dest != 3 {
			t.Fatalf("wrong endpoints: %+v", s)
		}
		if seen[s.Payload] {
			t.Fatal("payloads must be unique by default")
		}
		seen[s.Payload] = true
	}
}

func TestAllToOneExcludesSink(t *testing.T) {
	g := graph.Ring(5)
	w := workload.AllToOne(g, 2, 3)
	if len(w) != 4*3 {
		t.Fatalf("len = %d, want 12", len(w))
	}
	for _, s := range w {
		if s.Src == 2 || s.Dest != 2 {
			t.Fatalf("bad send: %+v", s)
		}
	}
}

func TestOneToAllExcludesSource(t *testing.T) {
	g := graph.Ring(5)
	w := workload.OneToAll(g, 0, 2)
	if len(w) != 4*2 {
		t.Fatalf("len = %d, want 8", len(w))
	}
	for _, s := range w {
		if s.Src != 0 || s.Dest == 0 {
			t.Fatalf("bad send: %+v", s)
		}
	}
}

func TestAllToAllCount(t *testing.T) {
	g := graph.Line(4)
	w := workload.AllToAll(g, 2)
	if len(w) != 4*3*2 {
		t.Fatalf("len = %d, want 24", len(w))
	}
}

func TestRandomPairsNoSelfSend(t *testing.T) {
	g := graph.Line(6)
	rng := rand.New(rand.NewSource(9))
	w := workload.RandomPairs(g, 100, rng)
	for _, s := range w {
		if s.Src == s.Dest {
			t.Fatal("RandomPairs must not produce self-sends")
		}
	}
}

func TestPermutationIsFixedPointFree(t *testing.T) {
	g := graph.Ring(7)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		w := workload.Permutation(g, rng)
		if len(w) != g.N() {
			t.Fatalf("len = %d, want n", len(w))
		}
		srcSeen := map[graph.ProcessID]bool{}
		dstSeen := map[graph.ProcessID]bool{}
		for _, s := range w {
			if s.Src == s.Dest {
				t.Fatal("fixed point in permutation")
			}
			if srcSeen[s.Src] || dstSeen[s.Dest] {
				t.Fatal("not a permutation")
			}
			srcSeen[s.Src] = true
			dstSeen[s.Dest] = true
		}
	}
}

func TestHotSpotMix(t *testing.T) {
	g := graph.Ring(5)
	rng := rand.New(rand.NewSource(11))
	w := workload.HotSpot(g, 0, 2, rng)
	hot, bg := 0, 0
	for _, s := range w {
		if s.Dest == 0 && s.Payload[:2] != "bg" {
			hot++
		} else {
			bg++
		}
	}
	if hot != 8 {
		t.Fatalf("hot sends = %d, want 8", hot)
	}
	if bg == 0 {
		t.Fatal("expected background traffic")
	}
}

func TestSamePayloadAndStaggered(t *testing.T) {
	w := workload.SinglePair(0, 1, 4).SamePayload("X").Staggered(10)
	for i, s := range w {
		if s.Payload != "X" {
			t.Fatal("SamePayload failed")
		}
		if s.AtStep != i*10 {
			t.Fatalf("Staggered: AtStep[%d] = %d", i, s.AtStep)
		}
	}
}

func TestInjectorDripsByStep(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)

	w := workload.SinglePair(0, 2, 3).Staggered(5) // steps 0, 5, 10
	in := workload.NewInjector(w, coreAdapter)

	if n := in.Tick(e); n != 1 {
		t.Fatalf("initial tick injected %d, want 1", n)
	}
	if in.Done() || in.Remaining() != 2 {
		t.Fatal("two sends must remain")
	}
	for e.Steps() < 5 {
		e.Step()
	}
	if n := in.Tick(e); n != 1 {
		t.Fatalf("tick at step 5 injected %d, want 1", n)
	}
	for e.Steps() < 10 {
		e.Step()
	}
	if n := in.Tick(e); n != 1 {
		t.Fatalf("tick at step 10 injected %d, want 1", n)
	}
	if !in.Done() {
		t.Fatal("injector must be done")
	}
}

func TestInjectorEndToEndAllDelivered(t *testing.T) {
	g := graph.Grid(2, 3)
	rng := rand.New(rand.NewSource(21))
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(2), cfg)
	tr := checker.New(g)
	tr.Attach(e)

	w := workload.RandomPairs(g, 12, rng).Staggered(7)
	in := workload.NewInjector(w, coreAdapter)
	for i := 0; i < 1_000_000; i++ {
		in.Tick(e)
		if !e.Step() && in.Done() {
			break
		}
	}
	if !e.Terminal() {
		t.Fatal("did not terminate")
	}
	if tr.GeneratedCount() != len(w) || !tr.AllValidDelivered() || len(tr.Violations()) != 0 {
		t.Fatalf("generated=%d delivered-ok=%v violations=%v",
			tr.GeneratedCount(), tr.AllValidDelivered(), tr.Violations())
	}
}

func TestSkipWaitInjectsImmediately(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	w := workload.SinglePair(0, 2, 2)
	w[0].AtStep = 1000
	w[1].AtStep = 2000
	in := workload.NewInjector(w, coreAdapter)
	if in.Tick(e) != 0 {
		t.Fatal("nothing is due yet")
	}
	if !in.SkipWait(e) {
		t.Fatal("SkipWait must inject the next send")
	}
	if in.Remaining() != 1 {
		t.Fatalf("remaining = %d", in.Remaining())
	}
	if !in.SkipWait(e) || in.SkipWait(e) {
		t.Fatal("SkipWait must drain then report empty")
	}
	if fw := e.StateOf(0).(*core.Node).FW; len(fw.Pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(fw.Pending))
	}
}

func TestWorkloadStringAndLen(t *testing.T) {
	w := workload.SinglePair(0, 1, 3)
	if w.Len() != 3 || w.String() != "workload(3 sends)" {
		t.Fatalf("Len/String wrong: %d %q", w.Len(), w.String())
	}
}

func TestParseWorkloadFile(t *testing.T) {
	g := graph.Line(4)
	input := `
# comment line

0 3 hello 0
1 2 world 15
3 0 back
`
	w, err := workload.Parse(strings.NewReader(input), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 {
		t.Fatalf("parsed %d sends", len(w))
	}
	if w[0].Payload != "hello" || w[1].Payload != "back" || w[2].AtStep != 15 {
		t.Fatalf("parse wrong (sorted by AtStep): %+v", w)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	g := graph.Line(3)
	for _, bad := range []string{
		"0 1",            // too few fields
		"0 1 p 5 6",      // too many
		"x 1 p",          // bad src
		"0 y p",          // bad dest
		"0 9 p",          // out of range
		"0 1 p -3",       // negative step
		"0 1 p notanint", // bad step
	} {
		if _, err := workload.Parse(strings.NewReader(bad), g); err == nil {
			t.Errorf("input %q should fail", bad)
		}
	}
}

func TestFormatRoundTrips(t *testing.T) {
	g := graph.Ring(5)
	orig := workload.RandomPairs(g, 10, rand.New(rand.NewSource(5))).Staggered(3)
	var buf strings.Builder
	if err := workload.Format(orig, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := workload.Parse(strings.NewReader(buf.String()), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip lost sends: %d vs %d", len(back), len(orig))
	}
	for i := range back {
		if back[i] != orig[i] {
			t.Fatalf("round trip mismatch at %d: %+v vs %+v", i, back[i], orig[i])
		}
	}
}

func TestFormatRejectsWhitespacePayload(t *testing.T) {
	var buf strings.Builder
	err := workload.Format(workload.Workload{{Payload: "two words"}}, &buf)
	if err == nil {
		t.Fatal("whitespace payload must be rejected")
	}
}
