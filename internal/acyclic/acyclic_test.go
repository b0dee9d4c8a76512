package acyclic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
)

func correctTables(g *graph.Graph) []*routing.NodeState {
	ts := make([]*routing.NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = routing.CorrectState(g, graph.ProcessID(p))
	}
	return ts
}

func TestOrientationFromTotalOrderIsAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomConnected(4+rng.Intn(10), 30, rng)
		perm := rng.Perm(g.N())
		o := NewOrientation(g, func(u, v graph.ProcessID) bool { return perm[u] < perm[v] })
		if !o.Acyclic() {
			t.Fatal("orientation from a total order must be acyclic")
		}
		for _, e := range g.Edges() {
			if o.Has(e[0], e[1]) == o.Has(e[1], e[0]) {
				t.Fatal("exactly one direction per edge")
			}
		}
	}
}

func TestAcyclicDetectsCycle(t *testing.T) {
	g := graph.Ring(3)
	o := &Orientation{g: g, dir: map[[2]graph.ProcessID]bool{
		{0, 1}: true, {1, 2}: true, {2, 0}: true, // directed triangle
	}}
	if o.Acyclic() {
		t.Fatal("directed triangle must be reported cyclic")
	}
}

func TestTreeCoverSize2CoversTree(t *testing.T) {
	g := graph.BinaryTree(15)
	c := TreeCover(g, 0)
	if c.Size() != 2 {
		t.Fatalf("tree cover size = %d, want 2 (the paper's '2 for a tree')", c.Size())
	}
	if !c.Covers(correctTables(g)) {
		t.Fatal("tree cover must carry all shortest paths of a tree")
	}
	for _, o := range []*Orientation{c.Orientation(1), c.Orientation(2)} {
		if !o.Acyclic() {
			t.Fatal("tree orientations must be acyclic")
		}
	}
}

func TestTreeCoverRejectsNonTree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a non-tree")
		}
	}()
	TreeCover(graph.Ring(4), 0)
}

func TestRingCoverSize3CoversClockwiseRouting(t *testing.T) {
	for _, n := range []int{4, 5, 8, 11} {
		g := graph.Ring(n)
		c := RingCover(g)
		if c.Size() != 3 {
			t.Fatalf("ring cover size = %d, want 3 (the paper's '3 for a ring')", c.Size())
		}
		if !c.Covers(ClockwiseRingTables(g)) {
			t.Fatalf("ring cover must carry clockwise routing (n=%d)", n)
		}
	}
}

func TestRingCoverCannotCarryShortestPaths(t *testing.T) {
	// The buffer economy is paid for with non-minimal paths: shortest-path
	// (BFS) routing has counterclockwise arcs crossing the cut, which the
	// 3-cover does not carry.
	g := graph.Ring(8)
	if RingCover(g).Covers(correctTables(g)) {
		t.Fatal("3-cover should not carry minimal ring routing")
	}
}

func TestClockwiseRingTablesShape(t *testing.T) {
	g := graph.Ring(6)
	ts := ClockwiseRingTables(g)
	for p := 0; p < 6; p++ {
		for d := 0; d < 6; d++ {
			if p == d {
				continue
			}
			if ts[p].NextHop(graph.ProcessID(d)) != graph.ProcessID((p+1)%6) {
				t.Fatal("clockwise tables must always point to p+1")
			}
			if ts[p].Routes[d].Dist != (d-p+6)%6 {
				t.Fatal("clockwise distance wrong")
			}
		}
	}
}

func TestRingNeedsMoreThanTwo(t *testing.T) {
	// A size-2 asc/desc cover cannot carry the wrapping arcs of a ring —
	// the reason the paper quotes 3 buffers, not 2.
	g := graph.Ring(6)
	asc := NewOrientation(g, func(u, v graph.ProcessID) bool { return u < v })
	desc := NewOrientation(g, func(u, v graph.ProcessID) bool { return u > v })
	c2 := &Cover{g: g, orientations: []*Orientation{asc, desc}}
	if c2.Covers(correctTables(g)) {
		t.Fatal("a 2-cover should NOT carry wrapping ring arcs")
	}
}

func TestLevelsMonotoneAndCarried(t *testing.T) {
	g := graph.Ring(8)
	c := RingCover(g)
	// Path 5→6→7→0→1 wraps the origin: ascending, then the 7→0 descent,
	// then ascending again — levels 1,1,2,3.
	path := []graph.ProcessID{5, 6, 7, 0, 1}
	levels, err := c.Levels(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 2, 3}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
	if lv, err := c.Levels([]graph.ProcessID{3}); lv != nil || err != nil {
		t.Fatal("trivial path must have no levels and no error")
	}
}

func TestAlternatingCoverCarriesArbitraryGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnected(4+rng.Intn(12), 3*4, rng)
		tables := correctTables(g)
		c, err := AlternatingCover(g, tables)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Covers(tables) {
			t.Fatalf("alternating cover of size %d fails on %v", c.Size(), g)
		}
		if c.Size() > g.N() {
			t.Fatalf("cover size %d exceeds n=%d (monotone runs are bounded by path length)", c.Size(), g.N())
		}
	}
}

func TestAlternatingCoverRejectsRoutingLoop(t *testing.T) {
	g := graph.Ring(5)
	tables := correctTables(g)
	routing.CycleCorrupt(g, 0, 1, 2, tables)
	if _, err := AlternatingCover(g, tables); err == nil {
		t.Fatal("expected an error for looping tables")
	}
}

func TestControllerDeliversEverything(t *testing.T) {
	g := graph.Ring(8)
	tables := ClockwiseRingTables(g)
	ctrl := NewController(RingCover(g), tables, 3)
	if ctrl.BuffersPerNode() != 3 {
		t.Fatalf("buffers per node = %d", ctrl.BuffersPerNode())
	}
	want := 0
	for src := 0; src < g.N(); src++ {
		for off := 1; off <= 3; off++ {
			ctrl.Enqueue(graph.ProcessID(src), fmt.Sprintf("p%d-%d", src, off), graph.ProcessID((src+off)%g.N()))
			want++
		}
	}
	_, stopped := ctrl.Run(1_000_000)
	if !stopped || !ctrl.Quiescent() {
		t.Fatalf("controller did not drain; deadlocked=%v", ctrl.Deadlocked())
	}
	if len(ctrl.Delivered()) != want {
		t.Fatalf("delivered %d, want %d", len(ctrl.Delivered()), want)
	}
	seen := map[uint64]bool{}
	for _, p := range ctrl.Delivered() {
		if seen[p.UID] {
			t.Fatal("duplicate delivery")
		}
		seen[p.UID] = true
	}
}

func TestControllerNeverDeadlocksUnderSaturation(t *testing.T) {
	// Saturate a tree so that buffers contend heavily; the DAG property
	// must still drain everything.
	g := graph.BinaryTree(15)
	tables := correctTables(g)
	ctrl := NewController(TreeCover(g, 0), tables, 9)
	want := 0
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			if src != dst {
				ctrl.Enqueue(graph.ProcessID(src), "s", graph.ProcessID(dst))
				want++
			}
		}
	}
	for i := 0; i < 10_000_000; i++ {
		if !ctrl.Step() {
			break
		}
		if i%1000 == 0 && ctrl.Deadlocked() {
			t.Fatal("deadlock under saturation — DAG property violated")
		}
	}
	if !ctrl.Quiescent() || len(ctrl.Delivered()) != want {
		t.Fatalf("drained=%v delivered=%d want=%d", ctrl.Quiescent(), len(ctrl.Delivered()), want)
	}
}

func TestControllerRejectsSelfSend(t *testing.T) {
	g := graph.Ring(4)
	ctrl := NewController(RingCover(g), ClockwiseRingTables(g), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctrl.Enqueue(1, "self", 1)
}

func TestControllerRejectsUncoveredTables(t *testing.T) {
	g := graph.Ring(6)
	asc := NewOrientation(g, func(u, v graph.ProcessID) bool { return u < v })
	badCover := &Cover{g: g, orientations: []*Orientation{asc}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an insufficient cover")
		}
	}()
	NewController(badCover, correctTables(g), 1)
}

func TestMonotoneRuns(t *testing.T) {
	cases := []struct {
		path []graph.ProcessID
		want int
	}{
		{[]graph.ProcessID{0, 1, 2}, 1},
		{[]graph.ProcessID{2, 1, 0}, 1},
		{[]graph.ProcessID{0, 2, 1, 3}, 3},
		{[]graph.ProcessID{5, 6, 7, 0, 1}, 3},
		{[]graph.ProcessID{4}, 0},
	}
	for i, c := range cases {
		if got := monotoneRuns(c.path); got != c.want {
			t.Errorf("case %d: runs(%v) = %d, want %d", i, c.path, got, c.want)
		}
	}
}

// Property: on random graphs with canonical tables, the alternating-cover
// controller delivers random batches exactly once and never deadlocks.
func TestQuickControllerExactlyOnce(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%8
		g := graph.RandomConnected(n, 2*n, rng)
		tables := correctTables(g)
		cover, err := AlternatingCover(g, tables)
		if err != nil {
			return false
		}
		ctrl := NewController(cover, tables, seed)
		want := 1 + int(kRaw)%8
		for i := 0; i < want; i++ {
			src := graph.ProcessID(rng.Intn(n))
			dst := graph.ProcessID(rng.Intn(n))
			for dst == src {
				dst = graph.ProcessID(rng.Intn(n))
			}
			ctrl.Enqueue(src, "q", dst)
		}
		_, stopped := ctrl.Run(2_000_000)
		return stopped && ctrl.Quiescent() && len(ctrl.Delivered()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelBufferDAGIsAcyclic(t *testing.T) {
	// The deadlock-freedom argument of the scheme, checked mechanically on
	// every cover/table pairing the experiments use.
	cases := []struct {
		name   string
		cover  *Cover
		tables []*routing.NodeState
	}{
		{"ring-8 clockwise", RingCover(graph.Ring(8)), ClockwiseRingTables(graph.Ring(8))},
		{"tree-15 minimal", TreeCover(graph.BinaryTree(15), 0), correctTables(graph.BinaryTree(15))},
	}
	g := graph.Grid(3, 3)
	ts := correctTables(g)
	c, err := AlternatingCover(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name   string
		cover  *Cover
		tables []*routing.NodeState
	}{"grid-3x3 alternating", c, ts})

	for _, tc := range cases {
		dag := NewLevelBufferDAG(tc.cover, tc.tables)
		if dag.Edges() == 0 {
			t.Fatalf("%s: empty level-buffer graph", tc.name)
		}
		if !dag.Acyclic() {
			t.Fatalf("%s: level-buffer graph has a cycle — deadlock possible", tc.name)
		}
	}
}

func TestLevelBufferDAGQuickAcyclic(t *testing.T) {
	// Property: for random graphs with canonical tables and alternating
	// covers, the level-buffer graph is always a DAG.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%8
		g := graph.RandomConnected(n, 2*n, rng)
		ts := correctTables(g)
		c, err := AlternatingCover(g, ts)
		if err != nil {
			return false
		}
		return NewLevelBufferDAG(c, ts).Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
