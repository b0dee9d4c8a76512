package statemodel

import "testing"

// TestSlotTableCopyOnWrite pins the layout's contract on a table whose
// length is not a multiple of the chunk length: Set leaves every copy
// taken before it unchanged, shares the chunks it did not write, and
// Clone shares nothing.
func TestSlotTableCopyOnWrite(t *testing.T) {
	const n = 2*slotChunkLen + 1
	base := NewSlotTable[int](n)
	for i := range n {
		*base.At(i) = i
	}
	for _, i := range []int{0, slotChunkLen - 1, slotChunkLen, n - 1} { // chunk edges, the short last chunk
		cp := base
		cp.Set(i, -1)
		for j := range n {
			want := j
			if j == i {
				want = -1
			}
			if got := *cp.At(j); got != want {
				t.Fatalf("Set(%d): copy holds %d at %d, want %d", i, got, j, want)
			}
			if got := *base.At(j); got != j {
				t.Fatalf("Set(%d) on a copy changed the original at %d to %d", i, j, got)
			}
			sameChunk := j/slotChunkLen == i/slotChunkLen
			if shared := cp.At(j) == base.At(j); shared == sameChunk {
				t.Fatalf("Set(%d): entry %d shared=%v, want %v", i, j, shared, !sameChunk)
			}
		}
	}
	c := base.Clone()
	*c.At(1) = 99
	if c.Len() != n || *base.At(1) != 1 {
		t.Fatal("Clone shares chunks with the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(n) must panic although the last chunk has room")
		}
	}()
	base.At(n)
}
