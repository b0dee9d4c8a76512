package statemodel

import "slices"

// slotChunkLen is the number of entries in one chunk of a SlotTable: a
// move copies the chunk it writes and the short table of chunk pointers,
// so it trades the two against each other (on grid-8x8 a table of 16
// pointers and a chunk of four destination states).
const slotChunkLen = 4

// SlotTable is a copy-on-write table of n per-slot values (one per
// destination, say) in two levels: a short table of pointers to chunks of
// slotChunkLen entries. Successive configurations share the chunks no
// move wrote: Set copies the pointer table and the one chunk it writes,
// and copying a SlotTable value (as a slot-scoped copy of a state does,
// see SlotState) shares everything.
//
// Each chunk is an allocation of its own, never part of a pointer table
// or of a state struct: a chunk shared with later configurations would
// otherwise keep alive the older pointer table it was allocated with,
// and through it every older chunk.
//
// The zero SlotTable holds no entries.
type SlotTable[T any] struct {
	chunks []*[slotChunkLen]T
	n      int
}

// NewSlotTable returns a table of n zero values, its chunks in one
// backing array.
func NewSlotTable[T any](n int) SlotTable[T] {
	backing := make([][slotChunkLen]T, (n+slotChunkLen-1)/slotChunkLen)
	t := SlotTable[T]{chunks: make([]*[slotChunkLen]T, len(backing)), n: n}
	for i := range backing {
		t.chunks[i] = &backing[i]
	}
	return t
}

// Len returns the number of entries.
func (t SlotTable[T]) Len() int { return t.n }

// At returns a pointer to entry i. Read through it freely; write through
// it only while no other state shares the table's chunks, i.e. on a table
// fresh from NewSlotTable or Clone that no copy was taken of yet. Every
// other write goes through Set.
func (t SlotTable[T]) At(i int) *T {
	if uint(i) >= uint(t.n) {
		panic(errSlotRange)
	}
	return &t.chunks[uint(i)/slotChunkLen][uint(i)%slotChunkLen]
}

// Set writes entry i into a private copy of its chunk and of the pointer
// table, so every state that shared the table keeps the old value.
func (t *SlotTable[T]) Set(i int, v T) {
	if uint(i) >= uint(t.n) {
		panic(errSlotRange)
	}
	k := uint(i) / slotChunkLen
	c := new([slotChunkLen]T)
	*c = *t.chunks[k]
	c[uint(i)%slotChunkLen] = v
	chunks := slices.Clone(t.chunks)
	chunks[k] = c
	t.chunks = chunks
}

// errSlotRange is a plain value so that At stays within the inlining
// budget.
const errSlotRange = "statemodel: SlotTable index out of range"

// Clone returns a table that shares nothing with t: the entries are
// copied by value into fresh chunks (values they point to stay shared).
func (t SlotTable[T]) Clone() SlotTable[T] {
	c := NewSlotTable[T](t.n)
	for i, ch := range t.chunks {
		*c.chunks[i] = *ch
	}
	return c
}
