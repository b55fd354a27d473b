package table

import "math/bits"

// noSlot ends a chain of slots: a primary-key collision chain, an index
// bucket, a group collision chain, or a free list.
const noSlot = ^uint32(0)

// Chunk sizes: slabLevel chunks of each power of two, starting at
// slabBase slots — 2, 2, 2, 2, 4, 4, 4, 4, 8, … — so capacity grows by
// about a fifth a chunk. A table of three rows owns two small chunks,
// and one of ten thousand leaves at most a sixth of its slots unused.
const (
	slabBaseLog  = 1
	slabLevelLog = 2
)

// slab stores values of T in chunks addressed by a uint32 slot. A chunk
// never moves once made, so a *T taken from a slot stays valid for the
// life of the slab, and no value is copied as the slab grows; an empty
// slab has allocated nothing.
//
// A slab only hands out fresh slots. Reusing freed ones is its owner's:
// a freed value keeps its position, and the owner threads its free list
// through the value itself (Entry.next, aggGroup.next) from free.
type slab[T any] struct {
	chunks [][]T
	n      uint32 // slots handed out
	// free heads the owner's free list of slots, noSlot when it is empty;
	// the slab itself never reads it.
	free uint32
}

// locate maps slot s to its chunk and the offset in that chunk. The
// chunks of level j are base<<j long and, all slabLevel of them
// together, hold the slots from level·base·(2^j−1) on.
func locate(s uint32) (chunk int, off uint32) {
	const l = slabBaseLog + slabLevelLog
	j := bits.Len32(s>>l+1) - 1
	rel := s - (1<<j-1)<<l
	size := slabBaseLog + j // log2 of the level's chunk size
	return j<<slabLevelLog + int(rel>>size), rel & (1<<size - 1)
}

// at returns the value in slot s, which must have been handed out.
func (sl *slab[T]) at(s uint32) *T {
	k, off := locate(s)
	return &sl.chunks[k][off]
}

// grow hands out the next fresh slot, making its chunk if it is the
// first slot of one.
func (sl *slab[T]) grow() uint32 {
	s := sl.n
	if k, off := locate(s); off == 0 {
		sl.chunks = append(sl.chunks, make([]T, 1<<(slabBaseLog+k>>slabLevelLog)))
	}
	sl.n++
	return s
}

// truncate gives back the slots from n on, dropping every chunk past the
// one that holds slot n-1. The values left in that chunk keep what they
// hold, so a slot handed out again finds its old value there.
func (sl *slab[T]) truncate(n uint32) {
	if n == 0 {
		*sl = slab[T]{free: noSlot}
		return
	}
	k, _ := locate(n - 1)
	clear(sl.chunks[k+1:])
	sl.chunks = sl.chunks[:k+1]
	sl.n = n
}
