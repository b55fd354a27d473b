package val

import (
	"cmp"
	"reflect"
	"slices"
	"sync"
)

// Carver hands out field arrays for tuples nobody keeps — a retraction
// is a lookup key that cancels a derivation and is never stored — as
// capped sub-slices of shared chunks, so many such tuples cost one
// allocation. A chunk is never reused or freed by hand: the collector
// frees it once its last carved slice is gone. A carved slice is
// therefore never overwritten, and what carving costs is retention:
// one live slice keeps its whole chunk, so a tuple that will be stored
// must never be carved (DESIGN.md §3).
//
// Chunks start at the first request's size, at least minChunk values,
// and double up to maxChunk; Reset drops the current one, after which
// sizing starts over. The zero Carver is ready to use; a nil *Carver
// allocates every request exactly, like make. A Carver is not safe for
// concurrent use.
type Carver struct {
	// chunk is the current chunk: len values carved, cap its size.
	chunk []Value
}

const (
	minChunk = 32
	maxChunk = 512 // 12 KiB of three-word values
)

// Make returns a zeroed n-value slice whose capacity is its length, so
// an append to it can never grow into a neighbour's values.
func (c *Carver) Make(n int) []Value {
	if c == nil || n > maxChunk {
		return make([]Value, n)
	}
	if cap(c.chunk)-len(c.chunk) < n {
		size := min(max(2*cap(c.chunk), minChunk, n), maxChunk)
		c.chunk = make([]Value, 0, size)
		if hook := chunkHook; hook != nil {
			hook(c.chunk[:size])
		}
	}
	i := len(c.chunk)
	c.chunk = c.chunk[:i+n]
	return c.chunk[i : i+n : i+n]
}

// Reset drops the current chunk: what was carved stays valid for as long
// as anyone holds it, and the next Make starts a new, minimum-size chunk.
func (c *Carver) Reset() { c.chunk = nil }

// chunkHook, when set, is handed every chunk a Carver allocates (see
// TrackChunks).
var chunkHook func(chunk []Value)

// ChunkLog records the chunks Carvers allocate while it is installed, so
// that a test can check no stored row was carved. It keeps every chunk
// it recorded alive: no address one covers can be handed to a later
// allocation, so Holds never mistakes a fresh array for a carving.
type ChunkLog struct {
	mu     sync.Mutex
	chunks [][]Value // sorted by address when sorted is set
	sorted bool
}

// TrackChunks installs a new log that records every chunk any Carver
// allocates until Stop. It is for tests: call it before the code under
// test starts goroutines, and Stop after they are done.
func TrackChunks() *ChunkLog {
	l := &ChunkLog{}
	chunkHook = l.add
	return l
}

// Stop uninstalls the log; what it recorded stays queryable.
func (l *ChunkLog) Stop() { chunkHook = nil }

func (l *ChunkLog) add(chunk []Value) {
	l.mu.Lock()
	l.chunks = append(l.chunks, chunk)
	l.sorted = false
	l.mu.Unlock()
}

// Len returns the number of chunks recorded.
func (l *ChunkLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.chunks)
}

// Holds reports whether t's field array, or the elements of any list
// among its fields (at any depth), lie in a recorded chunk.
func (l *ChunkLog) Holds(t Tuple) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.sorted {
		slices.SortFunc(l.chunks, func(a, b []Value) int { return cmp.Compare(addr(a), addr(b)) })
		l.sorted = true
	}
	return l.holds(t.Fields)
}

func (l *ChunkLog) holds(vs []Value) bool {
	if cap(vs) == 0 {
		return false
	}
	p := addr(vs)
	// The last chunk starting at or before p is the only one that can
	// contain it.
	i, _ := slices.BinarySearchFunc(l.chunks, p, func(c []Value, p uintptr) int { return cmp.Compare(addr(c), p+1) })
	if i > 0 && p < addr(l.chunks[i-1])+uintptr(cap(l.chunks[i-1]))*valueBytes {
		return true
	}
	for _, v := range vs {
		if v.Kind() == KindList && l.holds(v.list()) {
			return true
		}
	}
	return false
}

var valueBytes = reflect.TypeFor[Value]().Size()

// addr is the address of vs's first element.
func addr(vs []Value) uintptr { return reflect.ValueOf(vs).Pointer() }
