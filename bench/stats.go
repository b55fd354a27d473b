package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 for an empty sample) by the
// "exclusive" method of Python's statistics.quantiles, which is what the
// driver applies to this benchmark's output. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is compared to.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// allocCounter reads the process-wide count of heap objects allocated.
// runtime/metrics does not stop the world, so it is cheap enough to
// sample at every span boundary of a traced run.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	return a
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the bytes of heap objects
// still reachable: call it with the fixpoint live to get the state's
// size. HeapAlloc rather than HeapInuse: the latter adds the free slots
// of partly used spans, which on the 8 MB heaps of the UDP workloads
// moved it by a tenth from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
