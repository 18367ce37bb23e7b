package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: fewer would make the tail one or two outliers.
const minBeyond = 10

// median returns the middle of the samples (the mean of the two middle
// ones for an even count). It sorts its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the q-quantile of the samples by nearest rank, and false
// when fewer than minBeyond samples lie beyond it. It sorts its
// argument. Failed operations enter as +Inf, so they count as missing
// any latency limit.
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], n-1-i >= minBeyond
}

// quartiles returns the first quartile, median and third quartile by
// the same method as Python's statistics.quantiles(xs, n=4), which the
// spread check of the benchmark definition uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // the "exclusive" method, step for step
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// memSample is the process's cumulative allocation and GC counters.
type memSample struct {
	allocBytes, allocObjects, gcCycles uint64
}

var memNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

func readMem() memSample {
	s := make([]metrics.Sample, 3)
	for i := range s {
		s[i].Name = memNames[i]
	}
	metrics.Read(s)
	return memSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// liveHeapMB collects garbage and returns the bytes held by live heap
// objects, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: memNames[3]}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
