package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolating
// linearly between the two closest ranks. xs is not modified; an empty
// slice yields 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// tailLadder is the set of percentiles a workload's tail latency is chosen
// from.
var tailLadder = []float64{50, 75, 90, 95, 99}

// minBeyond is how many samples must lie above a reported percentile for it
// to say anything about the tail.
const minBeyond = 10

// supportedTail returns the highest percentile in tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when none has.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// The epsilon absorbs the rounding of 100-p (99.9 is not exact).
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix derives the k-th 64-bit value of the stream named by seed, so
// every generated input is a pure function of (seed, k).
func splitmix(seed int64, k int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genSeed is splitmix narrowed to a non-negative generator seed.
func genSeed(seed int64, k int64) int64 { return int64(splitmix(seed, k) >> 1) }
