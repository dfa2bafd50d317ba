package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host is shared. Other guests take whole stretches of its CPUs
// (steal, which CPU time leaves out), and while they run beside this one the
// CPU time a fixed piece of work costs here also drifts, by a tenth to a
// third over minutes, with frequency and shared caches. So an untraced run
// splits its load into blocks and, before each and after the last, times
// a fixed reference pass on every CPU in thread CPU time. It reports its CPU
// times at a fixed reference speed: a time is multiplied by refPassUS ÷ the
// run's median pass. The pass is the benchmark's own code and runs while
// the servers are idle, so no change to the programs under test can move
// it. The measured values are printed beside the scaled ones.

// refPassUS is the median pass CPU time, in µs, of the host the bounds in
// BENCHMARK.json were set on.
const refPassUS = 550

// probeSlice is how long one speed sample runs passes for.
const probeSlice = 200 * time.Millisecond

// probeWorker is one CPU's share of the reference pass.
type probeWorker struct{ src, buf []float64 }

// pass sorts a copy of a fixed slice and runs a multiply-xor hash loop:
// branchy compares and integer arithmetic out of the CPU caches, with no
// allocation, so neither the memory system nor the garbage collector adds
// noise of its own.
func (w *probeWorker) pass() uint64 {
	copy(w.buf, w.src)
	sort.Float64s(w.buf)
	h := uint64(14695981039346656037)
	for i := 0; i < 100_000; i++ {
		h ^= uint64(i)
		h *= 1099511628211
	}
	return h
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// clock_gettime cannot fail for this clock and a valid pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedProbe samples the host's speed on every CPU.
type speedProbe struct {
	workers []*probeWorker
	samples []float64 // median pass CPU time of each sample, µs
	sink    uint64    // keeps the passes from being optimized away
}

func newSpeedProbe(cpus int) *speedProbe {
	p := &speedProbe{}
	for c := 0; c < cpus; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		w := &probeWorker{src: make([]float64, 4096), buf: make([]float64, 4096)}
		for i := range w.src {
			w.src[i] = rng.Float64()
		}
		p.workers = append(p.workers, w)
	}
	return p
}

// sample runs passes on every CPU for probeSlice, each worker on a thread
// of its own, and records the median pass CPU time.
func (p *speedProbe) sample() {
	times := make([][]float64, len(p.workers))
	sinks := make([]uint64, len(p.workers))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, w := range p.workers {
		wg.Add(1)
		go func(i int, w *probeWorker) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for time.Since(t0) < probeSlice {
				c := threadCPU()
				sinks[i] += w.pass()
				times[i] = append(times[i], us(threadCPU()-c))
			}
		}(i, w)
	}
	wg.Wait()
	var all []float64
	for i := range times {
		all = append(all, times[i]...)
		p.sink += sinks[i]
	}
	p.samples = append(p.samples, median(all))
}

// scale is refPassUS ÷ the median sample: below 1 on a host slower than
// the reference.
func (p *speedProbe) scale() float64 {
	return ratio(refPassUS, median(p.samples))
}
