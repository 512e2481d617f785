package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
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

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the CPU time every thread of this process has used
// (CLOCK_PROCESS_CPUTIME_ID).  On a guest with paravirtualised steal
// accounting it leaves out the time the hypervisor ran other guests on
// the vCPU, which a wall clock on a shared host counts.
func processCPU() time.Duration { return clockCPU(2) }

// threadCPU is the CPU time the calling OS thread has used
// (CLOCK_THREAD_CPUTIME_ID); the caller holds runtime.LockOSThread.
func threadCPU() time.Duration { return clockCPU(3) }

func clockCPU(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler samples the live heap — the bytes the garbage collector
// last found reachable, read from runtime/metrics without stopping the
// world — every heapTick.  The peak it reports is the 90th percentile
// over time: a run spans thousands of collections, and the percentile
// keeps the few moments when two heavy jobs happen to overlap from
// setting the figure (over five jobs-mixed seeds the 99th percentile
// ranged over 11% of its value, the 90th over 5%).
// The samples are allocated up front for the run's length, so the
// sampler's own memory is the same in every sample.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

const heapTick = 5 * time.Millisecond

func startHeapSampler(run time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), samples: make([]float64, 0, int(run/heapTick)+256)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return percentile(h.samples, 90) / (1 << 20)
}
