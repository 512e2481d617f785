package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"
)

// The benchmark's host is a share of a machine whose speed drifts as
// other tenants load the cores its vCPUs share: a cold miniSIP audit
// pass averaged from 0.67 to 1.1 CPU-seconds over runs made within a
// quarter of an hour, with no hypervisor steal.  The CPU clock cannot hide that, so the benchmark
// times a fixed reference kernel of its own at short intervals through
// each measurement and scales the program's CPU times to the speed at
// which one reference unit takes refNominal.  A change in the program
// moves its figures; a change in the machine's speed moves the program
// and the reference together and cancels.

// refNominal is the CPU time of one reference unit at the speed the
// figures are scaled to: about the median on a 2-vCPU VM of a shared
// host.
const refNominal = 16 * time.Millisecond

// refUnit is one reference unit's kernel iterations.
const refUnit = 1 << 17

// refEvery is how often a measurement takes a reference sample.
const refEvery = 200 * time.Millisecond

// The kernel does what the program's hot loops do, so that it slows
// down with them when the machine does: indirect calls through a table
// of closures, small allocations and small maps that die young, and
// lookups in a map under churn.  Over 150 s of sip-audit, the
// program's CPU time per 5-second stretch spread 10% (quartile distance
// over median), and 4.6% once divided by this kernel's time beside it;
// a kernel that only computed over fixed tables did not follow the
// program's swings at all.
type refOp func(x uint64) uint64

var refOps = [8]refOp{
	func(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 },
	func(x uint64) uint64 { return x ^ (x >> 17) },
	func(x uint64) uint64 {
		if x&16 != 0 {
			return x + 0x632be59bd9b4e019
		}
		return x - 0x2545f4914f6cdd1d
	},
	func(x uint64) uint64 { return x<<7 | x>>57 },
	func(x uint64) uint64 { return x * 31 },
	func(x uint64) uint64 { return x + 0x9e3779b97f4a7c15 },
	func(x uint64) uint64 { return x ^ (x << 13) },
	func(x uint64) uint64 { return x*2862933555777941757 + 3037000493 },
}

type refNode struct {
	v      uint64
	next   *refNode
	coeffs map[uint64]int64
}

func refKernel(n int) uint64 {
	var head *refNode
	m := make(map[uint64]*refNode, 64)
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x = refOps[x>>61](x)
		nd := &refNode{v: x >> 3}
		if i&7 == 0 {
			nd.coeffs = map[uint64]int64{x & 63: 1, (x >> 6) & 63: -1}
		}
		m[x&1023] = nd
		if p := m[(x>>10)&1023]; p != nil {
			x += p.v
			if p.coeffs != nil {
				x += uint64(p.coeffs[x&63])
			}
		}
		nd.next = head
		if i&63 == 0 {
			head = nil
		} else {
			head = nd
		}
	}
	return x
}

// refSink keeps the kernel's result live.
var refSink uint64

// sampleHere runs one reference unit on each CPU at once, as the
// program's lanes run, each on a goroutine locked to its own thread and
// timed with that thread's CPU clock.  It returns their CPU time and the
// units run.
func sampleHere() (time.Duration, int) {
	lanes := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total time.Duration
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t := threadCPU()
			v := refKernel(refUnit)
			d := threadCPU() - t
			mu.Lock()
			total += d
			refSink += v
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, lanes
}

// serveReference is the reference process: one sample per line read
// from standard input, answered with "CPU-nanoseconds units".
func serveReference() int {
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		d, units := sampleHere()
		if _, err := fmt.Printf("%d %d\n", d.Nanoseconds(), units); err != nil {
			return 1
		}
	}
	return 0
}

// reference is the benchmark's reference process, a second instance of
// the benchmark started with -reference.  It shares nothing with the
// program but the machine: in the benchmark's own process the kernel's
// allocations paid for marking the program's heap, and a program whose
// live heap grew by 8 MB made the kernel about 10% slower.
type reference struct {
	mu  sync.Mutex
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// ref is the running reference process.
var ref *reference

func startReference() (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample has the reference process take one sample.
func (p *reference) sample() (time.Duration, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := io.WriteString(p.in, "sample\n"); err != nil {
		return 0, 0, fmt.Errorf("reference process: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("reference process: %w", err)
	}
	var ns int64
	var units int
	if _, err := fmt.Sscan(line, &ns, &units); err != nil || units <= 0 {
		return 0, 0, fmt.Errorf("reference process: bad reply %q", line)
	}
	return time.Duration(ns), units, nil
}

// stop ends the reference process and waits for it.
func (p *reference) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// calibrator accumulates reference samples.
type calibrator struct {
	mu    sync.Mutex
	cpu   time.Duration // reference CPU time, all samples
	units int
	last  time.Time
	err   error // the first failed sample
}

// sample takes one reference sample: in the reference process, or in
// this one when there is none (the package's tests).
func (c *calibrator) sample() {
	var d time.Duration
	var units int
	var err error
	if ref != nil {
		d, units, err = ref.sample()
	} else {
		d, units = sampleHere()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = time.Now()
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	c.cpu += d
	c.units += units
}

// due reports whether refEvery has passed since the last sample.
func (c *calibrator) due() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Since(c.last) >= refEvery
}

// scale is the factor that brings a CPU time measured beside these
// samples to the nominal speed.  It fails if a sample failed or none
// was taken.
func (c *calibrator) scale() (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	if c.units == 0 {
		return 0, fmt.Errorf("no reference sample")
	}
	return float64(refNominal) * float64(c.units) / float64(c.cpu), nil
}
