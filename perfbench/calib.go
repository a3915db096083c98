package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on shared hosts, where the speed at which a fixed
// piece of work runs drifts by tens of percent over tens of seconds as
// neighbouring tenants come and go, and a whole run can sit in a slow
// or a fast spell. So every time the end-to-end run reports is scaled
// to a reference host speed: between rounds a child process runs a
// fixed calibration kernel, and each time is divided by the host
// factor, the kernel's median time over the run divided by
// calibNominal. The raw times are printed beside the scaled ones.
//
// The drift hits kinds of work unequally: allocation and pointer walks
// (the 1000-node disk, the trial workloads' construction) swing the
// most, scalar math less. Over windows of 20 s or more, an allocating
// tree walk alone tracked static-scale's round time (correlation 0.94)
// and floating-point chains alone tracked mobile-staleness's (0.91).
// The kernel runs both; round time over kernel time then varied by 6%
// and 4% (standard deviation) where round time alone varied by 16% and
// 8%.
//
// The kernel runs in its own process so that its heap neither paces
// the program's collector nor counts in the program's peak RSS, and
// the parent waits for each sample, so the two never run at once.

// calibEnv, set in a child's environment, makes the binary serve
// calibration samples on stdin/stdout instead of benchmarking.
const calibEnv = "PERFBENCH_CALIBRATOR"

// calibNominal is the kernel's time on an unloaded reference host (a
// 2-vCPU Intel Xeon KVM guest, go1.24). It fixes the scale of the
// reported times, not their ratios between two commits.
const calibNominal = 40 * time.Millisecond

// calibShare is the calibration time spent after each round, as a share
// of the round's wall time (at least one sample per round).
const calibShare = 0.15

// The kernel's two halves: a binary tree of 2^calibTreeDepth nodes,
// built and walked twice, and calibMathIters rounds of four
// independent floating-point chains.
const (
	calibTreeDepth = 17
	calibMathIters = 200_000
)

type calibNode struct {
	l, r *calibNode
	v    uint64
}

var (
	calibSink  uint64
	calibFSink float64
)

// calibKernel is one calibration sample's work. The two halves track
// the two kinds of workload: the tree (allocation, the child's
// collector, pointer walks) the memory-bound static-scale and
// poisson-load, the math chains (log, exp and sqrt, as in path loss
// and shadowing) the compute-bound mobile-staleness.
func calibKernel() {
	var build func(d int, v uint64) *calibNode
	build = func(d int, v uint64) *calibNode {
		if d == 0 {
			return &calibNode{v: v}
		}
		return &calibNode{l: build(d-1, 2*v), r: build(d-1, 2*v+1), v: v}
	}
	var walk func(n *calibNode) uint64
	walk = func(n *calibNode) uint64 {
		if n == nil {
			return 0
		}
		return n.v ^ (walk(n.l) + walk(n.r))
	}
	t := build(calibTreeDepth, 1)
	calibSink += walk(t) + walk(t)

	a, b, c, d := 1.1, 2.2, 3.3, 4.4
	for i := 0; i < calibMathIters; i++ {
		a = math.Log(a+3) * 1.7
		b = math.Sqrt(b+5) * 1.9
		c = math.Exp(-c) + 2.5
		d = math.Log10(d+7) * 4.1
	}
	calibFSink += a + b + c + d
}

// serveCalibration is the child: one kernel run per byte read from
// stdin, its time in nanoseconds written back as a line. It returns at
// end of input.
func serveCalibration() int {
	runtime.GOMAXPROCS(1)
	in := bufio.NewReader(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for {
		if _, err := in.ReadByte(); err != nil {
			return 0
		}
		t := time.Now()
		calibKernel()
		fmt.Fprintf(out, "%d\n", time.Since(t).Nanoseconds())
		if err := out.Flush(); err != nil {
			return 1
		}
	}
}

// calibrator is the parent's end of the calibration child.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64 // kernel times, ns
}

// calibWarmup samples are taken and dropped at start: the child's first
// runs grow its heap.
const calibWarmup = 5

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calibEnv+"=1")
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
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	for i := 0; i < calibWarmup; i++ {
		if err := c.sample(); err != nil {
			c.close()
			return nil, err
		}
	}
	c.samples = c.samples[:0]
	return c, nil
}

// sample runs the kernel once in the child and records its time.
func (c *calibrator) sample() error {
	if _, err := c.in.Write([]byte{1}); err != nil {
		return fmt.Errorf("calibrator: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("calibrator: %w", err)
	}
	ns, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || ns <= 0 {
		return errors.New("calibrator: bad sample " + strconv.Quote(line))
	}
	c.samples = append(c.samples, ns)
	return nil
}

// fill samples until calibShare of d has been spent, at least once.
func (c *calibrator) fill(d time.Duration) error {
	budget := time.Duration(calibShare * float64(d))
	for t0 := time.Now(); ; {
		if err := c.sample(); err != nil {
			return err
		}
		if time.Since(t0) >= budget {
			return nil
		}
	}
}

// factor is the host factor: how many times slower than the reference
// host this run's host ran the kernel.
func (c *calibrator) factor() float64 {
	return median(c.samples) / float64(calibNominal.Nanoseconds())
}

// close ends the child and waits for it.
func (c *calibrator) close() {
	c.in.Close()
	c.cmd.Wait()
}
