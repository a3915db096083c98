package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Set-up is repeated until both floors are met (or setupMaxReps), and
// setup_s is the median.
const (
	setupMinReps = 3
	setupMinTime = time.Second
	setupMaxReps = 200
)

// safeRound runs one round, turning a panic into an error.
func safeRound(f func() (string, int, error)) (d string, bad int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// measureWorkload is the end-to-end run: set-up several times, then
// whole rounds through the public entry points until the timed phase
// has lasted dur. Calibration samples follow each set-up and each
// round, and every time is reported scaled by the run's host factor.
func measureWorkload(w workload, seed uint64, dur time.Duration) (result, string, error) {
	cal, err := startCalibrator()
	if err != nil {
		return result{}, "", err
	}
	defer cal.close()

	var setups []float64
	var in instance
	for t0 := time.Now(); len(setups) < setupMaxReps && (len(setups) < setupMinReps || time.Since(t0) < setupMinTime); {
		in = nil
		runtime.GC()
		t := time.Now()
		var err error
		if in, err = w.setup(seed); err != nil {
			return result{}, "", fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t)
		setups = append(setups, d.Seconds())
		if err := cal.fill(d); err != nil {
			return result{}, "", err
		}
	}
	runtime.GC()

	var b strings.Builder
	clock := &unitClock{}
	var roundCPU []float64
	var timed time.Duration // rounds only, calibration excluded
	failed, attempted := 0, 0
	digestNote := "not pinned for this seed"
	deadline := time.Now().Add(dur)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		c0, t0 := cpuSeconds(), time.Now()
		digest, bad, err := safeRound(func() (string, int, error) { return in.round(r, clock) })
		d := time.Since(t0)
		timed += d
		roundCPU = append(roundCPU, cpuSeconds()-c0)
		attempted += in.unitsPerRound()
		if err != nil {
			// The simulation state is unknown after a failure: count the
			// round as failed and stop.
			fmt.Fprintf(&b, "round %d failed: %v\n", r, err)
			failed += in.unitsPerRound()
			break
		}
		failed += bad
		if r == 0 && seed == defaultSeed {
			if digest == pinnedDigests[w.name] {
				digestNote = "matches the pinned digest"
			} else {
				digestNote = fmt.Sprintf("MISMATCH, pinned %s", pinnedDigests[w.name])
				failed += in.unitsPerRound()
			}
		}
		if r == 0 {
			digestNote = digest + " (" + digestNote + ")"
		}
		if err := cal.fill(d); err != nil {
			return result{}, "", err
		}
	}

	units := durationsMs(clock.units)
	tail, tailPct := tailOf(units)
	raw := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"sim_s_per_s":  {float64(len(clock.units)) * in.simSecondsPerUnit() / timed.Seconds(), "sim_s/s"},
		"unit_ms_p50":  {median(units), "ms"},
		"unit_ms_tail": {tail, "ms"},
		"cpu_s":        {median(roundCPU), "s"},
		"max_rss_mb":   {maxRSSMiB(), "MiB"},
	}
	f := cal.factor()
	m := map[string]metric{}
	for name, v := range raw {
		switch name {
		case "sim_s_per_s":
			v.Value *= f
		case "max_rss_mb":
		default:
			v.Value /= f
		}
		m[name] = v
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}

	fmt.Fprintf(&b, "workload %s seed %d: %d rounds, %d units in %.2f s timed\n", w.name, seed, len(roundCPU), len(clock.units), timed.Seconds())
	fmt.Fprintf(&b, "  host factor   %12.4f          median of %d calibration samples over %v\n", f, len(cal.samples), calibNominal)
	fmt.Fprintf(&b, "  %-13s %12s %12s %-8s\n", "metric", "scaled", "raw", "unit")
	for _, name := range []string{"setup_s", "sim_s_per_s", "unit_ms_p50", "unit_ms_tail", "cpu_s", "max_rss_mb"} {
		fmt.Fprintf(&b, "  %-13s %12.4f %12.4f %-8s %s\n", name, m[name].Value, raw[name].Value, m[name].Unit, endToEndNotes(name, len(setups), tailPct, len(units), len(roundCPU)))
	}
	fmt.Fprintf(&b, "  %-13s %12.4f %12s %-8s %d of %d units failed\n", "fail_frac", float64(failed)/float64(attempted), "", "ratio", failed, attempted)
	fmt.Fprintf(&b, "  digest        %s\n", digestNote)
	return res, b.String(), nil
}

func endToEndNotes(name string, setups int, tailPct float64, units, rounds int) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf("median of %d set-ups", setups)
	case "sim_s_per_s":
		return "simulated s per host s over the timed rounds"
	case "unit_ms_p50":
		return fmt.Sprintf("median of %d units", units)
	case "unit_ms_tail":
		return fmt.Sprintf("p%.2f of %d units (highest percentile with 10 units beyond it)", tailPct, units)
	case "cpu_s":
		return fmt.Sprintf("user+sys CPU of one round, median of %d rounds", rounds)
	case "max_rss_mb":
		return "peak resident set of the process (not scaled)"
	}
	return ""
}

// ---------------------------------------------------------------------
// Helpers.

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest order statistic with at least ten samples
// beyond it and the percentile it stands at. Below eleven samples it is
// the maximum.
func tailOf(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSnap is the Go runtime's cumulative allocation and GC state.
type runtimeSnap struct {
	allocB, gcCycles uint64
	gcCPU            float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{allocB: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), gcCPU: s[2].Value.Float64()}
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{allocB: a.allocB - b.allocB, gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU}
}

func (a runtimeSnap) add(b runtimeSnap) runtimeSnap {
	return runtimeSnap{allocB: a.allocB + b.allocB, gcCycles: a.gcCycles + b.gcCycles, gcCPU: a.gcCPU + b.gcCPU}
}
