package runner

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// trial mimics an experiment unit: all randomness derived from the index.
func trial(i int) uint64 {
	rng := sim.NewRNG(uint64(i)*7919 + 1)
	var s uint64
	for k := 0; k < 1000; k++ {
		s += rng.Uint64() >> 32
	}
	return s
}

func TestMapOrdering(t *testing.T) {
	for _, w := range []int{0, 1, 2, 4, 16, 100} {
		got := Map(Config{Workers: w}, 37, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	want := Map(Config{Workers: 1}, 64, trial)
	for _, w := range []int{2, 4, 16} {
		got := Map(Config{Workers: w}, 64, trial)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trial %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(Config{}, 0, trial); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	if got := Map(Config{Workers: 8}, 1, func(i int) int { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestProgressReporting(t *testing.T) {
	for _, w := range []int{1, 4} {
		var calls int
		var lastDone int
		Map(Config{Workers: w, OnProgress: func(done, total int) {
			calls++
			if total != 25 {
				t.Fatalf("workers=%d: total = %d, want 25", w, total)
			}
			if done != lastDone+1 {
				t.Fatalf("workers=%d: done jumped from %d to %d", w, lastDone, done)
			}
			lastDone = done
		}}, 25, trial)
		if calls != 25 {
			t.Fatalf("workers=%d: %d progress calls, want 25", w, calls)
		}
	}
}

// TestMapUsesMultipleGoroutines proves the pool really runs trials
// concurrently. Each trial blocks at a rendezvous until a second trial
// is in flight, so the outcome does not depend on how the scheduler
// happens to interleave workers: a pool that runs trials concurrently
// always reaches peak 2, even on one CPU (a blocked worker yields to
// the others), and a serial pool times out at peak 1.
func TestMapUsesMultipleGoroutines(t *testing.T) {
	var peak atomic.Int64
	var cur atomic.Int64
	var once sync.Once
	second := make(chan struct{}) // closed once two trials overlap
	release := func() { once.Do(func() { close(second) }) }
	// A serial pool never overlaps two trials: give up after a generous
	// wait so it fails at peak 1 instead of hanging.
	timeout := time.AfterFunc(30*time.Second, release)
	defer timeout.Stop()
	Map(Config{Workers: 4}, 64, func(i int) int {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		if c >= 2 {
			release()
		}
		<-second
		trial(i)
		cur.Add(-1)
		return 0
	})
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want ≥2", peak.Load())
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				// The original panic value must propagate unchanged at
				// every worker count.
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", w, r)
				}
			}()
			Map(Config{Workers: w}, 16, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

func TestDo(t *testing.T) {
	var sum atomic.Int64
	Do(Config{Workers: 4}, 100, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}
