package medium

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// nopHandler is a phy.Handler that does nothing: the steady-state
// allocation measurements isolate the sim/phy/medium transmit path from
// whatever a MAC does with the decoded frames.
type nopHandler struct{}

func (nopHandler) OnFrame(frame.Frame, phy.RxInfo) {}
func (nopHandler) OnCorrupt(phy.RxInfo)            {}
func (nopHandler) OnTxDone(frame.Frame)            {}
func (nopHandler) OnCarrier(bool)                  {}

// steadyStateMedium builds a 4-node line where node 0's transmissions
// reach all three other radios at descending powers, so one frame
// exercises multi-receiver fan-out, preamble lock, SINR bookkeeping,
// and decode.
func steadyStateMedium() (*Medium, *sim.Scheduler) {
	sched := sim.NewScheduler()
	loss := [][]float64{
		{0, 70, 80, 95},
		{70, 0, 70, 80},
		{80, 70, 0, 70},
		{95, 80, 70, 0},
	}
	positions := make([]geo.Point, len(loss))
	m := New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: loss}, positions, sim.NewRNG(1))
	for i := 0; i < m.NodeCount(); i++ {
		m.Radio(i).SetHandler(nopHandler{})
	}
	return m, sched
}

// TestTransmitSteadyStateZeroAllocs is the acceptance guard for the
// zero-allocation transmit hot path: once the scheduler's heap, the
// transmission free list, and the radios' active lists have warmed up,
// a transmit → fan-out → decode → tx-done cycle must not touch the
// allocator at all.
func TestTransmitSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	m, sched := steadyStateMedium()
	f := &frame.Dot11Data{Src: frame.AddrFromID(0), Dst: frame.AddrFromID(1), PayloadLen: 1400}
	rate := phy.RateByID(phy.Rate6Mbps)
	cycle := func() {
		m.Radio(0).Transmit(f, rate)
		sched.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle() // warm up every reusable buffer
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state transmission allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestOverlappingTransmitZeroAllocs repeats the check with two
// overlapping transmissions per cycle, so the transmission free list
// and per-radio active lists are exercised past length 1.
func TestOverlappingTransmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	m, sched := steadyStateMedium()
	f0 := &frame.Dot11Data{Src: frame.AddrFromID(0), Dst: frame.AddrFromID(1), PayloadLen: 1400}
	f3 := &frame.Dot11Data{Src: frame.AddrFromID(3), Dst: frame.AddrFromID(2), PayloadLen: 1400}
	rate := phy.RateByID(phy.Rate6Mbps)
	cycle := func() {
		m.Radio(0).Transmit(f0, rate)
		m.Radio(3).Transmit(f3, rate)
		sched.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("overlapping transmissions allocate %.1f objects per cycle, want 0", allocs)
	}
}

// TestMobilityEpochFlushAllocsOnce gates the batched list patch: once
// the grid's buckets and the flush's scratch buffers have warmed up,
// moving every node of a grid-backed medium and then reading it must
// allocate exactly once — the backing array the flush carves every
// rebuilt list from. MoveNode itself allocates nothing.
func TestMobilityEpochFlushAllocsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	rng := sim.NewRNG(5)
	pts := scatter(60, geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 80}, rng)
	model := &radio.LogDistance{RefLossDB: 50, Exponent: 3.0, ShadowSigmaDB: 4, Seed: 0xa110c}
	m := NewWithWorkers(sim.NewScheduler(), phy.DefaultParams(), model, pts, sim.NewRNG(1), 1)
	if !m.GridBacked() {
		t.Fatal("expected a grid-backed medium")
	}
	step := 0
	move := func() {
		// Oscillate ±0.5 m so nodes near a cell edge cross it both ways
		// without drifting out of their neighbourhood.
		d := 0.5 - float64(step%2)
		step++
		for i := 0; i < m.NodeCount(); i++ {
			p := m.Position(i)
			m.MoveNode(i, geo.Point{X: p.X + d, Y: p.Y + d})
		}
	}
	epoch := func() {
		move()
		m.NeighborCount(0)
	}
	for i := 0; i < 64; i++ {
		epoch()
	}
	for k := 0; k < 20; k++ {
		if allocs := testing.AllocsPerRun(1, epoch); allocs != 1 {
			t.Fatalf("epoch %d: moving every node and reading allocates %.0f objects, want exactly 1", k, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(1, move); allocs != 0 {
		t.Fatalf("moving every node allocates %.0f objects before the read, want 0", allocs)
	}
	m.NeighborCount(0)
}

// BenchmarkTransmitSteadyState measures one full transmission lifecycle
// through the hot path (B/op and allocs/op are the headline numbers).
func BenchmarkTransmitSteadyState(b *testing.B) {
	m, sched := steadyStateMedium()
	f := &frame.Dot11Data{Src: frame.AddrFromID(0), Dst: frame.AddrFromID(1), PayloadLen: 1400}
	rate := phy.RateByID(phy.Rate6Mbps)
	for i := 0; i < 64; i++ {
		m.Radio(0).Transmit(f, rate)
		sched.RunAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Radio(0).Transmit(f, rate)
		sched.RunAll()
	}
}
