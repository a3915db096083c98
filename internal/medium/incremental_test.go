package medium

import (
	"math"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// scatter places n nodes uniformly in the arena from a dedicated stream.
func scatter(n int, arena geo.Rect, rng *sim.RNG) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			X: arena.MinX + rng.Float64()*arena.Width(),
			Y: arena.MinY + rng.Float64()*arena.Height(),
		}
	}
	return pts
}

// requireListsEqual asserts every delivery list matches the oracle
// bit-exactly: same membership, same order, same IEEE-754 gain bits,
// same nil-when-empty convention.
func requireListsEqual(t *testing.T, label string, got, want [][]Delivery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lists vs oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("%s: node %d nil-ness %v vs oracle %v (len %d vs %d)",
				label, i, got[i] == nil, want[i] == nil, len(got[i]), len(want[i]))
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: node %d has %d deliveries, oracle %d", label, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			g, w := got[i][k], want[i][k]
			if g.Dst != w.Dst || math.Float64bits(g.GainMW) != math.Float64bits(w.GainMW) {
				t.Fatalf("%s: node %d entry %d = {%d, %x}, oracle {%d, %x}",
					label, i, k, g.Dst, math.Float64bits(g.GainMW), w.Dst, math.Float64bits(w.GainMW))
			}
		}
	}
}

// liveLists reads every delivery list through DeliveryList, so any
// pending moves are flushed exactly as a simulation read would.
func liveLists(m *Medium) [][]Delivery {
	return listsVia(m, 0)
}

// listReaders names the public readers listsVia can reconstruct the
// delivery lists through.
var listReaders = []string{"DeliveryList", "ForEachNeighbor", "GainMW"}

// listsVia reconstructs every delivery list through one public reader
// (an index into listReaders), nil when empty like the built lists. The
// first call after a move is the read that flushes it.
func listsVia(m *Medium, reader int) [][]Delivery {
	n := m.NodeCount()
	out := make([][]Delivery, n)
	for i := 0; i < n; i++ {
		switch reader {
		case 0:
			out[i] = m.DeliveryList(i)
		case 1:
			m.ForEachNeighbor(i, func(dst int, g float64) {
				out[i] = append(out[i], Delivery{Dst: dst, GainMW: g})
			})
		case 2:
			for b := 0; b < n; b++ {
				if g, ok := m.GainMW(i, b); ok {
					out[i] = append(out[i], Delivery{Dst: b, GainMW: g})
				}
			}
		}
	}
	return out
}

// TestIncrementalMatchesRebuild drives each mobility model over a
// log-distance testbed (with shadowing re-draws) and proves, after
// every movement epoch, that the incrementally patched delivery lists
// are bit-identical to a from-scratch sparse build AND to the dense
// O(n²) reference over the same final positions and shadowing epochs.
func TestIncrementalMatchesRebuild(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 80}
	specs := []mobility.Spec{
		{Kind: mobility.Waypoint, SpeedMps: 12, DecorrM: 15},
		{Kind: mobility.RandomWalk, SpeedMps: 8, DecorrM: 15},
		{Kind: mobility.Vehicular, SpeedMps: 25}, // lane wrap = long jumps
	}
	for _, spec := range specs {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			params := phy.DefaultParams()
			inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3.0, ShadowSigmaDB: 4, Seed: 0xd15c0}
			rng := sim.NewRNG(42)
			pts := scatter(60, arena, rng.Stream(7))
			ch := mobility.NewChannel(inner, len(pts))
			sched := sim.NewScheduler()
			m := NewWithWorkers(sched, params, ch, pts, rng.Stream(1), 1)
			mg := mobility.New(spec, arena, m, rng.Stream(mobility.StreamLabel), ch)
			mg.Start()
			for epoch := 0; epoch < 30; epoch++ {
				if !sched.Step() {
					t.Fatal("scheduler drained early")
				}
				sparse, gridBacked := BuildDeliveries(params, ch, m.positions, 1)
				if !gridBacked {
					t.Fatal("expected the grid construction path")
				}
				got := liveLists(m)
				requireListsEqual(t, "sparse oracle", got, sparse)
				requireListsEqual(t, "dense oracle", got, denseDeliveries(params, ch, m.positions))
			}
			if mg.Epochs != 30 {
				t.Fatalf("manager applied %d epochs, want 30", mg.Epochs)
			}
		})
	}
}

// TestIncrementalDensePath covers the unbounded-model fallback: a loss
// matrix has no range bound, so MoveNode must patch by full-row scan —
// here movement cannot change gains (the matrix ignores positions), so
// the patch must leave the lists exactly as built.
func TestIncrementalDensePath(t *testing.T) {
	params := phy.DefaultParams()
	n := 6
	mx := &radio.Matrix{LossDB: make([][]float64, n)}
	rng := sim.NewRNG(9)
	for a := 0; a < n; a++ {
		mx.LossDB[a] = make([]float64, n)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// Mix audible and inaudible links around the delivery floor.
			l := 55 + 60*rng.Float64()
			mx.LossDB[a][b], mx.LossDB[b][a] = l, l
		}
	}
	pts := make([]geo.Point, n)
	sched := sim.NewScheduler()
	m := New(sched, params, mx, pts, sim.NewRNG(1))
	want := denseDeliveries(params, mx, pts)
	for i := 0; i < n; i++ {
		m.MoveNode(i, geo.Point{X: float64(i), Y: 2})
	}
	if m.mv.grid != nil {
		t.Fatal("matrix model must take the dense patch path")
	}
	requireListsEqual(t, "dense patch", liveLists(m), want)
}

// countingHandler counts decoded frames; the other upcalls are no-ops.
type countingHandler struct {
	nopHandler
	decoded int
}

func (h *countingHandler) OnFrame(frame.Frame, phy.RxInfo) { h.decoded++ }

// TestMoveNodePreservesInFlightFanout pins the snapshot invariant: a
// real transmission that started before some moves must deliver
// SignalEnd to the same receiver set SignalStart reached, even when
// later moves push the receiver off the live list and the reads after
// them flush the patch — twice, so a flush that recycled the previous
// flush's backing array would be caught.
func TestMoveNodePreservesInFlightFanout(t *testing.T) {
	params := phy.DefaultParams()
	model := &radio.LogDistance{RefLossDB: 50, Exponent: 3.5}
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}}
	sched := sim.NewScheduler()
	m := New(sched, params, model, pts, sim.NewRNG(3))
	rx := &countingHandler{}
	m.Radio(0).SetHandler(nopHandler{})
	m.Radio(1).SetHandler(rx)
	m.Radio(2).SetHandler(nopHandler{})
	// A zero-length move and a read first, so the snapshot below lives
	// in a flush's backing array rather than the construction's.
	m.MoveNode(0, pts[0])
	live := m.DeliveryList(0)
	if len(live) != 2 || live[0].Dst != 1 {
		t.Fatalf("want node 0 heard by nodes 1 and 2, got %v", live)
	}
	snapshot := append([]Delivery(nil), live...)

	f := &frame.Dot11Data{Src: frame.AddrFromID(0), Dst: frame.AddrFromID(1), PayloadLen: 1400}
	m.Radio(0).Transmit(f, phy.RateByID(phy.Rate6Mbps))
	if m.Radio(1).ActiveSignals() != 1 {
		t.Fatal("SignalStart did not reach node 1")
	}
	// Two epochs of moves mid-frame, each flushed by a read: the
	// receiver leaves range, and every list is rebuilt twice.
	for step, x := range []float64{1e6, 2e6} {
		m.MoveNode(1, geo.Point{X: x, Y: 0})
		m.MoveNode(2, geo.Point{X: 21 + float64(step), Y: 0})
		m.MoveNode(0, geo.Point{X: float64(step), Y: 1})
		if got := m.NeighborCount(1); got != 0 {
			t.Fatalf("step %d: the moved receiver still hears %d nodes", step, got)
		}
	}
	requireListsEqual(t, "snapshot", [][]Delivery{live}, [][]Delivery{snapshot})
	sched.RunAll()
	if m.Radio(1).ActiveSignals() != 0 || rx.decoded != 1 {
		t.Fatalf("node 1: %d signals still active, %d frames decoded; want 0 and 1",
			m.Radio(1).ActiveSignals(), rx.decoded)
	}
}

// TestReadersMatchOracleMidEpoch moves part of a grid-backed mobile
// medium — positions and shadowing epochs — and then reads it through
// one public reader, the read that flushes the pending patch. Every
// reader must answer bit for bit what BuildDeliveries and the dense
// reference over the current positions give: DeliveryList,
// ForEachNeighbor, GainMW, NeighborCount, RxPowerDBm, and the receiver
// set of a real Transmit.
func TestReadersMatchOracleMidEpoch(t *testing.T) {
	params := phy.DefaultParams()
	// Audible out to roughly 45 m in a 200 × 150 m arena, so moves of
	// up to ±15 m change list membership, not just gains.
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 200, MaxY: 150}
	inner := &radio.LogDistance{RefLossDB: 60, Exponent: 3.5, ShadowSigmaDB: 4, Seed: 0x5eed}
	rng := sim.NewRNG(11)
	pts := scatter(40, arena, rng.Stream(1))
	n := len(pts)
	ch := mobility.NewChannel(inner, n)
	sched := sim.NewScheduler()
	m := NewWithWorkers(sched, params, ch, pts, rng.Stream(2), 1)
	for i := 0; i < n; i++ {
		m.Radio(i).SetHandler(nopHandler{})
	}
	moves := rng.Stream(3)
	f := &frame.Dot11Data{Src: frame.AddrFromID(0), Dst: frame.AddrFromID(1), PayloadLen: 200}

	readers := []struct {
		name  string
		check func(t *testing.T, sparse [][]Delivery, dense *Medium)
	}{
		{"DeliveryList", func(t *testing.T, sparse [][]Delivery, _ *Medium) {
			requireListsEqual(t, "DeliveryList", listsVia(m, 0), sparse)
		}},
		{"ForEachNeighbor", func(t *testing.T, sparse [][]Delivery, _ *Medium) {
			requireListsEqual(t, "ForEachNeighbor", listsVia(m, 1), sparse)
		}},
		{"GainMW", func(t *testing.T, sparse [][]Delivery, _ *Medium) {
			requireListsEqual(t, "GainMW", listsVia(m, 2), sparse)
		}},
		{"NeighborCount", func(t *testing.T, sparse [][]Delivery, _ *Medium) {
			for i := range sparse {
				if got := m.NeighborCount(i); got != len(sparse[i]) {
					t.Fatalf("NeighborCount(%d) = %d, oracle %d", i, got, len(sparse[i]))
				}
			}
		}},
		{"RxPowerDBm", func(t *testing.T, _ [][]Delivery, dense *Medium) {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					got, want := m.RxPowerDBm(a, b), dense.RxPowerDBm(a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("RxPowerDBm(%d,%d) = %x, dense %x", a, b, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}},
		{"Transmit", func(t *testing.T, sparse [][]Delivery, _ *Medium) {
			src := moves.Intn(n)
			m.Radio(src).Transmit(f, phy.RateByID(phy.Rate6Mbps))
			var got, want []int
			for i := 0; i < n; i++ {
				if m.Radio(i).ActiveSignals() > 0 {
					got = append(got, i)
				}
			}
			for _, d := range sparse[src] {
				want = append(want, d.Dst)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Transmit from %d reached %v, oracle %v", src, got, want)
			}
			sched.RunAll()
		}},
	}
	for round := 0; round < 4; round++ {
		for _, r := range readers {
			// A partial epoch: about a third of the nodes move, some with
			// a shadowing re-draw, and nothing is read until r.check.
			for i := 0; i < n; i++ {
				if moves.Float64() >= 1.0/3 {
					continue
				}
				if moves.Float64() < 0.3 {
					ch.Bump(i)
				}
				p := m.Position(i)
				m.MoveNode(i, geo.Point{X: p.X + 30*(moves.Float64()-0.5), Y: p.Y + 30*(moves.Float64()-0.5)})
			}
			cur := append([]geo.Point(nil), m.positions...)
			sparse, _ := BuildDeliveries(params, ch, cur, 1)
			requireListsEqual(t, "dense reference", denseDeliveries(params, ch, cur), sparse)
			dense := NewDense(sim.NewScheduler(), params, ch, cur, sim.NewRNG(1))
			if len(m.dirty) == 0 {
				t.Fatalf("round %d %s: no pending moves before the read", round, r.name)
			}
			r.check(t, sparse, dense)
		}
	}
}
