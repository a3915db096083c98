package medium

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// FuzzDeliveryPatch drives random move sequences — zero-length moves,
// cell-boundary crossings, and far out-of-arena jumps — through
// MoveNode, with reads falling at random points between moves, so each
// read flushes a random-sized batch of pending moves. After every read,
// and once more at the end, the delivery lists seen through a randomly
// chosen public reader must be bit-identical to both the sparse grid
// build and the dense O(n²) reference over the current positions.
func FuzzDeliveryPatch(f *testing.F) {
	f.Add([]byte{6, 10, 20, 60, 90, 120, 5, 40, 80, 15, 33, 77, 0, 1, 0, 0, 1, 0, 120, 120, 2, 1, 9})
	f.Add([]byte("delivery-patch-seed: shuffle everyone around"))
	f.Add([]byte{4, 0, 0, 50, 0, 0, 50, 50, 50, 0, 0, 0, 0, 1, 1, 255, 255, 2, 0, 128, 3, 64, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 4 + int(data[0])%10
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		params := phy.DefaultParams()
		model := &radio.LogDistance{RefLossDB: 50, Exponent: 3.2, ShadowSigmaDB: 3, Seed: 0xf022}
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: float64(next()), Y: float64(next())}
		}
		m := NewWithWorkers(sim.NewScheduler(), params, model, pts, sim.NewRNG(1), 1)
		verify := func(reader int) {
			sparse, _ := BuildDeliveries(params, model, m.positions, 1)
			dense := denseDeliveries(params, model, m.positions)
			lists := listsVia(m, reader)
			for _, oracle := range []struct {
				name  string
				lists [][]Delivery
			}{{"sparse", sparse}, {"dense", dense}} {
				for i := range oracle.lists {
					got, want := lists[i], oracle.lists[i]
					if (got == nil) != (want == nil) || len(got) != len(want) {
						t.Fatalf("%s oracle: node %d list len %d (nil=%v), want %d (nil=%v)",
							oracle.name, i, len(got), got == nil, len(want), want == nil)
					}
					for k := range want {
						if got[k].Dst != want[k].Dst ||
							math.Float64bits(got[k].GainMW) != math.Float64bits(want[k].GainMW) {
							t.Fatalf("%s oracle: node %d entry %d = {%d,%x}, want {%d,%x}",
								oracle.name, i, k,
								got[k].Dst, math.Float64bits(got[k].GainMW),
								want[k].Dst, math.Float64bits(want[k].GainMW))
						}
					}
				}
			}
		}
		verify(0)
		for len(data) >= 3 {
			i := int(next()) % n
			op := next()
			var p geo.Point
			switch op % 4 {
			case 0: // zero-length move
				p = m.positions[i]
			case 1: // far out of the construction bounds (edge-cell clamp)
				p = geo.Point{X: float64(next())*50 - 3000, Y: float64(next())*50 - 3000}
			default: // local jitter, crossing cell boundaries
				p = geo.Point{
					X: m.positions[i].X + float64(int8(next()))/2,
					Y: m.positions[i].Y + float64(int8(next()))/2,
				}
			}
			m.MoveNode(i, p)
			if op&0x10 != 0 {
				verify(int(op>>5) % len(listReaders))
			}
		}
		verify(0)
	})
}
