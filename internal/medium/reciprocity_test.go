package medium

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestRangeBoundersBitwiseReciprocal pins the contract the batched
// delivery-list flush stands on: for every range-bounded model in the
// repository, Loss(a, pa, b, pb) and Loss(b, pb, a, pa) have the same
// IEEE-754 bits, so one gain evaluation serves both lists of a pair.
// Separations run from coincident points through the MinDistance clamp
// to well past delivery range; the mobility channel is checked at
// non-zero, unequal shadowing epochs, where it re-seeds the inner model.
func TestRangeBoundersBitwiseReciprocal(t *testing.T) {
	const n = 24
	rng := sim.NewRNG(0x4ec1)
	ch := mobility.NewChannel(&radio.LogDistance{RefLossDB: 50, Exponent: 3.2, ShadowSigmaDB: 5, MinDistance: 2, Seed: 9}, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 1+i%4; k++ {
			ch.Bump(i)
		}
	}
	models := map[string]radio.Model{
		"LogDistance":      radio.DefaultIndoor5GHz(3),
		"LogDistance/wide": &radio.LogDistance{RefLossDB: 47, Exponent: 2.7, ShadowSigmaDB: 8, MinDistance: 0.5, Seed: 1 << 60},
		"FreeSpace":        &radio.FreeSpace{RefLossDB: 47, Exponent: 2, MinDistance: 1.5},
		"mobility.Channel": ch,
	}
	for name, model := range models {
		if _, ok := model.(radio.RangeBounder); !ok {
			t.Fatalf("%s: not a radio.RangeBounder", name)
		}
		for trial := 0; trial < 2000; trial++ {
			a, b := rng.Intn(n), rng.Intn(n)
			pa := geo.Point{X: 200 * (rng.Float64() - 0.5), Y: 200 * (rng.Float64() - 0.5)}
			// Mix coincident points, separations inside the clamp and
			// arbitrary ones, in every direction.
			var sep float64
			switch trial % 3 {
			case 0:
				sep = 0
			case 1:
				sep = 2.5 * rng.Float64()
			default:
				sep = 400 * rng.Float64()
			}
			th := 2 * math.Pi * rng.Float64()
			pb := geo.Point{X: pa.X + sep*math.Cos(th), Y: pa.Y + sep*math.Sin(th)}
			ab, ba := model.Loss(a, pa, b, pb), model.Loss(b, pb, a, pa)
			if math.Float64bits(ab) != math.Float64bits(ba) {
				t.Fatalf("%s: Loss(%d,%v,%d,%v) = %x but reversed = %x",
					name, a, pa, b, pb, math.Float64bits(ab), math.Float64bits(ba))
			}
		}
	}
}
