package radio

import (
	"math"

	"repro/internal/geo"
	"repro/internal/sim"
)

// The dB conversions below cost a Pow or Log10 each, so the simulation
// hot path avoids them per segment: phy radios fold every dB-domain
// constant into linear multipliers at construction (phy tables.go) and
// keep per-pair gains in mW end to end. These helpers are for
// construction, cold paths, and human-facing output.

// DBmToMW converts dBm to milliwatts.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MWToDBm converts milliwatts to dBm. Zero or negative power maps to -inf.
func MWToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// Model computes the path loss in dB between two placed nodes.
// Implementations must be reciprocal: Loss(a, pa, b, pb) == Loss(b, pb, a, pa).
type Model interface {
	// Loss returns the propagation loss in dB from node a at pa to node b
	// at pb. Node IDs participate only through the shadowing hash.
	Loss(a int, pa geo.Point, b int, pb geo.Point) float64
}

// RangeBounder is implemented by geometric models that can bound the
// distance beyond which Loss provably exceeds a given budget for every
// node pair. The medium uses it to prune its delivery lists with a
// spatial grid: a pair farther apart than MaxRange(budget) can never be
// heard above the corresponding power floor, so the bound must be
// conservative — never smaller than the true cutoff. Models without
// geometry (e.g. Matrix) simply do not implement it.
//
// A RangeBounder must also be bitwise reciprocal: Loss(a, pa, b, pb) and
// Loss(b, pb, a, pa) must have identical IEEE-754 bits, not merely be
// close. The medium's batched delivery-list patch evaluates each pair
// once and stores the result in both nodes' lists, so a model whose two
// directions differ in the last bit would make a patched list differ
// from a from-scratch build.
type RangeBounder interface {
	MaxRange(maxLossDB float64) float64
}

// MaxShadowSigmas truncates the shadowing variate. Lognormal shadowing
// is an empirical fit whose far tails are unphysical (±6σ of a 6 dB
// spread is already ±36 dB — more than any wall); truncating there
// changes essentially no realised link (P ≈ 2·10⁻⁹ per pair) but gives
// MaxRange a tight bound, which is what lets the spatial grid prune
// medium construction.
const MaxShadowSigmas = 6.0

// LogDistance is the classic indoor log-distance path-loss model with
// per-link lognormal shadowing:
//
//	PL(d) = RefLossDB + 10·Exponent·log10(d/1 m) + N(0, ShadowSigmaDB)
//
// The shadowing draw is a pure function of (Seed, min(a,b), max(a,b)), so
// the channel between two nodes is symmetric and stable across runs.
type LogDistance struct {
	// RefLossDB is the loss at the 1 m reference distance. Free space at
	// 5.2 GHz gives ≈46.8 dB; the calibrated testbed uses more to account
	// for antenna inefficiency and near-field clutter of embedded boards.
	RefLossDB float64
	// Exponent is the path-loss exponent; indoor office ≈3.0–3.5.
	Exponent float64
	// ShadowSigmaDB is the standard deviation of lognormal shadowing.
	ShadowSigmaDB float64
	// MinDistance clamps very small separations so co-located nodes do not
	// produce unbounded power. Defaults to 1 m when zero.
	MinDistance float64
	// Seed selects the shadowing realisation.
	Seed uint64
}

// DefaultIndoor5GHz returns the calibrated model used for the reproduction
// testbed: 5 GHz office floor matching the §5.1 link census.
func DefaultIndoor5GHz(seed uint64) *LogDistance {
	return &LogDistance{
		RefLossDB:     56.0,
		Exponent:      3.5,
		ShadowSigmaDB: 6.0,
		MinDistance:   1.0,
		Seed:          seed,
	}
}

// DefaultUrban5GHz returns an outdoor model for the large-scale scenario
// generators: near-free-space reference loss, a gentler exponent than the
// cluttered office floor, and milder shadowing. Ranges run a few hundred
// metres, so city-scale layouts are sparse in the delivery sense.
func DefaultUrban5GHz(seed uint64) *LogDistance {
	return &LogDistance{
		RefLossDB:     47.0,
		Exponent:      3.0,
		ShadowSigmaDB: 4.0,
		MinDistance:   1.0,
		Seed:          seed,
	}
}

// Loss implements Model.
func (m *LogDistance) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	d := pa.Dist(pb)
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		d = min
	}
	loss := m.RefLossDB + 10*m.Exponent*math.Log10(d)
	if m.ShadowSigmaDB > 0 {
		loss += m.ShadowSigmaDB * m.shadow(a, b)
	}
	return loss
}

// MaxRange implements RangeBounder: beyond the returned distance, path
// loss exceeds maxLossDB even at the most favourable shadowing draw the
// generator can produce.
func (m *LogDistance) MaxRange(maxLossDB float64) float64 {
	if m.Exponent <= 0 {
		return math.Inf(1)
	}
	d := math.Pow(10, (maxLossDB-m.RefLossDB+MaxShadowSigmas*m.ShadowSigmaDB)/(10*m.Exponent))
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		// Inside the clamp every pair shares loss(min); if that already
		// exceeds the budget nothing delivers, but min stays a safe bound.
		d = min
	}
	return d * (1 + 1e-9)
}

// shadow returns a standard normal variate truncated to ±MaxShadowSigmas
// that is symmetric in (a, b) and deterministic in the model seed.
func (m *LogDistance) shadow(a, b int) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := sim.HashPair(uint64(lo)+1, uint64(hi)+1)
	rng := sim.NewRNG(h ^ m.Seed)
	v := rng.NormFloat64()
	if v > MaxShadowSigmas {
		v = MaxShadowSigmas
	} else if v < -MaxShadowSigmas {
		v = -MaxShadowSigmas
	}
	return v
}

// FreeSpace is a shadowing-free model useful for unit tests and
// controlled geometry experiments.
type FreeSpace struct {
	RefLossDB   float64 // loss at 1 m
	Exponent    float64 // usually 2.0
	MinDistance float64
}

// Loss implements Model.
func (m *FreeSpace) Loss(_ int, pa geo.Point, _ int, pb geo.Point) float64 {
	d := pa.Dist(pb)
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		d = min
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d)
}

// MaxRange implements RangeBounder exactly (no shadowing).
func (m *FreeSpace) MaxRange(maxLossDB float64) float64 {
	if m.Exponent <= 0 {
		return math.Inf(1)
	}
	d := math.Pow(10, (maxLossDB-m.RefLossDB)/(10*m.Exponent))
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		d = min
	}
	return d * (1 + 1e-9)
}

// Matrix is a model backed by an explicit loss table; it lets tests and
// experiments construct exact SINR relationships between a handful of
// nodes without reverse-engineering geometry.
type Matrix struct {
	// LossDB[a][b] is the loss from a to b in dB. The matrix should be
	// symmetric; Loss reads LossDB[a][b] directly.
	LossDB [][]float64
}

// Loss implements Model.
func (m *Matrix) Loss(a int, _ geo.Point, b int, _ geo.Point) float64 {
	return m.LossDB[a][b]
}

// SINR returns the signal-to-interference-plus-noise ratio in dB given all
// powers in mW.
func SINR(signalMW, noiseMW, interferenceMW float64) float64 {
	return DB(signalMW / (noiseMW + interferenceMW))
}
