package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/phy"
	"repro/internal/stats"
)

// pinnedDigests holds, per workload, the digest of the default seed's
// first round of simulated results. A simulator-only speed-up keeps
// every simulated statistic identical, so it keeps these digests; a
// change that moves one must say why and re-pin it.
var pinnedDigests = map[string]string{
	"static-scale":     "3c996ea2e6341370",
	"mobile-staleness": "48ca7408fa0065e5",
	"poisson-load":     "7feb6c52cbbec20b",
}

// phyRateMbps is the data rate every workload runs at, the ceiling on
// any one flow's goodput.
var phyRateMbps = phy.RateByID(phy.Rate6Mbps).Mbps

// checkFlows applies the per-flow invariants to one run's results:
// offered = accepted + dropped, delivered <= accepted, and goodput —
// Mbps times scale, which converts a result's measurement window to the
// simulated time actually run — within the PHY rate.
func checkFlows(rs []experiments.FlowResult, scale float64) error {
	for i, r := range rs {
		if r.OfferedPkts != r.AcceptedPkts+r.DroppedPkts {
			return fmt.Errorf("flow %d: offered %d != accepted %d + dropped %d", i, r.OfferedPkts, r.AcceptedPkts, r.DroppedPkts)
		}
		if r.DeliveredPkts > r.AcceptedPkts {
			return fmt.Errorf("flow %d: delivered %d > accepted %d", i, r.DeliveredPkts, r.AcceptedPkts)
		}
		if g := r.Mbps * scale; !(g >= 0 && g <= phyRateMbps) {
			return fmt.Errorf("flow %d: goodput %g Mb/s outside [0, %g]", i, g, phyRateMbps)
		}
	}
	return nil
}

// checkAggregate bounds an aggregate goodput over flows flows.
func checkAggregate(v float64, flows int) error {
	if !(v >= 0 && v <= float64(flows)*phyRateMbps) {
		return fmt.Errorf("aggregate goodput %g Mb/s outside [0, %g]", v, float64(flows)*phyRateMbps)
	}
	return nil
}

// checkLoadSweep applies what the offered-load figure exposes of the
// per-flow invariants — drops within offers, every pair's aggregate
// within the PHY rate, fairness within (0, 1] — and returns how many
// units (pairs at one load) it cannot vouch for.
func checkLoadSweep(sw *experiments.LoadSweep, pairs int) int {
	bad := 0
	for _, pt := range sw.Points {
		trials := 0
		for _, arm := range workloadArms {
			if pt.Dropped[arm] > pt.Offered[arm] || pt.Latency[arm].N() > int(pt.Offered[arm]) {
				trials += pairs
				continue
			}
			for _, v := range pt.Aggregate[arm].Values() {
				if checkAggregate(v, 2) != nil {
					trials++
				}
			}
			for _, f := range pt.Fairness[arm].Values() {
				if !(f > 0 && f <= 1) {
					trials++
				}
			}
		}
		bad += min(trials, pairs)
	}
	return bad
}

// aggregate sums a run's goodput the way the figure code does.
func aggregate(rs []experiments.FlowResult) float64 {
	var s float64
	for _, r := range rs {
		s += r.Mbps
	}
	return s
}

// foldLoadSweep folds one topology's trial results, in OfferedLoad's
// key order (load, pair, arm), into the sweep OfferedLoad would return.
func foldLoadSweep(topology string, runs [][]experiments.FlowResult) *experiments.LoadSweep {
	sw := &experiments.LoadSweep{Topology: topology, Arms: workloadArms}
	for _, load := range loadLevels {
		pt := experiments.LoadPoint{
			PerFlowMbps: load,
			Aggregate:   map[experiments.Protocol]*stats.Dist{},
			Latency:     map[experiments.Protocol]*stats.Latency{},
			Fairness:    map[experiments.Protocol]*stats.Dist{},
			Offered:     map[experiments.Protocol]uint64{},
			Dropped:     map[experiments.Protocol]uint64{},
		}
		for _, arm := range workloadArms {
			pt.Aggregate[arm] = &stats.Dist{}
			pt.Latency[arm] = &stats.Latency{}
			pt.Fairness[arm] = &stats.Dist{}
		}
		sw.Points = append(sw.Points, pt)
	}
	perLoad := len(runs) / len(loadLevels)
	for t, rs := range runs {
		pt := &sw.Points[t/perLoad]
		arm := workloadArms[t%len(workloadArms)]
		var mbps []float64
		for _, fr := range rs {
			mbps = append(mbps, fr.Mbps)
			pt.Latency[arm].Merge(fr.Lat)
			pt.Offered[arm] += fr.OfferedPkts
			pt.Dropped[arm] += fr.DroppedPkts
		}
		pt.Aggregate[arm].Add(aggregate(rs))
		pt.Fairness[arm].Add(stats.Jain(mbps))
	}
	return sw
}

// digest accumulates a canonical binary encoding of simulated results.
type digest struct{ b []byte }

func (d *digest) u64(v uint64)  { d.b = binary.LittleEndian.AppendUint64(d.b, v) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.u64(uint64(len(s))); d.b = append(d.b, s...) }
func (d *digest) dist(x *stats.Dist) {
	vs := x.Values()
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.f64(v)
	}
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.b)
	return hex.EncodeToString(h[:8])
}

// flow encodes every field of one FlowResult, latency samples included.
func (d *digest) flow(r experiments.FlowResult) {
	d.u64(uint64(r.Link.Src))
	d.u64(uint64(r.Link.Dst))
	d.f64(r.Mbps)
	for _, v := range []uint64{r.VpktsSent, r.VpktsHeader, r.VpktsHdrOrTrail, r.OfferedPkts, r.AcceptedPkts, r.DroppedPkts, r.DeliveredPkts} {
		d.u64(v)
	}
	if r.Lat != nil {
		d.dist(r.Lat.Dist())
	}
}

// digestFlows digests whole runs' per-flow results.
func digestFlows(runs [][]experiments.FlowResult) string {
	var d digest
	for _, rs := range runs {
		d.u64(uint64(len(rs)))
		for _, r := range rs {
			d.flow(r)
		}
	}
	return d.sum()
}

// digestAggregates digests per-arm aggregate-goodput samples (sorted,
// as stats.Dist keeps them).
func digestAggregates(perArm map[experiments.Protocol][]float64) string {
	var d digest
	for _, arm := range workloadArms {
		d.str(string(arm))
		vs := perArm[arm]
		d.u64(uint64(len(vs)))
		for _, v := range vs {
			d.f64(v)
		}
	}
	return d.sum()
}

// digestSweeps digests everything an offered-load sweep reports.
func digestSweeps(sweeps []*experiments.LoadSweep) string {
	var d digest
	for _, sw := range sweeps {
		d.str(sw.Topology)
		for _, pt := range sw.Points {
			d.f64(pt.PerFlowMbps)
			for _, arm := range workloadArms {
				d.str(string(arm))
				d.dist(pt.Aggregate[arm])
				d.dist(pt.Latency[arm].Dist())
				d.dist(pt.Fairness[arm])
				d.u64(pt.Offered[arm])
				d.u64(pt.Dropped[arm])
			}
		}
	}
	return d.sum()
}
