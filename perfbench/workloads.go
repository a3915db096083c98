package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Seeds. The default seed's simulated results are pinned by digest
// (pinnedDigests); the holdout seed is never tuned against and every
// performance change reports it beside the default.
const (
	defaultSeed uint64 = 1
	holdoutSeed uint64 = 7
)

// Workload shapes. Every figure-code constant copied here
// (stalenessPairSalt, loadPairSalt, sweepPayloadBytes and the seed
// multipliers in trialSeed) must match internal/experiments; the traced
// run's bit-identity check fails if one drifts.
const (
	// layoutSeed fixes node placement and shadowing: the 50-node testbed
	// and the 1000-node disk are the same for every workload seed, which
	// then drives pair selection and all protocol randomness. Random
	// layouts would make per-unit cost a property of the seed.
	layoutSeed   = 1
	testbedNodes = 50
	scaleNodes   = 1000
	// scaleWindow is one static-scale unit: both arms advanced this far.
	scaleWindow = 100 * sim.Millisecond
	// scaleWindowsPerRound windows make one static-scale round.
	scaleWindowsPerRound = 10
	// scaleEpochRounds rounds (10 simulated s per arm) make one epoch;
	// each epoch starts from freshly built simulations. The cmap arm's
	// cost per simulated second grows with simulated time (about 4x by
	// 60 s on this disk at a constant event rate), so an unbounded
	// persistent run would charge a faster program for the later, dearer
	// windows it reaches.
	scaleEpochRounds = 10
	// scaleHorizon bounds the persistent simulations' measurement
	// window; no run gets near it.
	scaleHorizon = 10000 * sim.Second

	// trialDuration and trialWarmup are every trial's simulated length
	// and the start of its measurement window: half the Quick figures',
	// so a round holds more pairs. A unit's median and tail then range
	// over more distinct trials, and a seed's choice of pairs moves
	// them less.
	trialDuration = 6 * sim.Second
	trialWarmup   = 3 * sim.Second

	stalenessSpeed    = 20.0 // m/s, the sweep's fastest point
	stalenessPairs    = 8
	stalenessPairSalt = 0x57a1e

	loadPairs         = 8
	loadPairSalt      = 0xf10ad
	sweepPayloadBytes = 1400
)

var (
	workloadArms   = []experiments.Protocol{experiments.CMAP, experiments.CSMAOn}
	loadLevels     = []float64{1, 4} // Mb/s per flow: below and past the knee
	loadTopologies = []string{"exposed", "hidden"}
)

// workload is one named input set.
type workload struct {
	name string
	// setup builds the workload's inputs from the seed: testbed
	// generation, the measurement pass and pair/flow selection.
	setup func(seed uint64) (instance, error)
}

// instance is a set-up workload. A round is a fixed number of units,
// and round r of a seed does the same simulated work on every run.
type instance interface {
	// round runs round r through the program's public entry points,
	// marking each unit's end on clock, and returns a digest of the
	// simulated results plus the number of units that broke a per-flow
	// invariant.
	round(r int, clock *unitClock) (digest string, bad int, err error)
	// traceRound runs round r through the traced wiring and returns the
	// digest of its results, which must equal round's.
	traceRound(r int, tr *tracer) (digest string, bad int, err error)
	unitsPerRound() int
	simSecondsPerUnit() float64
	// testbedTime is how long set-up spent generating the testbed and
	// running its measurement pass.
	testbedTime() time.Duration
}

var workloads = []workload{
	{name: "static-scale", setup: setupScale},
	{name: "mobile-staleness", setup: setupStaleness},
	{name: "poisson-load", setup: setupLoad},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// trialOptions is the serial figure configuration both trial workloads
// share: Quick scale with shorter trials, one worker (0 would mean every
// CPU), the serial engine, and the two arms.
func trialOptions(seed uint64) experiments.Options {
	opt := experiments.Quick(seed)
	opt.Duration, opt.Warmup = trialDuration, trialWarmup
	opt.Workers = 1
	opt.Shards = 1
	opt.Arms = workloadArms
	return opt
}

// trialSeed is the figure code's per-trial seed rule.
func trialSeed(base uint64, pair int, arm experiments.Protocol, point int) uint64 {
	return base + uint64(pair)*7919 + mac.MustLookup(string(arm)).SeedSalt()*104729 + uint64(point)*15485863
}

// unitClock times units. start begins one; stop ends it and begins the
// next, so callbacks at the end of each unit can time a batch.
//
// On every workload a unit is one piece of work under both arms: cmap
// frames cost several times what csma frames do, and one arm per unit
// would make unit times bimodal, with the median at the gap.
type unitClock struct {
	last  time.Time
	units []time.Duration
}

func (c *unitClock) start() { c.last = time.Now() }

// stopEvery returns a figure Progress callback that ends a unit after
// each block of trials, one trial per arm.
func (c *unitClock) stopEvery() func(done, total int) {
	return func(done, _ int) {
		if done%len(workloadArms) == 0 {
			c.stop()
		}
	}
}

func (c *unitClock) stop() {
	now := time.Now()
	c.units = append(c.units, now.Sub(c.last))
	c.last = now
}

// ---------------------------------------------------------------------
// static-scale: two FlowSims on a 1000-node disk, rebuilt every epoch.

type scaleInstance struct {
	tb     *topo.Testbed
	flows  []topo.Link
	seed   uint64
	sims   []*experiments.FlowSim
	tbTime time.Duration // disk generation + measurement pass
	traced []*tracedSim  // the traced epoch's simulations
}

func setupScale(seed uint64) (instance, error) {
	t0 := time.Now()
	s := topo.UniformDisk(scaleNodes, experiments.ScaleDensity, layoutSeed)
	tb := s.Testbed()
	in := &scaleInstance{tb: tb, seed: seed, tbTime: time.Since(t0)}
	// The flow picker reads a built medium's delivery lists.
	in.flows = experiments.ScaleFlows(s, s.Build(sim.NewScheduler(), sim.NewRNG(layoutSeed)), scaleNodes/10)
	if len(in.flows) == 0 {
		return nil, fmt.Errorf("no flows on the %d-node disk", scaleNodes)
	}
	if err := in.build(); err != nil {
		return nil, err
	}
	return in, nil
}

// build starts an epoch: fresh simulations of both arms.
func (in *scaleInstance) build() error {
	in.sims = in.sims[:0]
	for _, arm := range workloadArms {
		fs, err := experiments.NewFlowSim(in.tb, in.config(arm))
		if err != nil {
			return err
		}
		in.sims = append(in.sims, fs)
	}
	return nil
}

// scaleUntil returns the simulated time at the end of window w of round r,
// counted from the start of r's epoch.
func scaleUntil(r, w int) sim.Time {
	return sim.Time((r%scaleEpochRounds)*scaleWindowsPerRound+w+1) * scaleWindow
}

func (in *scaleInstance) config(arm experiments.Protocol) experiments.FlowSimConfig {
	return experiments.FlowSimConfig{
		Arm:      arm,
		Flows:    in.flows,
		Duration: scaleHorizon,
		Rate:     phy.Rate6Mbps,
		Seed:     trialSeed(in.seed, 0, arm, 0),
	}
}

func (in *scaleInstance) unitsPerRound() int { return scaleWindowsPerRound }

func (in *scaleInstance) simSecondsPerUnit() float64 {
	return scaleWindow.Seconds() * float64(len(workloadArms))
}

// goodputScale converts a FlowResult's Mbps (taken over the horizon) to
// goodput over the first until of simulated time.
func goodputScale(until sim.Time) float64 { return float64(scaleHorizon) / float64(until) }

func (in *scaleInstance) round(r int, clock *unitClock) (string, int, error) {
	if r > 0 && r%scaleEpochRounds == 0 {
		if err := in.build(); err != nil {
			return "", 0, err
		}
	}
	bad := 0
	for w := 0; w < scaleWindowsPerRound; w++ {
		until := scaleUntil(r, w)
		clock.start()
		for _, fs := range in.sims {
			fs.Run(until)
		}
		clock.stop()
		for _, fs := range in.sims {
			if checkFlows(fs.Results(), goodputScale(until)) != nil {
				bad++
				break
			}
		}
	}
	var all [][]experiments.FlowResult
	for _, fs := range in.sims {
		all = append(all, fs.Results())
	}
	return digestFlows(all), bad, nil
}

func (in *scaleInstance) testbedTime() time.Duration { return in.tbTime }

// buildTraced starts a traced epoch: the traced twins of both arms.
func (in *scaleInstance) buildTraced(tr *tracer) error {
	for _, ts := range in.traced {
		tr.retire(ts)
	}
	in.traced = in.traced[:0]
	for _, arm := range workloadArms {
		if err := tr.timeNewFlowSim(in.tb, in.config(arm)); err != nil {
			return err
		}
		ts, err := buildTraced(in.tb, in.config(arm), tr)
		if err != nil {
			return err
		}
		in.traced = append(in.traced, ts)
	}
	return nil
}

func (in *scaleInstance) traceRound(r int, tr *tracer) (string, int, error) {
	if r%scaleEpochRounds == 0 {
		if err := in.buildTraced(tr); err != nil {
			return "", 0, err
		}
	}
	bad := 0
	var all [][]experiments.FlowResult
	for w := 0; w < scaleWindowsPerRound; w++ {
		tr.units++
		for _, ts := range in.traced {
			ts.runTo(scaleUntil(r, w))
		}
	}
	until := scaleUntil(r, scaleWindowsPerRound-1)
	for _, ts := range in.traced {
		rs := ts.results()
		if checkFlows(rs, goodputScale(until)) != nil {
			bad = 1
		}
		all = append(all, rs)
	}
	tr.simSeconds += float64(in.unitsPerRound()) * in.simSecondsPerUnit()
	return digestFlows(all), bad, nil
}

// ---------------------------------------------------------------------
// Trial workloads: rounds through the figure functions, traced trial by
// trial.
//
// Each round runs the figure at its own seed (roundSeed), which draws
// new pairs and protocol randomness. A run's units are then distinct
// trials, so its unit median and tail range over many pairs rather
// than over the few that one seed draws. Round 0 runs the workload seed
// itself, whose results are pinned.

// roundSeed is the figure seed of round r of a run at seed.
func roundSeed(seed uint64, r int) uint64 { return seed + uint64(r)*0x9e3779b97f4a7c15 }

type stalenessInstance struct {
	tb     *topo.Testbed
	tbTime time.Duration
	opt    experiments.Options // Seed is the workload seed
}

func setupStaleness(seed uint64) (instance, error) {
	t0 := time.Now()
	tb := topo.NewTestbed(testbedNodes, layoutSeed)
	tbTime := time.Since(t0)
	opt := trialOptions(seed)
	opt.Pairs = stalenessPairs
	in := &stalenessInstance{tb: tb, tbTime: tbTime, opt: opt}
	if _, err := in.trials(seed); err != nil {
		return nil, err
	}
	return in, nil
}

// trials returns the sweep's trial configurations at figure seed seed,
// in its trial order.
func (in *stalenessInstance) trials(seed uint64) ([]experiments.FlowSimConfig, error) {
	pairs := in.tb.ExposedPairs(sim.NewRNG(seed^stalenessPairSalt), in.opt.Pairs)
	if len(pairs) != in.opt.Pairs {
		return nil, fmt.Errorf("testbed has %d exposed pairs, want %d", len(pairs), in.opt.Pairs)
	}
	var out []experiments.FlowSimConfig
	for i, p := range pairs {
		for _, arm := range workloadArms {
			out = append(out, experiments.FlowSimConfig{
				Arm:      arm,
				Flows:    []topo.Link{p.A, p.B},
				Duration: in.opt.Duration,
				Warmup:   in.opt.Warmup,
				Rate:     in.opt.Rate,
				Mobility: experiments.StalenessSpec(stalenessSpeed),
				Seed:     trialSeed(seed, i, arm, 0),
			})
		}
	}
	return out, nil
}

func (in *stalenessInstance) unitsPerRound() int { return in.opt.Pairs }

func (in *stalenessInstance) simSecondsPerUnit() float64 {
	return in.opt.Duration.Seconds() * float64(len(workloadArms))
}

func (in *stalenessInstance) testbedTime() time.Duration { return in.tbTime }

func (in *stalenessInstance) round(r int, clock *unitClock) (string, int, error) {
	opt := in.opt
	opt.Seed = roundSeed(in.opt.Seed, r)
	opt.Progress = clock.stopEvery()
	clock.start()
	res := experiments.StalenessSweep(in.tb, opt, []float64{stalenessSpeed})
	if len(res.Points) != 1 {
		return "", 0, fmt.Errorf("staleness sweep returned %d points, want 1", len(res.Points))
	}
	trials := 0
	perArm := map[experiments.Protocol][]float64{}
	for _, arm := range workloadArms {
		d := res.Points[0].Dists[arm]
		if d == nil || d.N() != in.opt.Pairs {
			return "", 0, fmt.Errorf("arm %s: missing trials", arm)
		}
		perArm[arm] = d.Values()
		for _, v := range perArm[arm] {
			if checkAggregate(v, 2) != nil {
				trials++
			}
		}
	}
	return digestAggregates(perArm), min(trials, in.unitsPerRound()), nil
}

func (in *stalenessInstance) traceRound(r int, tr *tracer) (string, int, error) {
	cfgs, err := in.trials(roundSeed(in.opt.Seed, r))
	if err != nil {
		return "", 0, err
	}
	perArm := map[experiments.Protocol][]float64{}
	badUnits := map[int]bool{}
	for t, cfg := range cfgs {
		rs, err := runTracedTrial(in.tb, cfg, tr)
		if err != nil {
			return "", 0, err
		}
		if checkFlows(rs, 1) != nil {
			badUnits[t/len(workloadArms)] = true
		}
		perArm[cfg.Arm] = append(perArm[cfg.Arm], aggregate(rs))
	}
	for _, vs := range perArm {
		sort.Float64s(vs)
	}
	tr.units += in.unitsPerRound()
	return digestAggregates(perArm), len(badUnits), nil
}

// loadInstance runs OfferedLoad on exposed and hidden pairs.
type loadInstance struct {
	tb     *topo.Testbed
	tbTime time.Duration
	opt    experiments.Options // Seed is the workload seed
}

func setupLoad(seed uint64) (instance, error) {
	t0 := time.Now()
	tb := topo.NewTestbed(testbedNodes, layoutSeed)
	tbTime := time.Since(t0)
	opt := trialOptions(seed)
	opt.Pairs = loadPairs
	opt.Traffic = traffic.Spec{Kind: traffic.Poisson}
	in := &loadInstance{tb: tb, tbTime: tbTime, opt: opt}
	if _, err := in.trials(seed); err != nil {
		return nil, err
	}
	return in, nil
}

// trials returns OfferedLoad's trial configurations at figure seed
// seed, per topology, in its key order.
func (in *loadInstance) trials(seed uint64) (map[string][]experiments.FlowSimConfig, error) {
	out := map[string][]experiments.FlowSimConfig{}
	for _, topology := range loadTopologies {
		// OfferedLoad draws each topology's pairs from a fresh stream.
		rng := sim.NewRNG(seed ^ loadPairSalt)
		var pairs []topo.LinkPair
		if topology == "hidden" {
			pairs = in.tb.HiddenPairs(rng, in.opt.Pairs)
		} else {
			pairs = in.tb.ExposedPairs(rng, in.opt.Pairs)
		}
		if len(pairs) != in.opt.Pairs {
			return nil, fmt.Errorf("testbed has %d %s pairs, want %d", len(pairs), topology, in.opt.Pairs)
		}
		for li, load := range loadLevels {
			for pi, p := range pairs {
				for _, arm := range workloadArms {
					out[topology] = append(out[topology], experiments.FlowSimConfig{
						Arm:      arm,
						Flows:    []topo.Link{p.A, p.B},
						Duration: in.opt.Duration,
						Warmup:   in.opt.Warmup,
						Rate:     in.opt.Rate,
						Traffic:  in.opt.Traffic.WithOfferedMbps(load, sweepPayloadBytes),
						Seed:     trialSeed(seed, pi, arm, li),
					})
				}
			}
		}
	}
	return out, nil
}

func (in *loadInstance) unitsPerRound() int {
	return len(loadTopologies) * len(loadLevels) * in.opt.Pairs
}

func (in *loadInstance) simSecondsPerUnit() float64 {
	return in.opt.Duration.Seconds() * float64(len(workloadArms))
}

func (in *loadInstance) testbedTime() time.Duration { return in.tbTime }

func (in *loadInstance) round(r int, clock *unitClock) (string, int, error) {
	opt := in.opt
	opt.Seed = roundSeed(in.opt.Seed, r)
	opt.Progress = clock.stopEvery()
	var sweeps []*experiments.LoadSweep
	bad := 0
	for _, topology := range loadTopologies {
		clock.start()
		sw := experiments.OfferedLoad(in.tb, topology, loadLevels, opt)
		if sw.Topology != topology || len(sw.Points) != len(loadLevels) {
			return "", 0, fmt.Errorf("offered-load sweep on %s pairs returned the wrong shape", topology)
		}
		bad += checkLoadSweep(sw, in.opt.Pairs)
		sweeps = append(sweeps, sw)
	}
	return digestSweeps(sweeps), bad, nil
}

func (in *loadInstance) traceRound(r int, tr *tracer) (string, int, error) {
	cfgs, err := in.trials(roundSeed(in.opt.Seed, r))
	if err != nil {
		return "", 0, err
	}
	var sweeps []*experiments.LoadSweep
	bad := 0
	for _, topology := range loadTopologies {
		var runs [][]experiments.FlowResult
		badUnits := map[int]bool{}
		for t, cfg := range cfgs[topology] {
			rs, err := runTracedTrial(in.tb, cfg, tr)
			if err != nil {
				return "", 0, err
			}
			if checkFlows(rs, 1) != nil {
				badUnits[t/len(workloadArms)] = true
			}
			runs = append(runs, rs)
		}
		bad += len(badUnits)
		sweeps = append(sweeps, foldLoadSweep(topology, runs))
	}
	tr.units += in.unitsPerRound()
	return digestSweeps(sweeps), bad, nil
}
