package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestMain lets the test binary serve as the calibration child, which
// measureWorkload starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(calibEnv) != "" {
		os.Exit(serveCalibration())
	}
	os.Exit(m.Run())
}

// lossOnly hides every method but Loss: the wrapper a careless tracer
// would write.
type lossOnly struct{ inner radio.Model }

func (m lossOnly) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	return m.inner.Loss(a, pa, b, pb)
}

// The counting model must forward radio.RangeBounder, or the medium
// falls back to dense construction. Dense and sparse results are
// bit-identical, so only GridBacked can tell.
func TestTracedModelKeepsMediumGridBacked(t *testing.T) {
	tb := topo.UniformDisk(300, experiments.ScaleDensity, defaultSeed).Testbed()
	build := func(m radio.Model) bool {
		return tb.BuildWith(sim.NewScheduler(), sim.NewRNG(1), m).GridBacked()
	}
	tr := newTracer()
	if !build(&tracedModel{inner: tb.Model, tr: tr}) {
		t.Error("static: traced model lost the grid")
	}
	if !build(&tracedModel{inner: mobility.NewChannel(tb.Model, tb.N), tr: tr}) {
		t.Error("mobile channel: traced model lost the grid")
	}
	if build(lossOnly{inner: tb.Model}) {
		t.Error("control: a wrapper without MaxRange still built a grid, so this test cannot see the fallback")
	}
}

// shortCase is one short run of a workload's configuration.
type shortCase struct {
	tb  *topo.Testbed
	cfg experiments.FlowSimConfig
}

// shortConfigs returns short instances of every workload's
// configurations for seed.
func shortConfigs(t *testing.T, seed uint64) map[string][]shortCase {
	out := map[string][]shortCase{}
	s := topo.UniformDisk(200, experiments.ScaleDensity, seed)
	disk := s.Testbed()
	flows := experiments.ScaleFlows(s, s.Build(sim.NewScheduler(), sim.NewRNG(seed)), 20)
	for _, arm := range workloadArms {
		out["static-scale"] = append(out["static-scale"], shortCase{disk, experiments.FlowSimConfig{
			Arm: arm, Flows: flows, Duration: 300 * sim.Millisecond, Rate: phy.Rate6Mbps,
			Seed: trialSeed(seed, 0, arm, 0),
		}})
	}
	shorten := func(cfg experiments.FlowSimConfig) experiments.FlowSimConfig {
		cfg.Duration, cfg.Warmup = 2*sim.Second, 500*sim.Millisecond
		return cfg
	}
	st, err := setupStaleness(seed)
	if err != nil {
		t.Fatal(err)
	}
	si := st.(*stalenessInstance)
	sTrials, err := si.trials(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sTrials[:2] {
		out["mobile-staleness"] = append(out["mobile-staleness"], shortCase{si.tb, shorten(cfg)})
	}
	ld, err := setupLoad(seed)
	if err != nil {
		t.Fatal(err)
	}
	li := ld.(*loadInstance)
	lTrials, err := li.trials(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, topology := range loadTopologies {
		trials := lTrials[topology]
		// One trial per arm at the lower load, one past the knee.
		for _, cfg := range []experiments.FlowSimConfig{trials[0], trials[1], trials[len(trials)-2], trials[len(trials)-1]} {
			out["poisson-load"] = append(out["poisson-load"], shortCase{li.tb, shorten(cfg)})
		}
	}
	return out
}

// On a short instance of every workload, on both documented seeds, the
// traced wiring reproduces experiments.NewFlowSim bit for bit, keeps
// the medium grid-backed, and both satisfy the per-flow invariants.
func TestTracedWiringEqualsNewFlowSim(t *testing.T) {
	for _, seed := range []uint64{defaultSeed, holdoutSeed} {
		for name, cases := range shortConfigs(t, seed) {
			for i, c := range cases {
				fs, err := experiments.NewFlowSim(c.tb, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				fs.Run(c.cfg.Duration)
				want := fs.Results()

				tr := newTracer()
				ts, err := buildTraced(c.tb, c.cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !ts.m.GridBacked() {
					t.Errorf("%s seed %d case %d: traced medium is not grid-backed", name, seed, i)
				}
				for until := scaleWindow; until < c.cfg.Duration; until += scaleWindow {
					ts.runTo(until)
				}
				ts.runTo(c.cfg.Duration)
				got := ts.results()

				if !sameFlows(got, want) {
					t.Errorf("%s seed %d case %d (%s): traced results differ from NewFlowSim\n got %+v\nwant %+v", name, seed, i, c.cfg.Arm, got, want)
				}
				if err := checkFlows(want, 1); err != nil {
					t.Errorf("%s seed %d case %d: %v", name, seed, i, err)
				}
				if name == "mobile-staleness" && tr.calls[seamMove] == 0 {
					t.Errorf("%s seed %d case %d: no MoveNode reached the traced mover", name, seed, i)
				}
			}
		}
	}
}

func sameFlows(a, b []experiments.FlowResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if (x.Lat == nil) != (y.Lat == nil) {
			return false
		}
		if x.Lat != nil && !reflect.DeepEqual(x.Lat.Dist().Values(), y.Lat.Dist().Values()) {
			return false
		}
		x.Lat, y.Lat = nil, nil
		if x != y {
			return false
		}
	}
	return true
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, p := tailOf(xs); v != 90 || p != 90 {
		t.Errorf("100 samples: got %g at p%g, want 90 at p90", v, p)
	}
	if v, p := tailOf([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Errorf("3 samples: got %g at p%g, want the maximum", v, p)
	}
}

func TestCompareRefusesOtherHostShapes(t *testing.T) {
	a := newStamp("poisson-load", 1, false)
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("identical stamps refused: %v", err)
	}
	b.Commit = "other"
	if err := comparable(a, b); err != nil {
		t.Errorf("different commits must be comparable: %v", err)
	}
	for _, mutate := range []func(*stamp){
		func(s *stamp) { s.Host.GOMAXPROCS++ },
		func(s *stamp) { s.Host.NumCPU++ },
		func(s *stamp) { s.Host.CPUModel += "x" },
		func(s *stamp) { s.Host.GoVersion += "x" },
		func(s *stamp) { s.Seed++ },
	} {
		c := a
		mutate(&c)
		if comparable(a, c) == nil {
			t.Errorf("accepted %+v against %+v", c, a)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// One end-to-end and one traced run of the cheapest workload on the
// default seed: both are correct (the pinned digest included) and emit
// exactly the metrics, with the units, that BENCHMARK.json and
// layers.json name.
func TestRunsEmitTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole round of poisson-load twice")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	notes, err := layerNotes()
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != len(spec.PerLayer) {
		t.Errorf("layers.json has %d metrics, BENCHMARK.json %d", len(notes), len(spec.PerLayer))
	}
	for i := range notes {
		if i < len(spec.PerLayer) && (notes[i].Metric != spec.PerLayer[i].Name || notes[i].Unit != spec.PerLayer[i].Unit) {
			t.Errorf("per-layer metric %d: layers.json %s (%s), BENCHMARK.json %s (%s)", i, notes[i].Metric, notes[i].Unit, spec.PerLayer[i].Name, spec.PerLayer[i].Unit)
		}
	}
	w, _ := lookupWorkload("poisson-load")
	for _, mode := range []struct {
		run  func(workload, uint64, time.Duration) (result, string, error)
		want []struct{ Name, Unit string }
	}{{measureWorkload, spec.EndToEnd}, {traceWorkload, spec.PerLayer}} {
		res, report, err := mode.run(w, defaultSeed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("run not correct: %+v\n%s", res, report)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range mode.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("emitted metrics %v, declared %v", got, want)
		}
	}
}
