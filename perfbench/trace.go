package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/csma"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// seam names one wrapped interface boundary.
type seam int

const (
	seamUpcall  seam = iota // phy.Handler: radio → MAC upcalls
	seamMove                // mobility.Mover: Medium.MoveNode, self time
	seamGain                // radio.Model: Loss evaluations during Run
	seamEnqueue             // traffic.Enqueuer: source → MAC queue
	nSeams
)

var seamNames = [nSeams]string{"mac.upcall", "medium.move", "medium.gain", "traffic.enqueue"}

// span is one open wrapped call; child accumulates the wall time of the
// wrapped calls nested inside it, so self time = duration - child.
type span struct {
	start time.Time
	child time.Duration
}

// tracer collects spans and counts from the wrappers. Spans are
// recorded only while a traced Run is in progress (on), so medium
// construction's model evaluations are not charged to medium.gain.
type tracer struct {
	on    bool
	stack []span
	self  [nSeams]time.Duration
	calls [nSeams]uint64

	moveAllocB uint64
	allocs     []metrics.Sample

	runTime    time.Duration // wall time inside traced Scheduler.Run
	units      int
	simSeconds float64
	pendingSum float64
	activeSum  float64
	samples    int
	buildTime  time.Duration // time in experiments.NewFlowSim
	builds     int

	live []*tracedSim
	c    counters
}

// counters sums the layers' own statistics over retired simulations.
type counters struct {
	events                            uint64
	radio                             phy.RadioStats
	dataTx, delivered                 uint64
	defers, retxTimeouts, ackTimeouts uint64
	offered, dropped                  uint64
	epochs                            uint64
}

func newTracer() *tracer {
	return &tracer{allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) enter() {
	if t.on {
		t.stack = append(t.stack, span{start: time.Now()})
	}
}

func (t *tracer) exit(s seam) {
	if !t.on {
		return
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(top.start)
	t.self[s] += d - top.child
	t.calls[s]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// ---------------------------------------------------------------------
// Wrappers. Each forwards to the real layer and records a span.

// tracedModel counts and times radio.Model.Loss. It must forward
// radio.RangeBounder: the medium (construction and MoveNode) and
// mobility.Channel type-assert it, and without it the medium silently
// falls back to dense O(n²) construction.
type tracedModel struct {
	inner radio.Model
	tr    *tracer
}

func (m *tracedModel) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	m.tr.enter()
	l := m.inner.Loss(a, pa, b, pb)
	m.tr.exit(seamGain)
	return l
}

// MaxRange forwards the inner bound; an unbounded inner model reports
// +Inf, which the medium treats exactly like a missing bound.
func (m *tracedModel) MaxRange(maxLossDB float64) float64 {
	if rb, ok := m.inner.(radio.RangeBounder); ok {
		return rb.MaxRange(maxLossDB)
	}
	return math.Inf(1)
}

// tracedMover times Medium.MoveNode for the mobility manager and
// charges the heap bytes it allocates.
type tracedMover struct {
	*medium.Medium
	tr *tracer
}

func (m tracedMover) MoveNode(i int, p geo.Point) {
	a0 := m.tr.allocBytes()
	m.tr.enter()
	m.Medium.MoveNode(i, p)
	m.tr.exit(seamMove)
	m.tr.moveAllocB += m.tr.allocBytes() - a0
}

// tracedHandler times every radio → MAC upcall.
type tracedHandler struct {
	inner phy.Handler
	tr    *tracer
}

func (h tracedHandler) OnFrame(f frame.Frame, info phy.RxInfo) {
	h.tr.enter()
	h.inner.OnFrame(f, info)
	h.tr.exit(seamUpcall)
}

func (h tracedHandler) OnCorrupt(info phy.RxInfo) {
	h.tr.enter()
	h.inner.OnCorrupt(info)
	h.tr.exit(seamUpcall)
}

func (h tracedHandler) OnTxDone(f frame.Frame) {
	h.tr.enter()
	h.inner.OnTxDone(f)
	h.tr.exit(seamUpcall)
}

func (h tracedHandler) OnCarrier(busy bool) {
	h.tr.enter()
	h.inner.OnCarrier(busy)
	h.tr.exit(seamUpcall)
}

// tracedEnqueuer times a traffic source's Enqueue calls into the MAC.
type tracedEnqueuer struct {
	inner traffic.Enqueuer
	tr    *tracer
}

func (q tracedEnqueuer) Enqueue(dst, count int) {
	q.tr.enter()
	q.inner.Enqueue(dst, count)
	q.tr.exit(seamEnqueue)
}

func (q tracedEnqueuer) Backlog(dst int) int { return q.inner.Backlog(dst) }

// ---------------------------------------------------------------------
// The traced wiring.

// tracedSim is one flow experiment rebuilt from the layers' public
// constructors with the wrappers installed. Its construction replicates
// experiments.NewFlowSim for the serial engine and the experiment
// (non-Trial) stream labels step for step — same stream derivations,
// same node creation order, same event posts — so its results are
// bit-identical to NewFlowSim's for the same configuration.
type tracedSim struct {
	cfg       experiments.FlowSimConfig
	tr        *tracer
	sched     *sim.Scheduler
	m         *medium.Medium
	mg        *mobility.Manager
	senders   []mac.Node
	receivers []mac.Node
	nodes     []mac.Node // distinct stations, construction order
	meters    []*stats.Meter
	lats      []*stats.Latency
	sources   []*traffic.Source
}

func buildTraced(tb *topo.Testbed, cfg experiments.FlowSimConfig, tr *tracer) (*tracedSim, error) {
	if cfg.Shards > 1 || cfg.Trial {
		return nil, fmt.Errorf("traced wiring covers the serial engine with experiment stream labels only")
	}
	arm, err := mac.Lookup(string(cfg.Arm))
	if err != nil {
		return nil, err
	}
	ts := &tracedSim{cfg: cfg, tr: tr, sched: sim.NewScheduler()}
	rng := sim.NewRNG(cfg.Seed)
	model := tb.Model
	var ch *mobility.Channel
	if cfg.Mobility.Active() && cfg.Mobility.DecorrM > 0 {
		ch = mobility.NewChannel(tb.Model, tb.N)
		model = ch
	}
	// The counting model wraps the outermost model the medium sees: the
	// channel re-seeds its inner LogDistance by type, so it cannot sit
	// inside the channel.
	ts.m = tb.BuildWith(ts.sched, rng.Stream(1), &tracedModel{inner: model, tr: tr})
	if !ts.m.GridBacked() && !tb.DenseMedium {
		// Every workload's model is range-bounded, so its medium is
		// grid-backed. Dense and grid construction give identical
		// results: only this check sees a wrapper hiding the bound.
		return nil, fmt.Errorf("traced medium fell back to dense construction")
	}
	if cfg.Mobility.Active() {
		ts.mg = mobility.New(cfg.Mobility, tb.Bounds, tracedMover{Medium: ts.m, tr: tr}, rng.Stream(mobility.StreamLabel), ch)
		ts.mg.Start()
	}
	byID := map[int]mac.Node{}
	station := func(id int) (mac.Node, error) {
		if nd, ok := byID[id]; ok {
			return nd, nil
		}
		nd := arm.New(id, ts.m, rng.Stream(uint64(1000+id)), mac.Options{Rate: cfg.Rate})
		h, ok := nd.(phy.Handler)
		if !ok {
			return nil, fmt.Errorf("arm %s node %T is not a phy.Handler", cfg.Arm, nd)
		}
		ts.m.Radio(id).SetHandler(tracedHandler{inner: h, tr: tr})
		byID[id] = nd
		ts.nodes = append(ts.nodes, nd)
		return nd, nil
	}
	saturated := cfg.Traffic.Kind == traffic.Saturated
	window := stats.Window{Start: cfg.Warmup, End: cfg.Duration}
	for i, f := range cfg.Flows {
		tx, err := station(f.Src)
		if err != nil {
			return nil, err
		}
		rx, err := station(f.Dst)
		if err != nil {
			return nil, err
		}
		ts.senders = append(ts.senders, tx)
		ts.receivers = append(ts.receivers, rx)
		meter := &stats.Meter{Start: cfg.Warmup, End: cfg.Duration}
		ts.meters = append(ts.meters, meter)
		rx.SetMeter(meter)
		if saturated {
			tx.SetSaturated(f.Dst)
			continue
		}
		lat := &stats.Latency{W: window}
		ts.lats = append(ts.lats, lat)
		src := traffic.NewSource(ts.sched, rng.Stream(uint64(5000+i)), cfg.Traffic, tracedEnqueuer{inner: tx, tr: tr}, f.Dst)
		src.EnableLatency(tx.LatencyWindow())
		ts.sources = append(ts.sources, src)
		wantSrc := f.Src
		rx.SetOnDeliver(func(from int, seq uint32, now sim.Time) {
			if from != wantSrc {
				return
			}
			if at, ok := src.ArrivalTime(seq); ok {
				lat.Record(now, now-at)
			}
		})
		src.Start()
	}
	tr.live = append(tr.live, ts)
	return ts, nil
}

// runTo advances the simulation with spans on, then samples the agenda
// depth and the mean number of signals on the air per radio.
func (ts *tracedSim) runTo(until sim.Time) {
	tr := ts.tr
	tr.on = true
	t0 := time.Now()
	ts.sched.Run(until)
	tr.runTime += time.Since(t0)
	tr.on = false
	tr.pendingSum += float64(ts.sched.Pending())
	active := 0
	for i := 0; i < ts.m.NodeCount(); i++ {
		active += ts.m.Radio(i).ActiveSignals()
	}
	tr.activeSum += float64(active) / float64(ts.m.NodeCount())
	tr.samples++
}

// results extracts per-flow outcomes exactly as FlowSim.Results does.
func (ts *tracedSim) results() []experiments.FlowResult {
	out := make([]experiments.FlowResult, len(ts.cfg.Flows))
	for i, f := range ts.cfg.Flows {
		out[i] = experiments.FlowResult{Link: f, Mbps: ts.meters[i].Mbps()}
		if ts.sources != nil {
			st := ts.sources[i].Stats()
			out[i].OfferedPkts = st.Offered
			out[i].AcceptedPkts = st.Accepted
			out[i].DroppedPkts = st.Dropped
			out[i].DeliveredPkts = ts.meters[i].Packets()
			out[i].Lat = ts.lats[i]
		}
		if sv, ok := ts.senders[i].(mac.Visibility); ok {
			_, hdr, hot := ts.receivers[i].(mac.Visibility).FlowCounters(f.Src)
			out[i].VpktsSent = sv.VpktsSent()
			out[i].VpktsHeader = hdr
			out[i].VpktsHdrOrTrail = hot
		}
	}
	return out
}

// retire folds a finished simulation's layer counters into the tracer.
func (t *tracer) retire(ts *tracedSim) {
	c := &t.c
	c.events += ts.sched.Fired()
	for i := 0; i < ts.m.NodeCount(); i++ {
		st := ts.m.Radio(i).Stats()
		c.radio.Decoded += st.Decoded
		c.radio.Corrupted += st.Corrupted
		c.radio.Missed += st.Missed
		c.radio.Captures += st.Captures
		c.radio.Transmitted += st.Transmitted
	}
	for _, nd := range ts.nodes {
		switch n := nd.(type) {
		case *core.Node:
			st := n.Stats()
			c.dataTx += st.DataSent
			c.delivered += st.Delivered
			c.defers += st.Defers
			c.retxTimeouts += st.RetxTimeouts
		case *csma.Node:
			st := n.Stats()
			c.dataTx += st.Sent
			c.delivered += st.Delivered
			c.ackTimeouts += st.AckTimeout
		}
	}
	for _, src := range ts.sources {
		st := src.Stats()
		c.offered += st.Offered
		c.dropped += st.Dropped
	}
	if ts.mg != nil {
		c.epochs += ts.mg.Epochs
	}
	for i, l := range t.live {
		if l == ts {
			t.live = append(t.live[:i], t.live[i+1:]...)
			break
		}
	}
}

// timeNewFlowSim times the real experiments.NewFlowSim construction of
// cfg for experiments.build_ms; the traced wiring builds its own twin.
func (t *tracer) timeNewFlowSim(tb *topo.Testbed, cfg experiments.FlowSimConfig) error {
	t0 := time.Now()
	if _, err := experiments.NewFlowSim(tb, cfg); err != nil {
		return err
	}
	t.buildTime += time.Since(t0)
	t.builds++
	return nil
}

// runTracedTrial runs one figure trial through the traced wiring in
// scaleWindow steps.
func runTracedTrial(tb *topo.Testbed, cfg experiments.FlowSimConfig, tr *tracer) ([]experiments.FlowResult, error) {
	if err := tr.timeNewFlowSim(tb, cfg); err != nil {
		return nil, err
	}
	ts, err := buildTraced(tb, cfg, tr)
	if err != nil {
		return nil, err
	}
	for until := scaleWindow; until < cfg.Duration; until += scaleWindow {
		ts.runTo(until)
	}
	ts.runTo(cfg.Duration)
	rs := ts.results()
	tr.retire(ts)
	tr.simSeconds += cfg.Duration.Seconds()
	return rs, nil
}
