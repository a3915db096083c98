package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"
)

// layersJSON maps each per-layer metric to the end-to-end metric and
// workload it should move, with the prediction the traced run tests.
//
//go:embed layers.json
var layersJSON []byte

type layerNote struct {
	Metric string   `json:"metric"`
	Unit   string   `json:"unit"`
	Moves  []string `json:"moves"`
}

func layerNotes() ([]layerNote, error) {
	var notes []layerNote
	if err := json.Unmarshal(layersJSON, &notes); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return notes, nil
}

// traceWorkload is the per-layer run: each round runs once through the
// public entry points (untraced) and once through the traced wiring,
// and the two digests must agree. The untraced rounds also give the
// Go runtime's allocation and GC figures and the tracing overhead.
func traceWorkload(w workload, seed uint64, dur time.Duration) (result, string, error) {
	notes, err := layerNotes()
	if err != nil {
		return result{}, "", err
	}
	in, err := w.setup(seed)
	if err != nil {
		return result{}, "", fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	var b strings.Builder
	var untraced, traced time.Duration
	var rt runtimeSnap
	failed, attempted, rounds, mismatched := 0, 0, 0, 0
	deadline := time.Now().Add(dur)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		rounds++
		attempted += in.unitsPerRound()
		s0, t0 := readRuntime(), time.Now()
		want, bad, err := safeRound(func() (string, int, error) { return in.round(r, &unitClock{}) })
		untraced += time.Since(t0)
		rt = rt.add(readRuntime().sub(s0))
		if err != nil {
			fmt.Fprintf(&b, "round %d (untraced) failed: %v\n", r, err)
			failed += in.unitsPerRound()
			break
		}
		t1 := time.Now()
		got, tbad, err := safeRound(func() (string, int, error) { return in.traceRound(r, tr) })
		traced += time.Since(t1)
		if err != nil {
			fmt.Fprintf(&b, "round %d (traced) failed: %v\n", r, err)
			failed += in.unitsPerRound()
			break
		}
		failed += bad + tbad
		if got != want {
			fmt.Fprintf(&b, "round %d: traced digest %s != untraced %s\n", r, got, want)
			failed += in.unitsPerRound()
			mismatched++
		}
		if r == 0 && seed == defaultSeed && want != pinnedDigests[w.name] {
			fmt.Fprintf(&b, "round 0: digest %s != pinned %s\n", want, pinnedDigests[w.name])
			failed += in.unitsPerRound()
		}
	}
	for len(tr.live) > 0 {
		tr.retire(tr.live[0])
	}

	c := tr.c
	runNs := float64(tr.runTime.Nanoseconds())
	var wrapped time.Duration
	for _, d := range tr.self {
		wrapped += d
	}
	residual := tr.runTime - wrapped
	pending := ratio(tr.pendingSum, float64(tr.samples))
	active := ratio(tr.activeSum, float64(tr.samples))
	ns := func(s seam) float64 { return float64(tr.self[s].Nanoseconds()) }
	m := map[string]metric{
		"sim.events":                 {float64(c.events), "count"},
		"sim.events_per_sim_s":       {ratio(float64(c.events), tr.simSeconds), "1/sim_s"},
		"sim.pending_mean":           {pending, "count"},
		"sim.ns_per_event":           {ratio(runNs, float64(c.events)), "ns"},
		"sim.post_step_ns":           {postStepNs(int(math.Round(pending))), "ns"},
		"sim.residual_ns":            {float64(residual.Nanoseconds()), "ns"},
		"medium.transmissions":       {float64(c.radio.Transmitted), "count"},
		"medium.move_calls":          {float64(tr.calls[seamMove]), "count"},
		"medium.move_ns":             {ns(seamMove), "ns"},
		"medium.move_alloc_b":        {ratio(float64(tr.moveAllocB), float64(tr.calls[seamMove])), "B/call"},
		"medium.gain_evals":          {float64(tr.calls[seamGain]), "count"},
		"medium.gain_ns":             {ns(seamGain), "ns"},
		"medium.gain_evals_per_move": {ratio(float64(tr.calls[seamGain]), float64(tr.calls[seamMove])), "ratio"},
		"phy.decoded":                {float64(c.radio.Decoded), "count"},
		"phy.corrupted":              {float64(c.radio.Corrupted), "count"},
		"phy.missed":                 {float64(c.radio.Missed), "count"},
		"phy.captures":               {float64(c.radio.Captures), "count"},
		"phy.decode_ratio":           {ratio(float64(c.radio.Decoded), float64(c.radio.Decoded+c.radio.Corrupted)), "ratio"},
		"phy.active_mean":            {active, "count"},
		"phy.signal_ns":              {signalNs(int(math.Round(active))), "ns"},
		"mac.upcalls":                {float64(tr.calls[seamUpcall]), "count"},
		"mac.upcall_ns":              {ns(seamUpcall), "ns"},
		"mac.data_tx":                {float64(c.dataTx), "count"},
		"mac.delivered":              {float64(c.delivered), "count"},
		"mac.useful_ratio":           {ratio(float64(c.delivered), float64(c.dataTx)), "ratio"},
		"core.defers":                {float64(c.defers), "count"},
		"core.retx_timeouts":         {float64(c.retxTimeouts), "count"},
		"csma.ack_timeouts":          {float64(c.ackTimeouts), "count"},
		"traffic.offered":            {float64(c.offered), "count"},
		"traffic.dropped":            {float64(c.dropped), "count"},
		"traffic.enqueue_calls":      {float64(tr.calls[seamEnqueue]), "count"},
		"traffic.enqueue_ns":         {ns(seamEnqueue), "ns"},
		"mobility.epochs":            {float64(c.epochs), "count"},
		"experiments.build_ms":       {ratio(float64(tr.buildTime.Nanoseconds())/1e6, float64(tr.builds)), "ms"},
		"topo.testbed_s":             {in.testbedTime().Seconds(), "s"},
		"go.alloc_mb":                {float64(rt.allocB) / (1 << 20), "MiB"},
		"go.gc_cycles":               {float64(rt.gcCycles), "count"},
		"go.gc_cpu_s":                {rt.gcCPU, "s"},
		"trace.overhead_frac":        {ratio(traced.Seconds(), untraced.Seconds()) - 1, "ratio"},
		"share.mac_upcall":           {ratio(ns(seamUpcall), runNs), "ratio"},
		"share.medium_move":          {ratio(ns(seamMove), runNs), "ratio"},
		"share.medium_gain":          {ratio(ns(seamGain), runNs), "ratio"},
		"share.traffic_enqueue":      {ratio(ns(seamEnqueue), runNs), "ratio"},
		"share.residual":             {ratio(float64(residual.Nanoseconds()), runNs), "ratio"},
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}

	fmt.Fprintf(&b, "traced workload %s seed %d: %d rounds, %d traced units, %.1f simulated s; traced %.2f s vs untraced %.2f s\n",
		w.name, seed, rounds, tr.units, tr.simSeconds, traced.Seconds(), untraced.Seconds())
	fmt.Fprintf(&b, "  traced results equal the untraced entry point's bit for bit in %d of %d rounds; fail_frac %.4f (%d of %d units)\n",
		rounds-mismatched, rounds, float64(failed)/float64(attempted), failed, attempted)
	fmt.Fprintf(&b, "\n  %-58s %12s %12s %8s\n", "seam (self time inside traced Scheduler.Run)", "calls", "self ms", "share")
	for s := seam(0); s < nSeams; s++ {
		fmt.Fprintf(&b, "  %-58s %12d %12.1f %7.1f%%\n", seamNames[s], tr.calls[s], ns(s)/1e6, 100*ratio(ns(s), runNs))
	}
	fmt.Fprintf(&b, "  %-58s %12s %12.1f %7.1f%%\n", "residual (agenda + medium fan-out + PHY + MAC timers)", "", float64(residual.Nanoseconds())/1e6, 100*ratio(float64(residual.Nanoseconds()), runNs))
	fmt.Fprintf(&b, "\n  %-28s %16s %-8s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, n := range notes {
		fmt.Fprintf(&b, "  %-28s %16.6g %-8s %s\n", n.Metric, m[n.Metric].Value, m[n.Metric].Unit, strings.Join(n.Moves, "; "))
	}
	fmt.Fprintf(&b, "\n  predictions for %s:\n", w.name)
	for _, p := range predictions(w.name, m) {
		fmt.Fprintf(&b, "    %s\n", p)
	}
	return res, b.String(), nil
}

// predictions evaluates the workload predictions the benchmark was
// designed around against the traced metrics.
func predictions(name string, m map[string]metric) []string {
	verdict := func(ok bool, s string) string {
		if ok {
			return "holds:        " + s
		}
		return "DOES NOT HOLD: " + s
	}
	moveShare := m["share.medium_move"].Value + m["share.medium_gain"].Value
	out := []string{fmt.Sprintf("sim.events_per_sim_s = %.0f (static-scale should be the highest of the three)", m["sim.events_per_sim_s"].Value)}
	switch name {
	case "mobile-staleness":
		out = append(out,
			verdict(moveShare > 0.5, fmt.Sprintf("medium.move_ns + medium.gain_ns is the majority of traced Run time (%.1f%%)", 100*moveShare)),
			verdict(m["traffic.enqueue_calls"].Value == 0, "traffic.enqueue_calls is 0"))
	case "static-scale":
		out = append(out,
			verdict(m["medium.move_calls"].Value == 0, "medium.move_calls is 0"),
			verdict(m["traffic.enqueue_calls"].Value == 0, "traffic.enqueue_calls is 0"))
	case "poisson-load":
		out = append(out,
			verdict(m["medium.move_calls"].Value == 0, "medium.move_calls is 0"),
			verdict(m["traffic.enqueue_calls"].Value > 0, "traffic.enqueue_calls is above 0"))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
