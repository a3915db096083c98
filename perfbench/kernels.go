package main

import (
	"time"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Kernel sizes: iterations per repetition and repetitions (the kernel
// reports the median repetition).
const (
	kernelIters = 200000
	kernelReps  = 5
)

type noopEvent struct{}

func (noopEvent) HandleEvent(any) {}

// postStepNs times one Post plus one Step on a fresh Scheduler held at
// pending queued events, with a no-op handler: the agenda's own cost
// per event at the workload's mean depth.
func postStepNs(pending int) float64 {
	if pending < 1 {
		pending = 1
	}
	rng := sim.NewRNG(1)
	delays := make([]sim.Time, kernelIters)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(int(sim.Millisecond)))
	}
	var reps []float64
	for r := 0; r < kernelReps; r++ {
		s := sim.NewScheduler()
		for i := 0; i < pending; i++ {
			s.Post(delays[i%len(delays)], noopEvent{}, nil)
		}
		t0 := time.Now()
		for _, d := range delays {
			s.Post(s.Now()+d, noopEvent{}, nil)
			s.Step()
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/kernelIters)
	}
	return median(reps)
}

type nullChannel struct{}

func (nullChannel) Transmit(*phy.Radio, frame.Frame, phy.Rate) sim.Time { return 0 }

type nullHandler struct{}

func (nullHandler) OnFrame(frame.Frame, phy.RxInfo) {}
func (nullHandler) OnCorrupt(phy.RxInfo)            {}
func (nullHandler) OnTxDone(frame.Frame)            {}
func (nullHandler) OnCarrier(bool)                  {}

// signalNs times a SignalStart+SignalEnd pair on a standalone radio
// already hearing active signals: the PHY's per-receiver bookkeeping
// (active-set insert and remove, interference sum, carrier update).
// Every signal arrives below sensitivity, so no lock or decode draw is
// involved.
func signalNs(active int) float64 {
	weak := radio.DBmToMW(-100)
	rate := phy.RateByID(phy.Rate6Mbps)
	var reps []float64
	for r := 0; r < kernelReps; r++ {
		rd := phy.NewRadio(0, phy.DefaultParams(), sim.NewScheduler(), sim.NewRNG(1), nullChannel{})
		rd.SetHandler(nullHandler{})
		id := uint64(0)
		for i := 0; i < active; i++ {
			id++
			rd.SignalStart(&phy.Transmission{TxID: id, From: i + 1, Rate: rate}, weak)
		}
		probe := &phy.Transmission{From: active + 1, Rate: rate}
		t0 := time.Now()
		for i := 0; i < kernelIters; i++ {
			id++
			probe.TxID = id
			rd.SignalStart(probe, weak)
			rd.SignalEnd(probe)
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/kernelIters)
	}
	return median(reps)
}
