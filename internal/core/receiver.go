package core

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// flowFor returns (creating if needed) the receive state for sender src.
func (n *Node) flowFor(src frame.Addr, srcID int) *rxFlow {
	f, ok := n.rx[src]
	if !ok {
		f = &rxFlow{srcID: srcID, srcAddr: src, sack: make(map[uint32]struct{})}
		n.rx[src] = f
	}
	return f
}

// expectedFromTxTime recovers the data-packet count of a virtual packet
// from its announced transmission time.
func (n *Node) expectedFromTxTime(txMicros uint32) int {
	dataTime := sim.Time(txMicros)*sim.Microsecond - 2*n.cfg.controlAirtime()
	if dataTime <= 0 {
		return 0
	}
	per := n.cfg.dataAirtime()
	k := int((dataTime + per/2) / per)
	if k < 0 {
		k = 0
	}
	return k
}

// beginVpkt opens reception state for virtual packet vseq from flow f,
// finalising any previous one first.
func (n *Node) beginVpkt(f *rxFlow, vseq uint32, start sim.Time, expected int, rate uint8, bcast bool) *rxVpkt {
	if f.cur != nil && f.cur.vseq != vseq {
		n.finalizeVpkt(f)
	}
	if f.cur == nil {
		if expected <= 0 {
			expected = n.cfg.Nvpkt
		}
		// Reception state lives in the flow's embedded buffer: one inbound
		// virtual packet is tracked per sender at a time.
		got := f.gotBuf
		if cap(got) < expected {
			got = make([]bool, expected)
		} else {
			got = got[:expected]
			for i := range got {
				got[i] = false
			}
		}
		f.gotBuf = got
		f.curBuf = rxVpkt{
			vseq:     vseq,
			start:    start,
			expected: expected,
			got:      got,
			rate:     rate,
			bcast:    bcast,
		}
		f.cur = &f.curBuf
		// Finalise even if the trailer never arrives (lost or sender
		// aborted): a grace period after the expected end. With trailers
		// disabled (ablation) this timer is also the ACK trigger, so it
		// fires promptly.
		end := start + n.cfg.vpktAirtime(expected)
		grace := n.cfg.TackWait
		if n.cfg.DisableTrailers {
			grace = n.cfg.Turnaround
		}
		f.finVseq = vseq
		n.sched.ResetAt(&f.finTimer, end+grace, n, f)
	}
	return f.cur
}

// vpktFinExpired fires when the finalisation grace period of the virtual
// packet that armed f's timer passes without a trailer.
func (n *Node) vpktFinExpired(f *rxFlow) {
	if f.cur == nil || f.cur.vseq != f.finVseq {
		return
	}
	gotAny := false
	for _, g := range f.cur.got {
		if g {
			gotAny = true
			break
		}
	}
	vseq := f.cur.vseq
	wasBcast := f.cur.bcast
	n.finalizeVpkt(f)
	if n.cfg.DisableTrailers && !wasBcast && gotAny {
		n.sendAck(f, vseq, 10)
	}
}

// rxHeader handles a virtual-packet header addressed to us.
func (n *Node) rxHeader(c *frame.Control, info phy.RxInfo) {
	f := n.flowFor(c.Src, info.From)
	v := n.beginVpkt(f, c.Seq, info.Start, n.expectedFromTxTime(c.TxTimeMicros), c.Rate, c.Dst.IsBroadcast())
	v.headerSeen = true
}

// rxData handles a data packet addressed to us (or broadcast).
func (n *Node) rxData(d *frame.Data, info phy.RxInfo) {
	f := n.flowFor(d.Src, info.From)
	start := info.Start - n.cfg.controlAirtime() - sim.Time(d.Index)*n.cfg.dataAirtime()
	v := n.beginVpkt(f, d.VSeq, start, 0, uint8(n.cfg.Rate), d.Dst.IsBroadcast())
	if int(d.Index) < len(v.got) {
		v.got[d.Index] = true
	}

	// Deduplicate and deliver. Broadcast flows never retransmit, so every
	// packet is fresh; unicast flows dedup against the cumulative point
	// and the SACK set.
	if !d.Dst.IsBroadcast() {
		if d.PktSeq < f.cum {
			n.stat.Duplicates++
			return
		}
		if _, dup := f.sack[d.PktSeq]; dup {
			n.stat.Duplicates++
			return
		}
		f.sack[d.PktSeq] = struct{}{}
		for {
			if _, ok := f.sack[f.cum]; !ok {
				break
			}
			delete(f.sack, f.cum)
			f.cum++
		}
	}
	n.stat.Delivered++
	if n.Meter != nil {
		n.Meter.Record(n.sched.Now(), int(d.PayloadLen))
	}
	if n.OnDeliver != nil {
		n.OnDeliver(info.From, d.PktSeq, n.sched.Now())
	}
}

// rxTrailer handles a trailer addressed to us: it closes the virtual
// packet and triggers the cumulative ACK (§3.3, §4.1).
func (n *Node) rxTrailer(c *frame.Control, info phy.RxInfo) {
	f := n.flowFor(c.Src, info.From)
	start := info.End - sim.Time(c.TxTimeMicros)*sim.Microsecond
	v := n.beginVpkt(f, c.Seq, start, n.expectedFromTxTime(c.TxTimeMicros), c.Rate, c.Dst.IsBroadcast())
	v.trailerSeen = true
	n.finalizeVpkt(f)
	if !c.Dst.IsBroadcast() {
		n.sendAck(f, c.Seq, 10)
	}
}

// finalizeVpkt closes the current inbound virtual packet of f: computes
// its loss, attributes lost packets to overlapping transmissions for the
// interferer list (§3.1), and updates the visibility counters.
func (n *Node) finalizeVpkt(f *rxFlow) {
	v := f.cur
	if v == nil {
		return
	}
	f.cur = nil
	f.finTimer.Stop()
	received := 0
	for _, g := range v.got {
		if g {
			received++
		}
	}
	lost := v.expected - received
	f.pendExpected += v.expected
	f.pendLost += lost
	f.VpktsSeen++
	if v.headerSeen {
		f.VpktsHeader++
	}
	if v.headerSeen || v.trailerSeen {
		f.VpktsHdrOrTrl++
	}

	// Per-packet attribution: a lost (or received) packet slot is
	// evidence about every transmission that overlapped its airtime.
	// Every slot's midpoint is after v.start, so an entry that ended
	// before it cannot match; pruning to min(now − retention, v.start)
	// keeps the scan to live entries without dropping one the sender's
	// own prune (horizon now − retention) would still keep.
	now := n.sched.Now()
	horizon := now - n.obs.retention()
	if v.start < horizon {
		horizon = v.start
	}
	n.obs.pruneBefore(horizon)
	hdr := n.cfg.controlAirtime()
	per := n.cfg.dataAirtime()
	for i := 0; i < v.expected; i++ {
		t := v.start + hdr + sim.Time(i)*per + per/2
		hit := i < len(v.got) && v.got[i]
		n.obs.overlapping(t, f.srcAddr, func(e *obsEntry) {
			if e.Src == n.addr {
				return
			}
			k := pairKey{Source: f.srcAddr, Interferer: e.Src, Rate: e.Rate}
			st, ok := n.interfStats[k]
			if !ok {
				st = &interfStat{lastDecay: now}
				n.interfStats[k] = st
			}
			st.decay(now, n.cfg.StatsHalfLife)
			st.Expected++
			if !hit {
				st.Lost++
			}
		})
	}
	// Promote pairs over the loss threshold immediately so senders learn
	// at the next broadcast.
	for k, st := range n.interfStats {
		if k.Source != f.srcAddr {
			continue
		}
		if st.Expected >= float64(n.cfg.MinInterfSamples) && st.lossRate() > n.cfg.LossInterf {
			n.interferers[k] = now + n.cfg.InterfTimeout
		}
	}
	if n.finalized != nil {
		n.finalized(v.start)
	}
}

// ackAttempt is one pending cumulative-ACK transmission: the frame plus
// its remaining retry budget. Attempts recycle through the node's free
// list once the frame has left the air (or the budget runs out), so the
// per-virtual-packet ACK path allocates nothing in steady state.
type ackAttempt struct {
	ack  frame.Ack
	left int
}

// getAckAttempt pops a recycled attempt (refilled at OnTxDone), with the
// bitmap truncated for reuse — BitmapSet appends explicit zero bytes, so
// stale contents can never leak through.
func (n *Node) getAckAttempt() *ackAttempt {
	if k := len(n.ackFree); k > 0 {
		a := n.ackFree[k-1]
		n.ackFree = n.ackFree[:k-1]
		a.ack = frame.Ack{Bitmap: a.ack.Bitmap[:0]}
		return a
	}
	return &ackAttempt{}
}

// sendAck emits the cumulative windowed ACK for flow f after the software
// turnaround, retrying briefly if the radio is mid-transmission.
func (n *Node) sendAck(f *rxFlow, vseq uint32, budget int) {
	loss := 0.0
	if f.pendExpected > 0 {
		loss = float64(f.pendLost) / float64(f.pendExpected)
	}
	f.pendExpected, f.pendLost = 0, 0
	aa := n.getAckAttempt()
	aa.left = budget
	aa.ack.Src = n.addr
	aa.ack.Dst = f.srcAddr
	aa.ack.CumSeq = f.cum
	aa.ack.VSeq = vseq
	aa.ack.LossRate = loss
	limit := uint32(2 * n.cfg.windowPackets())
	for s := range f.sack {
		if s >= f.cum && s-f.cum < limit {
			aa.ack.BitmapSet(int(s - f.cum))
		}
	}
	n.sched.PostAfter(n.turnaroundDelay(), n, aa)
}

// runAckAttempt transmits a pending ACK as soon as the radio is free,
// giving up (and recycling the attempt) after the retry budget.
func (n *Node) runAckAttempt(aa *ackAttempt) {
	if aa.left <= 0 {
		n.ackFree = append(n.ackFree, aa)
		return
	}
	if n.radio.Transmitting() {
		aa.left--
		n.sched.PostAfter(200*sim.Microsecond, n, aa)
		return
	}
	n.stat.AcksSent++
	n.inflightAck = aa
	n.radio.Transmit(&aa.ack, phy.RateByID(n.cfg.ControlRate))
}

// turnaroundDelay draws the software-MAC-to-PHY latency with the
// prototype's empirical distribution (§4.1): for Turnaround = 1 ms, 90%
// of operations take 0.5–2 ms and the rest 2–5 ms. The jitter is load
// bearing — it is what lets a deferring sender occasionally win the
// channel from the current holder, as on the real testbed.
func (n *Node) turnaroundDelay() sim.Time {
	t := n.cfg.Turnaround
	if t <= 0 {
		return 0
	}
	if n.rng.Float64() < 0.9 {
		return n.rng.DurationIn(t/2, 2*t)
	}
	return n.rng.DurationIn(2*t, 5*t)
}
