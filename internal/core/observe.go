package core

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// obsEntry is the node's knowledge of one transmission it overheard: who
// is sending to whom, at what rate, and the estimated on-air interval.
// Entries are built from any decodable piece of a virtual packet — the
// header announces the whole interval, a trailer back-dates it, and data
// packets locate it from their index (§3.2's ongoing list, generalised
// into a short history used for both the access decision and interferer
// attribution).
type obsEntry struct {
	Src, Dst frame.Addr
	Rate     uint8
	VSeq     uint32
	// EstStart and EstEnd bound the virtual packet on the air.
	EstStart, EstEnd sim.Time
	// VisibleAt is when the software MAC has processed the first frame of
	// this entry (decode time + turnaround); the access decision cannot
	// act on it earlier (§4.1).
	VisibleAt sim.Time
}

// observations is the per-node table of overheard transmissions: a flat
// slice of entries, scanned linearly. The table holds only live state —
// the sender prunes it before every access decision and the receiver
// before every loss attribution — so on a node that sends or receives
// it stays a handful of entries long however long the run, and a scan
// beats a map walk. Pruning filters in
// place and keeps the capacity, so the steady-state observation flow
// (one entry per overheard virtual packet) does not touch the
// allocator. Entries sit in insertion order (sorted order after a
// restore); every reader's callback is commutative, so the order never
// reaches a result.
type observations struct {
	cfg     Config
	entries []obsEntry
}

func newObservations(cfg Config) *observations {
	return &observations{cfg: cfg}
}

// retention is how long a finished transmission stays in the table for
// loss attribution before pruning.
func (o *observations) retention() sim.Time {
	return 2 * o.cfg.vpktAirtime(o.cfg.Nvpkt)
}

// find returns the entry for (src, vseq), or nil.
func (o *observations) find(src frame.Addr, vseq uint32) *obsEntry {
	for i := range o.entries {
		if e := &o.entries[i]; e.VSeq == vseq && e.Src == src {
			return e
		}
	}
	return nil
}

// upsert merges an interval estimate for the virtual packet (src, vseq).
func (o *observations) upsert(src frame.Addr, vseq uint32, dst frame.Addr, rate uint8, start, end, visible sim.Time) {
	e := o.find(src, vseq)
	if e == nil {
		o.entries = append(o.entries, obsEntry{Src: src, Dst: dst, Rate: rate, VSeq: vseq,
			EstStart: start, EstEnd: end, VisibleAt: visible})
		return
	}
	if start < e.EstStart {
		e.EstStart = start
	}
	if end > e.EstEnd {
		e.EstEnd = end
	}
	if visible < e.VisibleAt {
		e.VisibleAt = visible
	}
}

// noteHeader records an overheard virtual-packet header.
func (o *observations) noteHeader(c *frame.Control, info phy.RxInfo, visible sim.Time) {
	end := info.Start + sim.Time(c.TxTimeMicros)*sim.Microsecond
	o.upsert(c.Src, c.Seq, c.Dst, c.Rate, info.Start, end, visible)
}

// noteTrailer records an overheard virtual-packet trailer, back-dating
// the interval by the announced transmission time.
func (o *observations) noteTrailer(c *frame.Control, info phy.RxInfo, visible sim.Time) {
	start := info.End - sim.Time(c.TxTimeMicros)*sim.Microsecond
	o.upsert(c.Src, c.Seq, c.Dst, c.Rate, start, info.End, visible)
}

// noteData records an overheard data packet, locating the whole virtual
// packet from the packet's index.
func (o *observations) noteData(d *frame.Data, info phy.RxInfo, visible sim.Time) {
	start := info.Start - o.cfg.controlAirtime() - sim.Time(d.Index)*o.cfg.dataAirtime()
	end := start + o.cfg.vpktAirtime(o.cfg.Nvpkt)
	o.upsert(d.Src, d.VSeq, d.Dst, uint8(o.cfg.Rate), start, end, visible)
}

// markEnded clamps an entry's end time (a trailer was heard, so the
// transmission is definitely over).
func (o *observations) markEnded(src frame.Addr, vseq uint32, end sim.Time) {
	if e := o.find(src, vseq); e != nil && end < e.EstEnd {
		e.EstEnd = end
	}
}

// ongoing calls fn for every transmission believed to still be on the air
// and visible to the software MAC. fn must not modify the table.
func (o *observations) ongoing(now sim.Time, fn func(*obsEntry)) {
	for i := range o.entries {
		e := &o.entries[i]
		if e.EstEnd > now && e.VisibleAt <= now {
			fn(e)
		}
	}
}

// overlapping calls fn for every known transmission (current or recent)
// from a source other than excl whose interval covers t. fn must not
// modify the table.
func (o *observations) overlapping(t sim.Time, excl frame.Addr, fn func(*obsEntry)) {
	for i := range o.entries {
		e := &o.entries[i]
		if e.Src != excl && e.EstStart <= t && t < e.EstEnd {
			fn(e)
		}
	}
}

// prune drops entries that ended longer than the retention ago.
func (o *observations) prune(now sim.Time) { o.pruneBefore(now - o.retention()) }

// pruneBefore drops entries whose estimated end is before horizon,
// filtering in place.
func (o *observations) pruneBefore(horizon sim.Time) {
	kept := o.entries[:0]
	for _, e := range o.entries {
		if e.EstEnd >= horizon {
			kept = append(kept, e)
		}
	}
	o.entries = kept
}

// size returns the table size (diagnostics).
func (o *observations) size() int { return len(o.entries) }
