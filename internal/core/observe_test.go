package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

// TestObservationTableBounded runs two concurrent flows for 30 simulated
// seconds. R1 receives S1 and overhears S2; B receives S2 and overhears
// S1 as a bystander. Neither receiver ever runs the sender's prune, so
// only the receive-path prune keeps their tables short. After every
// finalisation no entry may end before min(now − retention, v.start),
// and the table a receiver holds after finalising may never be larger
// than the largest it held in the first 5 s.
func TestObservationTableBounded(t *testing.T) {
	m, sched, rng := buildMedium([][]float64{
		// S1(0) R1(1) S2(2) B(3)
		{0, 68, 75, 85},
		{68, 0, 85, 100},
		{75, 85, 0, 68},
		{85, 100, 68, 0},
	}, 5)
	cfg := DefaultConfig()
	s1 := New(0, cfg, m, rng.Stream(10))
	r1 := New(1, cfg, m, rng.Stream(11))
	s2 := New(2, cfg, m, rng.Stream(12))
	b := New(3, cfg, m, rng.Stream(13))
	s1.SetSaturated(1)
	s2.SetSaturated(3)

	const early, late = 5 * sim.Second, 30 * sim.Second
	receivers := []*Node{r1, b}
	finals := make([]int, len(receivers))
	peakEarly := make([]int, len(receivers))
	peak := make([]int, len(receivers))
	for i, n := range receivers {
		n.finalized = func(start sim.Time) {
			finals[i]++
			now := n.sched.Now()
			horizon := min(now-n.obs.retention(), start)
			for _, e := range n.obs.entries {
				if e.EstEnd < horizon {
					t.Fatalf("node %d at %v: entry %v/%d ends at %v, before the horizon %v",
						n.id, now, e.Src, e.VSeq, e.EstEnd, horizon)
				}
			}
			if now <= early {
				peakEarly[i] = max(peakEarly[i], n.obs.size())
			}
			peak[i] = max(peak[i], n.obs.size())
		}
	}
	sched.Run(late)

	for i, n := range receivers {
		if finals[i] < 100 {
			t.Fatalf("node %d finalised only %d virtual packets", n.id, finals[i])
		}
		if peakEarly[i] < 2 {
			t.Errorf("node %d held at most %d entries in the first %v; the flows must overhear each other",
				n.id, peakEarly[i], early)
		}
		if peak[i] > peakEarly[i] {
			t.Errorf("node %d: table peaked at %d entries by %v, above its peak %d by %v",
				n.id, peak[i], late, peakEarly[i], early)
		}
	}
}

// attributionNode builds an idle node with one inbound virtual packet
// from addr(1) open: four data slots starting at start, slot 0 lost and
// the rest received. The clock is advanced to now first.
func attributionNode(t *testing.T, now, start sim.Time) (*Node, *rxFlow) {
	t.Helper()
	m, sched, rng := buildMedium([][]float64{{0, offAir}, {offAir, 0}}, 1)
	n := New(0, DefaultConfig(), m, rng.Stream(10))
	sched.Run(now)
	f := n.flowFor(addr(1), 1)
	f.gotBuf = []bool{false, true, true, true}
	f.curBuf = rxVpkt{vseq: 9, start: start, expected: 4, got: f.gotBuf}
	f.cur = &f.curBuf
	return n, f
}

// TestAttributionKeepsEntryEndingAfterVpktStart finalises a virtual
// packet long after it started, so now − retention lies past the
// packet's start. An overheard transmission that ended just after slot
// 0's midpoint must still be charged with that slot; one that ended
// before the packet started is pruned.
func TestAttributionKeepsEntryEndingAfterVpktStart(t *testing.T) {
	start := 100 * sim.Millisecond
	now := start + 3*newObservations(DefaultConfig()).retention()
	n, f := attributionNode(t, now, start)

	mid0 := start + n.cfg.controlAirtime() + n.cfg.dataAirtime()/2
	n.obs.upsert(addr(5), 1, addr(6), 0, start-sim.Millisecond, mid0+1, 0)
	n.obs.upsert(addr(7), 1, addr(8), 0, start-2*sim.Millisecond, start-1, 0)
	if mid0+1 >= now-n.obs.retention() {
		t.Fatalf("set-up: the kept entry must end before now − retention")
	}
	n.finalizeVpkt(f)

	st := n.interfStats[pairKey{Source: addr(1), Interferer: addr(5)}]
	if st == nil || st.Expected != 1 || st.Lost != 1 {
		t.Fatalf("entry ending just after slot 0's midpoint: stat %+v, want 1 lost of 1", st)
	}
	if _, ok := n.interfStats[pairKey{Source: addr(1), Interferer: addr(7)}]; ok {
		t.Error("entry ending before the packet started was attributed")
	}
	if n.obs.find(addr(7), 1) != nil {
		t.Error("entry ending before the packet started survived the receive-path prune")
	}
	if n.obs.find(addr(5), 1) == nil {
		t.Error("entry ending after the packet started was pruned")
	}
}

// orderFixture is an observation table whose entries overlap the open
// virtual packet in several ways: repeated (source, rate) pairs under
// different virtual-packet numbers, the excluded source, ourselves,
// entries not yet visible, and entries already over.
func orderFixture(start sim.Time) []obsEntry {
	ms := sim.Millisecond
	return []obsEntry{
		{Src: addr(5), Dst: addr(6), Rate: 0, VSeq: 1, EstStart: start - 5*ms, EstEnd: start + 40*ms},
		{Src: addr(5), Dst: addr(6), Rate: 0, VSeq: 2, EstStart: start + 3*ms, EstEnd: start + 90*ms, VisibleAt: start + 4*ms},
		{Src: addr(5), Dst: addr(2), Rate: 2, VSeq: 3, EstStart: start, EstEnd: start + 6*ms},
		{Src: addr(7), Dst: addr(8), Rate: 0, VSeq: 1, EstStart: start + 2*ms, EstEnd: start + 5*ms, VisibleAt: start + 2*ms},
		{Src: addr(7), Dst: addr(0), Rate: 0, VSeq: 2, EstStart: start + ms, EstEnd: start + 70*ms},
		{Src: addr(1), Dst: addr(0), Rate: 0, VSeq: 9, EstStart: start, EstEnd: start + 8*ms},
		{Src: addr(0), Dst: addr(1), Rate: 0, VSeq: 4, EstStart: start, EstEnd: start + 8*ms},
		{Src: addr(8), Dst: addr(7), Rate: 0, VSeq: 1, EstStart: start - 9*ms, EstEnd: start + 7*ms, VisibleAt: start + 100*ms},
	}
}

// statBits is interfStats with every float as its IEEE-754 bit pattern.
func statBits(n *Node) map[pairKey][3]uint64 {
	out := map[pairKey][3]uint64{}
	for k, s := range n.interfStats {
		out[k] = [3]uint64{math.Float64bits(s.Expected), math.Float64bits(s.Lost), uint64(s.lastDecay)}
	}
	return out
}

// TestObservationOrderIndependent pins what makes the slice table
// bit-identical to the map it replaced: the attribution and
// ongoing-list callbacks commute, so any entry order gives bitwise-equal
// interference statistics, interferer promotions and defer decisions.
func TestObservationOrderIndependent(t *testing.T) {
	start := 2 * sim.Second
	now := start + 30*sim.Millisecond
	base := orderFixture(start)
	hl := DefaultConfig().StatsHalfLife

	type outcome struct {
		stats  map[pairKey][3]uint64
		interf map[pairKey]sim.Time
		ends   [3]sim.Time
		found  [3]bool
	}
	run := func(entries []obsEntry) outcome {
		n, f := attributionNode(t, now, start)
		// Prior evidence with non-integral counters and an overdue decay,
		// so the per-pair arithmetic order would show in the low bits.
		n.interfStats[pairKey{Source: addr(1), Interferer: addr(5)}] =
			&interfStat{Expected: 7.3, Lost: 5.1, lastDecay: now - 3*hl - 1}
		n.interfStats[pairKey{Source: addr(1), Interferer: addr(7)}] =
			&interfStat{Expected: 0.7, Lost: 0.3, lastDecay: now - hl/3}
		n.deferTab.add(deferKey{OurDst: anyAddr, Src: addr(7), TheirDst: addr(8)}, now+sim.Second)
		n.deferTab.add(deferKey{OurDst: addr(3), Src: addr(5), TheirDst: anyAddr}, now+sim.Second)
		n.obs.entries = append(n.obs.entries[:0], entries...)

		var o outcome
		flows := []*txFlow{
			{dst: addr(3)},
			{dst: addr(6)},
			{bcast: true, bcastTargets: []frame.Addr{addr(2), addr(4)}},
		}
		for i, tf := range flows {
			o.ends[i], o.found[i] = n.deferConflictEnd(start+5*sim.Millisecond, tf)
		}
		n.finalizeVpkt(f)
		o.stats = statBits(n)
		o.interf = n.interferers
		return o
	}

	want := run(base)
	if len(want.stats) < 3 {
		t.Fatalf("fixture attributed only %d pairs", len(want.stats))
	}
	if !want.found[0] || !want.found[1] || !want.found[2] {
		t.Fatalf("fixture must defer every flow: %v", want.found)
	}
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 200; p++ {
		perm := make([]obsEntry, len(base))
		for i, j := range rng.Perm(len(base)) {
			perm[i] = base[j]
		}
		if got := run(perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %d changed the outcome:\n got %+v\nwant %+v", p, got, want)
		}
	}
}

// FuzzObservations replays a random op stream — upserts of header,
// trailer and data estimates, markEnded, prunes, overlapping and
// ongoing queries, with the clock advancing — against a flat reference
// model: a list of records merged by (source, vseq) with the documented
// min/max rules. Query answers are compared as multisets, since the
// table's order is not part of its contract.
func FuzzObservations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 1, 1, 2, 3, 9, 3, 2, 4, 7, 5, 1, 2})
	f.Add([]byte{0, 0, 0, 10, 20, 1, 0, 0, 0, 5, 30, 2, 0, 0, 15, 3, 40, 4, 12, 5, 9})
	f.Add([]byte{0, 3, 1, 200, 100, 0, 3, 1, 2, 250, 6, 255, 4, 8, 3, 250, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		cfg.Nvpkt = 2
		o := newObservations(cfg)
		var ref []obsEntry
		now := sim.Time(0)
		const unit = 100 * sim.Microsecond

		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		refFind := func(src frame.Addr, vseq uint32) int {
			for j := range ref {
				if ref[j].Src == src && ref[j].VSeq == vseq {
					return j
				}
			}
			return -1
		}
		key := func(e obsEntry) [5]int64 {
			return [5]int64{int64(e.Src[5]), int64(e.VSeq), int64(e.EstStart), int64(e.EstEnd), int64(e.VisibleAt)}
		}
		sorted := func(es []obsEntry) [][5]int64 {
			out := make([][5]int64, len(es))
			for j, e := range es {
				out[j] = key(e)
			}
			sort.Slice(out, func(a, b int) bool {
				for c := range out[a] {
					if out[a][c] != out[b][c] {
						return out[a][c] < out[b][c]
					}
				}
				return false
			})
			return out
		}
		check := func(op string, got, want []obsEntry) {
			if g, w := sorted(got), sorted(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s at %v: got %v, want %v", op, now, g, w)
			}
		}

		for i < len(data) {
			switch op := next(); op % 7 {
			case 0: // upsert
				src, vseq := addr(int(next()%4)), uint32(next()%3)
				start := now - sim.Time(next()%64)*unit
				end := start + sim.Time(next()%64)*unit
				visible := now + sim.Time(next()%8)*unit
				o.upsert(src, vseq, addr(9), 0, start, end, visible)
				if j := refFind(src, vseq); j < 0 {
					ref = append(ref, obsEntry{Src: src, Dst: addr(9), VSeq: vseq,
						EstStart: start, EstEnd: end, VisibleAt: visible})
				} else {
					ref[j].EstStart = min(ref[j].EstStart, start)
					ref[j].EstEnd = max(ref[j].EstEnd, end)
					ref[j].VisibleAt = min(ref[j].VisibleAt, visible)
				}
			case 1: // markEnded
				src, vseq := addr(int(next()%4)), uint32(next()%3)
				end := now - sim.Time(next()%32)*unit
				o.markEnded(src, vseq, end)
				if j := refFind(src, vseq); j >= 0 && end < ref[j].EstEnd {
					ref[j].EstEnd = end
				}
			case 2: // advance the clock
				now += sim.Time(next()) * unit
			case 3: // sender-side prune
				o.prune(now)
				kept := ref[:0]
				for _, e := range ref {
					if e.EstEnd >= now-o.retention() {
						kept = append(kept, e)
					}
				}
				ref = kept
			case 4: // receive-path prune to an arbitrary horizon
				h := now - sim.Time(next()%128)*unit
				o.pruneBefore(h)
				kept := ref[:0]
				for _, e := range ref {
					if e.EstEnd >= h {
						kept = append(kept, e)
					}
				}
				ref = kept
			case 5: // overlapping
				q := now - sim.Time(next()%64)*unit
				excl := addr(int(next() % 4))
				var got, want []obsEntry
				o.overlapping(q, excl, func(e *obsEntry) { got = append(got, *e) })
				for _, e := range ref {
					if e.Src != excl && e.EstStart <= q && q < e.EstEnd {
						want = append(want, e)
					}
				}
				check("overlapping", got, want)
			case 6: // ongoing
				var got, want []obsEntry
				o.ongoing(now, func(e *obsEntry) { got = append(got, *e) })
				for _, e := range ref {
					if e.EstEnd > now && e.VisibleAt <= now {
						want = append(want, e)
					}
				}
				check("ongoing", got, want)
			}
			if o.size() != len(ref) {
				t.Fatalf("size %d, reference %d", o.size(), len(ref))
			}
		}
		check("final table", o.entries, ref)
	})
}
