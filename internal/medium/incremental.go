package medium

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/radio"
)

// Incremental delivery-list maintenance for mobile nodes. MoveNode
// records a move — the new position, the grid re-bucket and a dirty
// mark — and leaves the lists alone. flush brings them up to date before
// anything reads them (every reader goes through Medium.list), so a
// mobility epoch that moves every node before the next read is patched
// once, as a batch:
//
//   - each pair with a moved end has its gain computed exactly once —
//     range-bounded models are bitwise reciprocal (radio.RangeBounder),
//     so gain(i, b) is also list b's entry for i;
//   - each affected list is rebuilt exactly once: a moved node's list
//     from its grid candidates, a still node's list by one merge that
//     drops its entries for moved nodes and inserts the ones they found;
//   - every rebuilt list is carved from one freshly allocated backing
//     array per flush.
//
// The lists are a pure function of the current positions and model
// state, so deferring the patch changes no byte: the result equals
// BuildDeliveries over the final positions — same membership predicate,
// same float computation, ascending receiver order, nil when empty.
// TestIncrementalMatchesRebuild, TestReadersMatchOracleMidEpoch and
// FuzzDeliveryPatch pin that against both the sparse and the dense
// oracle.
//
// Old backing arrays are never written, because in-flight transmissions
// hold transmit-time snapshots of the lists they fanned out over (see
// Transmit / finishTransmission): copy-on-write at epoch granularity.

// mover is the lazily-built incremental-update state.
type mover struct {
	// grid tracks current positions when the model bounds its range;
	// nil means the model is unbounded and moves patch eagerly by full
	// scan (moveDensePatch).
	grid     *geo.Grid
	maxRange float64
	// rank[i] is non-zero while node i is dirty; during a flush it is
	// 1 + i's index in the sorted dirty set.
	rank []int

	// Scratch reused across flushes, so a flush allocates only the
	// backing array it carves the rebuilt lists from.
	cand   []int       // one dirty node's grid candidates
	fresh  []Delivery  // every rebuilt list, back to back
	end    []int       // fresh[end[k-1]:end[k]] is the k-th rebuilt list; end[0] = 0
	cursor []int       // per dirty list: offset of its first entry not yet read back
	ins    []insertion // entries dirty nodes add to clean lists
	touch  []int       // clean nodes whose lists change
}

// insertion is one entry a dirty node contributes to clean list j.
type insertion struct {
	j int
	d Delivery
}

func (m *Medium) ensureMover() *mover {
	if m.mv != nil {
		return m.mv
	}
	mv := &mover{maxRange: math.Inf(1)}
	if rb, ok := m.model.(radio.RangeBounder); ok {
		mv.maxRange = rb.MaxRange(m.params.TxPowerDBm - m.params.DeliveryFloorDBm)
	}
	// Same usability test as BuildDeliveries: a non-positive or
	// non-finite bound means every pair must be considered.
	if mv.maxRange > 0 && !math.IsInf(mv.maxRange, 1) && !math.IsNaN(mv.maxRange) {
		// The grid gets its own copy of the positions: Move mutates the
		// stored slice, and m.positions stays authoritative.
		mv.grid = geo.NewGrid(append([]geo.Point(nil), m.positions...), mv.maxRange)
		mv.rank = make([]int, len(m.positions))
	} else {
		mv.maxRange = math.Inf(1)
		mv.grid = nil
	}
	m.mv = mv
	return mv
}

// MoveNode relocates node i to p. The delivery lists read afterwards
// equal what a from-scratch build over the updated positions would
// produce. Zero-length moves are valid (the recompute is idempotent).
// Models whose Loss depends on per-node state that changed without a
// position change (the mobility channel's shadowing epochs) are
// refreshed by the same call: every list entry involving i is
// recomputed from the live model.
//
// On a grid-backed medium the call only records the move; the patch is
// deferred to the next read, which patches every move recorded since
// the previous read in one batch and consults the model as it stands
// then. Per-node model state may therefore change between a move and
// that read only for nodes that are themselves moved before it — the
// mobility manager bumps a node's shadowing epoch immediately before
// moving it, and reads nothing mid-epoch.
func (m *Medium) MoveNode(i int, p geo.Point) {
	mv := m.ensureMover()
	m.positions[i] = p
	if mv.grid == nil {
		m.moveDensePatch(i)
		return
	}
	mv.grid.Move(i, p)
	if mv.rank[i] == 0 {
		mv.rank[i] = 1
		m.dirty = append(m.dirty, i)
	}
}

// list returns node i's up-to-date delivery list. Every reader of the
// lists goes through it.
func (m *Medium) list(i int) []Delivery {
	m.flush()
	return m.deliveries[i]
}

// flush patches the lists for every move recorded since the last
// flush. With nothing dirty it is one inlined length check.
func (m *Medium) flush() {
	if len(m.dirty) > 0 {
		m.flushDirty()
	}
}

// flushDirty rebuilds every list the dirty set can have changed: first
// each dirty node's own list, in ascending node order, then each clean
// list that loses or gains an entry for a dirty node. It writes only
// list headers and one new backing array.
func (m *Medium) flushDirty() {
	mv := m.mv
	dirty := m.dirty
	slices.Sort(dirty)
	for k, i := range dirty {
		mv.rank[i] = k + 1
	}
	fresh, end, cursor, ins, touch := mv.fresh[:0], append(mv.end[:0], 0), mv.cursor[:0], mv.ins[:0], mv.touch[:0]

	// Dirty lists. A pair of two dirty nodes is evaluated by the smaller
	// one; the larger reads the gain back from the smaller's rebuilt
	// list, where reciprocity (and the grid's symmetric candidate test)
	// guarantees it sits exactly when the pair is audible. Readers come
	// in ascending order, so each list's read-back cursor only advances.
	for _, i := range dirty {
		cursor = append(cursor, len(fresh))
		cand := mv.cand[:0]
		mv.grid.Within(i, mv.maxRange, func(b int) { cand = append(cand, b) })
		slices.Sort(cand)
		for _, b := range cand {
			var g float64
			if k := mv.rank[b]; k == 0 || i < b {
				if g = m.gain(i, b); g < m.floorMW {
					continue
				}
			} else {
				c := cursor[k-1]
				for c < end[k] && fresh[c].Dst < i {
					c++
				}
				cursor[k-1] = c
				if c == end[k] || fresh[c].Dst != i {
					continue
				}
				g = fresh[c].GainMW
			}
			fresh = append(fresh, Delivery{Dst: b, GainMW: g})
			if mv.rank[b] == 0 {
				ins = append(ins, insertion{j: b, d: Delivery{Dst: i, GainMW: g}})
				touch = append(touch, b)
			}
		}
		end = append(end, len(fresh))
		mv.cand = cand
		// Clean nodes that heard i before the move lose (or update)
		// their entry for i.
		for _, d := range m.deliveries[i] {
			if mv.rank[d.Dst] == 0 {
				touch = append(touch, d.Dst)
			}
		}
	}

	// Clean lists: one merge each of the old entries for clean
	// destinations with the new entries for dirty ones, both ascending.
	slices.Sort(touch)
	touch = slices.Compact(touch)
	slices.SortFunc(ins, func(x, y insertion) int {
		if c := cmp.Compare(x.j, y.j); c != 0 {
			return c
		}
		return cmp.Compare(x.d.Dst, y.d.Dst)
	})
	ni := 0
	for _, j := range touch {
		old := m.deliveries[j]
		oi := 0
		for {
			for oi < len(old) && mv.rank[old[oi].Dst] != 0 {
				oi++ // drop the stale entry for a dirty node
			}
			haveIns := ni < len(ins) && ins[ni].j == j
			if oi < len(old) && (!haveIns || old[oi].Dst < ins[ni].d.Dst) {
				fresh = append(fresh, old[oi])
				oi++
			} else if haveIns {
				fresh = append(fresh, ins[ni].d)
				ni++
			} else {
				break
			}
		}
		end = append(end, len(fresh))
	}

	// Carve every rebuilt list from one new array, capacity-limited so
	// no list can grow into its neighbour.
	var arena []Delivery
	if len(fresh) > 0 {
		arena = make([]Delivery, len(fresh))
		copy(arena, fresh)
	}
	k := 0
	carve := func(i int) {
		k++
		if lo, hi := end[k-1], end[k]; hi > lo {
			m.deliveries[i] = arena[lo:hi:hi]
		} else {
			m.deliveries[i] = nil
		}
	}
	for _, i := range dirty {
		carve(i)
	}
	for _, j := range touch {
		carve(j)
	}

	for _, i := range dirty {
		mv.rank[i] = 0
	}
	m.dirty = dirty[:0]
	mv.fresh, mv.end, mv.cursor, mv.ins, mv.touch = fresh, end, cursor, ins, touch
}

// moveDensePatch is the unbounded-model fallback: recompute row i (who
// hears i) from scratch and re-evaluate entry i in every other list —
// O(n) per move, mirroring denseDeliveries' per-pair computation. It
// patches eagerly, copy-on-write per list.
func (m *Medium) moveDensePatch(i int) {
	n := len(m.positions)
	var list []Delivery
	for b := 0; b < n; b++ {
		if b == i {
			continue
		}
		if g := m.gain(i, b); g >= m.floorMW {
			list = append(list, Delivery{Dst: b, GainMW: g})
		}
	}
	m.deliveries[i] = list
	for j := 0; j < n; j++ {
		m.patchEntry(j, i)
	}
}

// patchEntry recomputes list j's entry for destination i — insert,
// update, or remove, copy-on-write, preserving ascending order and the
// nil-when-empty convention. The gain is computed in the j→i direction,
// the same direction a full rebuild uses for list j.
func (m *Medium) patchEntry(j, i int) {
	if j == i {
		return
	}
	list := m.deliveries[j]
	k, ok := slices.BinarySearchFunc(list, i, func(d Delivery, dst int) int {
		return cmp.Compare(d.Dst, dst)
	})
	g := m.gain(j, i)
	audible := g >= m.floorMW
	switch {
	case ok && audible:
		if math.Float64bits(list[k].GainMW) == math.Float64bits(g) {
			return // unchanged — keep the shared backing array intact
		}
		nl := append([]Delivery(nil), list...)
		nl[k].GainMW = g
		m.deliveries[j] = nl
	case ok && !audible:
		if len(list) == 1 {
			m.deliveries[j] = nil
			return
		}
		nl := make([]Delivery, 0, len(list)-1)
		nl = append(nl, list[:k]...)
		nl = append(nl, list[k+1:]...)
		m.deliveries[j] = nl
	case !ok && audible:
		nl := make([]Delivery, 0, len(list)+1)
		nl = append(nl, list[:k]...)
		nl = append(nl, Delivery{Dst: i, GainMW: g})
		nl = append(nl, list[k:]...)
		m.deliveries[j] = nl
	}
}

// RebuildDeliveries replaces the delivery lists with a from-scratch
// build over the current positions. It exists for the equivalence tier
// and benchmarks — the oracle the incremental path is measured against.
// Pending moves are flushed first, so the dirty set never outlives the
// lists it describes.
func (m *Medium) RebuildDeliveries() {
	m.flush()
	m.deliveries, m.gridBacked = BuildDeliveries(m.params, m.model, m.positions, 1)
}

// DeliveryList returns node i's live delivery list, with every pending
// move applied. The slice is shared with the medium — callers must not
// mutate it. Equivalence tests use it to compare incremental patches
// against oracle rebuilds.
func (m *Medium) DeliveryList(i int) []Delivery { return m.list(i) }
