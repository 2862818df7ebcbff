package knapsack

import "math"

// This file implements the fast path of Algorithm 1: an incremental
// rewrite of the greedy passes. The reference scan in knapsack.go
// recomputes all N upgrade scores on every pick, i.e. O(N * picks) score
// evaluations per pass. The Solver instead keeps one pending upgrade per
// item in two structures:
//
//   - the first upgrades (level 1 -> 2) of every item, scored once and
//     sorted best first in one O(N) pass (a stable LSD radix sort on the
//     score's bits; insertion sort below sortCutoff entries), consumed
//     from the front by a cursor;
//   - a max-heap holding only the upgrades queued after an accepted
//     upgrade, O(log H) per push and pop for H pending re-queued items.
//
// Each pick takes the better of the sorted slice's front and the heap's
// top, so a full pass is O(N + R log H) for R re-queued upgrades, against
// O((N + R) log N) for one heap of everything: an item's later upgrades
// are queued one at a time, only after the previous one is accepted and
// only while they score at least zero. On 1000-session slots of the
// simulator a pass takes about 900 upgrades from the sorted slice and
// about 800 from a heap that peaks near 650 entries. The heap sifts
// bottom-up (walk the vacancy to a leaf, then place the entry), since a
// popped top is refilled with an entry from the bottom, and an accepted
// upgrade taken from the heap replaces the top with its successor in one
// sift.
//
// The Solver is decision-for-decision identical to the reference scan:
// both rank candidates with upgradeScore and break ties with the rule in
// betterCandidate (equal score -> lower item index), both accept or
// reject an upgrade with the same quality_verification arithmetic in the
// same order, so values and weights accumulate through the identical
// sequence of float64 operations and the returned solutions (and traces)
// are bit-identical. The pop order equals a single heap's because an item
// has at most one pending entry, the sorted entries only ever leave from
// the front (so they leave in sorted order), and entryBefore is a strict
// total order on finite scores. Upgrades scoring below zero enter neither
// structure: the pass ends when both are empty, exactly where a single
// heap would have popped its first negative score ("if eta < 0 then
// I = {}"). The golden corpus and fuzz tests enforce all of this.

// heapEntry is one pending upgrade: the score of raising item from its
// current level to the next. An item has at most one live entry; entries
// are consumed on pop and re-queued only after an accepted upgrade, so no
// structure ever holds a stale score.
type heapEntry struct {
	score float64
	item  int32
}

// entryBefore orders pending upgrades: higher score first, ties to the
// lower item index — the same total order betterCandidate gives the
// reference scan.
func entryBefore(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.item < b.item
}

func heapPush(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	siftUp(h, len(h)-1, e)
	return h
}

// siftUp places e in h by moving it up from the vacant slot i.
func siftUp(h []heapEntry, i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryBefore(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// heapPopTop removes the top of the non-empty heap h.
func heapPopTop(h []heapEntry) []heapEntry {
	last := len(h) - 1
	if last > 0 {
		siftDown(h[:last], h[last])
	}
	return h[:last]
}

// siftDown places e in the heap h whose top slot is vacant (its old entry
// has been consumed). It walks the vacancy down to a leaf along the better
// children, one comparison per level, then sifts e up from there: entries
// placed at the top mostly belong near the bottom, so this costs about
// half the comparisons of a top-down sift.
func siftDown(h []heapEntry, e heapEntry) {
	i := 0
	for c := 1; c+1 < len(h); c = 2*i + 1 {
		// Branch-free choice of the better child: which one wins is a coin
		// flip to the branch predictor.
		c += b2i(entryBefore(h[c+1], h[c]))
		h[i] = h[c]
		i = c
	}
	if c := 2*i + 1; c < len(h) {
		h[i] = h[c]
		i = c
	}
	siftUp(h, i, e)
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// move rather than a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortCutoff is the entry count up to which sortEntries uses insertion
// sort: below it the radix sort's fixed cost (eight 256-bucket histograms)
// outweighs its linear scan.
const sortCutoff = 64

// sortKey maps a non-negative score to an unsigned key with the same
// order: for x >= 0 the IEEE-754 bit pattern is monotone, and clearing
// the sign bit maps -0 to +0, which entryBefore treats as equal.
func sortKey(score float64) uint64 {
	return math.Float64bits(score) &^ (1 << 63)
}

// sortEntries sorts entries best first by entryBefore, given that no
// score is negative and that entries are in increasing item order. Large
// inputs take a stable LSD radix sort on the complemented sortKey, so
// equal scores keep their item order. The sorted entries land in either
// entries' or buf's backing array (buf grows as needed); spare is the
// other one, for the caller to reuse as the next buf.
func sortEntries(entries, buf []heapEntry, counts *[8][256]uint32) (sorted, spare []heapEntry) {
	n := len(entries)
	if n <= sortCutoff {
		for i := 1; i < n; i++ {
			e := entries[i]
			j := i
			for ; j > 0 && entryBefore(e, entries[j-1]); j-- {
				entries[j] = entries[j-1]
			}
			entries[j] = e
		}
		return entries, buf
	}
	*counts = [8][256]uint32{}
	for _, e := range entries {
		k := ^sortKey(e.score)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if cap(buf) < n {
		buf = make([]heapEntry, n)
	}
	src, dst := entries, buf[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * uint(d)
		if c[byte(^sortKey(src[0].score)>>shift)] == uint32(n) {
			continue // every key shares this digit: the pass is the identity
		}
		var sum uint32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, e := range src {
			b := byte(^sortKey(e.score) >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	return src, dst[:0]
}

// Solver runs the greedy passes of Algorithm 1 with reusable scratch
// buffers: once its buffers have grown to the problem size, a solve
// performs zero heap allocations (the steady-state regime of a per-slot
// allocator deciding 60 slots per second).
//
// The Levels slice of a returned Solution aliases solver-owned scratch and
// is only valid until the next call on the same Solver; use
// Solution.Clone to detach it. A Solver is not safe for concurrent use;
// use one per goroutine.
//
// The zero value is ready to use.
type Solver struct {
	first  []heapEntry    // first upgrades, sorted best first
	radix  []heapEntry    // sortEntries' second buffer
	heap   []heapEntry    // upgrades queued after an accepted upgrade
	neg    []heapEntry    // negative-score entries, kept for counterfactual capture
	counts [8][256]uint32 // sortEntries' per-byte radix histograms
	bufD   []int          // density-pass levels (also Combined's density branch)
	bufV   []int          // value-pass levels (also Combined's value branch)
}

// run executes one greedy pass over p, storing levels in *buf (grown as
// needed and written back). It mirrors Problem.referenceGreedy exactly;
// see the file comment for the equivalence argument.
func (s *Solver) run(p *Problem, kind greedyKind, buf *[]int, tr *PassTrace) Solution {
	n := len(p.Items)
	capture := tr != nil && tr.TopK > 0
	if capture {
		tr.Alternatives = tr.Alternatives[:0]
	}
	levels := (*buf)[:0]
	first, neg := s.first[:0], s.neg[:0]
	var value, weight float64
	for i := 0; i < n; i++ {
		it := &p.Items[i]
		levels = append(levels, 1)
		value += it.Values[0]
		weight += it.Weights[0]
		if it.Levels() > 1 {
			e := heapEntry{score: upgradeScore(it, 1, kind), item: int32(i)}
			if e.score < 0 {
				if capture {
					neg = append(neg, e)
				}
			} else {
				first = append(first, e)
			}
		}
	}
	*buf = levels
	first, s.radix = sortEntries(first, s.radix, &s.counts)
	s.first = first

	h := s.heap[:0]
	next := 0
pop:
	for {
		// The best pending upgrade is the front of first or the top of h.
		// A top taken from h stays in place until its successor is known,
		// so an accepted upgrade that re-queues replaces it in one sift.
		var e heapEntry
		fromHeap := false
		switch {
		case next < len(first) && (len(h) == 0 || entryBefore(first[next], h[0])):
			e = first[next]
			next++
		case len(h) > 0:
			e, fromHeap = h[0], true
		default:
			break pop
		}
		i := int(e.item)
		it := &p.Items[i]
		old := levels[i]

		// Tentatively upgrade, then run quality_verification.
		dv := it.Values[old] - it.Values[old-1]
		dw := it.Weights[old] - it.Weights[old-1]
		levels[i] = old + 1
		value += dv
		weight += dw

		requeue := false
		var f heapEntry
		capViolated := it.Weights[old] > it.Cap
		if capViolated || weight > p.Budget {
			// Revert the upgrade and retire the item (no re-queue).
			if tr != nil {
				reason := RejectBudget
				if capViolated {
					reason = RejectItemCap
				}
				tr.Rejections = append(tr.Rejections,
					Rejection{Item: i, Level: old + 1, Reason: reason})
				if capture {
					tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, Alternative{
						Item:   i,
						Level:  old + 1,
						Score:  e.score,
						Gain:   dv,
						Reason: reason,
					})
				}
			}
			levels[i] = old
			value -= dv
			weight -= dw
		} else {
			if tr != nil {
				tr.Upgrades++
			}
			if old+1 < it.Levels() {
				f = heapEntry{score: upgradeScore(it, old+1, kind), item: e.item}
				if f.score < 0 {
					if capture {
						neg = append(neg, f)
					}
				} else {
					requeue = true
				}
			}
		}
		switch {
		case fromHeap && requeue:
			siftDown(h, f)
		case fromHeap:
			h = heapPopTop(h)
		case requeue:
			h = heapPush(h, f)
		}
	}
	// "if eta < 0 then I = {}": every upgrade still pending is
	// unprofitable. With capture on, neg holds them all: the upgrades the
	// pass walked away from. insertTopK keeps the best TopK under the
	// strict total order altBefore, so the order they arrive in is moot.
	for _, f := range neg {
		i := int(f.item)
		old := levels[i]
		it := &p.Items[i]
		tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, Alternative{
			Item:   i,
			Level:  old + 1,
			Score:  f.score,
			Gain:   it.Values[old] - it.Values[old-1],
			Reason: RejectUnprofitable,
		})
	}
	s.heap, s.neg = h, neg
	return Solution{Levels: levels, Value: value, Weight: weight}
}

// DensityGreedy runs the density-greedy pass on solver scratch.
func (s *Solver) DensityGreedy(p *Problem) Solution { return s.run(p, byDensity, &s.bufD, nil) }

// DensityGreedyTraced is DensityGreedy with a decision trace (nil tr
// traces nothing).
func (s *Solver) DensityGreedyTraced(p *Problem, tr *PassTrace) Solution {
	return s.run(p, byDensity, &s.bufD, tr)
}

// ValueGreedy runs the value-greedy pass on solver scratch.
func (s *Solver) ValueGreedy(p *Problem) Solution { return s.run(p, byValue, &s.bufV, nil) }

// ValueGreedyTraced is ValueGreedy with a decision trace (nil tr traces
// nothing).
func (s *Solver) ValueGreedyTraced(p *Problem, tr *PassTrace) Solution {
	return s.run(p, byValue, &s.bufV, tr)
}

// Combined is Algorithm 1 on solver scratch: the better of the density and
// value passes.
func (s *Solver) Combined(p *Problem) Solution { return s.CombinedTraced(p, nil) }

// CombinedTraced is Combined with a decision trace: both passes are traced
// and Picked records which one was returned (nil tr traces nothing).
func (s *Solver) CombinedTraced(p *Problem, tr *CombinedTrace) Solution {
	var dtr, vtr *PassTrace
	if tr != nil {
		dtr, vtr = &tr.Density, &tr.Value
	}
	d := s.run(p, byDensity, &s.bufD, dtr)
	v := s.run(p, byValue, &s.bufV, vtr)
	if d.Value >= v.Value {
		if tr != nil {
			tr.Picked = BranchDensity
		}
		return d
	}
	if tr != nil {
		tr.Picked = BranchValue
	}
	return v
}
