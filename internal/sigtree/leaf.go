// leaf.go holds the leaf slab: the one stored copy of every leaf entry's
// signature. Each leaf node keeps its entries' scalars in a row slice and
// their nonzero counts in one cell slice, so scoring a leaf node walks two
// contiguous arrays whose size follows the entries' nonzero counts, not
// the universes. See DESIGN.md, "Signature encoding".
package sigtree

import "slices"

// cell is one nonzero count of a leaf row: its universe index and value.
type cell struct {
	idx   int
	count float64
}

// leafRow is one leaf entry's signature in its node's slab. The row's
// producer cells are cells[lo:mid] and its entity cells cells[mid:hi],
// each in ascending index order; rows own consecutive ranges in row order.
// prodLen and entLen are the lengths of the dense vectors the row was
// written from: indices at or beyond them read as zero, as they do in a
// dense Signature.
type leafRow struct {
	userID              string
	pl, ps              float64
	prodTotal, entTotal float64
	prodLen, entLen     int
	lo, mid, hi         int
}

// appendRow adds e to leaf n as a new last row holding sig.
func (n *node) appendRow(e *LeafEntry, sig *Signature) {
	e.parent, e.slot = n, len(n.rows)
	end := len(n.cells)
	n.entries = append(n.entries, e)
	n.rows = append(n.rows, leafRow{userID: e.UserID, lo: end, mid: end, hi: end})
	n.writeRow(e.slot, sig)
}

// adoptRow moves row i of leaf src, cells included, to the end of leaf n.
func (n *node) adoptRow(src *node, i int) {
	r, e := src.rows[i], src.entries[i]
	e.parent, e.slot = n, len(n.rows)
	base := len(n.cells)
	n.cells = append(n.cells, src.cells[r.lo:r.hi]...)
	r.lo, r.mid, r.hi = base, base+r.mid-r.lo, base+r.hi-r.lo
	n.entries = append(n.entries, e)
	n.rows = append(n.rows, r)
}

// writeRow stores sig as row i: it resizes the row's cell range in place
// (shifting the ranges of the rows after it) and copies in sig's scalars,
// lengths and nonzero counts. sig is only read, never retained.
func (n *node) writeRow(i int, sig *Signature) {
	r := &n.rows[i]
	np, ne := nonzeros(sig.ProdCounts), nonzeros(sig.EntCounts)
	n.resizeRow(i, np+ne)
	r.pl, r.ps = sig.Pl, sig.Ps
	r.prodTotal, r.entTotal = sig.ProdTotal, sig.EntTotal
	r.prodLen, r.entLen = len(sig.ProdCounts), len(sig.EntCounts)
	r.mid = r.lo + np
	packNonzeros(n.cells[r.lo:r.mid], sig.ProdCounts)
	packNonzeros(n.cells[r.mid:r.hi], sig.EntCounts)
}

// removeRow deletes row i and its cells, renumbering the later entries.
func (n *node) removeRow(i int) {
	n.resizeRow(i, 0)
	n.rows = slices.Delete(n.rows, i, i+1)
	n.entries = slices.Delete(n.entries, i, i+1)
	for _, e := range n.entries[i:] {
		e.slot--
	}
}

// resizeRow gives row i exactly size cells, moving the cells of the rows
// after it. The slab grows by append, so a warm node resizes without
// allocating.
func (n *node) resizeRow(i, size int) {
	r := &n.rows[i]
	delta := size - (r.hi - r.lo)
	if delta == 0 {
		return
	}
	old := len(n.cells)
	if delta > 0 {
		n.cells = slices.Grow(n.cells, delta)[:old+delta]
	}
	copy(n.cells[r.hi+delta:], n.cells[r.hi:old])
	n.cells = n.cells[:old+delta]
	r.hi += delta
	for j := i + 1; j < len(n.rows); j++ {
		n.rows[j].lo += delta
		n.rows[j].mid += delta
		n.rows[j].hi += delta
	}
}

func nonzeros(v []float64) int {
	k := 0
	for _, x := range v {
		if x != 0 {
			k++
		}
	}
	return k
}

// packNonzeros writes v's nonzero entries into dst in index order; dst
// holds exactly nonzeros(v) cells.
func packNonzeros(dst []cell, v []float64) {
	k := 0
	for i, x := range v {
		if x != 0 {
			dst[k] = cell{idx: i, count: x}
			k++
		}
	}
}

// countAt returns the count at idx in ascending cells, zero if absent.
func countAt(cells []cell, idx int) float64 {
	for _, c := range cells {
		if c.idx >= idx {
			if c.idx == idx {
				return c.count
			}
			break
		}
	}
	return 0
}

// scoreRow is Score over a leaf row, bit-identical to Score of the dense
// signature the row was written from: the producer count is read the same
// way, and entDot sums we.W·count in q.Ents order with each entity looked
// up on its own. The only terms left out are the ones whose count is zero,
// and for finite weights x + W·0 == x.
//
// Each entity lookup resumes where the previous one stopped while q.Ents
// ascends (as the encoder emits it) and restarts from the row's first
// cell otherwise, so an ascending query walks the row's cells once and
// any other order is still looked up correctly.
func (n *node) scoreRow(r *leafRow, q *Query) float64 {
	prodCount := countAt(n.cells[r.lo:r.mid], q.ProdIdx)
	ents := n.cells[r.mid:r.hi]
	var entDot float64
	j, prev := 0, 0
	for _, we := range q.Ents {
		if we.Idx < prev {
			j = 0
		}
		prev = we.Idx
		for j < len(ents) && ents[j].idx < we.Idx {
			j++
		}
		if j < len(ents) && ents[j].idx == we.Idx {
			entDot += we.W * ents[j].count
		}
	}
	return score(r.pl, r.ps, prodCount, r.prodTotal, entDot, r.entTotal, q)
}

// foldRow is foldInto for a leaf row: the aggregate grows to the row's
// recorded lengths and takes the max of each nonzero count. A zero count
// never raises the zero-initialised aggregate, so skipping it is exact.
func (n *node) foldRow(dst *Signature, r *leafRow) {
	foldScalars(dst, r.pl, r.ps, r.prodTotal, r.entTotal)
	dst.ProdCounts = foldCells(dst.ProdCounts, r.prodLen, n.cells[r.lo:r.mid])
	dst.EntCounts = foldCells(dst.EntCounts, r.entLen, n.cells[r.mid:r.hi])
}

func foldCells(dst []float64, length int, cells []cell) []float64 {
	dst = growZero(dst, length)
	for _, c := range cells {
		if c.count > dst[c.idx] {
			dst[c.idx] = c.count
		}
	}
	return dst
}

// signature rebuilds row i as a dense Signature with fresh slices.
func (n *node) signature(i int) Signature {
	r := &n.rows[i]
	return Signature{
		Pl: r.pl, Ps: r.ps,
		ProdCounts: unpack(r.prodLen, n.cells[r.lo:r.mid]), ProdTotal: r.prodTotal,
		EntCounts: unpack(r.entLen, n.cells[r.mid:r.hi]), EntTotal: r.entTotal,
	}
}

func unpack(length int, cells []cell) []float64 {
	v := make([]float64, length)
	for _, c := range cells {
		v[c.idx] = c.count
	}
	return v
}
