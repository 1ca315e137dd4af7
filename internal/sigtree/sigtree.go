// Package sigtree implements the extended signature trees of the
// CPPse-index (Zhou et al., ICDE 2019, §V): one tree per ⟨user block,
// category⟩ pair, holding an impact-encoded leaf entry (LEntry) per user
// and max/min-aggregated internal entries (IEntry) that upper-bound the
// relevance of every descendant (Lemmas 1–2), enabling the branch-and-bound
// KNN of Algorithm 1.
//
// # Signature encoding
//
// The paper stores impact lists of smoothed probabilities. This
// implementation stores the exact sufficient statistics instead — raw
// producer/entity counts plus their totals — and folds Dirichlet smoothing
// into the scoring function:
//
//	p̂(x|u) = (count(x) + μ·bg(x)) / (total + μ)
//
// which is monotone increasing in count(x) and decreasing in total. An
// internal entry therefore aggregates counts with max() and totals with
// min(), making R(IEntry, v) a true upper bound of R(LEntry, v) for every
// descendant — the exact analogue of Lemma 1, but tight even for
// producers/entities outside the block universe (their background term is
// carried on the query).
//
// # Leaf storage
//
// Leaves keep the paper's short impact lists: each leaf node owns one slab
// (leaf.go) with a row per entry — Pl, Ps, totals, recorded vector lengths
// and user ID — and one array of the rows' nonzero (index, count) cells.
// Internal entries keep dense aggregates. Signature stays the dense type
// that Insert, Update and Get exchange; a write copies its nonzeros into
// the slab and never retains the caller's slices. A row scores
// bit-identically to its dense signature. See DESIGN.md.
package sigtree

import (
	"math"
)

// Universe is an append-only name→index mapping shared by signatures and
// queries. Following the paper's maintenance rule, a fifth of extra
// capacity is reserved at construction so early growth does not reallocate
// ("we reserve 20% space of each entry").
type Universe struct {
	names []string
	idx   map[string]int
}

// NewUniverse builds a universe over the initial names (deduplicated,
// insertion order preserved).
func NewUniverse(names []string) *Universe {
	u := &Universe{
		names: make([]string, 0, len(names)+len(names)/5+1),
		idx:   make(map[string]int, len(names)),
	}
	for _, n := range names {
		u.Add(n)
	}
	return u
}

// Index returns the index of name and whether it is present.
func (u *Universe) Index(name string) (int, bool) {
	i, ok := u.idx[name]
	return i, ok
}

// Add returns the index of name, appending it if new.
func (u *Universe) Add(name string) int {
	if i, ok := u.idx[name]; ok {
		return i
	}
	i := len(u.names)
	u.names = append(u.names, name)
	u.idx[name] = i
	return i
}

// Len returns the number of names.
func (u *Universe) Len() int { return len(u.names) }

// Names returns the backing name slice (do not mutate).
func (u *Universe) Names() []string { return u.names }

// Signature is the dense impact encoding of one leaf entry (a user's long-
// and short-term statistics under the tree's category) or the max/min
// aggregation of an internal entry. Leaves store it sparsely (leaf.go).
type Signature struct {
	Pl float64 // cached long-term BiHMM probability p(c|u)
	Ps float64 // cached short-term BiHMM probability ps(c|u)

	ProdCounts []float64 // raw browse counts over the block's producer universe
	ProdTotal  float64   // Σ producer counts of the user (min over children for IEntry)

	EntCounts []float64 // raw entity counts (this category) over the tree's entity universe
	EntTotal  float64   // Σ entity counts of the user in this category (min for IEntry)
}

// Clone deep-copies the signature.
func (s *Signature) Clone() Signature {
	c := *s
	c.ProdCounts = append([]float64(nil), s.ProdCounts...)
	c.EntCounts = append([]float64(nil), s.EntCounts...)
	return c
}

// foldInto widens dst to dominate src: max of Pl/Ps and count vectors,
// min of totals.
func foldInto(dst, src *Signature) {
	foldScalars(dst, src.Pl, src.Ps, src.ProdTotal, src.EntTotal)
	dst.ProdCounts = foldMax(dst.ProdCounts, src.ProdCounts)
	dst.EntCounts = foldMax(dst.EntCounts, src.EntCounts)
}

func foldScalars(dst *Signature, pl, ps, prodTotal, entTotal float64) {
	if pl > dst.Pl {
		dst.Pl = pl
	}
	if ps > dst.Ps {
		dst.Ps = ps
	}
	if prodTotal < dst.ProdTotal {
		dst.ProdTotal = prodTotal
	}
	if entTotal < dst.EntTotal {
		dst.EntTotal = entTotal
	}
}

func foldMax(dst, src []float64) []float64 {
	dst = growZero(dst, len(src))
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
	return dst
}

// growZero extends dst to at least n elements, zeroing the exposed region.
// Growth within capacity is the allocation-free steady state of
// recomputeSig's buffer reuse.
func growZero(dst []float64, n int) []float64 {
	old := len(dst)
	if n <= old {
		return dst
	}
	if cap(dst) < n {
		grown := make([]float64, n)
		copy(grown, dst)
		return grown
	}
	dst = dst[:n]
	clear(dst[old:])
	return dst
}

// emptyAgg is the identity element for foldInto.
func emptyAgg() Signature {
	return Signature{ProdTotal: math.Inf(1), EntTotal: math.Inf(1)}
}

// WeightedIdx is one sparse query entity: universe index and accumulated
// weight (frequency × expansion weight).
type WeightedIdx struct {
	Idx int
	W   float64
}

// Query is the pseudo-query encoding of an incoming item against one tree
// (the paper's Example 1): the producer one-hot collapses to ProdIdx, the
// entity frequency/weight vectors to the sparse Ents list, and the
// user-independent smoothing mass is precomputed in BgProd/BgEnt.
type Query struct {
	ProdIdx int     // index of the item's producer in the block universe, -1 if absent
	BgProd  float64 // background probability of the item's producer
	Ents    []WeightedIdx
	BgEnt   float64 // Σ_e freq_e·w_e·bg(e) over all query entities
	Mu      float64 // Dirichlet pseudo-count
	LambdaS float64 // Eq. 3 balance
}

const logFloor = 1e-12

func safeLog(v float64) float64 {
	if v < logFloor {
		v = logFloor
	}
	return math.Log(v)
}

// Score evaluates R(entry, v) per Definition 2 / Eq. 3 against a signature
// (leaf or internal). For internal entries this is the Recommendation
// Upper Bound.
func Score(sig *Signature, q *Query) float64 {
	var prodCount float64
	if q.ProdIdx >= 0 && q.ProdIdx < len(sig.ProdCounts) {
		prodCount = sig.ProdCounts[q.ProdIdx]
	}
	var entDot float64
	for _, we := range q.Ents {
		if we.Idx >= 0 && we.Idx < len(sig.EntCounts) {
			entDot += we.W * sig.EntCounts[we.Idx]
		}
	}
	return score(sig.Pl, sig.Ps, prodCount, sig.ProdTotal, entDot, sig.EntTotal, q)
}

// score is Eq. 3 from a signature's query-resolved terms. Score and the
// leaf rows (scoreRow) both finish here, so a row scores bit-identically
// to its dense signature.
func score(pl, ps, prodCount, prodTotal, entDot, entTotal float64, q *Query) float64 {
	prodTerm := (prodCount + q.Mu*q.BgProd) / (prodTotal + q.Mu)
	entTerm := (entDot + q.Mu*q.BgEnt) / (entTotal + q.Mu)
	longTerm := safeLog(pl) + safeLog(prodTerm) + safeLog(entTerm)
	return (1-q.LambdaS)*longTerm + q.LambdaS*safeLog(ps)
}

// LeafEntry is an LEntry: one user's location in the tree. Its signature
// lives in the leaf slab as row slot of its parent node.
type LeafEntry struct {
	UserID string
	parent *node
	slot   int
}

type node struct {
	leaf     bool
	entries  []*LeafEntry // when leaf: entries[i] owns rows[i]
	rows     []leafRow    // when leaf: the slab's rows (leaf.go)
	cells    []cell       // when leaf: the rows' nonzero counts
	children []*node      // when internal
	sig      Signature    // aggregate (IEntry signature)
	parent   *node
}

func (n *node) recomputeSig() {
	// Reuse the node's own count buffers: rows and children hold separate
	// storage, so truncating and refolding in place is safe and keeps
	// propagateUp allocation-free once the buffers have grown to size.
	agg := emptyAgg()
	agg.ProdCounts = n.sig.ProdCounts[:0]
	agg.EntCounts = n.sig.EntCounts[:0]
	if n.leaf {
		for i := range n.rows {
			n.foldRow(&agg, &n.rows[i])
		}
	} else {
		for _, c := range n.children {
			foldInto(&agg, &c.sig)
		}
	}
	n.sig = agg
}

// Tree is one extended signature tree for a ⟨block, category⟩ pair.
type Tree struct {
	BlockID  int
	Category string
	Prod     *Universe // producer universe, shared across the block's trees
	Ent      *Universe // entity universe of this tree

	root   *node
	fanout int
	byUser map[string]*LeafEntry
}

// DefaultFanout is used when New is called with fanout < 2.
const DefaultFanout = 8

// New creates an empty tree.
func New(blockID int, category string, prod, ent *Universe, fanout int) *Tree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	return &Tree{
		BlockID:  blockID,
		Category: category,
		Prod:     prod,
		Ent:      ent,
		root:     &node{leaf: true, sig: emptyAgg()},
		fanout:   fanout,
		byUser:   make(map[string]*LeafEntry),
	}
}

// Len returns the number of leaf entries (users).
func (t *Tree) Len() int { return len(t.byUser) }

// Get returns the signature stored for userID, rebuilt densely into fresh
// slices of the lengths it was written with.
func (t *Tree) Get(userID string) (Signature, bool) {
	e := t.byUser[userID]
	if e == nil {
		return Signature{}, false
	}
	return e.parent.signature(e.slot), true
}

// Has reports whether the user has a leaf entry.
func (t *Tree) Has(userID string) bool { return t.byUser[userID] != nil }

// Users returns the user IDs present (unspecified order).
func (t *Tree) Users() []string {
	out := make([]string, 0, len(t.byUser))
	for u := range t.byUser {
		out = append(out, u)
	}
	return out
}

// Insert adds a new leaf entry. Inserting an existing user updates it
// instead. sig is copied into the tree, never retained.
func (t *Tree) Insert(userID string, sig Signature) {
	if e := t.byUser[userID]; e != nil {
		t.updateEntry(e, &sig)
		return
	}
	// Descend along the child whose aggregate signature expands least to
	// absorb the new entry (R-tree ChooseSubtree analogue): similar users
	// end up co-located, which is what keeps internal upper bounds tight.
	n := t.root
	for !n.leaf {
		best, bestCost := n.children[0], expansionCost(&n.children[0].sig, &sig)
		for _, c := range n.children[1:] {
			if cost := expansionCost(&c.sig, &sig); cost < bestCost ||
				(cost == bestCost && subtreeSize(c) < subtreeSize(best)) {
				best, bestCost = c, cost
			}
		}
		n = best
	}
	e := &LeafEntry{UserID: userID}
	n.appendRow(e, &sig)
	t.byUser[userID] = e
	t.propagateUp(n)
	if len(n.rows) > t.fanout {
		t.splitLeaf(n)
	}
}

// Update replaces a user's signature and refreshes ancestor aggregates.
// sig is copied into the leaf slab, never retained, so callers may pass
// scratch-backed signatures. Returns false if the user is absent.
func (t *Tree) Update(userID string, sig Signature) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	t.updateEntry(e, &sig)
	return true
}

func (t *Tree) updateEntry(e *LeafEntry, sig *Signature) {
	e.parent.writeRow(e.slot, sig)
	t.propagateUp(e.parent)
}

// UpdateProbs restamps only the cached BiHMM probabilities of a user's
// leaf, leaving the count statistics untouched — the non-dirty-category
// leg of an incremental refresh, where the short-term prediction changed
// (the window grew) but no event landed in this tree's category. Returns
// false if the user is absent.
func (t *Tree) UpdateProbs(userID string, pl, ps float64) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	r := &e.parent.rows[e.slot]
	r.pl, r.ps = pl, ps
	t.propagateUp(e.parent)
	return true
}

func (t *Tree) propagateUp(n *node) {
	for ; n != nil; n = n.parent {
		n.recomputeSig()
	}
}

// expansionCost estimates how much agg must widen to dominate sig: the sum
// of count increases plus (heavily weighted) probability increases and
// total decreases. Lower cost = better fit.
func expansionCost(agg, sig *Signature) float64 {
	var cost float64
	for i, v := range sig.ProdCounts {
		var cur float64
		if i < len(agg.ProdCounts) {
			cur = agg.ProdCounts[i]
		}
		if v > cur {
			cost += v - cur
		}
	}
	for i, v := range sig.EntCounts {
		var cur float64
		if i < len(agg.EntCounts) {
			cur = agg.EntCounts[i]
		}
		if v > cur {
			cost += v - cur
		}
	}
	if sig.Pl > agg.Pl {
		cost += 50 * (sig.Pl - agg.Pl)
	}
	if sig.Ps > agg.Ps {
		cost += 50 * (sig.Ps - agg.Ps)
	}
	if sig.ProdTotal < agg.ProdTotal {
		cost += agg.ProdTotal - sig.ProdTotal
	}
	if sig.EntTotal < agg.EntTotal {
		cost += agg.EntTotal - sig.EntTotal
	}
	return cost
}

func subtreeSize(n *node) int {
	if n.leaf {
		return len(n.rows)
	}
	s := 0
	for _, c := range n.children {
		s += subtreeSize(c)
	}
	return s
}

func (t *Tree) splitLeaf(n *node) {
	half := len(n.rows) / 2
	left := &node{leaf: true, parent: n.parent}
	right := &node{leaf: true, parent: n.parent}
	for i := range n.rows {
		if i < half {
			left.adoptRow(n, i)
		} else {
			right.adoptRow(n, i)
		}
	}
	left.recomputeSig()
	right.recomputeSig()
	t.replaceChild(n, left, right)
}

func (t *Tree) splitInternal(n *node) {
	half := len(n.children) / 2
	left := &node{children: n.children[:half:half], parent: n.parent}
	right := &node{children: append([]*node(nil), n.children[half:]...), parent: n.parent}
	for _, c := range left.children {
		c.parent = left
	}
	for _, c := range right.children {
		c.parent = right
	}
	left.recomputeSig()
	right.recomputeSig()
	t.replaceChild(n, left, right)
}

// replaceChild swaps n for (left, right) under n's parent, growing a new
// root if n was the root, and splits the parent if it overflows.
func (t *Tree) replaceChild(n, left, right *node) {
	p := n.parent
	if p == nil {
		newRoot := &node{children: []*node{left, right}}
		left.parent, right.parent = newRoot, newRoot
		newRoot.recomputeSig()
		t.root = newRoot
		return
	}
	pos := -1
	for i, c := range p.children {
		if c == n {
			pos = i
			break
		}
	}
	rebuilt := make([]*node, 0, len(p.children)+1)
	rebuilt = append(rebuilt, p.children[:pos]...)
	rebuilt = append(rebuilt, left, right)
	rebuilt = append(rebuilt, p.children[pos+1:]...)
	p.children = rebuilt
	t.propagateUp(p)
	if len(p.children) > t.fanout {
		t.splitInternal(p)
	}
}

// Delete removes a user's leaf entry and refreshes ancestor aggregates.
// Empty leaf nodes are left in place (they are cheap and splits stay
// balanced); their aggregates become the fold identity. Returns false if
// the user is absent.
func (t *Tree) Delete(userID string) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	n := e.parent
	n.removeRow(e.slot)
	delete(t.byUser, userID)
	t.propagateUp(n)
	return true
}

// RootScore returns the upper-bound score of the whole tree for a query —
// the priority of the tree's root in Algorithm 1.
func (t *Tree) RootScore(q *Query) float64 {
	if t.Len() == 0 {
		return math.Inf(-1)
	}
	return Score(&t.root.sig, q)
}

// Depth returns the height of the tree (1 = single leaf node).
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
