package sigtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sparseSignature draws a leaf signature the way the slab must store it
// faithfully: mostly-zero counts, vectors that may be all zero, shorter
// than the universe or (for entities) empty.
func sparseSignature(nProd, nEnt int, rng *rand.Rand) Signature {
	s := Signature{
		Pl:        rng.Float64(),
		Ps:        rng.Float64(),
		ProdTotal: float64(rng.Intn(40)),
		EntTotal:  float64(rng.Intn(40)),
	}
	s.ProdCounts = sparseCounts(rng.Intn(nProd+1), rng)
	switch rng.Intn(4) {
	case 0:
		s.EntCounts = nil
	case 1:
		s.EntCounts = []float64{}
	default:
		s.EntCounts = sparseCounts(rng.Intn(nEnt+1), rng)
	}
	return s
}

func sparseCounts(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	if rng.Intn(5) == 0 {
		return v // all zero
	}
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = float64(1+rng.Intn(9)) + 0.25*float64(rng.Intn(4))
		}
	}
	return v
}

// adversarialQuery draws a query the slab must score exactly like the
// dense oracle: unsorted (possibly repeated) entities, entity indices
// past any row's length or negative, and a producer index that may be -1
// or beyond the universe.
func adversarialQuery(nProd, nEnt int, rng *rand.Rand) *Query {
	q := &Query{
		ProdIdx: rng.Intn(nProd+4) - 1,
		BgProd:  rng.Float64() * 0.1,
		BgEnt:   rng.Float64() * 0.2,
		Mu:      float64(1 + rng.Intn(20)), // a positive pseudo-count keeps every score finite
		LambdaS: rng.Float64(),
	}
	for i := rng.Intn(7); i > 0; i-- {
		q.Ents = append(q.Ents, WeightedIdx{Idx: rng.Intn(nEnt+6) - 1, W: rng.Float64() * 3})
	}
	return q
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSignature compares signatures bitwise. Unless exactLen is set, count
// vectors are compared up to trailing zeros: indices past either vector's
// end read as +0.
func sameSignature(a, b *Signature, exactLen bool) bool {
	if exactLen && (len(a.ProdCounts) != len(b.ProdCounts) || len(a.EntCounts) != len(b.EntCounts)) {
		return false
	}
	return sameBits(a.Pl, b.Pl) && sameBits(a.Ps, b.Ps) &&
		sameBits(a.ProdTotal, b.ProdTotal) && sameBits(a.EntTotal, b.EntTotal) &&
		sameCounts(a.ProdCounts, b.ProdCounts) && sameCounts(a.EntCounts, b.EntCounts)
}

func sameCounts(a, b []float64) bool {
	for i := 0; i < max(len(a), len(b)); i++ {
		var x, y float64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if !sameBits(x, y) {
			return false
		}
	}
	return true
}

// checkSlab verifies the leaf slab of every leaf node against the dense
// oracle: entries and rows line up, each row scores bit-identically to
// Score of both the written signature and Get's rebuild, Get returns the
// written signature, and each leaf aggregate equals the dense fold of its
// entries' signatures.
func checkSlab(t *testing.T, tr *Tree, oracle map[string]Signature, qs []*Query) {
	t.Helper()
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		if len(n.entries) != len(n.rows) {
			t.Fatalf("leaf has %d entries but %d rows", len(n.entries), len(n.rows))
		}
		want := emptyAgg()
		for i, e := range n.entries {
			r := &n.rows[i]
			if e.parent != n || e.slot != i || r.userID != e.UserID {
				t.Fatalf("entry %s: parent/slot/row out of step (slot %d, row user %s)", e.UserID, e.slot, r.userID)
			}
			sig, ok := oracle[e.UserID]
			if !ok {
				t.Fatalf("deleted user %s still has a row", e.UserID)
			}
			got, _ := tr.Get(e.UserID)
			if !sameSignature(&got, &sig, false) {
				t.Fatalf("Get(%s) = %+v, wrote %+v", e.UserID, got, sig)
			}
			for qi, q := range qs {
				s := n.scoreRow(r, q)
				if dense := Score(&sig, q); !sameBits(s, dense) {
					t.Fatalf("user %s query %d: slab score %v, dense oracle %v", e.UserID, qi, s, dense)
				}
				if viaGet := Score(&got, q); !sameBits(s, viaGet) {
					t.Fatalf("user %s query %d: slab score %v, Score(Get) %v", e.UserID, qi, s, viaGet)
				}
			}
			foldInto(&want, &sig)
		}
		if !sameSignature(&n.sig, &want, true) {
			t.Fatalf("leaf aggregate %+v, dense fold %+v", n.sig, want)
		}
	}
	walk(tr.root)
}

// TestSlabMatchesDenseOracle scores every leaf row against the dense
// signature it was written from, bit for bit, over signatures and queries
// chosen to hit the sparse edge cases.
func TestSlabMatchesDenseOracle(t *testing.T) {
	const nProd, nEnt = 12, 9
	rng := rand.New(rand.NewSource(31))
	tr := New(0, "c", NewUniverse(nil), NewUniverse(nil), 4)
	oracle := map[string]Signature{}
	for i := 0; i < 200; i++ {
		u := fmt.Sprintf("u%03d", i)
		sig := sparseSignature(nProd, nEnt, rng)
		tr.Insert(u, sig)
		oracle[u] = sig
	}
	var qs []*Query
	for i := 0; i < 40; i++ {
		qs = append(qs, adversarialQuery(nProd, nEnt, rng))
	}
	checkSlab(t, tr, oracle, qs)
}

// TestSlabRandomOperations drives a random mix of Insert, Update,
// UpdateProbs and Delete through enough users to split leaves and internal
// nodes, then checks the slab against the dense oracle and Search against
// SequentialScan.
func TestSlabRandomOperations(t *testing.T) {
	const nProd, nEnt = 10, 8
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		tr := New(0, "c", NewUniverse(nil), NewUniverse(nil), 3)
		oracle := map[string]Signature{}
		var ids []string
		pick := func() string { return ids[rng.Intn(len(ids))] }
		for op := 0; op < 1500; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(ids) == 0:
				u := fmt.Sprintf("u%04d", len(ids))
				ids = append(ids, u)
				sig := sparseSignature(nProd, nEnt, rng)
				tr.Insert(u, sig)
				oracle[u] = sig
			case r < 7:
				u, sig := pick(), sparseSignature(nProd, nEnt, rng)
				_, live := oracle[u]
				if tr.Update(u, sig) != live {
					t.Fatalf("seed %d: Update(%s) disagrees with liveness %v", seed, u, live)
				}
				if live {
					oracle[u] = sig
				}
			case r < 8:
				u, pl, ps := pick(), rng.Float64(), rng.Float64()
				sig, live := oracle[u]
				if tr.UpdateProbs(u, pl, ps) != live {
					t.Fatalf("seed %d: UpdateProbs(%s) disagrees with liveness %v", seed, u, live)
				}
				if live {
					sig.Pl, sig.Ps = pl, ps
					oracle[u] = sig
				}
			default:
				u := pick()
				_, live := oracle[u]
				if tr.Delete(u) != live {
					t.Fatalf("seed %d: Delete(%s) disagrees with liveness %v", seed, u, live)
				}
				delete(oracle, u)
			}
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("seed %d: Len = %d, oracle holds %d", seed, tr.Len(), len(oracle))
		}
		if tr.Depth() < 3 {
			t.Fatalf("seed %d: depth %d, internal nodes never split", seed, tr.Depth())
		}
		for _, u := range ids {
			if _, live := oracle[u]; tr.Has(u) != live {
				t.Fatalf("seed %d: Has(%s) = %v, oracle %v", seed, u, !live, live)
			}
		}
		var qs []*Query
		for i := 0; i < 25; i++ {
			qs = append(qs, adversarialQuery(nProd, nEnt, rng))
		}
		checkSlab(t, tr, oracle, qs)
		checkDomination(t, tr, tr.root)
		for qi, q := range qs {
			tqs := []TreeQuery{{Tree: tr, Query: q}}
			for _, k := range []int{1, 7, 40} {
				got, _ := Search(tqs, k)
				if want := SequentialScan(tqs, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d query %d k=%d:\n got %v\nwant %v", seed, qi, k, got, want)
				}
			}
		}
	}
}
