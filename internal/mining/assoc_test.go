package mining

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// basketWorld generates baskets over nItems binary items: item 0 appears
// with probability 0.6; item 1 follows item 0 with probability 0.9 (strong
// rule 0 ⇒ 1) and appears alone with probability 0.1; remaining items are
// independent with probability 0.2.
func basketWorld(nItems, n int, r *randx.Source) [][]int {
	out := make([][]int, n)
	for i := range out {
		rec := make([]int, nItems)
		if r.Float64() < 0.6 {
			rec[0] = 1
		}
		p1 := 0.1
		if rec[0] == 1 {
			p1 = 0.9
		}
		if r.Float64() < p1 {
			rec[1] = 1
		}
		for j := 2; j < nItems; j++ {
			if r.Float64() < 0.2 {
				rec[j] = 1
			}
		}
		out[i] = rec
	}
	return out
}

func binaryMatrices(t testing.TB, nItems int, p float64) []*rr.Matrix {
	t.Helper()
	ms := make([]*rr.Matrix, nItems)
	for i := range ms {
		ms[i] = mustWarner(t, 2, p)
	}
	return ms
}

func trueSupport(baskets [][]int, items []int) float64 {
	count := 0
	for _, b := range baskets {
		all := true
		for _, it := range items {
			if b[it] != 1 {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return float64(count) / float64(len(baskets))
}

func TestNewBasketMinerValidates(t *testing.T) {
	if _, err := NewBasketMiner([]*rr.Matrix{mustWarner(t, 3, 0.8)}, [][]int{{0}}); !errors.Is(err, ErrSchema) {
		t.Fatal("non-binary matrix accepted")
	}
	if _, err := NewBasketMiner(binaryMatrices(t, 2, 0.8), nil); !errors.Is(err, ErrNoData) {
		t.Fatal("empty baskets accepted")
	}
	if _, err := NewBasketMiner(binaryMatrices(t, 2, 0.8), [][]int{{0, 2}}); !errors.Is(err, ErrSchema) {
		t.Fatal("non-binary basket value accepted")
	}
}

func TestSupportEmptySetIsOne(t *testing.T) {
	bm, err := NewBasketMiner(binaryMatrices(t, 2, 0.8), [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := bm.Support(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("empty-set support = %v, want 1", s)
	}
}

func TestSupportValidatesItems(t *testing.T) {
	bm, err := NewBasketMiner(binaryMatrices(t, 3, 0.8), [][]int{{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bm.Support([]int{0, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("duplicate items accepted")
	}
	if _, err := bm.Support([]int{5}); !errors.Is(err, ErrSchema) {
		t.Fatal("out-of-range item accepted")
	}
}

func TestSupportRecoversTrueSupport(t *testing.T) {
	r := randx.New(7)
	const nItems = 5
	baskets := basketWorld(nItems, 80000, r)
	ms := binaryMatrices(t, nItems, 0.85)
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(baskets, r)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBasketMiner(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range [][]int{{0}, {1}, {0, 1}, {2, 3}, {0, 1, 2}} {
		want := trueSupport(baskets, items)
		got, err := bm.Support(items)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.02 {
			t.Errorf("support%v = %v, want approx %v", items, got, want)
		}
	}
}

// TestSupportWideBaskets: 70 items have 2^70 joint cells, more than an int
// can count, yet every itemset support reconstructs only its own 2^|items|
// cells, so a wide basket schema mines as usual.
func TestSupportWideBaskets(t *testing.T) {
	r := randx.New(11)
	const nItems = 70
	baskets := basketWorld(nItems, 20000, r)
	ms := binaryMatrices(t, nItems, 0.9)
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(baskets, r)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBasketMiner(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range [][]int{{69}, {0, 1}, {1, 68, 69}} {
		want := trueSupport(baskets, items)
		got, err := bm.Support(items)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.03 {
			t.Errorf("support%v = %v, want approx %v", items, got, want)
		}
	}
}

func TestFrequentItemsetsFindsPlantedPair(t *testing.T) {
	r := randx.New(9)
	const nItems = 5
	baskets := basketWorld(nItems, 60000, r)
	ms := binaryMatrices(t, nItems, 0.85)
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(baskets, r)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBasketMiner(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	frequent, err := bm.FrequentItemsets(0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range frequent {
		if reflect.DeepEqual(f.Items, []int{0, 1}) {
			found = true
			// True support of {0,1} is about 0.54.
			if f.Support < 0.45 || f.Support > 0.65 {
				t.Errorf("planted pair support = %v", f.Support)
			}
		}
		if len(f.Items) > 1 {
			// Every frequent itemset must pass the Apriori property: each
			// single item must itself be frequent.
			for _, it := range f.Items {
				s, err := bm.Support([]int{it})
				if err != nil {
					t.Fatal(err)
				}
				if s < 0.4-0.02 {
					t.Errorf("itemset %v contains infrequent item %d (s=%v)", f.Items, it, s)
				}
			}
		}
	}
	if !found {
		t.Fatalf("planted pair {0,1} not found; got %v", frequent)
	}
}

func TestFrequentItemsetsValidates(t *testing.T) {
	bm, err := NewBasketMiner(binaryMatrices(t, 2, 0.8), [][]int{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bm.FrequentItemsets(0, 2); !errors.Is(err, ErrSchema) {
		t.Fatal("minSupport 0 accepted")
	}
	if _, err := bm.FrequentItemsets(1.2, 2); !errors.Is(err, ErrSchema) {
		t.Fatal("minSupport > 1 accepted")
	}
}

func TestRulesRecoverPlantedImplication(t *testing.T) {
	r := randx.New(11)
	const nItems = 4
	baskets := basketWorld(nItems, 60000, r)
	ms := binaryMatrices(t, nItems, 0.85)
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(baskets, r)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBasketMiner(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	frequent, err := bm.FrequentItemsets(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := bm.Rules(frequent, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// The planted rule 0 ⇒ 1 has confidence ~0.9.
	found := false
	for _, rule := range rules {
		if reflect.DeepEqual(rule.Antecedent, []int{0}) && reflect.DeepEqual(rule.Consequent, []int{1}) {
			found = true
			if rule.Confidence < 0.8 || rule.Confidence > 1.0 {
				t.Errorf("rule 0=>1 confidence = %v, want approx 0.9", rule.Confidence)
			}
		}
	}
	if !found {
		t.Fatalf("planted rule 0=>1 not found in %v", rules)
	}
	// Rules are sorted by descending confidence.
	if !sort.SliceIsSorted(rules, func(a, b int) bool { return rules[a].Confidence > rules[b].Confidence }) {
		t.Fatal("rules not sorted by confidence")
	}
}

func TestAprioriJoin(t *testing.T) {
	level := [][]int{{0, 1}, {0, 2}, {1, 2}}
	got := aprioriJoin(level)
	// {0,1}+{0,2} share prefix {0} -> {0,1,2}; {1,2} has no prefix partner.
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{0, 1, 2}) {
		t.Fatalf("aprioriJoin = %v", got)
	}
}

func TestAllSubsetsFrequent(t *testing.T) {
	keys := map[string]bool{
		keyOf([]int{0, 1}): true,
		keyOf([]int{0, 2}): true,
		keyOf([]int{1, 2}): true,
	}
	if !allSubsetsFrequent([]int{0, 1, 2}, keys) {
		t.Fatal("fully supported candidate rejected")
	}
	delete(keys, keyOf([]int{1, 2}))
	if allSubsetsFrequent([]int{0, 1, 2}, keys) {
		t.Fatal("candidate with infrequent subset accepted")
	}
}

func BenchmarkSupportPair(b *testing.B) {
	r := randx.New(1)
	baskets := basketWorld(6, 10000, r)
	ms := binaryMatrices(b, 6, 0.85)
	mr, err := NewMultiRR(ms...)
	if err != nil {
		b.Fatal(err)
	}
	disguised, err := mr.Disguise(baskets, r)
	if err != nil {
		b.Fatal(err)
	}
	bm, err := NewBasketMiner(ms, disguised)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Support([]int{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}
