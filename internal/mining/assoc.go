package mining

import (
	"fmt"
	"sort"

	"optrr/internal/rr"
)

// Association-rule mining on disguised basket data, in the style of Rizvi &
// Haritsa: every item column is a binary attribute disguised independently
// (each bit flips with some probability), and itemset supports are estimated
// by reconstructing the joint distribution of just the itemset's columns.

// Itemset is a set of item indices with its estimated support.
type Itemset struct {
	// Items is sorted ascending.
	Items []int
	// Support is the reconstructed probability that a basket contains every
	// item in the set.
	Support float64
}

// Rule is an association rule X ⇒ Y with reconstructed quality measures.
type Rule struct {
	// Antecedent and Consequent are disjoint sorted item sets.
	Antecedent []int
	Consequent []int
	// Support is the reconstructed support of Antecedent ∪ Consequent.
	Support float64
	// Confidence is Support / support(Antecedent).
	Confidence float64
}

// BasketMiner estimates itemset supports from disguised basket data.
type BasketMiner struct {
	mr        *MultiRR
	disguised [][]int
}

// NewBasketMiner wraps disguised baskets (rows of {0, 1} values, one column
// per item) together with the per-item RR matrices that disguised them.
// Every matrix must be 2×2.
func NewBasketMiner(ms []*rr.Matrix, disguised [][]int) (*BasketMiner, error) {
	for i, m := range ms {
		if m == nil || m.N() != 2 {
			return nil, fmt.Errorf("%w: item %d needs a 2x2 matrix", ErrSchema, i)
		}
	}
	mr, err := NewMultiRR(ms...)
	if err != nil {
		return nil, err
	}
	if len(disguised) == 0 {
		return nil, ErrNoData
	}
	for k, rec := range disguised {
		if err := mr.checkRecord(rec); err != nil {
			return nil, fmt.Errorf("basket %d: %w", k, err)
		}
	}
	return &BasketMiner{mr: mr, disguised: disguised}, nil
}

// Items returns the number of item columns.
func (bm *BasketMiner) Items() int { return bm.mr.Attributes() }

// Support reconstructs the support of an itemset: the probability that all
// listed items are 1 in the original data. The reconstruction inverts only
// the |items| relevant axes, so the cost is O(N·|items| + 2^|items|).
func (bm *BasketMiner) Support(items []int) (float64, error) {
	if len(items) == 0 {
		return 1, nil
	}
	joint, err := bm.mr.estimateAxes(bm.disguised, items)
	if err != nil {
		return 0, err
	}
	// Support is the all-ones cell, the last index in row-major layout.
	return joint[len(joint)-1], nil
}

// FrequentItemsets runs Apriori over reconstructed supports: all itemsets
// with Support ≥ minSupport and size ≤ maxSize, in ascending-size then
// lexicographic order. Reconstructed supports can be slightly negative; such
// sets are treated as infrequent.
func (bm *BasketMiner) FrequentItemsets(minSupport float64, maxSize int) ([]Itemset, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, fmt.Errorf("%w: minSupport %v outside (0, 1]", ErrSchema, minSupport)
	}
	if maxSize <= 0 || maxSize > bm.Items() {
		maxSize = bm.Items()
	}
	var out []Itemset
	// Level 1.
	var level [][]int
	levelKeys := make(map[string]bool)
	for it := 0; it < bm.Items(); it++ {
		s, err := bm.Support([]int{it})
		if err != nil {
			return nil, err
		}
		if s >= minSupport {
			set := []int{it}
			out = append(out, Itemset{Items: set, Support: s})
			level = append(level, set)
			levelKeys[keyOf(set)] = true
		}
	}
	for size := 2; size <= maxSize && len(level) > 0; size++ {
		candidates := aprioriJoin(level)
		var next [][]int
		nextKeys := make(map[string]bool)
		for _, cand := range candidates {
			if !allSubsetsFrequent(cand, levelKeys) {
				continue
			}
			s, err := bm.Support(cand)
			if err != nil {
				return nil, err
			}
			if s >= minSupport {
				out = append(out, Itemset{Items: cand, Support: s})
				next = append(next, cand)
				nextKeys[keyOf(cand)] = true
			}
		}
		level = next
		levelKeys = nextKeys
	}
	return out, nil
}

// Rules derives association rules with a single-item consequent from the
// frequent itemsets, keeping those meeting the confidence threshold.
func (bm *BasketMiner) Rules(frequent []Itemset, minConfidence float64) ([]Rule, error) {
	support := make(map[string]float64, len(frequent))
	for _, f := range frequent {
		support[keyOf(f.Items)] = f.Support
	}
	var rules []Rule
	for _, f := range frequent {
		if len(f.Items) < 2 {
			continue
		}
		for _, cons := range f.Items {
			ante := make([]int, 0, len(f.Items)-1)
			for _, it := range f.Items {
				if it != cons {
					ante = append(ante, it)
				}
			}
			anteSupport, ok := support[keyOf(ante)]
			if !ok || anteSupport <= 0 {
				continue
			}
			conf := f.Support / anteSupport
			if conf >= minConfidence {
				rules = append(rules, Rule{
					Antecedent: ante,
					Consequent: []int{cons},
					Support:    f.Support,
					Confidence: conf,
				})
			}
		}
	}
	sort.Slice(rules, func(a, b int) bool { return rules[a].Confidence > rules[b].Confidence })
	return rules, nil
}

// aprioriJoin merges same-size frequent sets sharing a prefix into
// candidates one item larger.
func aprioriJoin(level [][]int) [][]int {
	var out [][]int
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			k := len(a)
			if !samePrefix(a, b, k-1) {
				continue
			}
			lo, hi := a[k-1], b[k-1]
			if lo > hi {
				lo, hi = hi, lo
			}
			cand := make([]int, 0, k+1)
			cand = append(cand, a[:k-1]...)
			cand = append(cand, lo, hi)
			out = append(out, cand)
		}
	}
	return out
}

func samePrefix(a, b []int, k int) bool {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent checks the Apriori pruning property: every subset of
// cand one item smaller must have been frequent at the previous level.
func allSubsetsFrequent(cand []int, levelKeys map[string]bool) bool {
	sub := make([]int, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !levelKeys[keyOf(sub)] {
			return false
		}
	}
	return true
}

// keyOf renders a sorted itemset as a map key.
func keyOf(items []int) string {
	return fmt.Sprint(items)
}
