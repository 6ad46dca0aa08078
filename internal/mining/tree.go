package mining

import (
	"fmt"
	"math"
	"strings"
)

// Decision-tree building on disguised data, in the style of Du & Zhan:
// because individual records are noisy, the tree is grown not from record
// counts but from the reconstructed joint distribution of attributes and
// class — each split's information gain is computed from (estimated)
// probabilities. The tree itself is plain ID3 over categorical attributes.

// TreeConfig controls tree growth.
type TreeConfig struct {
	// MaxDepth bounds the tree height; zero means the number of attributes.
	MaxDepth int
	// MinMass prunes branches whose (estimated) probability mass is below
	// this threshold; such estimates are dominated by reconstruction noise.
	// Zero means 1e-4.
	MinMass float64
}

func (c TreeConfig) withDefaults(attrs int) TreeConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = attrs
	}
	if c.MinMass == 0 {
		c.MinMass = 1e-4
	}
	return c
}

// TreeNode is a node of the decision tree: either a leaf predicting a class
// or a split on one attribute with one child per category.
type TreeNode struct {
	// Leaf is true for prediction nodes.
	Leaf bool
	// Class is the predicted class at a leaf (majority class elsewhere,
	// used when a record's path ends early).
	Class int
	// Attr is the split attribute at an internal node.
	Attr int
	// Children has one entry per category of Attr.
	Children []*TreeNode
}

// Tree is a trained decision tree over a record schema.
type Tree struct {
	// Root of the tree.
	Root *TreeNode
	// ClassAttr is the index of the class attribute within the schema.
	ClassAttr int
	sizes     []int
}

// BuildTree grows an ID3 decision tree for the class attribute classAttr
// from a (reconstructed) joint distribution over the full schema. Negative
// joint entries (inversion-estimate noise) are clamped to zero.
func BuildTree(mr *MultiRR, joint []float64, classAttr int, cfg TreeConfig) (*Tree, error) {
	if err := mr.checkJoint(joint); err != nil {
		return nil, err
	}
	if classAttr < 0 || classAttr >= mr.Attributes() {
		return nil, fmt.Errorf("%w: class attribute %d", ErrSchema, classAttr)
	}
	cfg = cfg.withDefaults(mr.Attributes() - 1)
	clean := make([]float64, len(joint))
	for i, v := range joint {
		if v > 0 {
			clean[i] = v
		}
	}
	var remaining []int
	for d := 0; d < mr.Attributes(); d++ {
		if d != classAttr {
			remaining = append(remaining, d)
		}
	}
	fixed := make([]int, mr.Attributes())
	for i := range fixed {
		fixed[i] = -1
	}
	root := grow(mr, clean, classAttr, fixed, remaining, cfg.MaxDepth, cfg)
	return &Tree{Root: root, ClassAttr: classAttr, sizes: mr.Sizes()}, nil
}

// grow recursively builds the subtree for the region of the joint
// distribution matching the fixed assignments.
func grow(mr *MultiRR, joint []float64, classAttr int, fixed []int, remaining []int, depth int, cfg TreeConfig) *TreeNode {
	classDist, mass := classDistribution(mr, joint, fixed, classAttr)
	majority := argmax(classDist)
	if depth <= 0 || len(remaining) == 0 || mass < cfg.MinMass || pure(classDist) {
		return &TreeNode{Leaf: true, Class: majority}
	}
	// Pick the attribute with maximal information gain, i.e. minimal
	// expected conditional class entropy.
	bestAttr, bestEntropy := -1, math.Inf(1)
	for _, d := range remaining {
		h := conditionalClassEntropy(mr, joint, fixed, classAttr, d)
		if h < bestEntropy-1e-12 {
			bestAttr, bestEntropy = d, h
		}
	}
	if bestAttr == -1 || bestEntropy >= entropy(classDist)-1e-12 {
		// No attribute reduces class entropy: stop.
		return &TreeNode{Leaf: true, Class: majority}
	}
	node := &TreeNode{Attr: bestAttr, Class: majority, Children: make([]*TreeNode, mr.sizes[bestAttr])}
	childRemaining := make([]int, 0, len(remaining)-1)
	for _, d := range remaining {
		if d != bestAttr {
			childRemaining = append(childRemaining, d)
		}
	}
	for v := 0; v < mr.sizes[bestAttr]; v++ {
		fixed[bestAttr] = v
		node.Children[v] = grow(mr, joint, classAttr, fixed, childRemaining, depth-1, cfg)
	}
	fixed[bestAttr] = -1
	return node
}

// classDistribution returns the class marginal within the fixed region and
// the region's total mass.
func classDistribution(mr *MultiRR, joint []float64, fixed []int, classAttr int) ([]float64, float64) {
	dist := make([]float64, mr.sizes[classAttr])
	var mass float64
	for idx, p := range joint {
		if p == 0 {
			continue
		}
		rec := mr.Unindex(idx)
		if !matches(rec, fixed) {
			continue
		}
		dist[rec[classAttr]] += p
		mass += p
	}
	if mass > 0 {
		for i := range dist {
			dist[i] /= mass
		}
	}
	return dist, mass
}

// conditionalClassEntropy returns H(class | attr) within the fixed region.
func conditionalClassEntropy(mr *MultiRR, joint []float64, fixed []int, classAttr, attr int) float64 {
	nAttr := mr.sizes[attr]
	nClass := mr.sizes[classAttr]
	table := make([]float64, nAttr*nClass)
	var mass float64
	for idx, p := range joint {
		if p == 0 {
			continue
		}
		rec := mr.Unindex(idx)
		if !matches(rec, fixed) {
			continue
		}
		table[rec[attr]*nClass+rec[classAttr]] += p
		mass += p
	}
	if mass == 0 {
		return 0
	}
	var h float64
	for a := 0; a < nAttr; a++ {
		var rowMass float64
		for c := 0; c < nClass; c++ {
			rowMass += table[a*nClass+c]
		}
		if rowMass == 0 {
			continue
		}
		var rowH float64
		for c := 0; c < nClass; c++ {
			p := table[a*nClass+c] / rowMass
			if p > 0 {
				rowH -= p * math.Log2(p)
			}
		}
		h += rowMass / mass * rowH
	}
	return h
}

func matches(rec, fixed []int) bool {
	for d, want := range fixed {
		if want >= 0 && rec[d] != want {
			return false
		}
	}
	return true
}

func entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h
}

func pure(p []float64) bool {
	for _, v := range p {
		if v > 1-1e-9 {
			return true
		}
	}
	return false
}

func argmax(p []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range p {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Classify predicts the class of a record (the class attribute's value in
// the record is ignored).
func (t *Tree) Classify(rec []int) (int, error) {
	if len(rec) != len(t.sizes) {
		return 0, fmt.Errorf("%w: record has %d attributes, want %d", ErrSchema, len(rec), len(t.sizes))
	}
	node := t.Root
	for !node.Leaf {
		v := rec[node.Attr]
		if v < 0 || v >= len(node.Children) {
			return 0, fmt.Errorf("%w: attribute %d has value %d", ErrSchema, node.Attr, v)
		}
		node = node.Children[v]
	}
	return node.Class, nil
}

// Accuracy returns the fraction of records whose class attribute the tree
// predicts correctly.
func (t *Tree) Accuracy(records [][]int) (float64, error) {
	if len(records) == 0 {
		return 0, ErrNoData
	}
	correct := 0
	for _, rec := range records {
		c, err := t.Classify(rec)
		if err != nil {
			return 0, err
		}
		if c == rec[t.ClassAttr] {
			correct++
		}
	}
	return float64(correct) / float64(len(records)), nil
}

// String renders the tree structure for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *TreeNode, indent string)
	walk = func(n *TreeNode, indent string) {
		if n.Leaf {
			fmt.Fprintf(&b, "%sclass=%d\n", indent, n.Class)
			return
		}
		fmt.Fprintf(&b, "%ssplit attr=%d\n", indent, n.Attr)
		for v, child := range n.Children {
			fmt.Fprintf(&b, "%s =%d:\n", indent, v)
			walk(child, indent+"  ")
		}
	}
	walk(t.Root, "")
	return b.String()
}
