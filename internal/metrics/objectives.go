package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"optrr/internal/rr"
)

// Pluggable extra objectives. The paper optimizes exactly two axes —
// privacy (Equation 8) and utility (Theorem 6) — but the package already
// computes richer per-matrix measures (ε-LDP, mutual information, the
// per-category MSE spread). An Objective packages one such measure so the
// optimizer can drive a k-dimensional search: it evaluates against a
// Workspace that has just run its fused Evaluate on the same matrix, and so
// can reuse the already-computed disguised distribution and inverse instead
// of re-deriving them.

// Direction states whether larger or smaller objective values are better.
type Direction int

const (
	// Minimize means smaller values are better (like utility/MSE).
	Minimize Direction = iota
	// Maximize means larger values are better (like privacy). The
	// optimizer stores Maximize objectives negated (canonical minimized
	// form, see Evaluation.Extra and CanonicalValue).
	Maximize
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Objective is one extra optimization axis beyond the paper's pair.
//
// Evaluate is called with a Workspace on which Evaluate(m, prior, records)
// has just succeeded for the same matrix, so ws.PStar() and ws.Inverse()
// hold that matrix's disguised distribution and inverse; implementations
// should reuse them rather than recompute. Evaluate must be deterministic
// and must return a finite value for every valid column-stochastic matrix —
// the SPEA2 distance kernels normalize by per-objective ranges, which an
// infinity would poison (cap instead, as the built-in ldp-epsilon does).
type Objective interface {
	// Name is the objective's registry key, e.g. "ldp-epsilon".
	Name() string
	// Direction states how the raw value is oriented.
	Direction() Direction
	// Evaluate returns the raw objective value for m under prior.
	Evaluate(ws *Workspace, m *rr.Matrix, prior []float64, records int) (float64, error)
}

// CanonicalValue maps a raw objective value into canonical minimized form:
// Minimize objectives pass through, Maximize objectives negate. It is its
// own inverse, so it also maps canonical values back to raw ones.
func CanonicalValue(o Objective, v float64) float64 {
	if o.Direction() == Maximize {
		return -v
	}
	return v
}

// funcObjective is the function-backed Objective implementation behind
// NewObjective and the built-ins.
type funcObjective struct {
	name string
	dir  Direction
	fn   func(ws *Workspace, m *rr.Matrix, prior []float64, records int) (float64, error)
}

func (o *funcObjective) Name() string         { return o.name }
func (o *funcObjective) Direction() Direction { return o.dir }
func (o *funcObjective) Evaluate(ws *Workspace, m *rr.Matrix, prior []float64, records int) (float64, error) {
	return o.fn(ws, m, prior, records)
}

// NewObjective wraps an evaluation function as an Objective.
func NewObjective(name string, dir Direction, fn func(ws *Workspace, m *rr.Matrix, prior []float64, records int) (float64, error)) Objective {
	return &funcObjective{name: name, dir: dir, fn: fn}
}

// The objective registry. Registration is concurrency-safe; the built-ins
// register at init and user code may add more (see RegisterObjective).
var objRegistry = struct {
	sync.RWMutex
	byName map[string]Objective
	alias  map[string]string
}{
	byName: map[string]Objective{},
	alias:  map[string]string{},
}

// reservedObjectiveNames are the two canonical axes, which are always
// present and cannot be re-registered as extras.
var reservedObjectiveNames = map[string]bool{"privacy": true, "utility": true}

// RegisterObjective adds an objective to the registry under its Name. It
// fails on a nil objective, an empty or reserved name, or a duplicate.
func RegisterObjective(o Objective) error {
	if o == nil {
		return fmt.Errorf("metrics: nil objective")
	}
	name := o.Name()
	if name == "" {
		return fmt.Errorf("metrics: objective with empty name")
	}
	if reservedObjectiveNames[name] {
		return fmt.Errorf("metrics: objective name %q is reserved", name)
	}
	objRegistry.Lock()
	defer objRegistry.Unlock()
	if _, dup := objRegistry.byName[name]; dup {
		return fmt.Errorf("metrics: objective %q already registered", name)
	}
	if _, dup := objRegistry.alias[name]; dup {
		return fmt.Errorf("metrics: objective name %q is taken as an alias", name)
	}
	objRegistry.byName[name] = o
	return nil
}

// registerAlias maps a short name onto a registered objective's name.
func registerAlias(alias, name string) {
	objRegistry.Lock()
	defer objRegistry.Unlock()
	objRegistry.alias[alias] = name
}

// ObjectiveByName looks an objective up by name or alias ("ldp" resolves to
// "ldp-epsilon", "mi" to "mutual-information").
func ObjectiveByName(name string) (Objective, bool) {
	objRegistry.RLock()
	defer objRegistry.RUnlock()
	if full, ok := objRegistry.alias[name]; ok {
		name = full
	}
	o, ok := objRegistry.byName[name]
	return o, ok
}

// ObjectiveNames returns the sorted names of all registered objectives
// (canonical names only, aliases excluded).
func ObjectiveNames() []string {
	objRegistry.RLock()
	defer objRegistry.RUnlock()
	out := make([]string, 0, len(objRegistry.byName))
	for name := range objRegistry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EvaluateObjectives evaluates every objective against the workspace state
// left by the last Evaluate call on m, writing the raw values into dst
// (len(objs)). It stops at the first error.
func (ws *Workspace) EvaluateObjectives(m *rr.Matrix, prior []float64, records int, objs []Objective, dst []float64) error {
	if len(dst) != len(objs) {
		return fmt.Errorf("%w: %d objectives, dst of length %d", ErrShape, len(objs), len(dst))
	}
	for t, o := range objs {
		v, err := o.Evaluate(ws, m, prior, records)
		if err != nil {
			return fmt.Errorf("metrics: objective %q: %w", o.Name(), err)
		}
		dst[t] = v
	}
	return nil
}

// LDPEpsilonCap bounds the ldp-epsilon objective's value. LocalDPEpsilon is
// +Inf for any matrix with a zero entry in a reachable row; an infinite
// objective value would poison the optimizer's normalized distance kernels
// (Inf − Inf), so the objective saturates at this cap — e^64 is far beyond
// any meaningful privacy budget, so the cap never reorders two matrices a
// practitioner would distinguish.
const LDPEpsilonCap = 64.0

// builtin objectives, registered at init:
//
//	ldp-epsilon (alias ldp)          — minimized; LocalDPEpsilon capped at
//	                                   LDPEpsilonCap. Prior-free.
//	mutual-information (alias mi)    — minimized; I(X;Y) in bits, reusing
//	                                   the workspace's P*.
//	worst-mse                        — minimized; the largest per-category
//	                                   MSE (Theorem 6), reusing the
//	                                   workspace's per-category MSE.
func init() {
	mustRegister := func(o Objective, aliases ...string) {
		if err := RegisterObjective(o); err != nil {
			panic(err)
		}
		for _, a := range aliases {
			registerAlias(a, o.Name())
		}
	}
	mustRegister(NewObjective("ldp-epsilon", Minimize, evalLDPEpsilon), "ldp")
	mustRegister(NewObjective("mutual-information", Minimize, evalMutualInformation), "mi")
	mustRegister(NewObjective("worst-mse", Minimize, evalWorstMSE))
}

// evalLDPEpsilon is the ldp-epsilon built-in: the tightest ε-LDP level of
// the matrix, capped at LDPEpsilonCap. Prior-free, so it ignores the
// workspace entirely.
func evalLDPEpsilon(_ *Workspace, m *rr.Matrix, _ []float64, _ int) (float64, error) {
	eps := LocalDPEpsilon(m)
	if eps > LDPEpsilonCap {
		eps = LDPEpsilonCap
	}
	return eps, nil
}

// evalMutualInformation is the mutual-information built-in: I(X;Y) in bits
// from the workspace's P*, with the arithmetic of MutualInformation.
func evalMutualInformation(ws *Workspace, m *rr.Matrix, prior []float64, _ int) (float64, error) {
	return mutualInformation(m, prior, ws.PStar()), nil
}

// evalWorstMSE is the worst-mse built-in: the largest per-category MSE of
// the inversion estimate (Theorem 6) — the fairness companion of the
// average the utility objective minimizes — read from the per-category MSE
// the workspace's last Evaluate left behind.
func evalWorstMSE(ws *Workspace, _ *rr.Matrix, _ []float64, _ int) (float64, error) {
	worst := math.Inf(-1)
	for _, mse := range ws.mse {
		if mse > worst {
			worst = mse
		}
	}
	return worst, nil
}
