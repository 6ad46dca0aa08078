package metrics

import (
	"fmt"
	"math"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// mustObjective fails the test if name does not resolve in the registry.
func mustObjective(t testing.TB, name string) Objective {
	t.Helper()
	o, ok := ObjectiveByName(name)
	if !ok {
		t.Fatalf("objective %q not registered", name)
	}
	return o
}

// evalOn runs the fused Evaluate (priming the workspace intermediates) and
// then the named objective, failing on any error.
func evalOn(t *testing.T, ws *Workspace, name string, m *rr.Matrix, prior []float64, records int) float64 {
	t.Helper()
	if _, err := ws.Evaluate(m, prior, records); err != nil {
		t.Fatal(err)
	}
	v, err := mustObjective(t, name).Evaluate(ws, m, prior, records)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// TestBuiltinObjectivesMatchPackageFunctions pins the built-ins to the
// standalone package functions bit-for-bit: the workspace-reusing fast paths
// must not change any arithmetic.
func TestBuiltinObjectivesMatchPackageFunctions(t *testing.T) {
	r := randx.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%4
		m := randomStochastic(r, n, 0)
		prior := randomPrior(r, n)
		records := 1000 * (1 + trial%3)
		ws := NewWorkspace()

		gotLDP := evalOn(t, ws, "ldp-epsilon", m, prior, records)
		wantLDP := LocalDPEpsilon(m)
		if wantLDP > LDPEpsilonCap {
			wantLDP = LDPEpsilonCap
		}
		if gotLDP != wantLDP {
			t.Fatalf("trial %d: ldp-epsilon = %v, want %v", trial, gotLDP, wantLDP)
		}

		gotMI := evalOn(t, ws, "mutual-information", m, prior, records)
		wantMI, err := MutualInformation(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if wantMI < 0 {
			wantMI = 0
		}
		if gotMI != wantMI {
			t.Fatalf("trial %d: mutual-information = %v, want %v", trial, gotMI, wantMI)
		}

		gotWorst := evalOn(t, ws, "worst-mse", m, prior, records)
		mses, err := m.InversionMSE(prior, records)
		if err != nil {
			t.Fatal(err)
		}
		wantWorst := math.Inf(-1)
		for _, v := range mses {
			if v > wantWorst {
				wantWorst = v
			}
		}
		if gotWorst != wantWorst {
			t.Fatalf("trial %d: worst-mse = %v, want %v", trial, gotWorst, wantWorst)
		}
	}
}

// TestLDPEpsilonObjectiveCaps checks the saturation contract: a matrix with
// a zero entry has infinite ε but the objective must stay finite.
func TestLDPEpsilonObjectiveCaps(t *testing.T) {
	m := rr.Identity(3) // zero off-diagonal entries → ε = +Inf
	if !math.IsInf(LocalDPEpsilon(m), 1) {
		t.Fatal("identity matrix should have infinite LDP epsilon")
	}
	o := mustObjective(t, "ldp")
	v, err := o.Evaluate(NewWorkspace(), m, uniformPrior(3), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != LDPEpsilonCap {
		t.Fatalf("capped epsilon = %v, want %v", v, LDPEpsilonCap)
	}
}

// TestObjectiveRegistry covers registration failure modes and alias lookup.
func TestObjectiveRegistry(t *testing.T) {
	if err := RegisterObjective(nil); err == nil {
		t.Fatal("nil objective registered")
	}
	noop := func(*Workspace, *rr.Matrix, []float64, int) (float64, error) { return 0, nil }
	if err := RegisterObjective(NewObjective("", Minimize, noop)); err == nil {
		t.Fatal("empty name registered")
	}
	for _, reserved := range []string{"privacy", "utility"} {
		if err := RegisterObjective(NewObjective(reserved, Minimize, noop)); err == nil {
			t.Fatalf("reserved name %q registered", reserved)
		}
	}
	if err := RegisterObjective(NewObjective("ldp-epsilon", Minimize, noop)); err == nil {
		t.Fatal("duplicate name registered")
	}
	if err := RegisterObjective(NewObjective("ldp", Minimize, noop)); err == nil {
		t.Fatal("alias-shadowing name registered")
	}

	for alias, full := range map[string]string{"ldp": "ldp-epsilon", "mi": "mutual-information"} {
		o, ok := ObjectiveByName(alias)
		if !ok || o.Name() != full {
			t.Fatalf("alias %q resolved to %v, want %s", alias, o, full)
		}
	}
	if _, ok := ObjectiveByName("no-such-objective"); ok {
		t.Fatal("unknown name resolved")
	}

	names := ObjectiveNames()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"ldp-epsilon", "mutual-information", "worst-mse"} {
		if !seen[want] {
			t.Fatalf("built-in %q missing from ObjectiveNames() = %v", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("ObjectiveNames not sorted: %v", names)
		}
	}
}

// TestCanonicalValue checks the orientation mapping and its involution.
func TestCanonicalValue(t *testing.T) {
	noop := func(*Workspace, *rr.Matrix, []float64, int) (float64, error) { return 0, nil }
	min := NewObjective("t-min", Minimize, noop)
	max := NewObjective("t-max", Maximize, noop)
	if got := CanonicalValue(min, 3.5); got != 3.5 {
		t.Fatalf("minimize canonical = %v, want 3.5", got)
	}
	if got := CanonicalValue(max, 3.5); got != -3.5 {
		t.Fatalf("maximize canonical = %v, want -3.5", got)
	}
	if got := CanonicalValue(max, CanonicalValue(max, 3.5)); got != 3.5 {
		t.Fatalf("canonical not an involution: %v", got)
	}
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Fatalf("Direction strings: %v %v", Minimize, Maximize)
	}
}

// TestEvaluateObjectives covers the batch helper: value order, the length
// check, and error propagation with the objective's name attached.
func TestEvaluateObjectives(t *testing.T) {
	m := mustWarner(t, 3, 0.7)
	prior := uniformPrior(3)
	ws := NewWorkspace()
	if _, err := ws.Evaluate(m, prior, 1000); err != nil {
		t.Fatal(err)
	}
	objs := []Objective{mustObjective(t, "ldp-epsilon"), mustObjective(t, "mutual-information")}
	dst := make([]float64, 2)
	if err := ws.EvaluateObjectives(m, prior, 1000, objs, dst); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		want, err := o.Evaluate(ws, m, prior, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if dst[i] != want {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
	if err := ws.EvaluateObjectives(m, prior, 1000, objs, dst[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	boom := NewObjective("t-boom", Minimize,
		func(*Workspace, *rr.Matrix, []float64, int) (float64, error) {
			return 0, fmt.Errorf("boom")
		})
	err := ws.EvaluateObjectives(m, prior, 1000, []Objective{boom}, dst[:1])
	if err == nil {
		t.Fatal("objective error swallowed")
	}
	if want := `objective "t-boom"`; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not name the objective", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkEvaluateExtraObjectives is the pinned cost of the three built-in
// extras on top of a fused Evaluate — the steady-state per-candidate price of
// a five-objective search. Tracked in BENCH_optimize.json.
func BenchmarkEvaluateExtraObjectives(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := randomStochastic(randx.New(uint64(n)), n, 0)
			prior := uniformPrior(n)
			ws := NewWorkspace()
			objs := make([]Objective, 0, 3)
			for _, name := range []string{"ldp-epsilon", "mutual-information", "worst-mse"} {
				o, ok := ObjectiveByName(name)
				if !ok {
					b.Fatalf("objective %q not registered", name)
				}
				objs = append(objs, o)
			}
			dst := make([]float64, len(objs))
			if _, err := ws.Evaluate(m, prior, 1000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Evaluate(m, prior, 1000); err != nil {
					b.Fatal(err)
				}
				if err := ws.EvaluateObjectives(m, prior, 1000, objs, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
