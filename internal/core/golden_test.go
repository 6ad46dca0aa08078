package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"optrr/internal/pareto"
)

// TestGoldenFrontsUnchanged pins the optimizer to fronts recorded before the
// fused-evaluation and scratch-reuse rewrite (same binary, pre-change code).
// Every value is compared bit-for-bit at full float64 precision: the perf
// work must not perturb a single ULP of any published front, under either
// engine, both bound modes, symmetric projection, a disabled Omega set, and
// a non-default density kernel.
func TestGoldenFrontsUnchanged(t *testing.T) {
	prior := []float64{0.35, 0.25, 0.2, 0.12, 0.08}
	base := func() Config {
		cfg := DefaultConfig(prior, 5000, 0.8)
		cfg.PopulationSize = 16
		cfg.ArchiveSize = 16
		cfg.OmegaSize = 200
		cfg.Generations = 60
		cfg.Seed = 42
		cfg.Workers = 2
		return cfg
	}
	configs := map[string]Config{}
	configs["base"] = base()
	c := base()
	c.SymmetricOnly = true
	configs["symmetric"] = c
	c = base()
	c.BoundMode = BoundReject
	c.Generations = 30
	configs["reject"] = c
	c = base()
	c.Engine = EngineNSGA2
	configs["nsga2"] = c
	c = base()
	c.OmegaSize = 0
	configs["omega0"] = c
	c = base()
	c.Normalize = false
	c.KNearest = 3
	configs["k3raw"] = c

	for name, want := range goldenFronts {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
				cfg := configs[name]
				cfg.Workers = workers
				opt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := opt.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Evaluations != want.evals {
					t.Fatalf("workers=%d: %d evaluations, want %d", workers, res.Evaluations, want.evals)
				}
				pts := res.FrontPoints()
				if len(pts) != len(want.pts) {
					t.Fatalf("workers=%d: front size %d, want %d", workers, len(pts), len(want.pts))
				}
				for i, p := range pts {
					if p != want.pts[i] {
						t.Fatalf("workers=%d: front[%d] = {%.17g, %.17g}, want {%.17g, %.17g}",
							workers, i, p.Privacy, p.Utility, want.pts[i].Privacy, want.pts[i].Utility)
					}
				}
			}
		})
	}
}

var goldenFronts = map[string]struct {
	evals int
	pts   []pareto.Point
}{
	"base": {evals: 976, pts: []pareto.Point{
		{Privacy: 0.3507747468945841, Utility: 0.00012160706630281318},
		{Privacy: 0.35717590316747094, Utility: 0.00012446961552634814},
		{Privacy: 0.36967827272627696, Utility: 0.00013392705752394442},
		{Privacy: 0.37081839456719867, Utility: 0.00013444486063170268},
		{Privacy: 0.3780013376499648, Utility: 0.00014179024727466698},
		{Privacy: 0.38651999063855647, Utility: 0.00014728905924982512},
		{Privacy: 0.4486433550051202, Utility: 0.00015782836809165595},
		{Privacy: 0.45714585981924616, Utility: 0.00016306517159367343},
		{Privacy: 0.50189095652619198, Utility: 0.00021312619138228237},
		{Privacy: 0.51440128982851752, Utility: 0.00023041806632000515},
		{Privacy: 0.52252288995229157, Utility: 0.00026263533812854653},
		{Privacy: 0.54006208553905621, Utility: 0.00033201314035308119},
		{Privacy: 0.54715181408998348, Utility: 0.00035171086798123564},
		{Privacy: 0.55084948472706097, Utility: 0.00035198875161884097},
		{Privacy: 0.5962909926322465, Utility: 0.00037293701161893476},
		{Privacy: 0.63623523274084115, Utility: 0.00048905705509617848},
		{Privacy: 0.64008196376850357, Utility: 0.00088386829343963284},
		{Privacy: 0.64588715692420873, Utility: 0.004217579973736901},
		{Privacy: 0.65000000000000002, Utility: 0.099027320564512328},
	}},
	"symmetric": {evals: 976, pts: []pareto.Point{
		{Privacy: 0.38531734084958014, Utility: 0.00011311490151225305},
		{Privacy: 0.39638718446705901, Utility: 0.00011975719649988677},
		{Privacy: 0.40932265564256887, Utility: 0.00012724622256008781},
		{Privacy: 0.41163083004781886, Utility: 0.00012819308513913353},
		{Privacy: 0.41727569314156043, Utility: 0.00013323296019872034},
		{Privacy: 0.42500624997211112, Utility: 0.00013799693652893747},
		{Privacy: 0.43405121829643667, Utility: 0.0001473032024654317},
		{Privacy: 0.44206584282281314, Utility: 0.00015649786901381142},
		{Privacy: 0.44997709240791184, Utility: 0.00015719535237864482},
		{Privacy: 0.45846368908597035, Utility: 0.00016720618421031655},
		{Privacy: 0.46495499085864367, Utility: 0.00017459556055149215},
		{Privacy: 0.47501462234883751, Utility: 0.00018240628881476955},
		{Privacy: 0.48005340935201346, Utility: 0.00018442900134017678},
		{Privacy: 0.48904441485116279, Utility: 0.00019195220194617396},
		{Privacy: 0.49190842884292063, Utility: 0.00019746727201345663},
		{Privacy: 0.49683111397751412, Utility: 0.00020722569054144367},
		{Privacy: 0.50263118048554434, Utility: 0.00021312007056799014},
		{Privacy: 0.50924616758324759, Utility: 0.00022010367555248258},
		{Privacy: 0.51077830853416217, Utility: 0.00022448485610348186},
		{Privacy: 0.51524537938108572, Utility: 0.00022828875046544466},
		{Privacy: 0.5215821451226037, Utility: 0.00024163987097109604},
		{Privacy: 0.52573306410423171, Utility: 0.00024709969929387549},
		{Privacy: 0.53007100625104697, Utility: 0.00025364370205808854},
		{Privacy: 0.54049459987852067, Utility: 0.00027652675619753501},
		{Privacy: 0.54540178363473535, Utility: 0.00028784384241863613},
		{Privacy: 0.55006796540414604, Utility: 0.00030551907709062612},
		{Privacy: 0.55645066171016244, Utility: 0.00032216121242108984},
		{Privacy: 0.56968431725652713, Utility: 0.00034519213811442671},
		{Privacy: 0.57495505826936388, Utility: 0.00036925554154417715},
		{Privacy: 0.57613791657722024, Utility: 0.00042398721573008041},
		{Privacy: 0.58171233665685174, Utility: 0.00042607684915204767},
		{Privacy: 0.58710332015654298, Utility: 0.0005017848199118755},
		{Privacy: 0.59192234286185719, Utility: 0.00051794822346342307},
		{Privacy: 0.5959838108998623, Utility: 0.00054562475000546928},
		{Privacy: 0.60136747444875893, Utility: 0.00057712789287633491},
		{Privacy: 0.60816194949612878, Utility: 0.00064669830740161709},
		{Privacy: 0.61083012797528402, Utility: 0.00073847496771405215},
		{Privacy: 0.61598900500398979, Utility: 0.00080232440281418922},
		{Privacy: 0.6200147974134681, Utility: 0.00081482517416837637},
		{Privacy: 0.62858026531761868, Utility: 0.0010621346404564753},
		{Privacy: 0.631684121495661, Utility: 0.0010960002460143016},
		{Privacy: 0.63671285865823157, Utility: 0.0011474585854048262},
		{Privacy: 0.64236776712530408, Utility: 0.0012722726843089009},
		{Privacy: 0.64903165872079882, Utility: 0.001794871128899853},
		{Privacy: 0.65000000000000002, Utility: 0.0018946706615717451},
	}},
	"reject": {evals: 543, pts: []pareto.Point{
		{Privacy: 0.34722690184374672, Utility: 0.00017900640138065896},
		{Privacy: 0.35273511145817604, Utility: 0.00018602203333567029},
		{Privacy: 0.47017706128305303, Utility: 0.00018757026335700853},
		{Privacy: 0.50433386932682878, Utility: 0.00028958930193697752},
		{Privacy: 0.50692615422755827, Utility: 0.00029390764185728682},
		{Privacy: 0.52127043593917777, Utility: 0.00032248031580040394},
		{Privacy: 0.52627301671093862, Utility: 0.00036293466702141356},
		{Privacy: 0.5398749574038022, Utility: 0.00037050291694530206},
		{Privacy: 0.54220375874518933, Utility: 0.00039585143552899223},
		{Privacy: 0.55896292456896857, Utility: 0.00039699244225297842},
		{Privacy: 0.5648764322605464, Utility: 0.0005321562814615162},
		{Privacy: 0.56532890367614008, Utility: 0.00053627976190130612},
		{Privacy: 0.57074456241547378, Utility: 0.00055001848819806183},
		{Privacy: 0.57847790892018525, Utility: 0.00064393165295308259},
		{Privacy: 0.58764076123052833, Utility: 0.00069580298139580623},
		{Privacy: 0.60928614441805051, Utility: 0.001400001001554764},
		{Privacy: 0.61838775410111402, Utility: 0.0014945443700742523},
		{Privacy: 0.62052579653681361, Utility: 0.0028116140346746655},
		{Privacy: 0.62511048522373724, Utility: 0.21442664064495282},
	}},
	"nsga2": {evals: 976, pts: []pareto.Point{
		{Privacy: 0.31506978760018611, Utility: 9.526028692567596e-05},
		{Privacy: 0.32158693534595095, Utility: 9.9442639967259715e-05},
		{Privacy: 0.32844141266073745, Utility: 0.00010210894833434723},
		{Privacy: 0.34157867078885806, Utility: 0.0001053146196053865},
		{Privacy: 0.35065692387971981, Utility: 0.00012518539426761765},
		{Privacy: 0.36073803677683991, Utility: 0.00012580085234218476},
		{Privacy: 0.37852780694054111, Utility: 0.00012665787502767848},
		{Privacy: 0.38077714304033861, Utility: 0.00013086433389634976},
		{Privacy: 0.41546810602825845, Utility: 0.00014301744703989894},
		{Privacy: 0.42257131397860304, Utility: 0.00017646742055162031},
		{Privacy: 0.47217060988457726, Utility: 0.00018089166338446978},
		{Privacy: 0.5225970146838379, Utility: 0.00020528040139205844},
		{Privacy: 0.53049978204220816, Utility: 0.00021874284481361372},
		{Privacy: 0.54556650649330674, Utility: 0.00025508212144364698},
		{Privacy: 0.55110748904536067, Utility: 0.00032411310357410237},
		{Privacy: 0.56745711994591841, Utility: 0.00037427537500629178},
		{Privacy: 0.58947179049706944, Utility: 0.00042956231354238068},
		{Privacy: 0.59375979891316799, Utility: 0.00048926002230878789},
		{Privacy: 0.61678276398087384, Utility: 0.0006643079500589363},
		{Privacy: 0.6218979651010228, Utility: 0.00080034587624985538},
		{Privacy: 0.63815076738278576, Utility: 0.0015352325528437693},
		{Privacy: 0.64632868797576437, Utility: 0.0017546569139609944},
		{Privacy: 0.65000000000000002, Utility: 0.003086582540566902},
	}},
	"omega0": {evals: 976, pts: []pareto.Point{
		{Privacy: 0.32950452299541566, Utility: 0.00010269177006786808},
		{Privacy: 0.36434087093936507, Utility: 0.00011925807089173115},
		{Privacy: 0.39808977451504024, Utility: 0.00012661020336468513},
		{Privacy: 0.43216380596609516, Utility: 0.00016256196175220991},
		{Privacy: 0.46492320867399506, Utility: 0.000187951080770229},
		{Privacy: 0.49139799602693612, Utility: 0.00023695599469807549},
		{Privacy: 0.51846348796968522, Utility: 0.00034784518092047148},
		{Privacy: 0.54483462324718213, Utility: 0.00035747219367431645},
		{Privacy: 0.57792907554275652, Utility: 0.00044946224241593891},
		{Privacy: 0.59554867216018403, Utility: 0.00064861649795812078},
		{Privacy: 0.61023273277419421, Utility: 0.00065695351098550071},
		{Privacy: 0.62218121599312959, Utility: 0.0011914509799541258},
		{Privacy: 0.62960016844638078, Utility: 0.0014246973288205718},
		{Privacy: 0.63207094607504222, Utility: 0.0016694259937175212},
		{Privacy: 0.64617485494993554, Utility: 0.0020037977698796543},
		{Privacy: 0.65000000000000002, Utility: 0.0030949459458331045},
	}},
	"k3raw": {evals: 976, pts: []pareto.Point{
		{Privacy: 0.28410365099223411, Utility: 0.00010231214407275171},
		{Privacy: 0.28590985480224373, Utility: 0.0001043174569349329},
		{Privacy: 0.31954709936368153, Utility: 0.00010912567795299806},
		{Privacy: 0.32011952940991917, Utility: 0.00011033971207986323},
		{Privacy: 0.38061953487729738, Utility: 0.00011109029248550579},
		{Privacy: 0.3887771798584011, Utility: 0.00011760263078338367},
		{Privacy: 0.39322407646532542, Utility: 0.00011847609250272562},
		{Privacy: 0.39554448583167334, Utility: 0.00013254769145344501},
		{Privacy: 0.41140215863887486, Utility: 0.00013825480399024128},
		{Privacy: 0.42271627142347368, Utility: 0.00015654086296052605},
		{Privacy: 0.42517826014699445, Utility: 0.00016263256035126784},
		{Privacy: 0.45087494958489849, Utility: 0.00017703255848928017},
		{Privacy: 0.4642506755526884, Utility: 0.00018690199886402091},
		{Privacy: 0.49018281109109452, Utility: 0.00019940038216459565},
		{Privacy: 0.50278735267912245, Utility: 0.00021044484417742808},
		{Privacy: 0.50501292222396588, Utility: 0.00023400293103732487},
		{Privacy: 0.52318408874238742, Utility: 0.00025595441038187017},
		{Privacy: 0.54706922789935541, Utility: 0.0002670264471101143},
		{Privacy: 0.55000369865940102, Utility: 0.00035938003083172348},
		{Privacy: 0.58500118200273421, Utility: 0.00040312914129615426},
		{Privacy: 0.59242101967998106, Utility: 0.00042167800714696735},
		{Privacy: 0.6025480822775493, Utility: 0.00045742992487676065},
		{Privacy: 0.60547547969666127, Utility: 0.00071708481707646518},
		{Privacy: 0.61651153391493163, Utility: 0.0010283395332128793},
		{Privacy: 0.62319038257145831, Utility: 0.0012133296805065248},
		{Privacy: 0.63539678663636801, Utility: 0.0015204976429312839},
		{Privacy: 0.64175288803190011, Utility: 0.0036641201954348869},
	}},
}

// TestGoldenMultiFrontsUnchanged pins the multi-attribute search the same
// way: generation and evaluation counts, the front, and every genome entry of
// every front member, bit for bit at every worker count.
func TestGoldenMultiFrontsUnchanged(t *testing.T) {
	for _, c := range goldenMultiCases() {
		res, err := OptimizeMulti(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s workers=%d", c.name, c.cfg.Workers)
		checkGolden(t, label, multiGolden(res), goldenMultiRuns[c.name])
	}
}

// TestGoldenWeightedSumUnchanged pins the weighted-sum baseline, with and
// without an extra objective, the same way.
func TestGoldenWeightedSumUnchanged(t *testing.T) {
	for name, cfg := range goldenWeightedCases(t) {
		res, err := OptimizeWeightedSum(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, weightedGolden(res), goldenWeightedRuns[name])
	}
}

// goldenRun is one pinned search outcome: generation and evaluation counts,
// the front in result order, and an FNV-1a digest over the IEEE-754 bits of
// every genome entry of every front member, in the same order.
type goldenRun struct {
	gens, evals int
	digest      uint64
	pts         []pareto.Point
}

// digestGenomes folds the bits of every entry of gs into h.
func digestGenomes(h hash.Hash64, gs ...Genome) {
	var b [8]byte
	for _, g := range gs {
		for _, col := range g {
			for _, v := range col {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
}

// multiGolden and weightedGolden reduce a result to its pinned outcome.
func multiGolden(res MultiResult) goldenRun {
	h := fnv.New64a()
	g := goldenRun{gens: res.Generations, evals: res.Evaluations}
	for _, ind := range res.Front {
		digestGenomes(h, ind.Genomes...)
		g.pts = append(g.pts, ind.Point())
	}
	g.digest = h.Sum64()
	return g
}

func weightedGolden(res Result) goldenRun {
	h := fnv.New64a()
	g := goldenRun{gens: res.Generations, evals: res.Evaluations}
	for _, ind := range res.Front {
		digestGenomes(h, ind.Genome)
		g.pts = append(g.pts, ind.Point())
	}
	g.digest = h.Sum64()
	return g
}

// checkGolden compares a run against its pin at full float64 precision.
func checkGolden(t *testing.T, label string, got, want goldenRun) {
	t.Helper()
	if got.gens != want.gens || got.evals != want.evals {
		t.Fatalf("%s: %d generations and %d evaluations, want %d and %d", label, got.gens, got.evals, want.gens, want.evals)
	}
	if len(got.pts) != len(want.pts) {
		t.Fatalf("%s: front size %d, want %d", label, len(got.pts), len(want.pts))
	}
	for i, p := range got.pts {
		if p != want.pts[i] {
			t.Fatalf("%s: front[%d] = %v, want %v", label, i, p, want.pts[i])
		}
	}
	if got.digest != want.digest {
		t.Fatalf("%s: genome digest %#x, want %#x", label, got.digest, want.digest)
	}
}

// goldenMultiCase is one pinned multi-attribute search; cases sharing a name
// share a pin.
type goldenMultiCase struct {
	name string
	cfg  MultiConfig
}

// goldenMultiCases lists the pinned multi-attribute searches: quickMulti at
// several worker counts, a three-attribute problem, and Ω at its default
// size.
func goldenMultiCases() []goldenMultiCase {
	var cases []goldenMultiCase
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := quickMulti()
		cfg.Workers = w
		cases = append(cases, goldenMultiCase{"quick", cfg})
	}
	joint := make([]float64, 2*3*4)
	var sum float64
	for i := range joint {
		joint[i] = 1 + float64(i%7)
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	cases = append(cases, goldenMultiCase{"d3", MultiConfig{
		Joint: joint, Sizes: []int{2, 3, 4}, Records: 5000, Delta: 0.5,
		PopulationSize: 10, ArchiveSize: 10, OmegaSize: 100, Generations: 25, Seed: 9, Workers: 1,
	}})
	cfg := quickMulti()
	cfg.OmegaSize = 0
	cfg.Generations = 20
	cfg.Workers = 1
	cases = append(cases, goldenMultiCase{"omega-default", cfg})
	return cases
}

// goldenWeightedCases lists the pinned weighted-sum sweeps: quickWeighted and
// TestWeightedSumTriObjective's configuration.
func goldenWeightedCases(t *testing.T) map[string]WeightedSumConfig {
	return map[string]WeightedSumConfig{
		"quick": quickWeighted(),
		"triobj": {
			Prior:          []float64{0.5, 0.3, 0.2},
			Records:        10000,
			Delta:          0.75,
			Weights:        3,
			PopulationSize: 8,
			Generations:    4,
			Seed:           11,
			Objectives:     testObjectives(t, "mutual-information"),
		},
	}
}

var goldenMultiRuns = map[string]goldenRun{
	"quick": {gens: 40, evals: 492, digest: 0x963dbf6ac8c00fb1, pts: []pareto.Point{
		{Privacy: 0.39462581815267672, Utility: 0.00013736925113864336},
		{Privacy: 0.41012676296335016, Utility: 0.00017748351925341317},
		{Privacy: 0.43149597861022193, Utility: 0.00020052366155862483},
		{Privacy: 0.44256882348695536, Utility: 0.0002447478080628378},
		{Privacy: 0.4562053860979679, Utility: 0.00027817997185294782},
		{Privacy: 0.4639963696736854, Utility: 0.0003217110472310295},
		{Privacy: 0.4864614533109417, Utility: 0.00045049986881432429},
		{Privacy: 0.50660787314277611, Utility: 0.00052146431893787602},
		{Privacy: 0.5114637290932571, Utility: 0.00055887481260079449},
		{Privacy: 0.53589582020168203, Utility: 0.001006745044488987},
		{Privacy: 0.54603691329689008, Utility: 0.0013757242857320628},
		{Privacy: 0.55193284077095484, Utility: 0.0015551083008922414},
		{Privacy: 0.57371638866152463, Utility: 0.0035335429732529754},
		{Privacy: 0.58131663736016836, Utility: 0.0044255748479466207},
		{Privacy: 0.59456235506210797, Utility: 0.0064776016705241149},
		{Privacy: 0.59999999999999998, Utility: 0.011758972135547307},
	}},
	"d3": {gens: 25, evals: 260, digest: 0x691ee363b740cb06, pts: []pareto.Point{
		{Privacy: 0.68037317428776722, Utility: 0.00023919586448409208},
		{Privacy: 0.69151846922698867, Utility: 0.00025877736209382597},
		{Privacy: 0.70210987826294324, Utility: 0.00034039541959314637},
		{Privacy: 0.72675792993696209, Utility: 0.00095577666917428476},
		{Privacy: 0.73182195556089247, Utility: 0.0013025116647286904},
		{Privacy: 0.76363432613114912, Utility: 0.0017113379631533939},
		{Privacy: 0.77389396558319734, Utility: 0.0037663284034105756},
		{Privacy: 0.78002817881149045, Utility: 0.004484464911624398},
		{Privacy: 0.80534203386283565, Utility: 0.0059148253109901835},
		{Privacy: 0.82242204187566781, Utility: 0.0095659384421034697},
		{Privacy: 0.84461440162037038, Utility: 0.02025696736915391},
		{Privacy: 0.86061786768551363, Utility: 0.25564769296273282},
		{Privacy: 0.8814264553354787, Utility: 0.48611303438573233},
		{Privacy: 0.8973714855191679, Utility: 6.8508028342537974},
		{Privacy: 0.90096797869865808, Utility: 21.874380593049057},
	}},
	"omega-default": {gens: 20, evals: 252, digest: 0xfe3e1794e066587e, pts: []pareto.Point{
		{Privacy: 0.39462581815267672, Utility: 0.00013736925113864336},
		{Privacy: 0.41012676296335016, Utility: 0.00017748351925341317},
		{Privacy: 0.43127751759218536, Utility: 0.00022862176961121542},
		{Privacy: 0.43366247250028966, Utility: 0.00023707553832212852},
		{Privacy: 0.44256882348695536, Utility: 0.0002447478080628378},
		{Privacy: 0.44613942424844844, Utility: 0.00028682490940548861},
		{Privacy: 0.45626943752296822, Utility: 0.00030164778324911703},
		{Privacy: 0.45984706354334504, Utility: 0.0003174097009440181},
		{Privacy: 0.50660787314277611, Utility: 0.00052146431893787602},
		{Privacy: 0.51184255975039727, Utility: 0.00059207795930641847},
		{Privacy: 0.53194862052541947, Utility: 0.0012771954663977532},
		{Privacy: 0.53908262065047929, Utility: 0.0013521289051310883},
		{Privacy: 0.54977812321227892, Utility: 0.0017554117235766516},
		{Privacy: 0.55509064937442421, Utility: 0.0021334352948546736},
		{Privacy: 0.56023136224940329, Utility: 0.0040552645642272416},
		{Privacy: 0.56176839265516598, Utility: 0.0064873722165587162},
		{Privacy: 0.56574668030459296, Utility: 0.0082811880781280458},
		{Privacy: 0.57950330017943907, Utility: 0.0098464951929606911},
		{Privacy: 0.58381634550707462, Utility: 0.010686546685665092},
		{Privacy: 0.58806520040373411, Utility: 0.024815686512526625},
		{Privacy: 0.5894657231568029, Utility: 0.034839422262419761},
		{Privacy: 0.59886930928057747, Utility: 0.039876813936758557},
		{Privacy: 0.60000000000000009, Utility: 0.56972822993688388},
	}},
}

var goldenWeightedRuns = map[string]goldenRun{
	"quick": {gens: 100, evals: 950, digest: 0x2a4657e227ff935d, pts: []pareto.Point{
		{Privacy: 0.63979758847463275, Utility: 0.0086063989894302837},
		{Privacy: 0.65000000000000013, Utility: 0.10201505706964151},
		{Privacy: 0.64825649556688936, Utility: 0.011407110862562577},
		{Privacy: 0.32339501517251656, Utility: 8.8901576959533231e-05},
		{Privacy: 0.33865597808275005, Utility: 9.5359165985418816e-05},
		{Privacy: 0.33573293701843365, Utility: 9.3122185343064349e-05},
		{Privacy: 0.44104210155775747, Utility: 0.0001809198393722189},
		{Privacy: 0.34019407176226513, Utility: 0.00010539605751944112},
		{Privacy: 0.34585007603771012, Utility: 0.00011148560771903618},
		{Privacy: 0.34019407176226513, Utility: 0.00010539605751944112},
		{Privacy: 0.35960960397754849, Utility: 0.0001155133659409677},
		{Privacy: 0.36483485673118965, Utility: 0.00012472435684576056},
		{Privacy: 0.34501193401881225, Utility: 0.00011073237449659711},
		{Privacy: 0.34019407176226513, Utility: 0.00010539605751944112},
		{Privacy: 0.47163399994848887, Utility: 0.00028257078604177589},
		{Privacy: 0.40589721439650095, Utility: 0.00013740016424298806},
		{Privacy: 0.42263644621853325, Utility: 0.00015931751279659796},
		{Privacy: 0.41005845069686719, Utility: 0.00013764834025472398},
	}},
	"triobj": {gens: 24, evals: 216, digest: 0x763805f2dd02964d, pts: []pareto.Point{
		pareto.NewPoint(0.5, 0.0023491133614391428, 0.01395988153187111),
		pareto.NewPoint(0.49698982930542279, 0.0018948183631298618, 0.032206306533398843),
		pareto.NewPoint(0.49698982930542279, 0.0018948183631298618, 0.032206306533398843),
		pareto.NewPoint(0.49878520746436728, 0.0019356923378435846, 0.024534596513394957),
		pareto.NewPoint(0.49878520746436728, 0.0019356923378435846, 0.024534596513394957),
		pareto.NewPoint(0.5, 0.00041847131250943279, 0.069616076243785407),
		pareto.NewPoint(0.5, 0.00071123892694267105, 0.049401420373848204),
		pareto.NewPoint(0.5, 0.00041847131250943279, 0.069616076243785407),
		pareto.NewPoint(0.5, 0.00041847131250943279, 0.069616076243785407),
		pareto.NewPoint(0.32739389341066594, 8.4070152369711534e-05, 0.42086612238401022),
		pareto.NewPoint(0.38333170907008451, 0.0001350725178648518, 0.22951266629959477),
		pareto.NewPoint(0.38797658102168686, 0.0001694175477220571, 0.33372822457648454),
		pareto.NewPoint(0.32617004433388053, 9.0814548206593945e-05, 0.37919380743354014),
		pareto.NewPoint(0.5, 0.0010640111485495816, 0.046415472802248892),
		pareto.NewPoint(0.37363008932288133, 0.00031381435901089549, 0.21145263085299382),
		pareto.NewPoint(0.48085247569641099, 0.00038069296225204835, 0.091829898683623901),
		pareto.NewPoint(0.5, 0.00036774938231751261, 0.094136613546742742),
		pareto.NewPoint(0.37363008932288133, 0.00031381435901089549, 0.21145263085299382),
	}},
}
