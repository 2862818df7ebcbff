package knapsack

// The golden differential corpus: 100 seeded problems whose solutions and
// decision traces were recorded from the ORIGINAL rescan greedy (the
// Reference* engine) into testdata/golden_greedy.json. The test replays
// every case through the heap Solver and diffs levels, value, weight and
// trace records bit-for-bit, and re-runs the reference engine to guard the
// recording itself against drift.
//
// A second golden, testdata/golden_warm.json, records the reference
// Combined solution of every slot of a 200-slot seeded churn workload; one
// Solver reused across all slots must reproduce it, which pins scratch
// reuse across growing and shrinking problems.
//
// Regenerate (only when the algorithm is intentionally changed) with:
//
//	go test ./internal/knapsack -run 'TestGoldenCorpus|TestGoldenChurn' -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the testdata golden files from the reference engine")

const goldenPath = "testdata/golden_greedy.json"
const goldenCases = 100

type goldenRejection struct {
	Item   int    `json:"item"`
	Level  int    `json:"level"`
	Reason string `json:"reason"`
}

type goldenPass struct {
	Levels     []int             `json:"levels"`
	Value      float64           `json:"value"`
	Weight     float64           `json:"weight"`
	Upgrades   int               `json:"upgrades"`
	Rejections []goldenRejection `json:"rejections,omitempty"`
}

type goldenItem struct {
	Values  []float64 `json:"values"`
	Weights []float64 `json:"weights"`
	Cap     float64   `json:"cap"`
}

type goldenCase struct {
	Name    string       `json:"name"`
	Budget  float64      `json:"budget"`
	Items   []goldenItem `json:"items"`
	Density goldenPass   `json:"density"`
	Value   goldenPass   `json:"value"`
	Picked  string       `json:"picked"`
	// Combined duplicates the picked pass's solution for direct diffing.
	Combined goldenPass `json:"combined"`
}

type goldenFile struct {
	Comment string       `json:"comment"`
	Cases   []goldenCase `json:"cases"`
}

func goldenProblem(c *goldenCase) *Problem {
	items := make([]Item, len(c.Items))
	for i, it := range c.Items {
		items[i] = Item{Values: it.Values, Weights: it.Weights, Cap: it.Cap}
	}
	return &Problem{Items: items, Budget: c.Budget}
}

func toGoldenPass(sol Solution, tr PassTrace) goldenPass {
	gp := goldenPass{
		Levels:   append([]int(nil), sol.Levels...),
		Value:    sol.Value,
		Weight:   sol.Weight,
		Upgrades: tr.Upgrades,
	}
	for _, rej := range tr.Rejections {
		gp.Rejections = append(gp.Rejections,
			goldenRejection{Item: rej.Item, Level: rej.Level, Reason: rej.Reason.String()})
	}
	return gp
}

// goldenGenerate draws the corpus problems: a deterministic mix of every
// shape family plus handcrafted degenerate cases.
func goldenGenerate() []*Problem {
	rng := rand.New(rand.NewSource(20260805))
	problems := make([]*Problem, 0, goldenCases)
	shapes := allShapes()
	for i := 0; len(problems) < goldenCases-4; i++ {
		problems = append(problems, shapes[i%len(shapes)].gen(rng))
	}
	// Degenerate corners: zero budget, single item, single level, flat
	// weights (the dw == 0 priority path).
	zero := paperCase2()
	zero.Budget = 0
	problems = append(problems,
		zero,
		&Problem{Budget: 5, Items: []Item{{
			Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Weights: []float64{0, 1, 2, 3, 4, 5, 6, 7}, Cap: 4,
		}}},
		&Problem{Budget: 3, Items: []Item{
			{Values: []float64{2}, Weights: []float64{1}, Cap: 1},
			{Values: []float64{1, 3}, Weights: []float64{1, 1}, Cap: 5},
		}},
		&Problem{Budget: 10, Items: []Item{
			{Values: []float64{0, 4, 4, 5}, Weights: []float64{2, 2, 2, 2}, Cap: 3},
			{Values: []float64{0, -1}, Weights: []float64{0, 0}, Cap: 3},
		}},
	)
	return problems
}

func equalGoldenPass(t *testing.T, name, pass string, want goldenPass, sol Solution, tr PassTrace) {
	t.Helper()
	if len(want.Levels) != len(sol.Levels) {
		t.Fatalf("%s/%s: %d levels, corpus has %d", name, pass, len(sol.Levels), len(want.Levels))
	}
	for i := range want.Levels {
		if want.Levels[i] != sol.Levels[i] {
			t.Fatalf("%s/%s: levels %v differ from corpus %v", name, pass, sol.Levels, want.Levels)
		}
	}
	if math.Float64bits(want.Value) != math.Float64bits(sol.Value) {
		t.Fatalf("%s/%s: value %v (bits %x) differs from corpus %v (bits %x)",
			name, pass, sol.Value, math.Float64bits(sol.Value), want.Value, math.Float64bits(want.Value))
	}
	if math.Float64bits(want.Weight) != math.Float64bits(sol.Weight) {
		t.Fatalf("%s/%s: weight %v differs from corpus %v", name, pass, sol.Weight, want.Weight)
	}
	if want.Upgrades != tr.Upgrades {
		t.Fatalf("%s/%s: %d upgrades, corpus has %d", name, pass, tr.Upgrades, want.Upgrades)
	}
	if len(want.Rejections) != len(tr.Rejections) {
		t.Fatalf("%s/%s: rejections %+v differ from corpus %+v", name, pass, tr.Rejections, want.Rejections)
	}
	for i, rej := range tr.Rejections {
		got := goldenRejection{Item: rej.Item, Level: rej.Level, Reason: rej.Reason.String()}
		if got != want.Rejections[i] {
			t.Fatalf("%s/%s: rejection %d: %+v differs from corpus %+v", name, pass, i, got, want.Rejections[i])
		}
	}
}

func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		file := goldenFile{
			Comment: "Recorded solutions and traces of the original rescan greedy " +
				"(ReferenceDensityGreedy/ReferenceValueGreedy/ReferenceCombined); " +
				"regenerate with: go test ./internal/knapsack -run TestGoldenCorpus -update-golden",
		}
		for i, p := range goldenGenerate() {
			c := goldenCase{Name: fmt.Sprintf("case-%03d", i), Budget: p.Budget}
			for _, it := range p.Items {
				c.Items = append(c.Items, goldenItem{Values: it.Values, Weights: it.Weights, Cap: it.Cap})
			}
			var dtr, vtr PassTrace
			d := p.ReferenceDensityGreedyTraced(&dtr)
			v := p.ReferenceValueGreedyTraced(&vtr)
			c.Density = toGoldenPass(d, dtr)
			c.Value = toGoldenPass(v, vtr)
			var ctr CombinedTrace
			comb := p.ReferenceCombinedTraced(&ctr)
			c.Picked = ctr.Picked.String()
			picked := ctr.Density
			if ctr.Picked == BranchValue {
				picked = ctr.Value
			}
			c.Combined = toGoldenPass(comb, picked)
			file.Cases = append(file.Cases, c)
		}
		raw, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(file.Cases), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (regenerate with -update-golden): %v", err)
	}
	var file goldenFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("parse golden corpus: %v", err)
	}
	if len(file.Cases) != goldenCases {
		t.Fatalf("corpus has %d cases, want %d", len(file.Cases), goldenCases)
	}

	var s Solver
	for i := range file.Cases {
		c := &file.Cases[i]
		p := goldenProblem(c)

		// The heap solver must reproduce the recorded legacy decisions.
		var dtr, vtr PassTrace
		equalGoldenPass(t, c.Name, "solver-density", c.Density, s.DensityGreedyTraced(p, &dtr), dtr)
		equalGoldenPass(t, c.Name, "solver-value", c.Value, s.ValueGreedyTraced(p, &vtr), vtr)
		var ctr CombinedTrace
		comb := s.CombinedTraced(p, &ctr)
		if ctr.Picked.String() != c.Picked {
			t.Fatalf("%s: solver picked %q, corpus has %q", c.Name, ctr.Picked.String(), c.Picked)
		}
		picked := ctr.Density
		if ctr.Picked == BranchValue {
			picked = ctr.Value
		}
		equalGoldenPass(t, c.Name, "solver-combined", c.Combined, comb, picked)

		// And the reference engine must still match its own recording.
		var rdtr, rvtr PassTrace
		equalGoldenPass(t, c.Name, "reference-density", c.Density, p.ReferenceDensityGreedyTraced(&rdtr), rdtr)
		equalGoldenPass(t, c.Name, "reference-value", c.Value, p.ReferenceValueGreedyTraced(&rvtr), rvtr)
	}
}

// ---- 200-slot churn golden workload ----

const churnGoldenPath = "testdata/golden_warm.json"
const churnGoldenSlots = 200

type churnGoldenSlot struct {
	Levels []int   `json:"levels"`
	Value  float64 `json:"value"`
	Weight float64 `json:"weight"`
	Picked string  `json:"picked"`
}

type churnGoldenFile struct {
	Comment string            `json:"comment"`
	Slots   []churnGoldenSlot `json:"slots"`
}

// cloneProblem deep-copies p so a recorded sequence of mutated problems
// stays independent.
func cloneProblem(p *Problem) *Problem {
	items := make([]Item, len(p.Items))
	for i, it := range p.Items {
		items[i] = Item{
			Values:  append([]float64(nil), it.Values...),
			Weights: append([]float64(nil), it.Weights...),
			Cap:     it.Cap,
		}
	}
	return &Problem{Items: items, Budget: p.Budget}
}

// churnProblems deterministically generates the churn workload: 40
// sessions whose rate ladders drift a few entries per slot, budget drift
// every 17 slots, a session joining every 31st slot and one retiring every
// 43rd — the access pattern the slot loop feeds the solver.
func churnProblems() []*Problem {
	rng := rand.New(rand.NewSource(20260807))
	p := randomConcaveProblem(rng, 40, 5)
	out := make([]*Problem, 0, churnGoldenSlots)
	for slot := 0; slot < churnGoldenSlots; slot++ {
		for k := rng.Intn(4); k > 0; k-- {
			it := &p.Items[rng.Intn(len(p.Items))]
			it.Weights[rng.Intn(it.Levels())] = math.Round(rng.Float64()*10*16) / 16
		}
		if slot%17 == 16 {
			p.Budget = math.Round((0.8+0.4*rng.Float64())*p.Budget*16) / 16
		}
		if slot%31 == 30 {
			np := randomConcaveProblem(rng, 1, 5)
			p.Items = append(p.Items, np.Items[0])
		}
		if slot%43 == 42 && len(p.Items) > 2 {
			p.Items = p.Items[:len(p.Items)-1]
		}
		out = append(out, cloneProblem(p))
	}
	return out
}

func toChurnGoldenSlot(sol Solution, picked Branch) churnGoldenSlot {
	return churnGoldenSlot{
		Levels: append([]int(nil), sol.Levels...),
		Value:  sol.Value,
		Weight: sol.Weight,
		Picked: picked.String(),
	}
}

// TestGoldenChurn replays the churn workload slot by slot through one
// reused Solver and through the reference engine; both must match the
// recording bit for bit.
func TestGoldenChurn(t *testing.T) {
	problems := churnProblems()
	if *updateGolden {
		file := churnGoldenFile{
			Comment: "Reference Combined solutions for the 200-slot seeded churn workload " +
				"(churnProblems); regenerate with: go test ./internal/knapsack -run TestGoldenChurn -update-golden",
		}
		for _, p := range problems {
			var tr CombinedTrace
			file.Slots = append(file.Slots, toChurnGoldenSlot(p.ReferenceCombinedTraced(&tr), tr.Picked))
		}
		raw, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(churnGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d slots to %s", len(file.Slots), churnGoldenPath)
		return
	}

	raw, err := os.ReadFile(churnGoldenPath)
	if err != nil {
		t.Fatalf("read churn golden (regenerate with -update-golden): %v", err)
	}
	var file churnGoldenFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("parse churn golden: %v", err)
	}
	if len(file.Slots) != churnGoldenSlots {
		t.Fatalf("golden has %d slots, want %d", len(file.Slots), churnGoldenSlots)
	}

	var s Solver
	for slot, p := range problems {
		want := file.Slots[slot]
		var str, rtr CombinedTrace
		got := map[string]churnGoldenSlot{
			"solver":    toChurnGoldenSlot(s.CombinedTraced(p, &str), str.Picked),
			"reference": toChurnGoldenSlot(p.ReferenceCombinedTraced(&rtr), rtr.Picked),
		}
		for name, g := range got {
			if fmt.Sprint(g.Levels) != fmt.Sprint(want.Levels) {
				t.Fatalf("slot %d/%s: levels %v differ from golden %v", slot, name, g.Levels, want.Levels)
			}
			if math.Float64bits(g.Value) != math.Float64bits(want.Value) ||
				math.Float64bits(g.Weight) != math.Float64bits(want.Weight) {
				t.Fatalf("slot %d/%s: value/weight %v/%v differ from golden %v/%v",
					slot, name, g.Value, g.Weight, want.Value, want.Weight)
			}
			if g.Picked != want.Picked {
				t.Fatalf("slot %d/%s: picked %v, golden has %v", slot, name, g.Picked, want.Picked)
			}
		}
	}
}
