package main

import (
	"reflect"
	"testing"

	"pedal/internal/core"
	"pedal/internal/datasets"
)

// sizedCorpora stands in for loadCorpora in tests: the plan only looks at
// corpus sizes and kinds, so the bytes are left zero and untouched.
func sizedCorpora() []Corpus {
	var cs []Corpus
	for _, d := range datasets.All() {
		cs = append(cs, Corpus{Name: d.Name, Float: d.Lossy || d.Name == "obs_error", Data: make([]byte, d.Size)})
	}
	return append(cs, Corpus{Name: "random", Data: make([]byte, 24<<20)}, Corpus{Name: "zeros", Data: make([]byte, 16<<20)})
}

func cycles(w *Workload, cs []Corpus, seed int64, n int) [][]Op {
	p := NewPlan(w, cs, seed)
	var out [][]Op
	for i := 0; i < n; i++ {
		out = append(out, p.Next())
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	cs := sizedCorpora()
	for name, w := range workloads() {
		a, b := cycles(w, cs, 42, 12), cycles(w, cs, 42, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 yields two different sequences", name)
		}
		if reflect.DeepEqual(a, cycles(w, cs, 43, 12)) {
			t.Errorf("%s: seeds 42 and 43 yield the same sequence", name)
		}
	}
}

func TestEveryDimensionAppears(t *testing.T) {
	cs := sizedCorpora()
	for name, w := range workloads() {
		corpus, design, gen, size, path := map[int]bool{}, map[core.Design]bool{}, map[int]bool{}, map[int]bool{}, map[Path]bool{}
		for _, ops := range cycles(w, cs, 7, 16) {
			for _, o := range ops {
				if o.Canary {
					continue
				}
				corpus[o.Corpus], design[o.Design], gen[o.Gen], size[o.Size], path[o.Path] = true, true, true, true, true
				if o.Design.Algo == core.AlgoSZ3 && !cs[o.Corpus].Float {
					t.Errorf("%s: SZ3 drew non-float corpus %s", name, cs[o.Corpus].Name)
				}
				if o.Off%8 != 0 || o.Off+o.Size > len(cs[o.Corpus].Data) {
					t.Errorf("%s: bad slice [%d:+%d] of %s", name, o.Off, o.Size, cs[o.Corpus].Name)
				}
			}
		}
		if len(corpus) != len(cs) || len(design) != len(core.Designs()) || len(gen) != len(w.Gens) ||
			len(size) != len(w.Sizes) || len(path) != len(w.Paths) {
			t.Errorf("%s: saw %d/%d corpora, %d/%d designs, %d/%d generations, %d/%d sizes, %d/%d paths", name,
				len(corpus), len(cs), len(design), len(core.Designs()), len(gen), len(w.Gens), len(size), len(w.Sizes), len(path), len(w.Paths))
		}
	}
}

func TestCyclesHaveFixedShape(t *testing.T) {
	cs := sizedCorpora()
	for name, w := range workloads() {
		want := 0
		for _, sc := range w.Sizes {
			want += sc.Count
		}
		for i, ops := range cycles(w, cs, 3, 9) {
			canaries := 0
			for _, o := range ops {
				if o.Canary {
					canaries++
				}
			}
			if len(ops)-canaries != want || (w.Canary != nil) != (canaries == 1) {
				t.Errorf("%s cycle %d: %d ops with %d canaries", name, i, len(ops), canaries)
			}
		}
	}
}

func TestRoundsRepeatTheMix(t *testing.T) {
	cs := sizedCorpora()
	type mix struct {
		corpus, gen, size int
		design            core.Design
		path              Path
	}
	for name, w := range workloads() {
		var rounds []map[mix]int
		for i, ops := range cycles(w, cs, 5, 3*w.RoundCycles()) {
			if i%w.RoundCycles() == 0 {
				rounds = append(rounds, map[mix]int{})
			}
			for _, o := range ops {
				rounds[len(rounds)-1][mix{o.Corpus, o.Gen, o.Size, o.Design, o.Path}]++
			}
		}
		for i := 1; i < len(rounds); i++ {
			if !reflect.DeepEqual(rounds[0], rounds[i]) {
				t.Errorf("%s: round %d deals another mix than round 0", name, i)
			}
		}
	}
}

func TestCyclesDealClassesInTurn(t *testing.T) {
	cs := sizedCorpora()
	for name, w := range workloads() {
		firsts := map[int]bool{}
		for i, ops := range cycles(w, cs, 11, 8) {
			done := map[int]bool{}
			for k, o := range ops {
				if o.Canary || (k > 0 && ops[k-1].Size == o.Size) {
					continue
				}
				if done[o.Size] {
					t.Errorf("%s cycle %d: size %d dealt in two stretches", name, i, o.Size)
				}
				done[o.Size] = true
			}
			firsts[ops[0].Size] = true
		}
		if len(w.Sizes) > 1 && len(firsts) < 2 {
			t.Errorf("%s: every cycle starts with the same size class", name)
		}
	}
}
