package main

import (
	"fmt"
	"math/rand"

	"pedal/internal/core"
	"pedal/internal/datasets"
	"pedal/internal/hwmodel"
)

// Path is how one message travels through the program.
type Path uint8

const (
	// Serial is Library.Compress/Decompress (the checkpoint-shard path)
	// or, in the service workloads, the plain client/router calls.
	Serial Path = iota
	// Pipelined is CompressPipelined/DecompressPipelined (the MPI
	// rendezvous path).
	Pipelined
	// Checked is CompressChecked/DecompressChecked through the fleet
	// router (the checkpoint store's remote path).
	Checked
)

func (p Path) String() string {
	return [...]string{"serial", "pipelined", "checked"}[p]
}

// Corpus is one input the benchmark slices messages from.
type Corpus struct {
	Name  string
	Float bool // little-endian float32 values: eligible for SZ3
	Data  []byte
}

// loadCorpora builds the eight Table IV substitutes plus a random and an
// all-zero corpus. Every byte is fixed; the seed only picks slices.
func loadCorpora() []Corpus {
	var cs []Corpus
	for _, d := range datasets.All() {
		cs = append(cs, Corpus{Name: d.Name, Float: d.Lossy || d.Name == "obs_error", Data: d.Bytes()})
	}
	rnd := make([]byte, 24<<20)
	rand.New(rand.NewSource(0x5eed)).Read(rnd)
	cs = append(cs, Corpus{Name: "random", Data: rnd}, Corpus{Name: "zeros", Data: make([]byte, 16<<20)})
	return cs
}

// Op is one message: compressed, then the message decompressed again.
type Op struct {
	Corpus int
	Off    int
	Size   int
	Design core.Design
	Gen    int // index into the workload's generations
	Path   Path
	Key    string // fleet routing key, one per operation
	// Canary marks the fixed, seed-independent message every cycle
	// carries to keep the named Huffman fault visible (see README).
	Canary bool
}

// DataType is the datatype the op declares to the program.
func (o Op) DataType() core.DataType {
	if o.Design.Algo == core.AlgoSZ3 {
		return core.TypeFloat32
	}
	return core.TypeBytes
}

// sizeClass is one message size and how many messages of it a cycle holds.
type sizeClass struct {
	Size  int
	Count int
}

// Workload describes one closed-loop traffic mix.
type Workload struct {
	Name    string
	Callers int
	Gens    []hwmodel.Generation
	Sizes   []sizeClass
	Designs []core.Design
	Paths   []Path
	// TailSamples is how many latency samples per operation kind a run
	// must collect before it may stop; 0 means the run stops on time
	// alone (bulk-stream, whose messages are too large to reach it).
	TailSamples int
	// Canary, when set, is appended to every cycle. Its input is fixed
	// (corpus, offset and size do not depend on the seed).
	Canary *Op
}

const (
	kib = 1 << 10
	mib = 1 << 20
	// minTailSamples is the sample count at which the p99 has ten
	// samples beyond it.
	minTailSamples = 1000
)

var (
	bf2Only  = []hwmodel.Generation{hwmodel.BlueField2}
	bothGens = []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3}
	// serviceSizes sends every size equally often: no measured request
	// mix was at hand to weight the sizes by.
	serviceSizes = []sizeClass{{4 * kib, 8}, {16 * kib, 8}, {64 * kib, 8}, {256 * kib, 8}, {1 * mib, 8}}
)

// corpusIndex returns the index of the named corpus in loadCorpora's order.
func corpusIndex(name string) int {
	for i, d := range datasets.All() {
		if d.Name == name {
			return i
		}
	}
	panic("unknown corpus " + name)
}

// workloads returns the four benchmark workloads by name.
func workloads() map[string]*Workload {
	socDeflate := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}
	obs := corpusIndex("obs_error")
	return map[string]*Workload{
		"small-msg": {
			Name: "small-msg", Callers: 1, Gens: bothGens, TailSamples: minTailSamples,
			Sizes:   []sizeClass{{4 * kib, 64}},
			Designs: core.Designs(), Paths: []Path{Serial},
			Canary: &Op{Corpus: obs, Size: 4 * kib, Design: socDeflate, Canary: true},
		},
		"bulk-stream": {
			Name: "bulk-stream", Callers: 1, Gens: bothGens,
			Sizes:   []sizeClass{{1 * mib, 1}, {4 * mib, 1}, {16 * mib, 1}},
			Designs: core.Designs(), Paths: []Path{Serial, Pipelined},
			Canary: &Op{Corpus: obs, Size: 1 * mib, Design: socDeflate, Canary: true},
		},
		"pedald-2c": {
			Name: "pedald-2c", Callers: 2, Gens: bf2Only, TailSamples: minTailSamples,
			Sizes: serviceSizes, Designs: core.Designs(), Paths: []Path{Serial},
		},
		"fleet-2c": {
			Name: "fleet-2c", Callers: 2, Gens: bf2Only, TailSamples: minTailSamples,
			Sizes: serviceSizes, Designs: core.Designs(), Paths: []Path{Serial, Checked},
		},
	}
}

// classStreams deals out the messages of one size class in blocks that
// hold every design once. Within each engine group (the SoC designs, the
// C-Engine designs) a block gives each generation × path combination to
// the same number of designs, rotating them from block to block and from
// size to size, and corpora are dealt in rotation too. The rotation
// starts afresh every round, so every round holds the same mix whatever
// the seed and however many rounds a run measures: the seed draws the
// offsets of the slices and the order of the messages. Corpora smaller
// than the class's size are left out of its rotation.
type classStreams struct {
	index            int // position of the class in Workload.Sizes
	perRound         int // blocks the class deals per round
	blocks           int // blocks dealt so far
	block            []Op
	lossless, floats []int
}

// draw returns the next message of the class, without its offset.
func (cs *classStreams) draw(w *Workload, rng *rand.Rand) Op {
	if len(cs.block) == 0 {
		b := cs.blocks % cs.perRound
		ncombo := len(w.Gens) * len(w.Paths)
		pos := map[hwmodel.Engine]int{}
		var nl, nf int // lossless and SZ3 designs in the block so far
		for _, d := range w.Designs {
			c := (pos[d.Engine] + cs.index + b) % ncombo
			pos[d.Engine]++
			o := Op{Design: d, Gen: c % len(w.Gens), Path: w.Paths[c/len(w.Gens)]}
			// Every corpus feeds the lossless designs; SZ3 takes only the
			// float32 corpora. Each block starts one corpus further on than
			// where the previous one stopped, so a design meets a different
			// corpus in each block of a round.
			if d.Algo == core.AlgoSZ3 {
				o.Corpus = cs.floats[(b*(w.sz3Designs()+1)+cs.index*w.sz3Designs()+nf)%len(cs.floats)]
				nf++
			} else {
				nlossless := len(w.Designs) - w.sz3Designs()
				o.Corpus = cs.lossless[(b*(nlossless+1)+cs.index*nlossless+nl)%len(cs.lossless)]
				nl++
			}
			cs.block = append(cs.block, o)
		}
		cs.blocks++
		rng.Shuffle(len(cs.block), func(a, b int) { cs.block[a], cs.block[b] = cs.block[b], cs.block[a] })
	}
	o := cs.block[0]
	cs.block = cs.block[1:]
	return o
}

// sz3Designs counts the workload's SZ3 designs.
func (w *Workload) sz3Designs() int {
	n := 0
	for _, d := range w.Designs {
		if d.Algo == core.AlgoSZ3 {
			n++
		}
	}
	return n
}

// Plan yields a workload's cycles for one seed. The same seed always
// yields the same sequence of cycles.
type Plan struct {
	w       *Workload
	corpora []Corpus
	classes []classStreams
	rng     *rand.Rand // offsets and order
	nextKey int
}

// NewPlan seeds a plan.
func NewPlan(w *Workload, corpora []Corpus, seed int64) *Plan {
	p := &Plan{w: w, corpora: corpora, rng: rand.New(rand.NewSource(seed))}
	for j, sc := range w.Sizes {
		cs := classStreams{index: j, perRound: w.RoundCycles() * sc.Count / len(w.Designs)}
		for i, c := range corpora {
			if len(c.Data) < sc.Size {
				continue
			}
			cs.lossless = append(cs.lossless, i)
			if c.Float {
				cs.floats = append(cs.floats, i)
			}
		}
		p.classes = append(p.classes, cs)
	}
	return p
}

// Next returns the next cycle's operations in their execution order.
// The cycle deals its size classes one after another, in an order the
// seed draws, and each class's messages in an order the seed draws. The
// callers of a two-caller workload therefore send messages of one size
// at the same time, as the ranks of an MPI collective or the shards of
// one checkpoint do; runCycle keeps them in step class by class.
func (p *Plan) Next() []Op {
	order := p.rng.Perm(len(p.w.Sizes))
	var ops []Op
	for _, j := range order {
		sc := p.w.Sizes[j]
		cs := &p.classes[j]
		first := len(ops)
		for i := 0; i < sc.Count; i++ {
			o := cs.draw(p.w, p.rng)
			o.Size = sc.Size
			n := len(p.corpora[o.Corpus].Data)
			o.Off = p.rng.Intn((n-o.Size)/8+1) * 8
			ops = append(ops, o)
		}
		class := ops[first:]
		p.rng.Shuffle(len(class), func(a, b int) { class[a], class[b] = class[b], class[a] })
	}
	if p.w.Canary != nil {
		ops = append(ops, *p.w.Canary)
	}
	for i := range ops {
		ops[i].Key = fmt.Sprintf("%s/%d", p.w.Name, p.nextKey)
		p.nextKey++
	}
	return ops
}

// RoundCycles is how many cycles hold whole design blocks in every size
// class. A run measures whole rounds, so the mix of designs, generations
// and paths it measures is the same for every seed.
func (w *Workload) RoundCycles() int {
	round := 1
	for _, sc := range w.Sizes {
		need := len(w.Designs) / gcd(len(w.Designs), sc.Count)
		round = round * need / gcd(round, need)
	}
	return round
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Input returns the op's message bytes.
func (p *Plan) Input(o Op) []byte {
	return p.corpora[o.Corpus].Data[o.Off : o.Off+o.Size]
}
