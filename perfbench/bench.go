package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"pedal/internal/core"
	"pedal/internal/fleet"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

// slot is one message of a cycle and everything the calls returned.
type slot struct {
	op         Op
	in         []byte
	msg, out   []byte
	crep, drep core.Report
	cdur, ddur time.Duration
	cerr, derr error
}

// kindAcc accumulates one operation kind (compress or decompress).
type kindAcc struct {
	bytes   int64 // uncompressed bytes
	wall    time.Duration
	virtual time.Duration
	lat     []time.Duration
}

func (k *kindAcc) add(n int, d time.Duration, v time.Duration) {
	k.bytes += int64(n)
	k.wall += d
	k.virtual += v
	k.lat = append(k.lat, d)
}

// results is what a run measured and checked.
type results struct {
	comp, decomp        kindAcc
	losslessIn, lossOut int64
	sz3In, sz3Out       int64
	ops, cengineOps     int // reports seen, and those that ran on the C-Engine
	allocBytes          uint64
	attempted, failed   int
	reasons             map[string]int
	correct             bool
	problems            []string
	stdlibChecks        int
	lz4Checks           int
	seededRejects       int // stdlib rejections of seeded messages, attributed to the named fault
	cycles              int
	callTime, checkTime time.Duration // wall time of call phases and of the checks after them
}

func newResults() *results {
	return &results{correct: true, reasons: map[string]int{}}
}

// fail records a failed operation with its reason and, for the first
// few, what the program said.
func (r *results) fail(reason, detail string) {
	r.failed++
	r.reasons[reason]++
	if detail != "" && len(r.problems) < 20 {
		r.problems = append(r.problems, reason+": "+detail)
	}
}

// tailShort reports whether the run still lacks the latency samples its
// workload's p99 needs.
func (r *results) tailShort(w *Workload) bool {
	return min(len(r.comp.lat), len(r.decomp.lat)) < w.TailSamples
}

// wrong records an output that did not check out.
func (r *results) wrong(what string) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, "wrong output: "+what)
	}
}

// executor runs cycles of a workload against its rig.
type executor struct {
	w       *Workload
	rig     *rig
	res     *results
	tracer  *tracer // nil when spans are off
	checker *checker
}

func newExecutor(w *Workload, r *rig, res *results) *executor {
	return &executor{
		w: w, rig: r, res: res,
		checker: &checker{},
	}
}

// allocSample is read only from the main goroutine, between calls.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// runCycle executes one cycle: size class by size class, every caller
// runs its share of the seeded messages back to back (closed loop), then
// the canary, if the workload has one, runs outside the measured phase,
// and the outputs are checked outside the timed calls. It returns the
// wall time of the measured call phase.
func (e *executor) runCycle(p *Plan, ops []Op) time.Duration {
	slots := make([]slot, len(ops))
	for i, o := range ops {
		slots[i] = slot{op: o, in: p.Input(o)}
	}
	seeded, canaries := slots, []slot(nil)
	if n := len(slots); n > 0 && slots[n-1].op.Canary {
		seeded, canaries = slots[:n-1], slots[n-1:]
	}
	before := heapAllocs()
	start := time.Now()
	for lo := 0; lo < len(seeded); {
		hi := lo + 1
		for hi < len(seeded) && seeded[hi].op.Size == seeded[lo].op.Size {
			hi++
		}
		e.runClass(seeded[lo:hi])
		lo = hi
	}
	phase := time.Since(start)
	e.res.allocBytes += heapAllocs() - before
	for i := range canaries {
		e.call(0, &canaries[i])
	}
	checks := time.Now()
	for i := range seeded {
		e.account(&seeded[i])
	}
	for i := range canaries {
		e.accountCanary(&canaries[i])
	}
	e.res.cycles++
	e.res.callTime += phase
	e.res.checkTime += time.Since(checks)
	return phase
}

// runClass runs the messages of one size class. The callers take turns
// over them, each closed loop, and all of them finish the class before
// the next one starts.
func (e *executor) runClass(slots []slot) {
	if e.w.Callers == 1 {
		for i := range slots {
			e.call(0, &slots[i])
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < e.w.Callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(slots); i += e.w.Callers {
				e.call(c, &slots[i])
			}
		}(c)
	}
	wg.Wait()
}

// call runs one message through the workload's entry points.
func (e *executor) call(caller int, s *slot) {
	o := s.op
	dt := o.DataType()
	var t0 time.Time
	span := e.tracer.begin(caller, o, "op", 0)
	switch {
	case e.rig.router != nil:
		req := fleet.Request{Key: o.Key, Class: fleet.BestEffort, Idempotent: true}
		name := "fleet.Compress"
		if o.Path == Checked {
			name = "fleet.CompressChecked"
		}
		cs := e.tracer.begin(caller, o, name, span)
		t0 = time.Now()
		if o.Path == Checked {
			s.msg, s.cerr = e.rig.router.CompressChecked(req, o.Design, dt, s.in)
		} else {
			s.msg, s.cerr = e.rig.router.Compress(req, o.Design, dt, s.in)
		}
		s.cdur = time.Since(t0)
		e.tracer.end(cs)
		if s.cerr != nil {
			break
		}
		name = "fleet.Decompress"
		if o.Path == Checked {
			name = "fleet.DecompressChecked"
		}
		ds := e.tracer.begin(caller, o, name, span)
		t0 = time.Now()
		if o.Path == Checked {
			s.out, s.derr = e.rig.router.DecompressChecked(req, o.Design.Engine, dt, s.msg, o.Size)
		} else {
			s.out, s.derr = e.rig.router.Decompress(req, o.Design.Engine, dt, s.msg, o.Size)
		}
		s.ddur = time.Since(t0)
		e.tracer.end(ds)
	case len(e.rig.clients) > 0:
		cl := e.rig.clients[caller]
		cs := e.tracer.begin(caller, o, "service.Compress", span)
		t0 = time.Now()
		s.msg, s.cerr = cl.Compress(o.Design, dt, s.in)
		s.cdur = time.Since(t0)
		e.tracer.end(cs)
		if s.cerr != nil {
			break
		}
		ds := e.tracer.begin(caller, o, "service.Decompress", span)
		t0 = time.Now()
		s.out, s.derr = cl.Decompress(o.Design.Engine, dt, s.msg, o.Size)
		s.ddur = time.Since(t0)
		e.tracer.end(ds)
	default:
		lib := e.rig.libs[o.Gen]
		name := "core.Compress"
		if o.Path == Pipelined {
			name = "core.CompressPipelined"
		}
		cs := e.tracer.begin(caller, o, name, span)
		t0 = time.Now()
		if o.Path == Pipelined {
			s.msg, s.crep, s.cerr = lib.CompressPipelined(o.Design, dt, s.in)
		} else {
			s.msg, s.crep, s.cerr = lib.Compress(o.Design, dt, s.in)
		}
		s.cdur = time.Since(t0)
		e.tracer.end(cs)
		if s.cerr != nil {
			break
		}
		name = "core.Decompress"
		if o.Path == Pipelined {
			name = "core.DecompressPipelined"
		}
		ds := e.tracer.begin(caller, o, name, span)
		t0 = time.Now()
		if o.Path == Pipelined {
			s.out, s.drep, s.derr = lib.DecompressPipelined(o.Design.Engine, s.msg, o.Size)
		} else {
			s.out, s.drep, s.derr = lib.Decompress(o.Design.Engine, dt, s.msg, o.Size)
		}
		s.ddur = time.Since(t0)
		e.tracer.end(ds)
	}
	e.tracer.end(span)
}

// account checks one slot's outputs and adds it to the results.
func (e *executor) account(s *slot) {
	r := e.res
	o := s.op
	r.attempted++
	if s.cerr != nil {
		r.fail("compress_error", o.Design.String()+": "+s.cerr.Error())
		return
	}
	r.comp.add(o.Size, s.cdur, s.crep.Virtual)
	if o.Design.Algo == core.AlgoSZ3 {
		r.sz3In += int64(o.Size)
		r.sz3Out += int64(len(s.msg))
	} else {
		r.losslessIn += int64(o.Size)
		r.lossOut += int64(len(s.msg))
	}
	libPath := e.rig.router == nil && len(e.rig.clients) == 0
	if libPath {
		r.ops += 2
		if s.crep.Engine == hwmodel.CEngine {
			r.cengineOps++
		}
		if s.drep.Engine == hwmodel.CEngine && s.derr == nil {
			r.cengineOps++
		}
	}
	// Messages of the serial library path are also decoded apart from
	// the program.
	if libPath && o.Path == Serial && e.checker.external(r, s) == rejectSeeded {
		r.seededRejects++
	}
	r.attempted++
	if s.derr != nil {
		r.fail("decompress_error", o.Design.String()+": "+s.derr.Error())
	} else {
		r.decomp.add(o.Size, s.ddur, s.drep.Virtual)
		e.checker.roundTrip(r, s)
	}
	// The message came from the library's pool and goes back to it.
	// Decompressed outputs are left to the GC: Decompress never draws its
	// output from the pool, so releasing them would only park up to 32
	// dead buffers per size class there (see README).
	if libPath {
		e.rig.libs[o.Gen].Release(s.msg)
	}
}

// accountCanary checks the canary message. It counts as two attempted
// operations, and a stdlib rejection, the named fault, fails its
// compress with reason stdlib_reject. It adds nothing to the metrics.
func (e *executor) accountCanary(s *slot) {
	r := e.res
	o := s.op
	r.attempted += 2
	if s.cerr != nil {
		r.fail("compress_error", "canary "+o.Design.String()+": "+s.cerr.Error())
		return
	}
	if e.checker.external(r, s) == rejectCanary {
		r.fail("stdlib_reject", "")
	}
	if s.derr != nil {
		r.fail("decompress_error", "canary "+o.Design.String()+": "+s.derr.Error())
	} else {
		e.checker.roundTrip(r, s)
	}
	e.rig.libs[o.Gen].Release(s.msg)
}

// virtualFromPhases splits the serving libraries' virtual time between
// compression and decompression, for the service workloads whose wire
// protocol carries no per-operation report. Phases other than the two
// are shared in proportion to them.
func virtualFromPhases(before, after []mapPhase) (comp, decomp time.Duration) {
	var c, d, other time.Duration
	for i := range after {
		for ph, v := range after[i] {
			delta := v - before[i][ph]
			switch ph {
			case stats.PhaseCompress:
				c += delta
			case stats.PhaseDecompress:
				d += delta
			default:
				other += delta
			}
		}
	}
	if c+d == 0 {
		return 0, 0
	}
	share := float64(c) / float64(c+d)
	return c + time.Duration(share*float64(other)), d + time.Duration((1-share)*float64(other))
}

// mapPhase is a library's accumulated virtual time per phase.
type mapPhase = map[stats.Phase]time.Duration

func phaseSnapshots(libs []*core.Library) []mapPhase {
	var out []mapPhase
	for _, l := range libs {
		out = append(out, l.TotalBreakdown().Snapshot())
	}
	return out
}
