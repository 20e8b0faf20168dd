package main

import (
	"bytes"
	stdflate "compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/core"
	"pedal/internal/flate"
	"pedal/internal/fleet"
	"pedal/internal/hwmodel"
	"pedal/internal/lz4"
	"pedal/internal/lz77"
	"pedal/internal/service"
	"pedal/internal/stats"
	"pedal/internal/sz3"
	"pedal/internal/zlibfmt"
)

// rate accumulates bytes over time spent in one layer's calls.
type rate struct {
	bytes int64
	d     time.Duration
}

func (r *rate) add(n int, d time.Duration) { r.bytes += int64(n); r.d += d }
func (r *rate) mbps() float64              { return mbps(r.bytes, r.d) }

// layerAcc collects the replay's per-layer observations.
type layerAcc struct {
	lz77, flateC, flateD, zlibC, zlibD, lz4C, lz4D, sz3C, sz3D, crc rate

	flateAlloc, lz4Alloc   uint64
	flateCalls, lz4Calls   int
	flateRejects           int             // flate.Compress outputs Go's compress/flate rejects
	coreC, coreD           []time.Duration // Library call minus codec call
	serialC, pipeC         time.Duration   // same inputs, serial vs pipelined
	serialD, pipeD         time.Duration
	serialV, pipeV         time.Duration // virtual compress time
	serialOut, pipeOut     int64
	serviceC, serviceD     []time.Duration // client round trip minus Library call
	fleetC, fleetD, fleetK []time.Duration // router minus direct client; checked minus plain
	reports, cengine       int
	msgs                   []Op
}

// runTraced is the traced run. It first runs the workload's cycles twice
// each, once with spans recorded around every program call and once
// without, alternating which goes first; the difference is the tracing
// overhead. It then replays a seeded sample of the workload's messages
// through each layer's public entry points on the same bytes, and reads
// the program's counters.
func runTraced(w *Workload, r *rig, ex *executor, plan *Plan, seed int64, dur time.Duration) (map[string]metric, error) {
	tr := newTracer(w.Callers)
	var plain, traced time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < dur/2 || i == 0; i++ {
		ops := plan.Next()
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				ex.tracer = nil
				plain += ex.runCycle(plan, ops)
			} else {
				ex.tracer = tr
				traced += ex.runCycle(plan, ops)
			}
		}
	}
	ex.tracer = nil
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "traced run: %d spans written to %s\n", tr.count(), path)

	rep, err := newReplayRig()
	if err != nil {
		return nil, err
	}
	defer rep.close()
	acc := &layerAcc{}
	replayStart := time.Now()
	for len(acc.msgs) == 0 || time.Since(replayStart) < dur/2 || acc.lz77.bytes == 0 || acc.sz3C.bytes == 0 {
		for _, o := range plan.Next() {
			if o.Canary {
				continue
			}
			if err := acc.replay(rep, plan, o); err != nil {
				return nil, err
			}
		}
	}
	m := acc.metrics()
	m["trace.overhead_pct"] = metric{100 * (float64(traced)/float64(plain) - 1), "%"}
	counters(m, r, rep, ex.res, acc)
	scaling, err := concurrencyScaling(rep, plan, acc.msgs)
	if err != nil {
		return nil, err
	}
	m["core.concurrency_scaling"] = metric{scaling, "x"}
	return m, nil
}

// newReplayRig builds the layers the replay calls: two pedald shards over
// BlueField-2 libraries, a client per shard and a fleet router over both.
func newReplayRig() (*rig, error) {
	r := &rig{}
	if err := r.addServers(2); err != nil {
		return nil, err
	}
	for _, a := range r.addrs {
		cl, err := service.Dial(a)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	r.router = fleet.NewRouter(fleet.Config{})
	for i, a := range r.addrs {
		r.router.AddShard(shardID(i), a)
	}
	return r, nil
}

func shardID(i int) string { return fmt.Sprintf("shard-%d", i) }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// replay runs one message through every layer that applies to it. Each
// layer is called on the same bytes; the steps run in the opposite order
// on every other message, so that the first call's cold caches do not
// fall on the same layer each time.
func (a *layerAcc) replay(rep *rig, p *Plan, o Op) error {
	in := p.Input(o)
	n := len(in)
	dt := o.DataType()
	shard := shardIndex(rep.router.Primary(o.Key))
	lib := rep.libs[shard]
	direct := rep.clients[shard]
	req := fleet.Request{Key: o.Key, Class: fleet.BestEffort, Idempotent: true}

	var codecC, codecD time.Duration
	var libC, libD, pipC, pipD, dirC, dirD, rC, rD, kC, kD time.Duration
	var crep, drep, prep core.Report
	var serialLen, pipeLen int
	steps := []func() error{
		func() (err error) { // kernels and codecs, each called directly
			codecC, codecD, err = a.codecs(o, in, p.corpora[o.Corpus].Float)
			return err
		},
		func() (err error) { // core.Library, serial
			var msg []byte
			if libC = timed(func() { msg, crep, err = lib.Compress(o.Design, dt, in) }); err != nil {
				return fmt.Errorf("core replay: %w", err)
			}
			serialLen = len(msg)
			libD = timed(func() { _, drep, err = lib.Decompress(o.Design.Engine, dt, msg, n) })
			lib.Release(msg)
			return err
		},
		func() (err error) { // core.Library, pipelined
			var msg []byte
			if pipC = timed(func() { msg, prep, err = lib.CompressPipelined(o.Design, dt, in) }); err != nil {
				return fmt.Errorf("pipeline replay: %w", err)
			}
			pipeLen = len(msg)
			pipD = timed(func() { _, _, err = lib.DecompressPipelined(o.Design.Engine, msg, n) })
			return err
		},
		func() (err error) { // pedald: a client on the key's shard
			var msg []byte
			if dirC = timed(func() { msg, err = direct.Compress(o.Design, dt, in) }); err != nil {
				return fmt.Errorf("service replay: %w", err)
			}
			dirD = timed(func() { _, err = direct.Decompress(o.Design.Engine, dt, msg, n) })
			return err
		},
		func() (err error) { // fleet: the router
			var msg []byte
			if rC = timed(func() { msg, err = rep.router.Compress(req, o.Design, dt, in) }); err != nil {
				return fmt.Errorf("fleet replay: %w", err)
			}
			rD = timed(func() { _, err = rep.router.Decompress(req, o.Design.Engine, dt, msg, n) })
			return err
		},
		func() (err error) { // fleet: the checked calls
			var msg []byte
			if kC = timed(func() { msg, err = rep.router.CompressChecked(req, o.Design, dt, in) }); err != nil {
				return fmt.Errorf("fleet replay: %w", err)
			}
			kD = timed(func() { _, err = rep.router.DecompressChecked(req, o.Design.Engine, dt, msg, n) })
			return err
		},
	}
	if len(a.msgs)%2 == 1 {
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
	}
	a.msgs = append(a.msgs, o)
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	a.reports += 2
	a.cengine += engineCount(crep) + engineCount(drep)
	if codecC > 0 {
		a.coreC = append(a.coreC, libC-codecC)
		a.coreD = append(a.coreD, libD-codecD)
	}
	a.serialC += libC
	a.pipeC += pipC
	a.serialD += libD
	a.pipeD += pipD
	a.serialV += crep.Virtual
	a.pipeV += prep.Virtual
	a.serialOut += int64(serialLen)
	a.pipeOut += int64(pipeLen)
	a.serviceC = append(a.serviceC, dirC-libC)
	a.serviceD = append(a.serviceD, dirD-libD)
	a.fleetC = append(a.fleetC, rC-dirC)
	a.fleetD = append(a.fleetD, rD-dirD)
	a.fleetK = append(a.fleetK, (kC+kD-rC-rD)/2)
	return nil
}

// codecs times the kernels and codecs on one message and returns the
// compress and decompress times of the codec the message's design uses
// (zero for SZ3, whose Library path adds its own backend stage).
func (a *layerAcc) codecs(o Op, in []byte, float bool) (codecC, codecD time.Duration, err error) {
	n := len(in)
	if o.Design.Algo != core.AlgoSZ3 {
		var m lz77.Matcher
		a.lz77.add(n, timed(func() { _ = m.Tokens(in, lz77.LevelParams(6), nil) }))
		var fc, zc, lc []byte
		before := heapAllocs()
		fcd := timed(func() { fc = flate.Compress(in, 6) })
		a.flateAlloc += heapAllocs() - before
		a.flateCalls++
		if _, err := io.Copy(io.Discard, stdflate.NewReader(bytes.NewReader(fc))); err != nil {
			a.flateRejects++
		}
		fdd := timed(func() { _, _ = flate.Decompress(fc) })
		zcd := timed(func() { zc = zlibfmt.Compress(in, 6) })
		zdd := timed(func() { _, _ = zlibfmt.Decompress(zc) })
		before = heapAllocs()
		lcd := timed(func() { lc = lz4.Compress(in) })
		a.lz4Alloc += heapAllocs() - before
		a.lz4Calls++
		ldd := timed(func() { _, _ = lz4.Decompress(lc) })
		a.flateC.add(n, fcd)
		a.flateD.add(n, fdd)
		a.zlibC.add(n, zcd)
		a.zlibD.add(n, zdd)
		a.lz4C.add(n, lcd)
		a.lz4D.add(n, ldd)
		a.crc.add(n, timed(func() { _ = checksum.CRC32(in) }))
		switch o.Design.Algo {
		case core.AlgoDeflate:
			codecC, codecD = fcd, fdd
		case core.AlgoZlib:
			codecC, codecD = zcd, zdd
		case core.AlgoLZ4:
			codecC, codecD = lcd, ldd
		}
	}
	if float {
		vals := make([]float32, n/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
		}
		var sc []byte
		a.sz3C.add(n, timed(func() {
			sc, err = sz3.CompressFloat32(vals, sz3.Config{ErrorBound: sz3Bound, Backend: sz3.BackendFastLZ})
		}))
		if err != nil {
			return 0, 0, fmt.Errorf("sz3 replay: %w", err)
		}
		a.sz3D.add(n, timed(func() { _, _, err = sz3.DecompressFloat32(sc) }))
		if err != nil {
			return 0, 0, fmt.Errorf("sz3 replay: %w", err)
		}
	}
	return codecC, codecD, nil
}

func shardIndex(id string) int {
	var i int
	fmt.Sscanf(id, "shard-%d", &i)
	return i
}

func engineCount(r core.Report) int {
	if r.Engine == hwmodel.CEngine {
		return 1
	}
	return 0
}

// concurrencyScaling runs the replayed messages through one pedald first
// with one client, then split between two clients on their own
// connections, and returns the two-caller throughput over the one-caller
// throughput.
func concurrencyScaling(rep *rig, p *Plan, msgs []Op) (float64, error) {
	cl2, err := service.Dial(rep.addrs[0])
	if err != nil {
		return 0, err
	}
	defer cl2.Close()
	clients := []*service.Client{rep.clients[0], cl2}
	run := func(callers int) (time.Duration, error) {
		errs := make([]error, callers)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(msgs); i += callers {
					o := msgs[i]
					msg, err := clients[c].Compress(o.Design, o.DataType(), p.Input(o))
					if err == nil {
						_, err = clients[c].Decompress(o.Design.Engine, o.DataType(), msg, o.Size)
					}
					if err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		d := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return d, nil
	}
	one, err := run(1)
	if err != nil {
		return 0, err
	}
	two, err := run(2)
	if err != nil {
		return 0, err
	}
	return float64(one) / float64(two), nil
}

// meanUS is the mean of per-message differences, in microseconds.
func meanUS(v []time.Duration) float64 {
	var sum time.Duration
	for _, d := range v {
		sum += d
	}
	return us(sum) / float64(max(len(v), 1))
}

// metrics turns the replay's observations into per-layer metrics.
func (a *layerAcc) metrics() map[string]metric {
	m := map[string]metric{
		"lz77.tokens_MBps":            {a.lz77.mbps(), "MB/s"},
		"flate.compress_MBps":         {a.flateC.mbps(), "MB/s"},
		"flate.decompress_MBps":       {a.flateD.mbps(), "MB/s"},
		"zlibfmt.compress_MBps":       {a.zlibC.mbps(), "MB/s"},
		"zlibfmt.decompress_MBps":     {a.zlibD.mbps(), "MB/s"},
		"lz4.compress_MBps":           {a.lz4C.mbps(), "MB/s"},
		"lz4.decompress_MBps":         {a.lz4D.mbps(), "MB/s"},
		"sz3.compress_MBps":           {a.sz3C.mbps(), "MB/s"},
		"sz3.decompress_MBps":         {a.sz3D.mbps(), "MB/s"},
		"checksum.crc32_MBps":         {a.crc.mbps(), "MB/s"},
		"flate.compress_alloc_KB":     {float64(a.flateAlloc) / 1024 / float64(max(a.flateCalls, 1)), "KiB"},
		"lz4.compress_alloc_KB":       {float64(a.lz4Alloc) / 1024 / float64(max(a.lz4Calls, 1)), "KiB"},
		"flate.stdlib_reject_pct":     {100 * float64(a.flateRejects) / float64(max(a.flateCalls, 1)), "%"},
		"core.compress_self_us":       {meanUS(a.coreC), "us"},
		"core.decompress_self_us":     {meanUS(a.coreD), "us"},
		"pipeline.compress_speedup":   {float64(a.serialC) / float64(a.pipeC), "x"},
		"pipeline.decompress_speedup": {float64(a.serialD) / float64(a.pipeD), "x"},
		"pipeline.virtual_speedup":    {float64(a.serialV) / float64(a.pipeV), "x"},
		"pipeline.ratio_cost":         {float64(a.pipeOut) / float64(a.serialOut), "x"},
		"service.compress_self_us":    {meanUS(a.serviceC), "us"},
		"service.decompress_self_us":  {meanUS(a.serviceD), "us"},
		"fleet.compress_self_us":      {meanUS(a.fleetC), "us"},
		"fleet.decompress_self_us":    {meanUS(a.fleetD), "us"},
		"fleet.checked_self_us":       {meanUS(a.fleetK), "us"},
	}
	return m
}

// counters reads the program's own counters: from the workload's rig
// where it has the layer, from the replay rig otherwise.
func counters(m map[string]metric, r *rig, rep *rig, res *results, a *layerAcc) {
	var hits, misses, drops uint64
	var peak int64
	for _, l := range r.libs {
		s := l.PoolSnapshot()
		hits += s.Hits
		misses += s.Misses
		drops += s.DroppedOversize
		peak = max(peak, s.PeakBytes)
	}
	m["mempool.hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	m["mempool.peak_MB"] = metric{float64(peak) / 1e6, "MB"}
	m["mempool.oversize_drops"] = metric{float64(drops), "count"}

	share := 100 * float64(a.cengine) / float64(max(a.reports, 1))
	if res.ops > 0 {
		share = 100 * float64(res.cengineOps) / float64(res.ops)
	}
	m["dpu.cengine_op_share"] = metric{share, "%"}

	servers := r.servers
	if len(servers) == 0 {
		servers = rep.servers
	}
	var shed uint64
	for _, s := range servers {
		shed += s.Stats().Count(stats.CounterSheds)
	}
	m["service.requests_shed"] = metric{float64(shed), "count"}

	fr, shards := r.router, r.servers
	if fr == nil {
		fr, shards = rep.router, rep.servers
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, s := range shards {
		n := s.Stats().Count(stats.CounterRequests)
		lo, hi = min(lo, n), max(hi, n)
	}
	m["fleet.shard_imbalance"] = metric{float64(hi) / float64(max(lo, 1)), "x"}
	m["fleet.failovers"] = metric{float64(fr.Stats().Count(stats.CounterFailovers)), "count"}
	m["fleet.hedges"] = metric{float64(fr.Stats().Count(stats.CounterHedges)), "count"}
	m["fleet.sheds"] = metric{float64(fr.Stats().Count(stats.CounterFleetSheds) + fr.Stats().Count(stats.CounterQuotaSheds)), "count"}
}
