// Command perfbench is PEDAL's end-to-end benchmark. It runs one
// closed-loop workload against the library, a pedald service or a
// two-shard fleet, checks every output with decoders that are not the
// program's, and prints its metrics as one JSON object on the last line
// of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run builds its rig; setup_s is the
// median.
const setupRepeats = 7

// maxRun caps how long a run may go on past --seconds to collect the
// workload's TailSamples, so that it still ends well within 180 s.
const maxRun = 120 * time.Second

// spanDir is where a traced run writes its spans: the build directory
// run.sh uses, which the repository ignores.
const spanDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "small-msg, bulk-stream, pedald-2c or fleet-2c")
	seed := flag.Int64("seed", 1, "workload seed: picks slices and the draws of generation, design, size and path")
	seconds := flag.Int("seconds", 15, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	reference := flag.Bool("reference", false, "print Go's compress/flate level 6 on one round of the workload's lossless messages instead")
	callers := flag.Int("callers", 0, "run pedald-2c with 1 or 2 callers instead of 2 (README reference figures)")
	flag.Parse()
	w, ok := workloads()[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) || *callers < 0 || *callers > 2 || (*callers != 0 && w.Name != "pedald-2c") {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, callers %d)\n", *workload, *seconds, *traceOn, *callers)
		os.Exit(2)
	}
	if *callers > 0 {
		w.Callers = *callers
	}
	if *reference {
		if err := stdlibReference(w, loadCorpora(), *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w *Workload, seed int64, dur time.Duration, traced bool) error {
	t0 := time.Now()
	corpora := loadCorpora()
	inputGen := time.Since(t0)

	heapBefore := heapInUse()
	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = setupRig(w); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			r.close()
		}
	}
	defer r.close()

	plan := NewPlan(w, corpora, seed)
	// One warm-up round fills pools, grows the heap to its working size
	// and opens the router's connections; it is neither timed nor
	// counted. (A single warm-up cycle left bulk-stream's first measured
	// round about 30% slower than the rest.)
	warm := newExecutor(w, r, newResults())
	for c := 0; c < w.RoundCycles(); c++ {
		warm.runCycle(plan, plan.Next())
	}

	res := newResults()
	ex := newExecutor(w, r, res)
	var m map[string]metric
	if traced {
		var err error
		if m, err = runTraced(w, r, ex, plan, seed, dur); err != nil {
			return err
		}
	} else {
		before := phaseSnapshots(r.libs)
		start := time.Now()
		for time.Since(start) < dur || (res.tailShort(w) && time.Since(start) < maxRun) {
			for c := 0; c < w.RoundCycles(); c++ {
				ex.runCycle(plan, plan.Next())
			}
		}
		if res.tailShort(w) {
			res.correct = false
			res.problems = append(res.problems, fmt.Sprintf("fewer than %d latency samples per kind after %v", w.TailSamples, maxRun))
		}
		m = endToEnd(res, r, before, setups)
		m["retained_MB"] = metric{float64(heapInUse()-heapBefore) / 1e6, "MB"}
	}
	runtime.KeepAlive(r)

	summarize(w, res, inputGen, setups)
	line, err := json.Marshal(report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// heapInUse is the live Go heap after forced collections. The second
// one drops what the first left in sync.Pool victim caches (about 300 MB
// after bulk-stream, varying from run to run).
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// endToEnd computes the untraced metrics of a run.
func endToEnd(res *results, r *rig, before []mapPhase, setups []float64) map[string]metric {
	m := map[string]metric{}
	m["setup_s"] = metric{median(setups), "s"}
	m["compress_MBps"] = metric{mbps(res.comp.bytes, res.comp.wall), "MB/s"}
	m["decompress_MBps"] = metric{mbps(res.decomp.bytes, res.decomp.wall), "MB/s"}
	cp50, cp99 := latency(res.comp.lat)
	dp50, dp99 := latency(res.decomp.lat)
	m["compress_p50_us"] = metric{us(cp50), "us"}
	m["compress_p99_us"] = metric{us(cp99), "us"}
	m["decompress_p50_us"] = metric{us(dp50), "us"}
	m["decompress_p99_us"] = metric{us(dp99), "us"}
	m["lossless_ratio"] = metric{float64(res.losslessIn) / float64(res.lossOut), "x"}
	m["sz3_ratio"] = metric{float64(res.sz3In) / float64(res.sz3Out), "x"}
	vc, vd := res.comp.virtual, res.decomp.virtual
	if len(r.servers) > 0 {
		vc, vd = virtualFromPhases(before, phaseSnapshots(r.libs))
	}
	m["virtual_compress_MBps"] = metric{mbps(res.comp.bytes, vc), "MB/s"}
	m["virtual_decompress_MBps"] = metric{mbps(res.decomp.bytes, vd), "MB/s"}
	nops := len(res.comp.lat) + len(res.decomp.lat)
	m["alloc_KB_per_op"] = metric{float64(res.allocBytes) / 1024 / float64(max(nops, 1)), "KiB"}
	return m
}

func mbps(b int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(b) / 1e6 / d.Seconds()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// summarize prints what a reader needs to trust the numbers to stderr.
func summarize(w *Workload, res *results, inputGen time.Duration, setups []float64) {
	fmt.Fprintf(os.Stderr, "workload %s: %d cycles, %d compress and %d decompress latency samples\n",
		w.Name, res.cycles, len(res.comp.lat), len(res.decomp.lat))
	if min(len(res.comp.lat), len(res.decomp.lat)) < minTailSamples {
		fmt.Fprintf(os.Stderr, "fewer than %d samples of a kind: its p99 fields carry the median\n", minTailSamples)
	}
	fmt.Fprintf(os.Stderr, "input generation %.3fs, set-ups %v s, call phases %.3fs, checks %.3fs\n",
		inputGen.Seconds(), setups, res.callTime.Seconds(), res.checkTime.Seconds())
	fmt.Fprintf(os.Stderr, "checks: %d stdlib decodes, %d reference LZ4 decodes; %d seeded messages rejected by stdlib for incomplete Huffman codes (not counted as failed; flate.stdlib_reject_pct in the traced run)\n",
		res.stdlibChecks, res.lz4Checks, res.seededRejects)
	keys := make([]string, 0, len(res.reasons))
	for k := range res.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "failed %s: %d\n", k, res.reasons[k])
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "  ", p)
	}
}
