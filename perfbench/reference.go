package main

import (
	"bytes"
	stdflate "compress/flate"
	"fmt"
	"time"

	"pedal/internal/core"
)

// stdlibReference compresses one round of the workload's lossless
// messages with Go's compress/flate at level 6 and prints its speed and
// ratio: the in-process reference the README's figures quote.
func stdlibReference(w *Workload, corpora []Corpus, seed int64) error {
	plan := NewPlan(w, corpora, seed)
	var in, out int64
	var comp, decomp time.Duration
	var buf bytes.Buffer
	fw, err := stdflate.NewWriter(&buf, 6)
	if err != nil {
		return err
	}
	for c := 0; c < w.RoundCycles(); c++ {
		for _, o := range plan.Next() {
			if o.Design.Algo == core.AlgoSZ3 || o.Canary {
				continue
			}
			src := plan.Input(o)
			buf.Reset()
			fw.Reset(&buf)
			t := time.Now()
			if _, err := fw.Write(src); err != nil {
				return err
			}
			if err := fw.Close(); err != nil {
				return err
			}
			comp += time.Since(t)
			in += int64(len(src))
			out += int64(buf.Len())
			t = time.Now()
			var dec bytes.Buffer
			if _, err := dec.ReadFrom(stdflate.NewReader(&buf)); err != nil {
				return err
			}
			decomp += time.Since(t)
			if !bytes.Equal(dec.Bytes(), src) {
				return fmt.Errorf("compress/flate round trip differs")
			}
		}
	}
	fmt.Printf("stdlib compress/flate level 6 on one %s round (seed %d): %.1f MB in, compress %.2f MB/s, decompress %.2f MB/s, ratio %.4f\n",
		w.Name, seed, float64(in)/1e6, mbps(in, comp), mbps(in, decomp), float64(in)/float64(out))
	return nil
}
