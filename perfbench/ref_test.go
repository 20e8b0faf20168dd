package main

import (
	"bytes"
	stdflate "compress/flate"
	"io"
	"math/rand"
	"testing"

	"pedal/internal/datasets"
	"pedal/internal/flate"
	"pedal/internal/lz4"
)

func TestXXH32Vectors(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint32
	}{{"", 0x02CC5D05}, {"a", 0x550D7456}, {"abc", 0x32D153FF}} {
		if got := xxh32([]byte(c.in), 0); got != c.want {
			t.Errorf("xxh32(%q) = %#08x, want %#08x", c.in, got, c.want)
		}
	}
}

func testInputs() [][]byte {
	rnd := make([]byte, 5<<20)
	rand.New(rand.NewSource(1)).Read(rnd)
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 20000)
	return [][]byte{{}, []byte("a"), text[:100], text, rnd[:70000], rnd, make([]byte, 9<<20)}
}

func TestRefLZ4DecodesFrames(t *testing.T) {
	for _, in := range testInputs() {
		out, err := refLZ4Frame(lz4.Compress(in), len(in))
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("%d bytes: %v", len(in), err)
		}
	}
	// A frame built by hand from the spec: no content size or checksum,
	// one stored block holding "hi".
	frame := []byte{0x04, 0x22, 0x4D, 0x18, 0x40, 0x40}
	frame = append(frame, byte(xxh32(frame[4:6], 0)>>8))
	frame = append(frame, 2, 0, 0, 0x80, 'h', 'i', 0, 0, 0, 0)
	if out, err := refLZ4Frame(frame, 10); err != nil || string(out) != "hi" {
		t.Fatalf("hand-built frame: %q, %v", out, err)
	}
	bad := lz4.Compress([]byte("hello hello hello hello"))
	bad[len(bad)-1] ^= 1
	if _, err := refLZ4Frame(bad, 100); err == nil {
		t.Fatal("content checksum corruption not detected")
	}
}

func TestRefInflateMatchesStdlibEncoder(t *testing.T) {
	for _, in := range testInputs() {
		for _, level := range []int{stdflate.NoCompression, stdflate.HuffmanOnly, 1, 6, 9} {
			var buf bytes.Buffer
			w, _ := stdflate.NewWriter(&buf, level)
			w.Write(in)
			w.Close()
			out, incomplete, err := refInflate(buf.Bytes(), len(in))
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%d bytes at level %d: %v", len(in), level, err)
			}
			if incomplete {
				t.Errorf("%d bytes at level %d: stdlib stream flagged incomplete", len(in), level)
			}
		}
	}
}

func TestHuffCompleteness(t *testing.T) {
	for _, c := range []struct {
		lengths  []int
		complete bool
		err      bool
	}{
		{[]int{1, 1}, true, false},
		{[]int{1, 2, 2}, true, false},
		{[]int{1, 2}, false, false},
		{[]int{2, 2, 2, 0}, false, false},
		{[]int{1, 1, 1}, false, true},
	} {
		var h huff
		complete, err := h.build(c.lengths)
		if complete != c.complete || (err != nil) != c.err {
			t.Errorf("%v: complete %v err %v", c.lengths, complete, err)
		}
	}
}

// TestCanaryFault ties the canary messages to the named fault: whenever
// Go's decoder rejects one, the reference decoder must reproduce the
// input and report an incomplete Huffman code.
func TestCanaryFault(t *testing.T) {
	obs := datasets.ObsError().Bytes()
	for _, w := range workloads() {
		if w.Canary == nil {
			continue
		}
		in := obs[:w.Canary.Size]
		body := flate.Compress(in, 6)
		_, stdErr := io.ReadAll(stdflate.NewReader(bytes.NewReader(body)))
		out, incomplete, err := refInflate(body, len(in))
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("%s canary: reference decoder: %v", w.Name, err)
		}
		if stdErr != nil && !incomplete {
			t.Errorf("%s canary: stdlib rejects (%v) a stream with complete codes", w.Name, stdErr)
		}
		if stdErr == nil {
			t.Logf("%s canary: stdlib accepts the stream; the incomplete-code fault no longer shows", w.Name)
		}
	}
}
