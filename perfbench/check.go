package main

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"io"
	"math"

	"pedal/internal/core"
)

// sz3Bound is the absolute error bound the libraries are initialised
// with (core.Options zero value: the paper's 1e-4).
const sz3Bound = 1e-4

// checker verifies outputs with code that is not the program's.
type checker struct {
	scratch bytes.Buffer
}

type externalVerdict int

const (
	accepted     externalVerdict = iota
	rejectCanary                 // stdlib rejected the fixed canary message
	rejectSeeded                 // stdlib rejected a seeded message
)

// roundTrip checks the decompressed output against the input: byte-exact
// for lossless designs, within the absolute bound element-wise for SZ3.
func (c *checker) roundTrip(r *results, s *slot) {
	o := s.op
	if o.Design.Algo != core.AlgoSZ3 {
		if !bytes.Equal(s.out, s.in) {
			r.wrong(fmt.Sprintf("%s %s %d B: round trip differs", o.Design, o.Path, o.Size))
		}
		return
	}
	if len(s.out) != len(s.in) {
		r.wrong(fmt.Sprintf("%s: SZ3 reconstruction has %d bytes, want %d", o.Design, len(s.out), len(s.in)))
		return
	}
	for i := 0; i+4 <= len(s.in); i += 4 {
		want := math.Float32frombits(binary.LittleEndian.Uint32(s.in[i:]))
		got := math.Float32frombits(binary.LittleEndian.Uint32(s.out[i:]))
		if math.IsNaN(float64(want)) {
			if !math.IsNaN(float64(got)) {
				r.wrong(fmt.Sprintf("%s: element %d is NaN, reconstructed %v", o.Design, i/4, got))
				return
			}
			continue
		}
		if math.Abs(float64(got)-float64(want)) > sz3Bound {
			r.wrong(fmt.Sprintf("%s: element %d error %g exceeds %g", o.Design, i/4, math.Abs(float64(got)-float64(want)), sz3Bound))
			return
		}
	}
}

// external decodes a serial DEFLATE or zlib message with Go's standard
// library and an LZ4 message with the benchmark's reference frame
// decoder. A stdlib rejection is attributed to the incomplete-code fault
// only when the benchmark's own RFC 1951 decoder meets an incomplete
// code and still reproduces the input exactly; anything else is a wrong
// output.
func (c *checker) external(r *results, s *slot) externalVerdict {
	o := s.op
	algo, body, err := core.ParseHeader(s.msg)
	if err != nil || algo != o.Design.Algo {
		r.wrong(fmt.Sprintf("%s: message header names %v (%v)", o.Design, algo, err))
		return accepted
	}
	switch algo {
	case core.AlgoDeflate:
		r.stdlibChecks++
		out, err := c.read(flate.NewReader(bytes.NewReader(body)))
		if err == nil {
			if !bytes.Equal(out, s.in) {
				r.wrong(fmt.Sprintf("%s: compress/flate decodes different bytes", o.Design))
			}
			return accepted
		}
		return c.attribute(r, s, body, nil)
	case core.AlgoZlib:
		r.stdlibChecks++
		zr, err := zlib.NewReader(bytes.NewReader(body))
		if err == nil {
			var out []byte
			if out, err = c.read(zr); err == nil {
				if !bytes.Equal(out, s.in) {
					r.wrong(fmt.Sprintf("%s: compress/zlib decodes different bytes", o.Design))
				}
				return accepted
			}
		}
		if len(body) < 6 {
			r.wrong(fmt.Sprintf("%s: zlib stream too short", o.Design))
			return accepted
		}
		return c.attribute(r, s, body[2:len(body)-4], body[len(body)-4:])
	case core.AlgoLZ4:
		r.lz4Checks++
		out, err := refLZ4Frame(body, o.Size)
		if err != nil || !bytes.Equal(out, s.in) {
			r.wrong(fmt.Sprintf("%s: reference LZ4 decoder: %v", o.Design, err))
		}
	}
	return accepted
}

func (c *checker) read(rd io.Reader) ([]byte, error) {
	c.scratch.Reset()
	_, err := c.scratch.ReadFrom(rd)
	return c.scratch.Bytes(), err
}

// attribute decides whether a stdlib rejection is the named fault.
// adler is the zlib trailer, nil for raw DEFLATE.
func (c *checker) attribute(r *results, s *slot, deflate, adler []byte) externalVerdict {
	out, incomplete, err := refInflate(deflate, s.op.Size)
	switch {
	case err != nil:
		r.wrong(fmt.Sprintf("%s: stdlib and reference decoder reject the stream: %v", s.op.Design, err))
	case !bytes.Equal(out, s.in):
		r.wrong(fmt.Sprintf("%s: reference decoder yields different bytes", s.op.Design))
	case adler != nil && binary.BigEndian.Uint32(adler) != adler32.Checksum(out):
		r.wrong(fmt.Sprintf("%s: zlib Adler-32 trailer mismatch", s.op.Design))
	case !incomplete:
		r.wrong(fmt.Sprintf("%s: stdlib rejects a stream with complete codes", s.op.Design))
	case s.op.Canary:
		return rejectCanary
	default:
		return rejectSeeded
	}
	return accepted
}
