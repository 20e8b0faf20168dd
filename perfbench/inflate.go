package main

import "errors"

// refInflate is a plain RFC 1951 decoder written for this benchmark, in
// the style of zlib's puff. Unlike Go's compress/flate it accepts
// incomplete Huffman codes (as the RFC's decoding procedure does) and
// reports whether it met one, which is how the benchmark attributes a
// stdlib rejection to the incomplete-code fault rather than to damage.
func refInflate(src []byte, limit int) (out []byte, incomplete bool, err error) {
	d := inflater{src: src, limit: limit}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(inflateError); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	for {
		final := d.bits(1)
		switch d.bits(2) {
		case 0:
			d.stored()
		case 1:
			d.codes(&fixedLit, &fixedDist)
		case 2:
			d.dynamic()
		default:
			d.fail("reserved block type")
		}
		if final == 1 {
			return d.out, d.incomplete, nil
		}
	}
}

type inflateError struct{ msg string }

func (e inflateError) Error() string { return "refinflate: " + e.msg }

type inflater struct {
	src        []byte
	pos        int
	bitBuf     uint32
	bitCnt     uint
	out        []byte
	limit      int
	incomplete bool
}

func (d *inflater) fail(msg string) { panic(inflateError{msg}) }

func (d *inflater) bits(n uint) uint32 {
	for d.bitCnt < n {
		if d.pos >= len(d.src) {
			d.fail("unexpected end of stream")
		}
		d.bitBuf |= uint32(d.src[d.pos]) << d.bitCnt
		d.pos++
		d.bitCnt += 8
	}
	v := d.bitBuf & (1<<n - 1)
	d.bitBuf >>= n
	d.bitCnt -= n
	return v
}

func (d *inflater) emit(b byte) {
	if len(d.out) >= d.limit {
		d.fail("output exceeds limit")
	}
	d.out = append(d.out, b)
}

func (d *inflater) stored() {
	d.bitBuf, d.bitCnt = 0, 0
	if d.pos+4 > len(d.src) {
		d.fail("short stored header")
	}
	n := int(d.src[d.pos]) | int(d.src[d.pos+1])<<8
	nc := int(d.src[d.pos+2]) | int(d.src[d.pos+3])<<8
	d.pos += 4
	if n != ^nc&0xffff {
		d.fail("stored length mismatch")
	}
	if d.pos+n > len(d.src) {
		d.fail("short stored block")
	}
	for _, b := range d.src[d.pos : d.pos+n] {
		d.emit(b)
	}
	d.pos += n
}

// huff is a canonical code as counts per length and symbols in code order.
type huff struct {
	count  [16]int
	symbol []int
}

// build fills h from code lengths and reports whether the code is
// complete (Kraft sum exactly 1). An over-subscribed code is an error.
func (h *huff) build(lengths []int) (complete bool, err error) {
	h.count = [16]int{}
	for _, l := range lengths {
		h.count[l]++
	}
	if h.count[0] == len(lengths) {
		return false, nil
	}
	left := 1
	for l := 1; l < 16; l++ {
		left <<= 1
		left -= h.count[l]
		if left < 0 {
			return false, errors.New("over-subscribed code")
		}
	}
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	h.symbol = make([]int, len(lengths))
	for sym, l := range lengths {
		if l != 0 {
			h.symbol[offs[l]] = sym
			offs[l]++
		}
	}
	return left == 0, nil
}

func (d *inflater) decode(h *huff) int {
	code, first, index := 0, 0, 0
	for l := 1; l < 16; l++ {
		code |= int(d.bits(1))
		count := h.count[l]
		if code-count < first {
			return h.symbol[index+code-first]
		}
		index += count
		first += count
		first <<= 1
		code <<= 1
	}
	d.fail("invalid Huffman code")
	return 0
}

var (
	lenBase  = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = [29]uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [30]int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtr = [30]uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	fixedLit, fixedDist huff
)

func init() {
	lengths := make([]int, 288)
	for i := range lengths {
		switch {
		case i < 144:
			lengths[i] = 8
		case i < 256:
			lengths[i] = 9
		case i < 280:
			lengths[i] = 7
		default:
			lengths[i] = 8
		}
	}
	if _, err := fixedLit.build(lengths); err != nil {
		panic(err)
	}
	dl := make([]int, 30)
	for i := range dl {
		dl[i] = 5
	}
	if _, err := fixedDist.build(dl); err != nil {
		panic(err)
	}
}

func (d *inflater) codes(lit, dist *huff) {
	for {
		sym := d.decode(lit)
		switch {
		case sym < 256:
			d.emit(byte(sym))
		case sym == 256:
			return
		default:
			sym -= 257
			if sym >= 29 {
				d.fail("invalid length symbol")
			}
			n := lenBase[sym] + int(d.bits(lenExtra[sym]))
			ds := d.decode(dist)
			if ds >= 30 {
				d.fail("invalid distance symbol")
			}
			back := distBase[ds] + int(d.bits(distExtr[ds]))
			if back > len(d.out) {
				d.fail("distance too far back")
			}
			for i := 0; i < n; i++ {
				d.emit(d.out[len(d.out)-back])
			}
		}
	}
}

var clOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func (d *inflater) dynamic() {
	nlen := int(d.bits(5)) + 257
	ndist := int(d.bits(5)) + 1
	ncode := int(d.bits(4)) + 4
	if nlen > 286 || ndist > 30 {
		d.fail("bad counts")
	}
	cl := make([]int, 19)
	for i := 0; i < ncode; i++ {
		cl[clOrder[i]] = int(d.bits(3))
	}
	var lencode, distcode huff
	d.build(&lencode, cl)
	lengths := make([]int, nlen+ndist)
	for i := 0; i < nlen+ndist; {
		sym := d.decode(&lencode)
		if sym < 16 {
			lengths[i] = sym
			i++
			continue
		}
		val, rep := 0, 0
		switch sym {
		case 16:
			if i == 0 {
				d.fail("repeat with no previous length")
			}
			val, rep = lengths[i-1], 3+int(d.bits(2))
		case 17:
			rep = 3 + int(d.bits(3))
		default:
			rep = 11 + int(d.bits(7))
		}
		if i+rep > nlen+ndist {
			d.fail("too many lengths")
		}
		for ; rep > 0; rep-- {
			lengths[i] = val
			i++
		}
	}
	if lengths[256] == 0 {
		d.fail("no end-of-block code")
	}
	d.build(&lencode, lengths[:nlen])
	d.build(&distcode, lengths[nlen:])
	d.codes(&lencode, &distcode)
}

// build fills h and records an incomplete code. RFC 1951 §3.2.7 allows a
// code of a single one-bit symbol, and a table with no symbols at all;
// neither counts as incomplete (Go's decoder accepts both too).
func (d *inflater) build(h *huff, lengths []int) {
	complete, err := h.build(lengths)
	if err != nil {
		d.fail(err.Error())
	}
	used, longest := 0, 0
	for _, l := range lengths {
		if l != 0 {
			used++
			longest = max(longest, l)
		}
	}
	if !complete && used > 0 && !(used == 1 && longest == 1) {
		d.incomplete = true
	}
}
