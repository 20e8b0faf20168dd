package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// refLZ4Frame decodes an LZ4 frame following the LZ4 Frame Format
// Description (v1.6.x) and the LZ4 Block Format Description, written for
// this benchmark so that PEDAL's frames are checked by a decoder that
// shares no code with the program. It verifies the header checksum, any
// block checksums, the content size and the content checksum.
func refLZ4Frame(src []byte, limit int) ([]byte, error) {
	if len(src) < 7 || binary.LittleEndian.Uint32(src) != 0x184D2204 {
		return nil, errors.New("lz4ref: bad magic")
	}
	flg, bd := src[4], src[5]
	if flg>>6 != 1 {
		return nil, fmt.Errorf("lz4ref: version %d", flg>>6)
	}
	if flg&0x02 != 0 || bd&0x8F != 0 {
		return nil, errors.New("lz4ref: reserved bits set")
	}
	blockChecksum := flg&0x10 != 0
	hasSize := flg&0x08 != 0
	contentChecksum := flg&0x04 != 0
	hasDict := flg&0x01 != 0
	maxBlock := map[byte]int{4: 64 << 10, 5: 256 << 10, 6: 1 << 20, 7: 4 << 20}[bd>>4&7]
	if maxBlock == 0 {
		return nil, errors.New("lz4ref: bad block maximum size")
	}
	pos := 6
	contentSize := -1
	if hasSize {
		if len(src) < pos+8 {
			return nil, errors.New("lz4ref: short descriptor")
		}
		contentSize = int(binary.LittleEndian.Uint64(src[pos:]))
		pos += 8
	}
	if hasDict {
		return nil, errors.New("lz4ref: dictionaries are not used by PEDAL")
	}
	if len(src) < pos+1 {
		return nil, errors.New("lz4ref: short descriptor")
	}
	if hc := byte(xxh32(src[4:pos], 0) >> 8); hc != src[pos] {
		return nil, errors.New("lz4ref: header checksum mismatch")
	}
	pos++
	var out []byte
	if contentSize >= 0 && contentSize <= limit {
		out = make([]byte, 0, contentSize)
	}
	for {
		if len(src) < pos+4 {
			return nil, errors.New("lz4ref: missing end mark")
		}
		word := binary.LittleEndian.Uint32(src[pos:])
		pos += 4
		if word == 0 {
			break
		}
		n := int(word & 0x7FFFFFFF)
		if n > maxBlock || len(src) < pos+n {
			return nil, errors.New("lz4ref: bad block size")
		}
		block := src[pos : pos+n]
		pos += n
		if blockChecksum {
			if len(src) < pos+4 || binary.LittleEndian.Uint32(src[pos:]) != xxh32(block, 0) {
				return nil, errors.New("lz4ref: block checksum mismatch")
			}
			pos += 4
		}
		var err error
		if word&0x80000000 != 0 {
			out = append(out, block...)
		} else if out, err = refLZ4Block(out, block, maxBlock); err != nil {
			return nil, err
		}
		if len(out) > limit {
			return nil, errors.New("lz4ref: output exceeds limit")
		}
	}
	if contentSize >= 0 && len(out) != contentSize {
		return nil, fmt.Errorf("lz4ref: content size %d, decoded %d", contentSize, len(out))
	}
	if contentChecksum {
		if len(src) < pos+4 || binary.LittleEndian.Uint32(src[pos:]) != xxh32(out, 0) {
			return nil, errors.New("lz4ref: content checksum mismatch")
		}
		pos += 4
	}
	if pos != len(src) {
		return nil, errors.New("lz4ref: trailing bytes after frame")
	}
	return out, nil
}

// refLZ4Block appends the decoding of one LZ4 block to out. Matches may
// reach back into earlier blocks of the frame (linked blocks).
func refLZ4Block(out, block []byte, maxBlock int) ([]byte, error) {
	start := len(out)
	i := 0
	for {
		if i >= len(block) {
			return nil, errors.New("lz4ref: truncated sequence")
		}
		token := block[i]
		i++
		lit := int(token >> 4)
		if lit == 15 {
			for {
				if i >= len(block) {
					return nil, errors.New("lz4ref: truncated literal length")
				}
				b := block[i]
				i++
				lit += int(b)
				if b != 255 {
					break
				}
			}
		}
		if i+lit > len(block) {
			return nil, errors.New("lz4ref: literals overrun block")
		}
		out = append(out, block[i:i+lit]...)
		i += lit
		if i == len(block) {
			// The last sequence carries literals only.
			if len(out)-start > maxBlock {
				return nil, errors.New("lz4ref: block exceeds maximum size")
			}
			return out, nil
		}
		if i+2 > len(block) {
			return nil, errors.New("lz4ref: truncated offset")
		}
		off := int(binary.LittleEndian.Uint16(block[i:]))
		i += 2
		if off == 0 || off > len(out) {
			return nil, fmt.Errorf("lz4ref: bad offset %d", off)
		}
		n := int(token & 15)
		if n == 15 {
			for {
				if i >= len(block) {
					return nil, errors.New("lz4ref: truncated match length")
				}
				b := block[i]
				i++
				n += int(b)
				if b != 255 {
					break
				}
			}
		}
		n += 4
		for k := 0; k < n; k++ {
			out = append(out, out[len(out)-off])
		}
	}
}

// xxh32 is XXH32 as specified in the xxHash specification.
func xxh32(p []byte, seed uint32) uint32 {
	const (
		p1 uint32 = 2654435761
		p2 uint32 = 2246822519
		p3 uint32 = 3266489917
		p4 uint32 = 668265263
		p5 uint32 = 374761393
	)
	round := func(acc, lane uint32) uint32 {
		return bits.RotateLeft32(acc+lane*p2, 13) * p1
	}
	n := len(p)
	var h uint32
	if n >= 16 {
		v1, v2, v3, v4 := seed+p1+p2, seed+p2, seed, seed-p1
		for len(p) >= 16 {
			v1 = round(v1, binary.LittleEndian.Uint32(p))
			v2 = round(v2, binary.LittleEndian.Uint32(p[4:]))
			v3 = round(v3, binary.LittleEndian.Uint32(p[8:]))
			v4 = round(v4, binary.LittleEndian.Uint32(p[12:]))
			p = p[16:]
		}
		h = bits.RotateLeft32(v1, 1) + bits.RotateLeft32(v2, 7) + bits.RotateLeft32(v3, 12) + bits.RotateLeft32(v4, 18)
	} else {
		h = seed + p5
	}
	h += uint32(n)
	for len(p) >= 4 {
		h = bits.RotateLeft32(h+binary.LittleEndian.Uint32(p)*p3, 17) * p4
		p = p[4:]
	}
	for _, b := range p {
		h = bits.RotateLeft32(h+uint32(b)*p5, 11) * p1
	}
	h ^= h >> 15
	h *= p2
	h ^= h >> 13
	h *= p3
	h ^= h >> 16
	return h
}
