package image

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/adler32"
	"math/bits"
	"slices"
)

// huffBlock bounds the literals of one deflate block.
const huffBlock = 64 << 10

// clOrder is the order in which a dynamic block header lists the
// code-length code's lengths (RFC 1951 §3.2.7).
var clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// huffWriter writes a zlib stream (RFC 1950) whose deflate blocks carry
// every byte as a literal under the block's own Huffman code: no LZ77
// match search, and none of the hash tables a compress/flate Writer
// embeds for one even at HuffmanOnly. Each block of at most huffBlock
// bytes gets a dynamic header built from its histogram (257 literal and
// end-of-block lengths, one unused distance code), its codes limited to
// 15 bits and the code-length code to 7.
type huffWriter struct {
	dst   *bytes.Buffer
	block []byte
	adler hash.Hash32
	acc   uint64 // output bits not yet written, first bit lowest
	nacc  uint

	freq   [257]uint32 // literal histogram, end-of-block last
	lens   [257]uint8
	codes  [257]uint32 // bit-reversed code | length<<16
	clFreq [19]uint32
	clLens [19]uint8
	clCode [19]uint32

	sorted [257]uint64 // frequency<<16 | symbol, for lengths
	weight [2*257 - 1]uint32
	parent [2*257 - 1]uint16
}

// reset starts a new zlib stream into dst: the 2-byte header of a
// 32 KiB-window deflate stream at the fastest level.
func (w *huffWriter) reset(dst *bytes.Buffer) {
	if w.block == nil {
		w.block, w.adler = make([]byte, 0, huffBlock), adler32.New()
	}
	w.dst, w.block, w.acc, w.nacc = dst, w.block[:0], 0, 0
	w.adler.Reset()
	dst.Write([]byte{0x78, 0x01})
}

// Write appends p to the stream, coding each full block once more bytes
// follow it, so that Close always has a final block to mark.
func (w *huffWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		if len(w.block) == huffBlock {
			w.flush(false)
		}
		n := copy(w.block[len(w.block):huffBlock], rest)
		w.block, rest = w.block[:len(w.block)+n], rest[n:]
	}
	return len(p), nil
}

// Close codes the pending bytes as the final block, pads it to a byte,
// and appends the adler32 of everything written.
func (w *huffWriter) Close() error {
	w.flush(true)
	if w.nacc > 0 {
		w.dst.WriteByte(byte(w.acc))
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], w.adler.Sum32())
	w.dst.Write(sum[:])
	return nil
}

// flush codes the pending bytes as one dynamic-Huffman block.
func (w *huffWriter) flush(final bool) {
	w.adler.Write(w.block)
	// Four interleaved histograms: a run of one byte value would
	// otherwise make each increment wait for the last one's store.
	var hist [4][256]uint32
	b := w.block
	for ; len(b) >= 4; b = b[4:] {
		hist[0][b[0]]++
		hist[1][b[1]]++
		hist[2][b[2]]++
		hist[3][b[3]]++
	}
	for _, c := range b {
		hist[0][c]++
	}
	for s := range hist[0] {
		w.freq[s] = hist[0][s] + hist[1][s] + hist[2][s] + hist[3][s]
	}
	w.freq[256] = 1
	if len(w.block) == 0 {
		w.freq[0] = 1 // a code needs two symbols; literal 0 is never sent
	}
	w.lengths(w.freq[:], w.lens[:], 15)
	huffCodes(w.lens[:], w.codes[:])

	// The 257 literal lengths and the one distance length (0: no
	// distance is ever sent) are one sequence under the code-length
	// code. Repeat codes for its zero runs would save about 0.2 % at
	// 400 px, where nearly every byte value occurs.
	var all [258]uint8
	copy(all[:], w.lens[:])
	clear(w.clFreq[:])
	for _, l := range all {
		w.clFreq[l]++
	}
	w.lengths(w.clFreq[:], w.clLens[:], 7)
	huffCodes(w.clLens[:], w.clCode[:])
	ncl := len(clOrder)
	for ncl > 4 && w.clLens[clOrder[ncl-1]] == 0 {
		ncl--
	}

	// The block's exact size bounds what the encoder appends in place:
	// the header takes at most 235 bytes, each store 8.
	size := 0
	for s, f := range w.freq {
		size += int(f) * int(w.lens[s])
	}
	if cap(w.dst.AvailableBuffer()) < size/8+1024 {
		w.dst.Grow(size/8 + 1024)
	}
	out := w.dst.AvailableBuffer()
	put := func(v uint32, n uint) {
		w.acc |= uint64(v) << w.nacc
		for w.nacc += n; w.nacc >= 8; w.nacc -= 8 {
			out, w.acc = append(out, byte(w.acc)), w.acc>>8
		}
	}
	hdr := uint32(ncl-4)<<13 | 2<<1 // HCLEN, HDIST 1, HLIT 257, BTYPE 2
	if final {
		hdr |= 1
	}
	put(hdr, 17)
	for _, s := range clOrder[:ncl] {
		put(uint32(w.clLens[s]), 3)
	}
	for _, l := range all {
		put(w.clCode[l]&0xffff, uint(w.clCode[l]>>16))
	}
	// The literals, three codes (at most 45 bits) onto fewer than 8
	// pending bits, then every whole byte out in one 8-byte store. The
	// shifts are masked so that none needs a range check.
	acc, n, codes := w.acc, w.nacc, &w.codes
	for b = w.block; len(b) >= 3; b = b[3:] {
		c0, c1, c2 := codes[b[0]], codes[b[1]], codes[b[2]]
		acc |= uint64(c0&0xffff) << (n & 63)
		n += uint(c0 >> 16)
		acc |= uint64(c1&0xffff) << (n & 63)
		n += uint(c1 >> 16)
		acc |= uint64(c2&0xffff) << (n & 63)
		n += uint(c2 >> 16)
		m := len(out)
		out = binary.LittleEndian.AppendUint64(out, acc)[:m+int(n/8)]
		acc >>= (n &^ 7) & 63
		n &= 7
	}
	w.acc, w.nacc = acc, n
	for _, c := range b {
		put(codes[c]&0xffff, uint(codes[c]>>16))
	}
	eob := w.codes[256]
	put(eob&0xffff, uint(eob>>16))
	w.dst.Write(out)
	w.block = w.block[:0]
}

// lengths sets lens[s] to symbol s's length in a Huffman code for freq
// of at most limit bits, 0 where freq[s] is 0. At least two symbols
// must occur. Lengths over the limit are clamped and the code then
// re-balanced the way miniz does: each step retires one limit-length
// code and splits a shorter one, until the Kraft sum is exactly one.
func (w *huffWriter) lengths(freq []uint32, lens []uint8, limit int) {
	sorted := w.sorted[:0]
	for s, f := range freq {
		lens[s] = 0
		if f > 0 {
			sorted = append(sorted, uint64(f)<<16|uint64(s))
		}
	}
	slices.Sort(sorted)
	// Two queues: leaves 0…n−1 by weight, then internal nodes n…2n−2,
	// made in weight order, each from the two lightest unmerged nodes.
	n := len(sorted)
	weight, parent := w.weight[:2*n-1], w.parent[:2*n-1]
	for i, v := range sorted {
		weight[i] = uint32(v >> 16)
	}
	leaf, node := 0, n
	for k := n; k < len(weight); k++ {
		weight[k] = 0
		for range 2 {
			c := node
			if leaf < n && (node == k || weight[leaf] <= weight[node]) {
				c, leaf = leaf, leaf+1
			} else {
				node++
			}
			weight[k] += weight[c]
			parent[c] = uint16(k)
		}
	}
	// Depths overwrite weights from the root down: a parent always
	// comes after its children.
	weight[len(weight)-1] = 0
	for i := len(weight) - 2; i >= 0; i-- {
		weight[i] = weight[parent[i]] + 1
	}

	var count [16]int
	kraft := 0
	for _, d := range weight[:n] {
		l := min(int(d), limit)
		count[l]++
		kraft += 1 << (limit - l)
	}
	for ; kraft > 1<<limit; kraft-- {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	i := 0
	for l := limit; l > 0; l-- {
		for ; count[l] > 0; count[l]-- {
			lens[sorted[i]&0xffff] = uint8(l)
			i++
		}
	}
}

// huffCodes assigns the canonical deflate code of each length in lens,
// bit-reversed for LSB-first output, packed as code | length<<16.
func huffCodes(lens []uint8, codes []uint32) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		codes[s] = 0
		if l > 0 {
			codes[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}
