package image

import (
	"bytes"
	"compress/zlib"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// huffRoundTrip writes data through a huffWriter in chunks of the given
// size (all at once when chunk ≤ 0), inflates the stream with
// compress/zlib, and fails t unless it returns exactly data. After each
// block it checks the block's codes against their limits.
func huffRoundTrip(t *testing.T, data []byte, chunk int) []byte {
	t.Helper()
	var w huffWriter
	var out bytes.Buffer
	w.reset(&out)
	if chunk <= 0 {
		chunk = max(len(data), 1)
	}
	for p := data; len(p) > 0; {
		n, pending := min(chunk, len(p)), len(w.block)
		w.Write(p[:n])
		p = p[n:]
		if len(w.block) < pending+n { // a block was coded
			checkHuffLimits(t, &w)
		}
	}
	w.Close()
	checkHuffLimits(t, &w)
	zr, err := zlib.NewReader(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("%d bytes: zlib header: %v", len(data), err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%d bytes: inflate: %v", len(data), err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%d bytes in, %d out, not equal", len(data), len(got))
	}
	return out.Bytes()
}

// checkHuffLimits fails t if the writer's last block used a literal code
// over 15 bits or a code-length code over 7, or if either code is not
// complete (Kraft sum exactly one).
func checkHuffLimits(t *testing.T, w *huffWriter) {
	t.Helper()
	for _, c := range []struct {
		lens  []uint8
		limit uint
	}{{w.lens[:], 15}, {w.clLens[:], 7}} {
		var kraft uint64
		for s, l := range c.lens {
			if uint(l) > c.limit {
				t.Fatalf("symbol %d has a %d-bit code, limit %d", s, l, c.limit)
			}
			if l > 0 {
				kraft += 1 << (15 - l)
			}
		}
		if kraft != 1<<15 {
			t.Fatalf("code lengths %v are not a complete code (Kraft %d/32768)", c.lens, kraft)
		}
	}
}

// TestHuffmanEmptyStream: the only block is empty and final.
func TestHuffmanEmptyStream(t *testing.T) {
	if out := huffRoundTrip(t, nil, 0); len(out) > 64 {
		t.Fatalf("empty stream is %d bytes", len(out))
	}
}

func TestHuffmanOneSymbol(t *testing.T) {
	huffRoundTrip(t, []byte{7}, 0)
	huffRoundTrip(t, bytes.Repeat([]byte{0xff}, 1000), 0)
}

func TestHuffmanAllSymbols(t *testing.T) {
	data := make([]byte, 256*3)
	for i := range data {
		data[i] = byte(i)
	}
	huffRoundTrip(t, data, 0)
}

// TestHuffmanBlockBoundaries writes exactly one full block, one byte
// more, and several blocks, whole and in row-sized chunks.
func TestHuffmanBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{huffBlock - 1, huffBlock, huffBlock + 1, 2 * huffBlock, 3*huffBlock + 12345} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.NormFloat64() * 6) // skewed, like filtered rows
		}
		huffRoundTrip(t, data, 0)
		huffRoundTrip(t, data, 1201)
	}
}

// TestHuffmanLengthLimit gives symbols Fibonacci counts. Each partial
// sum then falls one short of the count two symbols on, so the optimal
// code for n symbols is n−1 bits deep: end-of-block (count 1) and 20
// bytes counted 1, 2, 3, 5, … need 20 bits, and the limiter must cut
// the code to 15 and still inflate. The same skew over the 19
// code-length symbols forces that code's 7-bit limit.
func TestHuffmanLengthLimit(t *testing.T) {
	var data []byte
	a, b := 1, 2
	for s := 0; s < 20; s++ {
		data = append(data, bytes.Repeat([]byte{byte(s)}, a)...)
		a, b = b, a+b
	}
	if len(data) >= huffBlock {
		t.Fatalf("%d bytes span blocks; the test needs one histogram", len(data))
	}
	var w huffWriter
	var out bytes.Buffer
	w.reset(&out)
	w.Write(data)
	w.Close()
	checkHuffLimits(t, &w)
	if deepest := slices.Max(w.lens[:]); deepest != 15 {
		t.Fatalf("deepest literal code %d bits, want the limit, 15", deepest)
	}
	huffRoundTrip(t, data, 0)

	freq := make([]uint32, 19)
	a, b = 1, 1
	for s := range freq {
		freq[s] = uint32(a)
		a, b = b, a+b
	}
	w.lengths(freq, w.clLens[:], 7)
	checkHuffLimits(t, &w)
	if deepest := slices.Max(w.clLens[:]); deepest != 7 {
		t.Fatalf("deepest code-length code %d bits, want the limit, 7", deepest)
	}
}

// TestHuffmanLengthsOptimal compares the cost (Σ count·length) of the
// unclamped codes lengths builds with a textbook Huffman merge over
// random histograms.
func TestHuffmanLengthsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var w huffWriter
	for trial := 0; trial < 500; trial++ {
		freq := make([]uint32, 2+rng.Intn(256))
		for s := range freq {
			if rng.Intn(4) > 0 {
				freq[s] = uint32(1 + rng.Intn(1+rng.Intn(1000)))
			}
		}
		freq[0], freq[1] = freq[0]+1, freq[1]+1
		var want uint64 // each merge adds its sum once per level it sinks
		var nodes []uint64
		for _, f := range freq {
			if f > 0 {
				nodes = append(nodes, uint64(f))
			}
		}
		for len(nodes) > 1 {
			slices.Sort(nodes)
			sum := nodes[0] + nodes[1]
			want += sum
			nodes = append(nodes[2:], sum)
		}
		lens := make([]uint8, len(freq))
		w.lengths(freq, lens, 15)
		var got uint64
		for s, f := range freq {
			got += uint64(f) * uint64(lens[s])
		}
		if slices.Max(lens) < 15 && got != want {
			t.Fatalf("trial %d: code costs %d bits, Huffman %d", trial, got, want)
		}
		if got < want {
			t.Fatalf("trial %d: code costs %d bits, below Huffman's %d", trial, got, want)
		}
	}
}

// FuzzHuffmanRoundTrip inflates whatever the writer makes of arbitrary
// bytes, written whole or in chunks. The seeds stay small: the fuzzer
// minimizes every input that finds new coverage, and a large one stalls
// a short run. TestHuffmanBlockBoundaries covers multi-block streams.
func FuzzHuffmanRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0}, uint16(1))
	f.Add([]byte("abracadabra"), uint16(3))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 250}, 300), uint16(401))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		huffRoundTrip(t, data, int(chunk))
	})
}
