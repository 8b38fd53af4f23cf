package image

import (
	"bytes"
	"testing"
)

func TestSizesProduceDistinctRenders(t *testing.T) {
	var prev []byte
	for _, size := range Sizes() {
		data, err := Render(9, size.Pixels())
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && bytes.Equal(prev, data) {
			t.Fatalf("size %s rendered identically to the previous size", size)
		}
		prev = data
	}
}

func TestLargerSizesCostMoreBytes(t *testing.T) {
	small, _ := Render(9, SizeIcon.Pixels())
	big, _ := Render(9, SizeFull.Pixels())
	if len(big) <= len(small) {
		t.Fatalf("full (%d B) should out-size icon (%d B)", len(big), len(small))
	}
}

func TestCacheKeysIsolateSizes(t *testing.T) {
	s := New(0)
	pngs := s.Images([]Item{{3, SizeIcon}, {3, SizeFull}})
	if pngs[0] == nil || bytes.Equal(pngs[0], pngs[1]) {
		t.Fatal("cache conflated sizes")
	}
	if s.Cache().Len() != 2 {
		t.Fatalf("cache entries = %d, want 2", s.Cache().Len())
	}
}
