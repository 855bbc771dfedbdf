package fifo

import (
	"slices"
	"testing"
)

// appendCapped is the shifting reference: append, dropping the oldest
// entry once the buffer holds limit entries.
func appendCapped[T any](buf []T, v T, limit int) []T {
	if len(buf) >= limit {
		copy(buf, buf[1:])
		buf = buf[:len(buf)-1]
	}
	return append(buf, v)
}

func TestWindowMatchesShiftingBuffer(t *testing.T) {
	for _, limit := range []int{1, 2, 3, 7, 64} {
		var w Window[int]
		var ref []int
		for i := 0; i < 10*limit+5; i++ {
			w.Push(i, limit)
			ref = appendCapped(ref, i, limit)
			if !slices.Equal(w.Items(), ref) || w.Len() != len(ref) {
				t.Fatalf("limit %d push %d: window %v, shifting buffer %v", limit, i, w.Items(), ref)
			}
		}
		if cap(w.buf) > 2*limit {
			t.Fatalf("limit %d: backing array grew to %d", limit, cap(w.buf))
		}
	}
}

func TestWindowReleasesEvicted(t *testing.T) {
	var w Window[*int]
	for i := 0; i < 20; i++ {
		v := i
		w.Push(&v, 4)
	}
	for i, p := range w.buf[:cap(w.buf)] {
		live := i >= w.start && i < len(w.buf)
		if !live && p != nil {
			t.Fatalf("slot %d outside the live range still holds a pointer", i)
		}
	}
	w.Reset()
	if w.Len() != 0 || w.Items() != nil {
		t.Fatal("Reset left entries behind")
	}
}

func TestWindowPushAllocs(t *testing.T) {
	var w Window[float64]
	for i := 0; i < 1024; i++ {
		w.Push(float64(i), 512)
	}
	if n := testing.AllocsPerRun(1000, func() { w.Push(1, 512) }); n != 0 {
		t.Fatalf("steady-state Push allocates %v times", n)
	}
}
