package miner

import "testing"

// TestScratchFreeListBounded pins the free list's overflow path: taking more
// scratches than it holds allocates distinct fresh ones, and returning them
// all keeps at most its capacity and drops the rest without blocking.
func TestScratchFreeListBounded(t *testing.T) {
	held := make([]*dfsScratch, cap(scratchFree)+2)
	seen := make(map[*dfsScratch]bool)
	for i := range held {
		held[i] = getScratch()
		if seen[held[i]] {
			t.Fatalf("scratch %d handed out twice", i)
		}
		seen[held[i]] = true
	}
	for _, sc := range held {
		putScratch(sc)
	}
	if len(scratchFree) != cap(scratchFree) {
		t.Fatalf("free list holds %d scratches, want its capacity %d", len(scratchFree), cap(scratchFree))
	}
	for range cap(scratchFree) {
		if sc := getScratch(); !seen[sc] {
			t.Fatal("free list handed out a scratch it was never given")
		}
	}
}
