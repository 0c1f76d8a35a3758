package slate

import (
	"slices"
	"strings"
	"testing"
)

// records is one flush record per size, its value that many bytes.
func records(sizes ...int) []BatchRecord {
	recs := make([]BatchRecord, len(sizes))
	for i, n := range sizes {
		recs[i] = BatchRecord{K: Key{Updater: "U", Key: string(rune('a' + i%26))}, Value: []byte(strings.Repeat("x", n))}
	}
	return recs
}

// batches cuts recs as FlushDirty does and returns the batch sizes.
func batches(recs []BatchRecord, maxItems int, maxBytes int64) []int {
	var out []int
	for rest := recs; len(rest) > 0; {
		b := flushBatch(rest, maxItems, maxBytes)
		if len(b) == 0 || &b[0] != &rest[0] {
			panic("flushBatch returned no batch, or not the leading records")
		}
		out = append(out, len(b))
		rest = rest[len(b):]
	}
	return out
}

func TestChunkSplitsEvenly(t *testing.T) {
	if got := batches(records(1, 1, 1, 1, 1, 1, 1), 3, 0); !slices.Equal(got, []int{3, 3, 1}) {
		t.Fatalf("batches = %v", got)
	}
}

func TestChunkEdgeCases(t *testing.T) {
	if got := batches(nil, 3, 0); got != nil {
		t.Fatalf("empty input = %v", got)
	}
	if got := batches(records(1, 1), 0, 0); !slices.Equal(got, []int{2}) {
		t.Fatalf("no bounds = %v, want single batch", got)
	}
	if got := batches(records(1, 1), 10, 100); !slices.Equal(got, []int{2}) {
		t.Fatalf("bounds past the input = %v, want single batch", got)
	}
}

func TestChunkBySizeBound(t *testing.T) {
	// 4+2 = 6 fits; 4+1 = 5 fits, adding 5 would be 10.
	if got := batches(records(4, 2, 4, 1, 5), 0, 6); !slices.Equal(got, []int{2, 2, 1}) {
		t.Fatalf("batches = %v", got)
	}
}

func TestChunkByOversizedItemGetsOwnBatch(t *testing.T) {
	if got := batches(records(5, 28, 4), 0, 8); !slices.Equal(got, []int{1, 1, 1}) {
		t.Fatalf("batches = %v, want each record alone", got)
	}
}

func TestChunkByCountBound(t *testing.T) {
	if got := batches(records(1, 1, 1, 1, 1), 2, 1<<20); !slices.Equal(got, []int{2, 2, 1}) {
		t.Fatalf("batches = %v, want 2, 2, 1 under the count bound", got)
	}
}

func TestChunkByCoversAllItems(t *testing.T) {
	sizes := make([]int, 1000)
	for i := range sizes {
		sizes[i] = 13
	}
	recs := records(sizes...)
	n := 0
	for _, b := range batches(recs, 7, 100) {
		// 7 records of 13 bytes are 91 bytes: the count bound cuts first.
		if b > 7 {
			t.Fatalf("a batch of %d records, count bound 7", b)
		}
		n += b
	}
	if n != 1000 {
		t.Fatalf("covered %d records, want 1000", n)
	}
}
