package microbatch

// This file generalizes the package's batching machinery for use
// outside the map/reduce baseline: the slate layer's group-commit
// flush pipeline chunks drained dirty slates through these helpers
// before handing each chunk to the key-value store as a single
// multi-record operation.

// Chunk splits items into consecutive batches of at most max items.
// With max <= 0 everything lands in one batch. The returned batches
// alias the input slice; callers must not append to them.
func Chunk[T any](items []T, max int) [][]T {
	if len(items) == 0 {
		return nil
	}
	if max <= 0 || max >= len(items) {
		return [][]T{items}
	}
	out := make([][]T, 0, (len(items)+max-1)/max)
	for start := 0; start < len(items); start += max {
		end := start + max
		if end > len(items) {
			end = len(items)
		}
		out = append(out, items[start:end])
	}
	return out
}

// ChunkBy splits items into consecutive batches bounded by both a
// maximum item count and a maximum total size, where size reports one
// item's weight (bytes, typically). A single item larger than maxSize
// still gets its own batch — the bound is best-effort, never starving.
// With maxItems <= 0 the count bound is off; with maxSize <= 0 the
// size bound is off. The returned batches alias the input slice.
func ChunkBy[T any](items []T, maxItems int, maxSize int64, size func(T) int64) [][]T {
	if len(items) == 0 {
		return nil
	}
	if maxSize <= 0 || size == nil {
		return Chunk(items, maxItems)
	}
	var out [][]T
	start := 0
	var acc int64
	n := 0
	for i, it := range items {
		w := size(it)
		if n > 0 && (acc+w > maxSize || (maxItems > 0 && n >= maxItems)) {
			out = append(out, items[start:i])
			start, acc, n = i, 0, 0
		}
		acc += w
		n++
	}
	return append(out, items[start:])
}
