package lsm

// Ops reports how many operations of each kind have been issued; crash
// tests use it to enumerate fault points exhaustively.
func (fs *MemFS) Ops() map[Op]int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[Op]int, len(fs.count))
	for k, v := range fs.count {
		out[k] = v
	}
	return out
}
