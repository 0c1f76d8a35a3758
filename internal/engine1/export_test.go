package engine1

// WorkerFor reports which worker owns <key, fn> right now; tests use
// it to assert the single-writer property.
func (e *Engine) WorkerFor(fn, key string) string {
	if r := e.rings[fn]; r != nil {
		return r.Lookup(key)
	}
	return ""
}
