package microbatch

// Results returns a copy of all carried state.
func (e *Engine) Results() map[string][]byte {
	out := make(map[string][]byte, len(e.state))
	for k, v := range e.state {
		out[k] = v
	}
	return out
}
