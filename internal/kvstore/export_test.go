package kvstore

// NewNode returns a node with the given name and configuration. It
// panics if the engine fails to open (only a cfg.Dir can make it); use
// OpenNode when the caller can handle the error.
func NewNode(name string, cfg NodeConfig) *Node {
	n, err := OpenNode(name, cfg)
	if err != nil {
		panic(err)
	}
	return n
}
