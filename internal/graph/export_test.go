package graph

// DenseGhostIndex reports whether l's ghost index took the dense layout (a
// table indexed by global ID) rather than the hash, so that the builder
// tests can show they reach both.
func (l *LocalGraph) DenseGhostIndex() bool { return l.ghosts.dense }
