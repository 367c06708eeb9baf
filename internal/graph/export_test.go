package graph

// DenseGhostIndex reports whether l's ghost index took the dense layout (a
// table indexed by global ID) rather than the hash, so that the builder
// tests can show they reach both.
func (l *LocalGraph) DenseGhostIndex() bool { return l.ghosts.dense }

// OrientThreads is Orient on the given number of workers.
func OrientThreads(threads int, g *Graph) *OutGraph { return orient(threads, g) }

// EdgesThreads is g.Edges on the given number of workers.
func EdgesThreads(threads int, g *Graph) []Edge { return g.edges(threads) }

// Arrays returns o's row offsets and entries.
func (o *OutGraph) Arrays() (off []int64, out []Vertex) { return o.off, o.out }
