// Package bfs implements the level-synchronous breadth-first-search engine
// that underlies F-Diam and all baselines: serial top-down expansion,
// serial and parallel bottom-up passes, the direction-optimized hybrid of
// the paper's Algorithm 2, partial and multi-source traversals, and
// counter-based visited marks that avoid per-traversal resets (paper §4).
package bfs

import "fdiam/internal/graph"

// Marks is the counter-based visited set shared by all traversals of one
// engine. A vertex is visited in the current traversal iff its counter
// equals the current epoch; starting a new traversal just bumps the epoch,
// so no O(n) reset is needed between the thousands of partial BFS calls
// F-Diam issues (paper §4: "we use a counter rather than a flag to avoid a
// costly reset procedure"). Because a visit only ever writes the current
// epoch, writing it again is harmless: the serial top-down kernel stores
// it on every arc it scans, visited target or not, instead of branching on
// the old value (see topDownSerial).
type Marks struct {
	cnt   []uint32
	epoch uint32
}

// Next starts a new traversal epoch. On the (astronomically rare) uint32
// wraparound the counter array is cleared so stale marks cannot alias.
func (m *Marks) Next() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.cnt {
			m.cnt[i] = 0
		}
		m.epoch = 1
	}
}

// Visited reports whether v has been visited in the current epoch.
func (m *Marks) Visited(v graph.Vertex) bool { return m.cnt[v] == m.epoch }

// Visit marks v visited. Not safe for concurrent writers to the same vertex.
func (m *Marks) Visit(v graph.Vertex) { m.cnt[v] = m.epoch }
