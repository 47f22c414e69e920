package memsim

// Test-only views of the hierarchy. Production code reads none of
// these: the simulator persists lines through CleanOlder and DrainDirty
// and never asks where a line is.

// CleanAll is CleanOlder with no age filter: every dirty line is
// written back to NVMM but *not* evicted (clwb-like). Lines stay valid
// and resident; their dirty state clears. It returns the number of
// lines written.
func (h *Hierarchy) CleanAll(now int64) int {
	return h.CleanOlder(now, 0)
}

// DirtyLines returns how many lines are currently dirty in the hierarchy.
func (h *Hierarchy) DirtyLines() int {
	n := 0
	h.l2.forEachValid(func(_ int, la Addr, l2l *cacheLine) {
		if l2l.state == stateModified {
			n++
			return
		}
		if own := l2l.dirtyOwner; own >= 0 {
			if oi := h.l1[own].lookup(la); oi >= 0 && h.l1[own].lines[oi].state == stateModified {
				n++
			}
		}
	})
	return n
}

// Cached reports whether the line containing a is resident anywhere.
func (h *Hierarchy) Cached(a Addr) bool { return h.l2.lookup(LineOf(a)) >= 0 }
