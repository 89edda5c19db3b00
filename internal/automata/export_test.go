package automata

// Materializations returns how many times a composed automaton has named
// states (see materialize) since the process started.
func Materializations() int64 { return materializations.Load() }

// NumLayouts returns how many label layouts the universe holds.
func (cu *CompiledUniverse) NumLayouts() int {
	cu.layoutMu.Lock()
	defer cu.layoutMu.Unlock()
	return len(cu.layouts)
}
