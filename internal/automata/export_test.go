package automata

// Materializations returns how many times a composed automaton has named
// states (see materialize) since the process started.
func Materializations() int64 { return materializations.Load() }
