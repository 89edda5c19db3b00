package obs

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
)

// Profiling hooks: opt-in runtime/pprof capture plus per-phase pprof
// labels, so CPU samples of a long sweep attribute to the loop phase
// (compose / check / replay / probe) they were taken in and flamegraphs
// stay readable across hundreds of iterations.

// cpuProfiling is set while a CPU profile started by StartCPUProfile
// runs; WithPhase attaches its label only then. It is process state, as
// the runtime allows one CPU profile per process.
var cpuProfiling atomic.Bool

// StartCPUProfile begins writing a CPU profile to the file and returns a
// stop function that finishes the profile and closes the file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	cpuProfiling.Store(true)
	return func() error {
		cpuProfiling.Store(false)
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile captures a heap profile (after a GC, so the live set is
// accurate) to the file.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	return nil
}

// WithPhase runs f, with the pprof label phase=name attached to the
// goroutine while a CPU profile started by StartCPUProfile runs, so
// profile samples taken inside attribute to the phase. Without a profile
// it costs one atomic load. Labels do not nest: when f returns, the
// goroutine's labels are cleared.
func WithPhase(name string, f func() error) error {
	if !cpuProfiling.Load() {
		return f()
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		err = f()
	})
	return err
}
