package cliout

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiling support shared by the fleet-facing commands. The
// measure-then-tune loop needs profiles of the real workload, not a
// synthetic benchmark: qvr-fleet, qvr-scenario and qvr-capacity all take
// -cpuprofile/-memprofile flags and run the identical two-line hook.

// StartProfiles begins CPU profiling into cpuPath and arranges a heap
// profile into memPath; either may be empty to skip. It returns a
// stop function the command must call before exiting: it flushes the
// CPU profile and writes the heap profile after a final GC, so the
// snapshot reflects live memory at end of run rather than transient
// garbage.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cliout: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cliout: cpu profile: %w", err)
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	} else {
		stop = stopNothing
	}
	if memPath != "" {
		prev := stop
		stop = func() {
			prev()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cliout: mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the end-of-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cliout: mem profile: %v\n", err)
			}
		}
	}
	return stop, nil
}

// stopNothing is the no-op base of the stop chain.
func stopNothing() {}
