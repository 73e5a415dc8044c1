// Multiuser: the planet-scale story of the paper's title — users with
// wildly different devices and networks all running the same content.
//
// The first act replays the original five named clients, each now a
// fleet.SessionSpec, so the per-user picture stays visible: the LIWC
// controller lands every client on its own operating point. The second
// act scales the same population to a 24-session fleet sharing one
// 2-GPU remote cluster and capacity-limited cells, which is where the
// fleet-level admission, queueing and tail-latency machinery earns its
// keep.
//
// Run with:
//
//	go run ./examples/multiuser
package main

import (
	"fmt"

	"qvr/internal/fleet"
	"qvr/internal/gpu"
	"qvr/internal/motion"
	"qvr/internal/netsim"
	"qvr/internal/pipeline"
	"qvr/internal/scene"
)

// namedSpec builds one hand-picked client session.
func namedSpec(name, appName string, freqMHz float64, cond netsim.Condition, p motion.Profile, seed int64) fleet.SessionSpec {
	app, ok := scene.AppByName(appName)
	if !ok {
		panic("unknown app " + appName)
	}
	cfg := pipeline.DefaultConfig(pipeline.QVR, app)
	cfg.GPU = cfg.GPU.WithFrequency(freqMHz)
	cfg.Network = cond
	cfg.Profile = p
	cfg.Seed = seed
	return fleet.SessionSpec{Name: name, Config: cfg}
}

func printSessions(r fleet.Result) {
	fmt.Printf("%-22s %-8s %7s %-9s %8s %6s %8s %10s\n",
		"client", "app", "GPU", "network", "MTP(ms)", "FPS", "e1(deg)", "KB/frame")
	for _, sr := range r.Sessions {
		cfg, st := sr.Config, sr.Stats
		fmt.Printf("%-22s %-8s %5.0fMHz %-9s %8.1f %6.0f %8.1f %10.1f\n",
			sr.Name, cfg.App.Name, cfg.GPU.FrequencyMHz, cfg.Network.Name,
			st.AvgMTPSeconds*1000, st.FPS, st.AvgE1, st.AvgBytesSent/1024)
	}
	for _, sp := range r.Dropped {
		fmt.Printf("%-22s %-8s %s\n", sp.Name, sp.Config.App.Name, "DROPPED (cluster full)")
	}
}

func main() {
	// Act 1: five named clients, uncontended — every controller finds
	// its own fovea size: big where the GPU is strong or the network
	// weak, small where streaming is cheap.
	named := fleet.Config{
		Specs: []fleet.SessionSpec{
			namedSpec("flagship/home-wifi", "GRID", 500, netsim.WiFi, motion.Intense, 1),
			namedSpec("flagship/commute-lte", "GRID", 500, netsim.LTE4G, motion.Calm, 2),
			namedSpec("midrange/home-wifi", "HL2-H", 400, netsim.WiFi, motion.Normal, 3),
			namedSpec("budget/5g", "UT3", 300, netsim.Early5G, motion.Normal, 4),
			namedSpec("budget/lte", "Doom3-L", 300, netsim.LTE4G, motion.Calm, 5),
		},
	}
	fmt.Println("=== five named clients, uncontended cluster ===")
	printSessions(fleet.Run(named))

	// Act 2: the same population as a 24-session fleet sharing a 2-GPU
	// remote cluster (8 full-speed slots, 16-deep with queueing) and
	// cells that hold 6 sessions before bandwidth splits.
	mix, _ := fleet.MixByName("mixed")
	specs, err := mix.Specs(24, pipeline.QVR, 120, 40, 7)
	if err != nil {
		panic(err)
	}
	cluster := gpu.DefaultRemote()
	cluster.GPUs = 2
	loaded := fleet.Run(fleet.Config{
		Specs:        specs,
		Admission:    fleet.Admission{Cluster: cluster},
		CellCapacity: 6,
	})
	fmt.Println("\n=== 24-session fleet on a shared 2-GPU cluster ===")
	printSessions(loaded)
	s := loaded.Summarize()
	fmt.Println()
	fmt.Println(loaded)
	fmt.Printf("cluster load %.2fx capacity, %.2f ms queue per request; %.0f%% of sessions hold 90 FPS\n",
		s.Load, s.QueueMs, s.TargetShare*100)
}
