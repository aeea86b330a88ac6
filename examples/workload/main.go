// workload demonstrates the flow-level traffic subsystem: a BA-family
// AS map under a Poisson session workload with heavy-tailed (Pareto)
// flow sizes, simulated across a sweep of load factors. Flows arrive on
// gravity-weighted origin-destination pairs, follow shortest paths, and
// share link bandwidth max-min fairly; the printout tracks how flow
// completion times stretch and links saturate as offered load crosses
// the network's capacity region — the flow-level stability picture of
// the Garg-Young and Feuillet lines of work.
//
// Everything is seeded: the same run reproduces bit for bit at any
// -workers width (workers only shard shortest-path tree construction).
package main

import (
	"flag"
	"fmt"
	"log"

	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

func main() {
	workers := flag.Int("workers", 0, "tree-build pool; 0 = GOMAXPROCS (never changes results)")
	n := flag.Int("n", 2000, "map size")
	flag.Parse()

	top, err := gen.BA{N: *n, M: 2, A: -1.2}.Generate(rng.New(7))
	if err != nil {
		log.Fatal(err)
	}
	snap, err := top.G.FreezeChecked()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d ASs, %d links\n", snap.N(), snap.M())

	// One engine per snapshot: the workload simulations below share its
	// memoized routing state (shortest-path trees) across load levels.
	eng := engine.New(snap, engine.WithWorkers(*workers))
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}

	fmt.Println("\nPoisson arrivals, Pareto sizes (tail 1.5), 30 epochs:")
	fmt.Printf("%6s %9s %9s %9s %8s %8s\n", "load", "arrived", "done", "fct", "util", "overload")
	for _, load := range []float64{0.1, 0.3, 0.6, 1.0, 1.5} {
		spec := traffic.WorkloadSpec{LoadFactor: load, Epochs: 30}
		rep, err := traffic.SimulateWith(eng, masses, spec, rng.New(11))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6.2f %9d %9d %9.3f %7.1f%% %7.1f%%\n",
			load, rep.Arrived, rep.Completed, rep.MeanFCT, 100*rep.MeanUtil, 100*rep.OverloadFrac)
	}

	// The same offered load, bursty: on-off (Markov-modulated) sources
	// concentrate arrivals into on-periods and stretch completions.
	fmt.Println("\nsmooth vs bursty at load 0.6:")
	for _, arrivals := range []string{"poisson", "onoff"} {
		spec := traffic.WorkloadSpec{LoadFactor: 0.6, Epochs: 30, Arrivals: arrivals}
		rep, err := traffic.SimulateWith(eng, masses, spec, rng.New(11))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s mean FCT %7.3f, overload %5.1f%%, util p-tail:", arrivals, rep.MeanFCT, 100*rep.OverloadFrac)
		for _, b := range rep.UtilCCDF {
			if b.Util >= 0.9 {
				fmt.Printf(" P[u>=%.2f]=%.3f", b.Util, b.Frac)
			}
		}
		fmt.Println()
	}
}
